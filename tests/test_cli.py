import contextlib
import dataclasses
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoshift import approx, cli, measures, transfer
from thermoshift import shift as shift_module
from thermoshift.cli import ConfigError, main, parse_config

GOLDEN_THEOREM1 = """
[shift]
system = golden-range2

[experiment]
kind = theorem1
trials = 8
seed = 5
"""


PERTURBATION = '[perturbation]\nrange = 2\ndefault = 0.1\nvalue "ab" = -0.2\n'
OCCUPATION = '[observable occ]\nvalue "a" = 1.0\ndefault = 0.0\n'


def run_main(args):
    return main(args)


def test_parse_minimal_config():
    cfg = parse_config(GOLDEN_THEOREM1)
    assert cfg.kind == "theorem1"
    assert cfg.seed == 5
    assert cfg.shift.n == 2
    assert cfg.phi.depth == 2


def test_parse_explicit_shift_and_tables():
    cfg = parse_config(
        """
[shift]
states = a b
edges = aa ab ba

[potential]
range = 2
value "aa" = 0.25
value "ab" = -0.4
value "ba" = 0.1

[observable occ]
value "a" = 1.0
default = 0.0

[experiment]
kind = corollary3
observable = occ
"""
    )
    assert cfg.phi.evaluate((0, 1)) == -0.4
    assert cfg.observables["occ"].evaluate((1,)) == 0.0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[shift]\nbuiltin = golden-mean\nnonsense line\n")
    with pytest.raises(ConfigError, match="line 4.*not admissible"):
        parse_config(
            "[shift]\nbuiltin = golden-mean\n[potential]\n"
            'value "bb" = 1.0\n[experiment]\nkind = pressure\n'
        )
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        parse_config("[shift]\nbuiltin = full-2\n[experiment]\nkind = nope\n")
    with pytest.raises(ConfigError, match="undefined observable"):
        parse_config(
            "[shift]\nbuiltin = full-2\n[experiment]\nkind = corollary3\n"
            "observable = ghost\n"
        )
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config("[shift]\nbuiltin = full-2\n")


def test_parse_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(
            "[shift]\nbuiltin = full-2\nbuiltin = full-2\n[experiment]\nkind = pressure\n"
        )


def test_list_builtins(capsys):
    assert run_main(["--list-builtins"]) == 0
    out = capsys.readouterr().out
    assert "golden-mean" in out
    assert "tribonacci" in out
    assert "full2-bernoulli" in out


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert run_main(["run", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("argv", [[], ["run"]], ids=["no-command", "no-config"])
def test_a_run_without_a_config_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_main(argv)
    assert exc.value.code == 2
    assert "expected: thermoshift run <config> (or --list-builtins)" in capsys.readouterr().err


def test_theorem1_csv_contract(tmp_path):
    cfg = tmp_path / "t1.cfg"
    cfg.write_text(GOLDEN_THEOREM1)
    out = tmp_path / "out"
    assert run_main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "theorem1.csv").read_text().splitlines()
    assert lines[0] == "trial,seed,pressure_gap,f_norm,lhs,rhs,slack,vacuous"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "5"
    assert float(first[6]) >= 0.0
    assert first[7] == "false"


def test_determinism_byte_identical(tmp_path):
    cfg = tmp_path / "t1.cfg"
    cfg.write_text(GOLDEN_THEOREM1)
    one, two = tmp_path / "one", tmp_path / "two"
    assert run_main(["run", str(cfg), "--out", str(one)]) == 0
    assert run_main(["run", str(cfg), "--out", str(two)]) == 0
    assert (one / "theorem1.csv").read_bytes() == (two / "theorem1.csv").read_bytes()


def test_seed_override_changes_rows(tmp_path):
    cfg = tmp_path / "t1.cfg"
    cfg.write_text(GOLDEN_THEOREM1)
    one, two = tmp_path / "one", tmp_path / "two"
    assert run_main(["run", str(cfg), "--out", str(one)]) == 0
    assert run_main(["run", str(cfg), "--out", str(two), "--seed", "99"]) == 0
    assert (one / "theorem1.csv").read_bytes() != (two / "theorem1.csv").read_bytes()


def test_pressure_experiment(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[shift]\nbuiltin = golden-mean\n[experiment]\nkind = pressure\n")
    out = tmp_path / "out"
    assert run_main(["run", str(cfg), "--out", str(out)]) == 0
    rows = dict(
        line.split(",") for line in (out / "pressure.csv").read_text().splitlines()[1:]
    )
    golden = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    assert float(rows["pressure"]) == pytest.approx(golden, abs=1e-10)
    assert float(rows["b"]) == pytest.approx(
        (1.0 / math.sqrt(2.0) + math.sqrt(2.0)) * float(rows["a"]), abs=1e-12
    )


def test_gibbs_experiment(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text(
        "[shift]\nsystem = full2-bernoulli\n[experiment]\nkind = gibbs\nn-max = 6\n"
    )
    out = tmp_path / "out"
    assert run_main(["run", str(cfg), "--out", str(out)]) == 0
    row = (out / "gibbs.csv").read_text().splitlines()[1].split(",")
    assert abs(float(row[3]) - 1.0) <= 1e-12


def test_partition_sums_experiment(tmp_path):
    cfg = tmp_path / "ps.cfg"
    cfg.write_text(
        "[shift]\nbuiltin = golden-mean\n[experiment]\nkind = partition-sums\nn = 1..10\n"
    )
    out = tmp_path / "out"
    assert run_main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "partition-sums.csv").read_text().splitlines()
    assert lines[0] == "n,enumeration,matrix,rel_err,rate,residual"
    assert len(lines) == 11


def test_corollary1_experiment(tmp_path):
    cfg = tmp_path / "c1.cfg"
    cfg.write_text(
        "[shift]\nmodel = geometric(0.5)\n"
        '[observable occ]\nvalue "1" = 1.0\n'
        "[experiment]\nkind = corollary1\nn = 2..20\nobservable = occ\n"
    )
    out = tmp_path / "out"
    assert run_main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "corollary1.csv").read_text().splitlines()
    assert len(lines) == 20
    for line in lines[1:]:
        n, gap = line.split(",")[:2]
        assert float(gap) == pytest.approx(-math.log(1.0 - 2.0 ** -int(n)), abs=1e-12)


def test_corollary2_needs_short_range(tmp_path, capsys):
    cfg = tmp_path / "c2.cfg"
    cfg.write_text(
        "[shift]\nbuiltin = golden-mean\n"
        "[potential]\nrange = 3\ndefault = 0.1\n"
        "[experiment]\nkind = corollary2\n"
    )
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "range at most 2" in capsys.readouterr().err


def test_identities_experiment(tmp_path, capsys):
    cfg = tmp_path / "id.cfg"
    cfg.write_text("[experiment]\nkind = identities\ntrials = 3\nk-max = 6\nn-max = 6\n")
    out = tmp_path / "out"
    assert run_main(["run", str(cfg), "--out", str(out)]) == 0
    text = (out / "identities.csv").read_text()
    assert text.splitlines()[0] == "system,check,value,tolerance,ok"
    assert "cohomology" in text
    assert "kl-pressure" in text
    assert ",false" not in text
    summary = capsys.readouterr().out
    assert "result: PASS" in summary


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "thermoshift", "--list-builtins"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "golden-mean" in proc.stdout


def test_unknown_state_error_keeps_line_number(tmp_path, capsys):
    cfg = tmp_path / "u.cfg"
    cfg.write_text(
        "[shift]\nstates = a b\nedges = ab ba bb\n"
        '[potential]\nrange = 2\ndefault = 0.0\nvalue "az" = 1\n'
        "[experiment]\nkind = pressure\n"
    )
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "line 7: unknown state 'z'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_values_rejected_at_parse(text):
    with pytest.raises(ConfigError, match="line 5.*finite"):
        parse_config(
            "[shift]\nbuiltin = full-2\n[potential]\ndefault = 0.0\n"
            f'value "a" = {text}\n[experiment]\nkind = pressure\n'
        )


def near_periodic_config(value):
    return (
        "[shift]\nstates = a b\nedges = ab ba bb\n"
        f'[potential]\nrange = 2\ndefault = 0.0\nvalue "bb" = {value}\n'
        "[experiment]\nkind = pressure\n"
    )


@pytest.mark.parametrize("value", ["-5", "-20"])
def test_near_periodic_run_answers(tmp_path, value):
    cfg = tmp_path / "np.cfg"
    cfg.write_text(near_periodic_config(value))
    out = tmp_path / "out"
    assert run_main(["run", str(cfg), "--out", str(out)]) == 0
    rows = dict(
        line.split(",") for line in (out / "pressure.csv").read_text().splitlines()[1:]
    )
    assert 0.0 < 1.0 - float(rows["kappa"]) < 1e-2


def test_gap_below_float_resolution_exits_2(tmp_path, capsys):
    cfg = tmp_path / "np.cfg"
    cfg.write_text(near_periodic_config("-35"))
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "kappa = 0.99999" in capsys.readouterr().err


def test_csv_booleans_have_one_spelling(tmp_path):
    cfg = tmp_path / "id.cfg"
    cfg.write_text("[experiment]\nkind = identities\ntrials = 2\nk-max = 4\nn-max = 4\n")
    out = tmp_path / "out"
    assert run_main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "identities.csv").read_text().splitlines()
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"true"}


@pytest.mark.parametrize(
    "potential, message",
    [
        ('default = 0.0\nvalue "ab" = 1000', 'value 1000.0 on word "ab" overflows'),
        (
            'value "aa" = -3\nvalue "ab" = -6\nvalue "ba" = -18\nvalue "bb" = 19',
            "gap prefactor c = inf",
        ),
    ],
)
def test_unrepresentable_constants_exit_2(tmp_path, capsys, potential, message):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        "[shift]\nstates = a b\nedges = aa ab ba bb\n"
        f"[potential]\nrange = 2\n{potential}\n"
        "[experiment]\nkind = pressure\n"
    )
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("model", ["geometric(0.5)", "zeta(2)"])
def test_corollary2_default_model_runs_k_3_to_12(tmp_path, capsys, model):
    cfg = tmp_path / "c2.cfg"
    cfg.write_text(f"[shift]\nmodel = {model}\n[experiment]\nkind = corollary2\n")
    out = tmp_path / "out"
    assert run_main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "corollary2.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [str(k) for k in range(3, 13)]
    summary = capsys.readouterr().out
    assert "check slack-nonnegative: PASS" in summary
    assert "check orbit-entropy-identity: PASS" in summary


# pi has entries near 4e-16 here, so the reversed kernel's rows miss 1 by
# about 1.8e-4 and its powers never approach 1 pi
INACCURATE_PI = (
    "[shift]\nstates = a b c d\nedges = aa ac bc cb cc cd da db dd\n"
    "[potential]\nrange = 2\n"
    'value "aa" = 0.047053\nvalue "ac" = -0.169062\nvalue "bc" = -6.895943\n'
    'value "cb" = -0.724135\nvalue "cc" = 0.299483\nvalue "cd" = -9.739944\n'
    'value "da" = 2.607777\nvalue "db" = 9.590897\nvalue "dd" = 9.385795\n'
    "[experiment]\nkind = pressure\n"
)


def test_non_stochastic_reversed_kernel_exits_2(tmp_path, capsys):
    cfg = tmp_path / "pi.cfg"
    cfg.write_text(INACCURATE_PI)
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "reversed kernel rows miss 1 by up to 0.00018" in capsys.readouterr().err


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, thermoshift; print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "system, experiment, message",
    [
        ("golden-range2", "kind = partition-sums\nn = 5..3", "line 6: n = 5..3 is an empty range"),
        ("golden-range2", "kind = theorem2\nn = 5..3", "line 6: n = 5..3 is an empty range"),
        ("golden-range2", "kind = corollary2\nk = 9..4", "line 6: k = 9..4 is an empty range"),
        ("golden-range2", "kind = gibbs\nn-max = 0", "line 6: n-max must be at least 1, got 0"),
        ("golden-range2", "kind = gibbs\nn-max = -2", "line 6: n-max must be at least 1, got -2"),
        ("golden-range2", "kind = theorem1\ntrials = 0", "line 6: trials must be at least 1"),
        ("golden-range2", "kind = theorem2\ntrials = 0", "line 6: trials must be at least 1"),
        ("golden-range2", "kind = corollary3\ntrials = 0", "line 6: trials must be at least 1"),
        ("model = zeta(2)", "kind = corollary1\nn = 5..3", "line 6: n = 5..3 is an empty range"),
        ("model = geometric(0.5)", "kind = corollary2\nk = 9..4", "line 6: k = 9..4 is an empty range"),
        ("golden-range2", "kind = theorem1\nf-range = 0", "line 6: f-range must be at least 1, got 0"),
        # theorem2 derives ell from the potential and reads no ell key
        ("golden-range2", "kind = theorem2\nell = 0", "line 6: theorem2 does not read 'ell'"),
        # sizes and periods below the floors the library holds them to
        ("golden-range2", "kind = partition-sums\nn = 0..3", "line 6: n must be at least 1, got 0..3"),
        ("golden-range2", "kind = partition-sums\nn = -2", "line 6: n must be at least 1, got -2"),
        ("golden-range2", "kind = theorem2\nn = 0..3", "line 6: n must be at least 1, got 0..3"),
        ("model = geometric(0.5)", "kind = corollary1\nn = 0..3", "line 6: n must be at least 1, got 0..3"),
        ("model = zeta(2)", "kind = corollary1\nn = 0", "line 6: n must be at least 1, got 0"),
        ("golden-range2", "kind = corollary2\nk = 1..4", "line 6: k must be at least 3, got 1..4"),
        ("golden-range2", "kind = corollary2\nk = 2", "line 6: k must be at least 3, got 2"),
        ("model = geometric(0.5)", "kind = corollary2\nk = 0..4", "line 6: k must be at least 3, got 0..4"),
        ("model = geometric(0.5)", "kind = corollary2\nn = 1", "line 6: n must be at least 2, got 1"),
        ("model = zeta(2)", "kind = corollary2\nn = -3", "line 6: n must be at least 2, got -3"),
    ],
)
def test_empty_ranges_and_zero_counts_exit_2(
    tmp_path, capsys, monkeypatch, system, experiment, message
):
    def no_run(cfg):
        raise AssertionError("a refused config reached the experiment")

    # refused while parsing, before any solve
    monkeypatch.setattr(cli, "run_experiment", no_run)
    shift = system if system.startswith("model") else f"system = {system}"
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"[shift]\n{shift}\n\n[experiment]\n{experiment}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "shift, experiment",
    [
        ("system = golden-range2", "kind = partition-sums\nn = 1..2"),
        ("model = geometric(0.5)", "kind = corollary1\nn = 1..3"),
        ("system = golden-range2", "kind = corollary2\nk = 3..4"),
        ("model = zeta(2)", "kind = corollary2\nn = 2\nk = 3"),
        ("model = zeta(2)", "kind = corollary1\nn = 1..20"),
    ],
)
def test_sizes_and_periods_at_their_floor_run(tmp_path, shift, experiment):
    cfg = tmp_path / "floor.cfg"
    cfg.write_text(f"[shift]\n{shift}\n\n[experiment]\n{experiment}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("entry", ["trials = 0", "k-max = 0", "n-max = -1"])
def test_identities_refuses_zero_counts(tmp_path, capsys, entry):
    cfg = tmp_path / "id.cfg"
    cfg.write_text(f"[experiment]\nkind = identities\n{entry}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"line 3: {entry.split()[0]} must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, message",
    [
        ("kind = theorem1\ntrails = 2", "line 6: theorem1 does not read 'trails'"),
        ("kind = theorem2\nobservable = occ", "line 6: theorem2 does not read 'observable'"),
        ("kind = theorem1\nmeasure = occ", "line 6: theorem1 does not read 'measure'"),
        ("kind = pressure\nn = 4", "line 6: pressure does not read 'n'; it reads kind, seed"),
        # theorem2 writes both forms on every run and reads no form key
        ("kind = theorem2\nform = nope", "line 6: theorem2 does not read 'form'"),
        ("kind = partition-sums\nstate = z", "line 6: unknown state 'z'"),
    ],
)
def test_unread_keys_and_unknown_values_exit_2_with_their_line(
    tmp_path, capsys, experiment, message
):
    cfg = tmp_path / "keys.cfg"
    cfg.write_text(
        f"[shift]\nsystem = golden-range2\n\n[experiment]\n{experiment}\n"
        '[observable occ]\nvalue "a" = 1.0\ndefault = 0.0\n'
    )
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_measure_sections_are_unknown():
    with pytest.raises(ConfigError, match=r"line 3: unknown section \[measure\]"):
        parse_config(
            "[shift]\nbuiltin = full-2\n[measure walk]\nrandom = 3\n"
            "[experiment]\nkind = pressure\n"
        )


def test_overflowing_partition_sum_exits_2_without_warnings(tmp_path, capsys):
    # B's powers pass the float range: both routes form them quietly and
    # refuse the first entry they read that is not finite
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        "[shift]\nstates = a b c\nedges = ab ac ba\n"
        '[potential]\nrange = 1\ndefault = 1\nvalue "a" = 700.0\nvalue "b" = -2.0\n'
        "[experiment]\nkind = partition-sums\n"
    )
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "error: partition sum at n=4 overflows a float" in capsys.readouterr().err


def test_partition_sums_name_the_first_overflowing_period(tmp_path, capsys):
    # on the period-2 shift the sums at the even periods 2 and 4 overflow: a
    # range is refused at its first failing period, in the order given
    text = (
        "[shift]\nstates = a b\nedges = ab ba\n"
        "[potential]\nrange = 1\ndefault = 400.0\n"
        "[experiment]\nkind = partition-sums\nn = 1..4\n"
    )
    cfg = tmp_path / "even.cfg"
    cfg.write_text(text)
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: partition sum at n=2 overflows a float: enumeration inf, matrix inf\n"
    )
    parsed = parse_config(text)
    with pytest.raises(ValueError, match=r"partition sum at n=4 overflows"):
        transfer.partition_sum(parsed.shift, parsed.phi, "a", [1, 4, 2])


def test_gurevich_estimate_refuses_only_the_entries_it_reads():
    cfg = parse_config(
        "[shift]\nstates = a b c\nedges = ab ac ba\n"
        '[potential]\nrange = 1\ndefault = 1\nvalue "a" = 700.0\nvalue "b" = -2.0\n'
        "[experiment]\nkind = partition-sums\n"
    )
    # (B^3) has entries past the float range, but not on the diagonal
    rows = transfer.gurevich_estimate(cfg.shift, cfg.phi, "a", 3)
    assert [n for n, _, _ in rows] == [2]
    with pytest.raises(ValueError, match=r"partition sum at n=4 overflows a float"):
        transfer.gurevich_estimate(cfg.shift, cfg.phi, "a", 4)


def test_partition_sums_answer_on_a_periodic_shift(tmp_path, capsys):
    # the period-2 shift is not mixing and its spectrum (1, -1) has no gap:
    # perron_data refuses it, but partition-sums solves its own B and answers
    cfg = tmp_path / "periodic.cfg"
    cfg.write_text(
        "[shift]\nstates = a b\nedges = ab ba\n\n[experiment]\nkind = partition-sums\nn = 1..6\n"
    )
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "check route-agreement: PASS" in capsys.readouterr().out
    rows = (tmp_path / "out" / "partition-sums.csv").read_text().splitlines()[1:]
    # enumeration and matrix: one period-n point through a at even n, none at odd
    sums = [row.split(",")[1:3] for row in rows]
    assert sums == [["0", "0"] if n % 2 else ["1", "1"] for n in range(1, 7)]


def test_flat_dirichlet_draws_what_dirichlet_draws():
    for seed in range(300):
        one = np.random.default_rng([seed, 6])
        two = np.random.default_rng([seed, 6])
        for _ in range(20):
            dim = int(one.integers(2, 9))
            assert dim == int(two.integers(2, 9))
            want = one.dirichlet([1.0] * dim)
            got = cli._flat_dirichlet(two, dim)
            assert got.tolist() == want.tolist()
        assert two.bit_generator.state == one.bit_generator.state


@pytest.mark.parametrize("kind", ["pressure", "gibbs", "corollary2"])
def test_overflowing_root_exits_2_without_warnings(tmp_path, capsys, kind):
    # every edge weight exp(709.7) is finite, but lambda = 2 exp(709.7) is not:
    # refused before the Gibbs kernel is divided by it
    cfg = tmp_path / "root.cfg"
    cfg.write_text(
        "[shift]\nbuiltin = full-2\n\n[potential]\nrange = 1\ndefault = 709.7\n\n"
        f"[experiment]\nkind = {kind}\n"
    )
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: dominant root inf overflows a float: the pressure is past the float range\n"
    )


def test_gurevich_estimate_refuses_an_overflowing_root(tmp_path, capsys):
    # the period-1 sums are finite, so the estimate is the first to read the
    # overflowing root; it is refused there, not written as a rate beside
    # an infinite residual
    cfg = tmp_path / "root.cfg"
    cfg.write_text(
        "[shift]\nbuiltin = full-2\n\n[potential]\nrange = 1\ndefault = 709.7\n\n"
        "[experiment]\nkind = partition-sums\nn = 1\n"
    )
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: dominant root inf overflows a float: the pressure is past the float range\n"
    )


# kappa = 2.8e-10 underflows in the gap probe, so no finite c exists: the
# kinds that read a constant refuse it, and gibbs, which reads none, answers
UNCERTIFIED = (
    "[shift]\nbuiltin = full-2\n\n[potential]\nrange = 2\n"
    'value "aa" = -3\nvalue "ab" = -6\nvalue "ba" = -18\nvalue "bb" = 19\n\n'
)


@pytest.mark.parametrize(
    "experiment, code",
    [("kind = pressure", 2), ("kind = corollary3\ntrials = 2", 2), ("kind = gibbs", 0)],
    ids=["pressure", "corollary3", "gibbs"],
)
def test_an_infinite_gap_prefactor_is_refused_where_it_is_read(
    tmp_path, capsys, experiment, code
):
    cfg = tmp_path / "uncertified.cfg"
    cfg.write_text(UNCERTIFIED + f"[experiment]\n{experiment}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert err == (
            "error: gap prefactor c = inf is not finite (kappa = 2.789468092868925e-10): "
            "the iterate norms cannot be certified\n"
        )
    else:
        assert err == "" and "result: PASS" in out


@pytest.mark.parametrize(
    "experiment, probes",
    [
        ("kind = gibbs", 0),
        ("kind = identities\ntrials = 2", 0),
        ("kind = partition-sums", 0),
        ("kind = pressure", 1),
        ("kind = theorem1\ntrials = 3", 1),
        ("kind = theorem2", 1),
        ("kind = corollary2", 1),
        ("kind = corollary3\ntrials = 3", 1),
    ],
    ids=lambda v: str(v).split("\n")[0].removeprefix("kind = "),
)
def test_the_gap_probe_runs_only_where_a_constant_is_read(
    tmp_path, monkeypatch, experiment, probes
):
    # the perturbed potentials of corollary3 are read for their pressure and
    # measure only, so the probe runs once, for the base potential
    calls = []
    probe = transfer._gap_prefactor
    monkeypatch.setattr(transfer, "_gap_prefactor", lambda *args: calls.append(1) or probe(*args))
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(SYSTEM + f"[experiment]\n{experiment}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == probes


def test_seeded_identities_run_with_a_drifting_reversed_row_passes(tmp_path, capsys):
    # its second random tribonacci measure gives a state mass 7.26e-8, and
    # that state's reversed row misses 1 by 1.19e-9
    cfg = tmp_path / "id.cfg"
    cfg.write_text(
        "[shift]\nsystem = golden-zero\n\n"
        "[experiment]\nkind = identities\ntrials = 2\nseed = 1780381541\n"
    )
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "check tribonacci-zero/kl-pressure: PASS" in capsys.readouterr().out
    assert len((tmp_path / "out" / "identities.csv").read_text().splitlines()) == 37


def test_module_entry_point_runs_under_warnings_as_errors(tmp_path):
    # python -m thermoshift goes through thermoshift/__main__.py, which runpy
    # does not find already imported by the package
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text("[shift]\nsystem = golden-range2\n\n[experiment]\nkind = pressure\n")
    proc = subprocess.run(
        [
            sys.executable, "-W", "error::RuntimeWarning", "-m", "thermoshift",
            "run", str(cfg), "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout
    assert (tmp_path / "out" / "pressure.csv").is_file()


# The three cross-checks below are judged by the experiment alone: a
# disagreement injected into one route prints FAIL, keeps the CSV, exits 1.


def run_failing(tmp_path, capsys, experiment, check):
    cfg = tmp_path / "fail.cfg"
    cfg.write_text(f"[shift]\nsystem = golden-range2\n\n[experiment]\n{experiment}\n")
    out = tmp_path / "out"
    assert run_main(["run", str(cfg), "--out", str(out)]) == 1
    summary = capsys.readouterr().out
    assert f"check {check}: FAIL" in summary
    assert "result: FAIL" in summary
    kind = experiment.split("\n")[0].split(" = ")[1]
    return (out / f"{kind}.csv").read_text().splitlines()


def test_route_agreement_can_fail(tmp_path, capsys, monkeypatch):
    matrix = transfer.transfer_matrix
    monkeypatch.setattr(transfer, "transfer_matrix", lambda s, p: matrix(s, p) * (1.0 + 1e-6))
    lines = run_failing(tmp_path, capsys, "kind = partition-sums\nn = 1..4", "route-agreement")
    assert len(lines) == 5
    assert float(lines[1].split(",")[3]) > 1e-7


def test_cylinder_window_can_fail(tmp_path, capsys, monkeypatch):
    def narrowed(phi):
        data = transfer.equilibrium(phi)
        h = data.h.copy()
        h[np.argmin(h)] *= 1.0 + 1e-3
        return dataclasses.replace(data, h=h)

    monkeypatch.setattr(cli, "equilibrium", narrowed)
    lines = run_failing(tmp_path, capsys, "kind = gibbs\nn-max = 4", "cylinder-window")
    empirical, apriori = map(float, lines[1].split(",")[1:3])
    assert empirical > apriori


def test_exchange_identity_can_fail(tmp_path, capsys, monkeypatch):
    rate = approx.entropy_rate
    monkeypatch.setattr(approx, "entropy_rate", lambda mu: rate(mu) + 1e-6)
    lines = run_failing(tmp_path, capsys, "kind = corollary3\ntrials = 3", "exchange-identity")
    assert len(lines) == 4
    assert float(lines[1].split(",")[6]) == pytest.approx(1e-6, rel=1e-3)


# The block-entropy chain rule and the periodic-orbit trace are judged by the
# experiments too: theorem2 and corollary2 in their own check lines, and
# identities in its block-chain-rule row and a per-system orbit-trace line
# that writes no row.


def drift_block_entropy(monkeypatch):
    """The block-entropy DP strays from H(pi) + (n-1)h by 1e-6 a step."""
    upto = measures._BlockEntropies.upto
    monkeypatch.setattr(
        measures._BlockEntropies, "upto", lambda self, n: upto(self, n) + 1e-6 * (n - 1)
    )


def add_spurious_eigenvalue(monkeypatch):
    """An eigenvalue at half the spectral radius in every PerronData: the
    eigenvalue sum misses the trace of (B/rho)^k by 2^-k."""
    spectrum = transfer._spectrum

    def spurious(b):
        lam, lambda2, u, v, values = spectrum(b)
        return lam, lambda2, u, v, np.append(values, 0.5 * lam)

    monkeypatch.setattr(transfer, "_spectrum", spurious)


def test_chain_rule_disagreement_fails_theorem2(tmp_path, capsys, monkeypatch):
    drift_block_entropy(monkeypatch)
    lines = run_failing(tmp_path, capsys, "kind = theorem2\ntrials = 2", "block-chain-rule")
    assert lines[0] == "form,trial,seed,n,ell,radicand,lhs,rhs,slack,vacuous"
    assert len(lines) > 1


def test_chain_rule_disagreement_fails_identities(tmp_path, capsys, monkeypatch):
    drift_block_entropy(monkeypatch)
    lines = run_failing(
        tmp_path, capsys, "kind = identities\ntrials = 2", "golden-range2/block-chain-rule"
    )
    assert len(lines) == 37


def test_trace_disagreement_fails_corollary2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "clean.cfg"
    cfg.write_text("[shift]\nsystem = golden-range2\n\n[experiment]\nkind = corollary2\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "clean")]) == 0
    assert "check orbit-trace: PASS" in capsys.readouterr().out
    add_spurious_eigenvalue(monkeypatch)
    lines = run_failing(tmp_path, capsys, "kind = corollary2", "orbit-trace")
    # the CSV carries no trace column, so it is the clean run's
    assert lines == (tmp_path / "clean" / "corollary2.csv").read_text().splitlines()


def test_trace_disagreement_fails_identities(tmp_path, capsys, monkeypatch):
    add_spurious_eigenvalue(monkeypatch)
    lines = run_failing(
        tmp_path, capsys, "kind = identities\ntrials = 2", "tribonacci-zero/orbit-trace"
    )
    # no row for the trace check: the CSV keeps its 36 rows, all passing
    assert len(lines) == 37
    assert all(line.endswith(",true") for line in lines[1:])


# A nan fails the check it reaches, like any other value outside tolerance.


def test_nan_route_deviation_fails(tmp_path, capsys, monkeypatch):
    real = transfer.partition_sum

    def poisoned(shift, phi, state, periods):
        sums = real(shift, phi, state, periods)
        return [s._replace(enumeration=math.nan) if n == 2 else s for n, s in zip(periods, sums)]

    monkeypatch.setattr(cli, "partition_sum", poisoned)
    lines = run_failing(tmp_path, capsys, "kind = partition-sums\nn = 1..4", "route-agreement")
    assert lines[2].split(",")[3] == "nan"


def test_nan_slack_fails(tmp_path, capsys, monkeypatch):
    real = cli.pressure_gap_bound
    calls = []

    def poisoned(data, mu, f):
        calls.append(None)
        rep = real(data, mu, f)
        return dataclasses.replace(rep, rhs=math.nan) if len(calls) == 2 else rep

    monkeypatch.setattr(cli, "pressure_gap_bound", poisoned)
    lines = run_failing(tmp_path, capsys, "kind = theorem1\ntrials = 4", "slack-nonnegative")
    assert lines[2].split(",")[6] == "nan"


def test_nan_identity_record_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "conditional_kl_integral", lambda gibbs, mu: math.nan)
    cfg = tmp_path / "id.cfg"
    cfg.write_text("[experiment]\nkind = identities\ntrials = 2\nk-max = 2\nn-max = 2\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    summary = capsys.readouterr().out
    assert "check golden-zero/kl-pressure: FAIL (nan vs 1e-10)" in summary
    assert "golden-zero,kl-pressure,nan,1e-10,false" in (tmp_path / "out" / "identities.csv").read_text()


def test_negative_divergence_counts_as_pinsker_violation(tmp_path, capsys, monkeypatch):
    # every divergence the run takes, the Pinsker pairs' included, is negative
    for module in (measures, cli):
        monkeypatch.setattr(module, "kl_divergence", lambda p, q: -1e-6)
    cfg = tmp_path / "id.cfg"
    cfg.write_text("[experiment]\nkind = identities\ntrials = 2\nk-max = 2\nn-max = 2\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert "check global/pinsker-violations: FAIL (200 vs 0)" in out
    assert err == ""


# Sections and keys a kind would build and then drop are refused with their line.


@pytest.mark.parametrize(
    "sections, experiment, message",
    [
        (PERTURBATION, "kind = theorem1", "line 3: theorem1 does not read a [perturbation] section"),
        (PERTURBATION, "kind = corollary2", "line 3: corollary2 does not read a [perturbation]"),
        (OCCUPATION, "kind = gibbs", "line 3: gibbs does not read [observable] sections"),
        (OCCUPATION, "kind = pressure", "line 3: pressure does not read [observable] sections"),
        (
            PERTURBATION,
            "kind = corollary3\ntrials = 0",
            "line 9: corollary3 does not read 'trials' beside a [perturbation] section",
        ),
        (
            PERTURBATION,
            "kind = corollary3\nmax-diff = 0.2",
            "line 9: corollary3 does not read 'max-diff' beside a [perturbation] section",
        ),
        ("", "kind = corollary2\nn = 4", "line 5: corollary2 reads n, the truncation size, only"),
    ],
    ids=[
        "perturbation-theorem1",
        "perturbation-corollary2",
        "observable-gibbs",
        "observable-pressure",
        "corollary3-trials",
        "corollary3-max-diff",
        "corollary2-finite-n",
    ],
)
def test_dropped_sections_and_keys_exit_2_with_their_line(
    tmp_path, capsys, sections, experiment, message
):
    cfg = tmp_path / "drop.cfg"
    cfg.write_text(f"[shift]\nsystem = golden-range2\n{sections}[experiment]\n{experiment}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sections_a_kind_reads_still_run(tmp_path, capsys):
    cfg = tmp_path / "read.cfg"
    cfg.write_text(
        f"[shift]\nsystem = golden-range2\n{PERTURBATION}{OCCUPATION}"
        "[experiment]\nkind = corollary3\nobservable = occ\n"
    )
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "corollary3.csv").read_text().splitlines()) == 2
    model = tmp_path / "model.cfg"
    model.write_text(
        '[shift]\nmodel = zeta(2)\n[observable o]\nvalue "2" = 1.0\n'
        "[experiment]\nkind = corollary2\nn = 3\nk = 3..5\n"
    )
    assert run_main(["run", str(model), "--out", str(tmp_path / "out")]) == 0


# One way to say each config value: [shift] takes one source, theta is an
# [experiment] key of the kinds that read it, and every value is parsed before
# any solve.

GOLDEN_MEAN = "[shift]\nbuiltin = golden-mean\n"
PRESSURE = "[experiment]\nkind = pressure\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "[shift]\nsystem = golden-range2\nbuiltin = full-2\n[experiment]\nkind = pressure\n",
            "line 3: [shift] with system does not read 'builtin'",
        ),
        (
            "[shift]\nsystem = golden-range2\nbuiltin = full-2\nedges = ab ba\n"
            "[experiment]\nkind = pressure\n",
            "line 3: [shift] with system does not read 'builtin'",
        ),
        (
            "[shift]\nbuiltin = full-2\nedges = ab ba\n[experiment]\nkind = pressure\n",
            "line 3: [shift] with builtin does not read 'edges'",
        ),
        (
            "[shift]\nsystem = golden-range2\nfoo = 1\n[experiment]\nkind = pressure\n",
            "line 3: [shift] with system does not read 'foo'",
        ),
        (
            "[shift]\nmodel = geometric(0.5)\nscale = 2\n[experiment]\nkind = corollary1\n",
            "line 3: [shift] with model does not read 'scale'",
        ),
        (
            "[shift]\nmodel = geometric(0.5, 2)\n[experiment]\nkind = corollary1\n",
            "line 2: geometric takes one argument: geometric(ratio)",
        ),
        (
            "[shift]\nmodel = geometric(0.5)\n[potential]\ndefault = 1.0\n"
            "[experiment]\nkind = corollary1\n",
            "line 3: a countable model already fixes its weights",
        ),
        (
            "[shift]\nsystem = golden-range2\n[potential]\ndefault = 1.0\n"
            "[experiment]\nkind = identities\n",
            "line 3: a builtin system already fixes the potential",
        ),
        (
            "[shift]\nsystem = nope\n[potential]\ndefault = 1.0\n[experiment]\nkind = pressure\n",
            "line 2: unknown system 'nope'",
        ),
        (
            "[shift]\nmodel = zeta(0.5)\n[potential]\ndefault = 1.0\n"
            "[experiment]\nkind = corollary1\n",
            "line 2: alpha must exceed 1",
        ),
        (
            "[potential]\ndefault = 1.0\n[experiment]\nkind = identities\n",
            "line 1: identities does not read a [potential] section",
        ),
        (
            "[shift]\nbuiltin = full-2\n[potential]\ndefault = 1.0\n"
            "[experiment]\nkind = identities\n",
            "line 3: identities does not read a [potential] section",
        ),
        (
            "[shift]\nbuiltin = full-2\n[potential]\ntheta = 0.3\n[experiment]\nkind = theorem1\n",
            "line 4: unknown key 'theta'",
        ),
        (
            f"[shift]\nsystem = golden-range2\n{PERTURBATION}theta = 0.3\n"
            "[experiment]\nkind = corollary3\n",
            "line 7: unknown key 'theta'",
        ),
        (
            f"[shift]\nsystem = golden-range2\n{OCCUPATION}theta = 0.3\n"
            "[experiment]\nkind = corollary3\n",
            "line 6: unknown key 'theta'",
        ),
        (
            "[shift]\nmodel = geometric(0.5)\n[experiment]\nkind = corollary2\ntheta = 0.3\n",
            "line 5: corollary2 reads theta only on a finite shift",
        ),
        (
            "[shift]\nmodel = geometric(1.5)\n[experiment]\nkind = corollary1\n",
            "line 2: ratio must lie in (0, 1)",
        ),
        (
            "[shift]\nsystem = golden-range2\n[experiment]\nkind = theorem1\ntheta = 1.5\n",
            "line 5: theta must lie in (0, 1)",
        ),
        ("[shift\nbuiltin = full-2\n" + PRESSURE, "line 1: unterminated section header"),
        (GOLDEN_MEAN + "[ ]\n" + PRESSURE, "line 3: empty section header"),
        (
            GOLDEN_MEAN + "[observable f g]\n" + PRESSURE,
            "line 3: section header takes at most one name",
        ),
        (GOLDEN_MEAN + "[observable]\n" + PRESSURE, "line 3: observable sections need a name"),
        ("kind = pressure\n" + GOLDEN_MEAN + PRESSURE, "line 1: entry before any section header"),
        (
            GOLDEN_MEAN + "[potential]\ndefault = one\n" + PRESSURE,
            "line 4: expected a number, got 'one'",
        ),
        (
            GOLDEN_MEAN + "[experiment]\nkind = theorem1\ntrials = two\n",
            "line 5: expected an integer, got 'two'",
        ),
        (
            "[shift]\nstates = s0 s1\nedges = s0:s1 s1:s0 s1:s1\n"
            '[potential]\nvalue "s0s1" = 1.0\n' + PRESSURE,
            "line 5: multi-character state labels need colon-separated words",
        ),
        (
            "[shift]\nmodel = geometric\n[experiment]\nkind = corollary1\n",
            "line 2: cannot parse model 'geometric'",
        ),
        (
            "[shift]\nmodel = poisson(2)\n[experiment]\nkind = corollary1\n",
            "line 2: unknown weight family 'poisson'",
        ),
        (
            GOLDEN_MEAN + "[potential]\nvalue = 1.5\n" + PRESSURE,
            'line 4: value entries look like: value "ab" = 1.5',
        ),
        (
            GOLDEN_MEAN + '[potential]\nrange = 2\nvalue "a" = 1.0\n' + PRESSURE,
            "line 5: word 'a' has length 1, range is 2",
        ),
        (
            "[shift]\nmodel = geometric(0.5)\n[observable f]\ndefault = 1.0\n"
            "[experiment]\nkind = corollary1\n",
            'line 4: countable-model observables take only value "s" = x entries',
        ),
        (
            "[shift]\n" + PRESSURE,
            "line 1: shift section needs system, builtin, model, or states+edges",
        ),
        ("[shift]\nstates = a b\n" + PRESSURE, "line 2: explicit shifts need an edges entry"),
        (
            GOLDEN_MEAN + GOLDEN_MEAN + PRESSURE,
            "error: at most one [shift], [potential], [perturbation] each",
        ),
        (GOLDEN_MEAN + "[experiment]\nseed = 1\n", "line 3: experiment needs a kind"),
        ("[shift]\nstates = a b\nedges = ab abc\n" + PRESSURE, "line 3: cannot parse edge 'abc'"),
        (
            GOLDEN_MEAN + "[observable f]\ndefault = 1.0\n[observable f]\ndefault = 2.0\n"
            "[experiment]\nkind = corollary3\n",
            "line 5: duplicate observable 'f'",
        ),
        (
            "[shift]\nbuiltin = full-2\n[potential]\nrange = 16\ndefault = 0.1\n" + PRESSURE,
            "line 3: range 16 recodes to 32768 states, the dense-solve limit is 1024",
        ),
    ],
    ids=[
        "two-sources",
        "two-sources-and-edges",
        "edges-without-states",
        "unknown-shift-key",
        "scale",
        "two-argument-model",
        "potential-under-model",
        "potential-beside-system-on-identities",
        "unknown-system-before-its-potential",
        "bad-model-before-its-potential",
        "potential-on-identities",
        "potential-on-identities-with-shift",
        "potential-theta",
        "perturbation-theta",
        "observable-theta",
        "theta-on-corollary2-model",
        "model-constructor",
        "theta-out-of-range",
        "unterminated-header",
        "empty-header",
        "two-names",
        "nameless-observable",
        "entry-before-header",
        "not-a-number",
        "not-an-integer",
        "multi-character-labels",
        "unparsed-model",
        "unknown-family",
        "plain-value-entry",
        "word-off-the-range",
        "plain-key-on-a-model-observable",
        "shift-without-source",
        "states-without-edges",
        "two-shifts",
        "kindless-experiment",
        "unparsed-edge",
        "duplicate-observable",
        "recoding-past-the-state-cap",
    ],
)
def test_config_values_said_one_way_exit_2_with_their_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "one-way.cfg"
    cfg.write_text(text)
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "shift, kind",
    [
        ("system = golden-range2", "pressure"),
        ("system = golden-range2", "gibbs"),
        ("system = golden-range2", "partition-sums"),
        ("model = zeta(2)", "corollary1"),
        ("system = golden-zero", "identities"),
    ],
)
def test_theta_is_refused_where_it_is_not_read(tmp_path, capsys, shift, kind):
    cfg = tmp_path / "theta.cfg"
    cfg.write_text(f"[shift]\n{shift}\n[experiment]\nkind = {kind}\ntheta = 0.3\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"line 5: {kind} does not read 'theta'" in capsys.readouterr().err


def test_theta_reaches_builtin_system_potentials(tmp_path, capsys, monkeypatch):
    text = "[shift]\nsystem = golden-range2\n[experiment]\nkind = {}\ntheta = 0.3\n"
    assert parse_config(text.format("corollary3")).shift.theta == 0.3
    assert parse_config(text.format("theorem1")).shift.theta == 0.3
    # f and phi are measured in the one metric of the run
    thetas = []

    def recording(bound):
        def record(data, mu, f, *args):
            thetas.append((data.shift.theta, f.base.theta))
            return bound(data, mu, f, *args)

        return record

    monkeypatch.setattr(cli, "pressure_gap_bound", recording(cli.pressure_gap_bound))
    monkeypatch.setattr(cli, "finitary_gap_bound", recording(cli.finitary_gap_bound))
    for kind, trials in [("corollary3", 5), ("theorem1", 3), ("theorem2", 1)]:
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(text.format(kind) + f"trials = {trials}\n")
        assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0, kind
    assert thetas and set(thetas) == {(0.3, 0.3)}
    assert "result: FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "source", ["builtin = golden-mean", "states = a b\nedges = aa ab ba"]
)
def test_theta_is_the_shifts_for_every_finite_source(source):
    cfg = parse_config(
        f"[shift]\n{source}\n[potential]\nrange = 2\ndefault = 0.5\n"
        "[perturbation]\nrange = 2\ndefault = 0.25\n[observable f]\ndefault = 1.0\n"
        "[experiment]\nkind = corollary3\ntheta = 0.3\n"
    )
    assert cfg.shift.theta == 0.3
    functions = [cfg.phi, cfg.perturbation, cfg.observables["f"]]
    assert all(g.base is cfg.shift for g in functions)


def test_counts_are_refused_before_any_solve(tmp_path, capsys, monkeypatch):
    def solve(*args):
        raise AssertionError("the config was solved before its values were parsed")

    monkeypatch.setattr(cli, "equilibrium", solve)
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("[shift]\nsystem = golden-range2\n[experiment]\nkind = theorem1\ntrials = 0\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "line 5: trials must be at least 1, got 0" in capsys.readouterr().err


def test_partition_sums_refuse_a_range_3_potential(tmp_path, capsys):
    cfg = tmp_path / "range3.cfg"
    cfg.write_text(
        "[shift]\nbuiltin = full-2\n[potential]\nrange = 3\ndefault = 0.0\n"
        'value "aab" = 0.5\n[experiment]\nkind = partition-sums\n'
    )
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    message = "line 3: partition-sums takes a [potential] of range at most 2, got range 3"
    assert message in capsys.readouterr().err


def refuse_every_solve(monkeypatch):
    def solve(*args):
        raise AssertionError("a refused config reached a solve")

    for name in ("equilibrium", "perron_data", "run_experiment"):
        monkeypatch.setattr(cli, name, solve)


def refuse_every_table(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("a section's table was built")

    monkeypatch.setattr(cli.LocallyConstantFunction, "from_values", build)


RANGE_3 = '[potential]\nrange = 3\ndefault = 0.1\nvalue "aab" = -0.2\n'


@pytest.mark.parametrize(
    "sections, kind, message",
    [
        (RANGE_3, "corollary2", "line 3: corollary2 takes a [potential] of range at most 2"),
        (RANGE_3, "partition-sums", "line 3: partition-sums takes a [potential] of range at most 2"),
        (
            RANGE_3.replace("potential", "perturbation"),
            "corollary3",
            "line 3: corollary3 takes a [perturbation] of range at most 2",
        ),
        (
            PERTURBATION + RANGE_3,
            "corollary3",
            "line 7: corollary3 takes a [potential] of range at most 2",
        ),
    ],
    ids=["corollary2", "partition-sums", "corollary3-perturbation", "corollary3-potential"],
)
def test_long_ranges_are_refused_at_their_section_before_any_solve(
    tmp_path, capsys, monkeypatch, sections, kind, message
):
    refuse_every_solve(monkeypatch)
    refuse_every_table(monkeypatch)
    cfg = tmp_path / "range3.cfg"
    cfg.write_text(f"[shift]\nbuiltin = full-2\n{sections}[experiment]\nkind = {kind}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{message}, got range 3\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "sections, experiment",
    [
        (RANGE_3, "kind = pressure"),
        (RANGE_3, "kind = theorem1\ntrials = 2"),
        # the limit is on potentials: a range-3 observable still runs
        ("[observable f]\nrange = 3\ndefault = 0.5\n", "kind = corollary3\ntrials = 2"),
    ],
    ids=["pressure", "theorem1", "corollary3-observable"],
)
def test_long_ranges_run_where_the_kind_takes_them(tmp_path, sections, experiment):
    cfg = tmp_path / "range3.cfg"
    cfg.write_text(f"[shift]\nbuiltin = full-2\n{sections}[experiment]\n{experiment}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "sections, kind, message",
    [
        ("[potential]\ndefault = 0.1\n", "identities", "identities does not read a [potential]"),
        (PERTURBATION, "pressure", "pressure does not read a [perturbation] section"),
        (OCCUPATION, "gibbs", "gibbs does not read [observable] sections"),
    ],
    ids=["potential-identities", "perturbation-pressure", "observable-gibbs"],
)
def test_unread_sections_are_refused_before_any_table_is_built(
    tmp_path, capsys, monkeypatch, sections, kind, message
):
    refuse_every_table(monkeypatch)
    cfg = tmp_path / "table.cfg"
    cfg.write_text(f"[shift]\nbuiltin = full-2\n{sections}[experiment]\nkind = {kind}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"error: line 3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "shift, experiment, forbidden",
    [
        ("system = full2-zero", "kind = gibbs\nn-max = 25", ["_steps"]),
        # partition sums build B only once every period is counted
        ("system = full2-zero", "kind = partition-sums\nn = 1..30", ["_steps", "transfer_matrix"]),
        ("", "kind = identities\ntrials = 1\nk-max = 3\nn-max = 60", ["_steps"]),
    ],
    ids=["gibbs", "partition-sums", "identities"],
)
def test_word_cap_is_refused_before_any_word_is_listed(
    tmp_path, capsys, monkeypatch, shift, experiment, forbidden
):
    # both routes that list words grow them from the potential's steps
    def steps(*args):
        raise AssertionError("words were listed before every length was counted")

    for name in forbidden:
        monkeypatch.setattr(transfer, name, steps)
    cfg = tmp_path / "cap.cfg"
    head = f"[shift]\n{shift}\n" if shift else ""
    cfg.write_text(f"{head}[experiment]\n{experiment}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: about 1.68e+07 words of length 24, cap is 10000000\n"


def full2_potential(depth: int, kind: str = "pressure") -> str:
    return (
        f"[shift]\nbuiltin = full-2\n[potential]\nrange = {depth}\ndefault = 0.1\n"
        f"[experiment]\nkind = {kind}\n"
    )


@pytest.mark.parametrize("depth", [12, 23])
@pytest.mark.parametrize("kind", ["pressure", "gibbs", "theorem1", "theorem2"])
def test_recodings_past_the_state_cap_are_refused_at_their_section(monkeypatch, kind, depth):
    # the recoding's states are the admissible (depth - 1)-words: 2^(depth - 1)
    refuse_every_table(monkeypatch)
    start = time.process_time()
    states = 2 ** (depth - 1)
    message = f"line 3: range {depth} recodes to {states} states, the dense-solve limit is 1024"
    with pytest.raises(ConfigError, match=re.escape(message) + "$"):
        parse_config(full2_potential(depth, kind))
    assert time.process_time() - start < 0.5


def test_range_11_recodes_to_exactly_the_state_cap(monkeypatch):
    refuse_every_solve(monkeypatch)
    cfg = parse_config(full2_potential(11))
    assert cfg.phi.depth == 11
    assert shift_module._count_words(cfg.shift, 10) == shift_module.STATE_CAP == 1024


def test_a_shift_past_the_state_cap_is_refused_before_any_eigensolve(
    tmp_path, capsys, monkeypatch
):
    def spectrum(*args):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(transfer, "_spectrum", spectrum)
    labels = [f"s{i}" for i in range(1025)]
    # a 1025-cycle with one self-loop: mixing
    edges = [f"{labels[i]}:{labels[(i + 1) % 1025]}" for i in range(1025)] + ["s0:s0"]
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        f"[shift]\nstates = {' '.join(labels)}\nedges = {' '.join(edges)}\n"
        "[experiment]\nkind = pressure\n"
    )
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: the shift has 1025 states, the dense-solve limit is 1024\n"


def test_weights_that_underflow_answer_or_are_refused(tmp_path, capsys):
    one = tmp_path / "one.cfg"
    one.write_text("[shift]\nmodel = zeta(1100)\n[experiment]\nkind = corollary1\n")
    assert run_main(["run", str(one), "--out", str(tmp_path / "out")]) == 0
    assert "result: PASS" in capsys.readouterr().out
    for model, state in (("zeta(1100)", 2), ("geometric(1e-160)", 3)):
        two = tmp_path / "two.cfg"
        two.write_text(f"[shift]\nmodel = {model}\n[experiment]\nkind = corollary2\n")
        assert run_main(["run", str(two), "--out", str(tmp_path / "out")]) == 2
        assert f"error: state {state} of {model} has a weight" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["pressure", "gibbs", "partition-sums", "identities"])
def test_negative_seed_is_refused_at_its_line(tmp_path, capsys, monkeypatch, kind):
    refuse_every_solve(monkeypatch)
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(f"[shift]\nbuiltin = full-2\n[experiment]\nkind = {kind}\nseed = -1\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "error: line 5: seed must be at least 0, got -1" in capsys.readouterr().err


def test_negative_seed_flag_is_refused(tmp_path, capsys, monkeypatch):
    refuse_every_solve(monkeypatch)
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("[shift]\nbuiltin = full-2\n[experiment]\nkind = pressure\n")
    with pytest.raises(SystemExit) as exc:
        run_main(["run", str(cfg), "--seed", "-3"])
    assert exc.value.code == 2
    assert "--seed must be at least 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "shift, kind, message",
    [
        ("model = geometric(0.5)", "pressure", "line 2: experiment 'pressure' needs a finite shift and potential"),
        ("model = zeta(2)", "theorem2", "line 2: experiment 'theorem2' needs a finite shift and potential"),
        ("model = zeta(2)", "partition-sums", "line 2: experiment 'partition-sums' needs a finite shift"),
        ("model = zeta(2)", "corollary3", "line 2: experiment 'corollary3' needs a finite shift"),
        ("system = golden-range2", "corollary1", "line 2: corollary1 needs a countable model in [shift]"),
        ("builtin = full-2", "corollary1", "line 2: corollary1 needs a countable model in [shift]"),
        ("states = a b\nedges = ab ba bb", "corollary1", "line 2: corollary1 needs a countable model"),
        ("", "pressure", "error: experiment 'pressure' needs a [shift] section"),
        ("", "corollary1", "error: experiment 'corollary1' needs a [shift] section"),
        ("", "corollary2", "error: experiment 'corollary2' needs a [shift] section"),
    ],
    ids=[
        *(f"{kind}-on-model" for kind in ("pressure", "theorem2", "partition-sums", "corollary3")),
        *(f"corollary1-on-{source}" for source in ("system", "builtin", "states")),
        *(f"{kind}-no-shift" for kind in ("pressure", "corollary1", "corollary2")),
    ],
)
def test_sources_a_kind_does_not_run_on_are_refused_at_their_line(
    tmp_path, capsys, monkeypatch, shift, kind, message
):
    refuse_every_solve(monkeypatch)
    cfg = tmp_path / "source.cfg"
    head = f"[shift]\n{shift}\n" if shift else ""
    cfg.write_text(f"{head}[experiment]\nkind = {kind}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_identities_accepts_and_ignores_a_shift_section(tmp_path, capsys):
    # the benchmark's kinds-small identities configs send exactly this
    cfg = tmp_path / "id.cfg"
    cfg.write_text("[shift]\nsystem = golden-zero\n[experiment]\nkind = identities\ntrials = 2\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "result: PASS" in capsys.readouterr().out


# A table entry given twice is refused at its second line; words are compared
# as parsed, so "ab" and "a:b" name the same word, and "2" and "02" the same
# state of a model.
GOLDEN = "[shift]\nbuiltin = golden-mean\n"
MODEL = "[shift]\nmodel = geometric(0.5)\n"


@pytest.mark.parametrize(
    "sections, kind, message",
    [
        (
            '[potential]\ndefault = 0.0\nvalue "ab" = 1.0\nvalue "ab" = 3.0\n',
            "pressure",
            "line 6: duplicate value for word 'ab'",
        ),
        (
            '[potential]\nvalue "ab" = 1.0\nvalue "a:b" = 1.0\n',
            "pressure",
            "line 5: duplicate value for word 'a:b'",
        ),
        (
            "[potential]\ndefault = 0.0\nrange = 2\ndefault = 0.0\n",
            "pressure",
            "line 6: duplicate key 'default'",
        ),
        (
            "[potential]\nrange = 2\ndefault = 0.0\nrange = 2\n",
            "pressure",
            "line 6: duplicate key 'range'",
        ),
        (
            '[perturbation]\nvalue "a" = 0.1\nvalue "b" = 0.2\nvalue "a" = 0.3\n',
            "corollary3",
            "line 6: duplicate value for word 'a'",
        ),
        (
            '[observable f]\nvalue "ba" = 1.0\nvalue "b:a" = 2.0\n',
            "corollary3",
            "line 5: duplicate value for word 'b:a'",
        ),
        (
            "[observable f]\ndefault = 1.0\ndefault = 1.0\n",
            "corollary2",
            "line 5: duplicate key 'default'",
        ),
    ],
    ids=[
        "potential-value",
        "potential-value-spelled-two-ways",
        "potential-default",
        "potential-range",
        "perturbation-value",
        "observable-value",
        "observable-default",
    ],
)
def test_duplicate_table_entries_are_refused_at_their_line(
    tmp_path, capsys, monkeypatch, sections, kind, message
):
    refuse_every_solve(monkeypatch)
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(f"{GOLDEN}{sections}[experiment]\nkind = {kind}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["corollary1", "corollary2"])
def test_duplicate_model_observable_states_are_refused_at_their_line(
    tmp_path, capsys, monkeypatch, kind
):
    refuse_every_solve(monkeypatch)
    cfg = tmp_path / "twice.cfg"
    observable = '[observable f]\nvalue "2" = 1.0\nvalue "1" = 0.5\nvalue "02" = 3.0\n'
    cfg.write_text(f"{MODEL}{observable}[experiment]\nkind = {kind}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: line 6: duplicate value for state '02'\n"


@pytest.mark.parametrize("kind", ["corollary1", "corollary2"])
@pytest.mark.parametrize("state", ["0", "-1"])
def test_model_observable_states_below_1_are_refused_at_their_line(
    tmp_path, capsys, monkeypatch, kind, state
):
    refuse_every_solve(monkeypatch)
    cfg = tmp_path / "zero.cfg"
    observable = f'[observable f]\nvalue "1" = 0.5\nvalue "{state}" = 1.0\n'
    cfg.write_text(f"{MODEL}{observable}[experiment]\nkind = {kind}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line 5: states are numbered from 1, got '{state}'\n"


def test_model_truncation_past_the_state_cap_is_refused_before_any_shift_is_built(
    tmp_path, capsys, monkeypatch
):
    def build(*args, **kwargs):
        raise AssertionError("a shift was built")

    monkeypatch.setattr(approx, "TransitionMatrix", build)
    monkeypatch.setattr(cli, "truncate", build)
    text = MODEL + "[experiment]\nkind = corollary2\nk = 3\nn = {}\n"
    assert parse_config(text.format(shift_module.STATE_CAP)).params["n"] == 1024
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text.format(1025))
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    message = "line 6: n = 1025 truncates to 1025 states, the dense-solve limit is 1024"
    assert capsys.readouterr().err == f"error: {message}\n"


def refuse_every_shift(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("a refused config built a shift")

    for name in ("builtin_system", "builtin_shift", "build_sft", "truncate"):
        monkeypatch.setattr(cli, name, build)


SYSTEM = "[shift]\nsystem = golden-range2\n"
TABLE_HEADERS = ["[potential]", "[perturbation]", "[observable f]"]


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "[shift golden]\nbuiltin = golden-mean\n[experiment]\nkind = pressure\n",
            "line 1: section [shift] does not take a name",
        ),
        (
            GOLDEN + "[potential phi]\ndefault = 0.1\n[experiment]\nkind = pressure\n",
            "line 3: section [potential] does not take a name",
        ),
        (
            GOLDEN + "[perturbation p]\ndefault = 0.1\n[experiment]\nkind = corollary3\n",
            "line 3: section [perturbation] does not take a name",
        ),
        (
            GOLDEN + "[experiment main]\nkind = pressure\n",
            "line 3: section [experiment] does not take a name",
        ),
        *(
            (
                f'{GOLDEN}{header}\n{key} "{word}" = 0.5\n[experiment]\nkind = corollary3\n',
                f"line 4: key {key!r} does not take a word index",
            )
            for header in TABLE_HEADERS
            for key, word in (("range", "ab"), ("default", "zz"))
        ),
        *(
            (
                f"{GOLDEN}[potential]\nrange = {depth}\n[experiment]\nkind = pressure\n",
                f"line 4: range must be at least 1, got {depth}",
            )
            for depth in (0, -1)
        ),
        (
            GOLDEN + '[potential]\nrange "ab" = 2\ndefault = 0.1\n[experiment]\nkind = pressure\n',
            "line 4: key 'range' does not take a word index",
        ),
        (
            SYSTEM + "[experiment]\nkind = corollary3\nmax-diff = -0.5\n",
            "line 5: max-diff must be at least 0, got -0.5",
        ),
    ],
    ids=[
        *(f"name-on-{kind}" for kind in ("shift", "potential", "perturbation", "experiment")),
        *(
            f"word-on-{key}-in-{header.split()[0].strip('[]')}"
            for header in TABLE_HEADERS
            for key in ("range", "default")
        ),
        "range-0",
        "range-minus-1",
        "word-on-range-in-potential-on-pressure",
        "negative-max-diff",
    ],
)
def test_ignored_inputs_are_refused_at_their_line_before_any_shift_is_built(
    tmp_path, capsys, monkeypatch, text, message
):
    refuse_every_solve(monkeypatch)
    refuse_every_shift(monkeypatch)
    cfg = tmp_path / "refused.cfg"
    cfg.write_text(text)
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_zero_max_diff_runs_with_zero_bumps(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(SYSTEM + "[experiment]\nkind = corollary3\nmax-diff = 0\ntrials = 2\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "check slack-nonnegative: PASS (min slack 0)" in capsys.readouterr().out


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["onto-a-file", "under-a-file"])
def test_an_unwritable_output_exits_2_without_a_traceback(tmp_path, capsys, monkeypatch, out):
    # refused before the experiment runs: the build is never reached
    def build(cfg):
        raise AssertionError("the experiment ran before its output was made")

    monkeypatch.setitem(cli._KINDS, "theorem1", cli._KINDS["theorem1"]._replace(build=build))
    (tmp_path / "file").write_text("")
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(GOLDEN + "[experiment]\nkind = theorem1\ntrials = 3000\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1
    assert (tmp_path / "file").read_text() == ""


def test_a_config_that_is_not_utf8_exits_2_without_a_traceback(tmp_path, capsys, monkeypatch):
    refuse_every_solve(monkeypatch)
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"\xff[experiment]\nkind = identities\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff in position 0")
    assert err.count("\n") == 1


def test_a_missing_config_exits_2_with_one_error_line(tmp_path, capsys):
    missing = tmp_path / "none.cfg"
    assert run_main(["run", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def word_index_refusal(kind: str, entries: list):
    """The refusal the splitter owes a section of this kind, or None."""
    plain = set()
    for lineno, (key, word) in enumerate(entries, start=2):
        if word is not None and (key != "value" or kind in ("shift", "experiment")):
            return f"line {lineno}: key {key!r} does not take a word index"
        if word is None and key in plain:
            return f"line {lineno}: duplicate key {key!r}"
        if word is None:
            plain.add(key)
    return None


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["shift", "potential", "perturbation", "observable", "experiment"]),
    entries=st.lists(
        st.tuples(
            st.sampled_from(["value", "range", "default", "kind", "system", "seed"]),
            st.none() | st.sampled_from(["a", "ab", "1", ""]),
        ),
        max_size=5,
    ),
)
def test_a_word_index_is_taken_only_by_value_entries_of_tables(kind, entries):
    header = "[observable f]" if kind == "observable" else f"[{kind}]"
    lines = [f"{key} = 1" if word is None else f'{key} "{word}" = 1' for key, word in entries]
    text = "\n".join([header, *lines]) + "\n"
    refusal = word_index_refusal(kind, entries)
    if refusal is not None:
        with pytest.raises(ConfigError, match=re.escape(refusal) + "$"):
            cli._split_sections(text)
        return
    [section] = cli._split_sections(text)
    assert [word for word, _, _ in section.values] == [w for _, w in entries if w is not None]
    assert list(section.plain) == [key for key, w in entries if w is None]


# The exit-code contract: 0 every check passed, 1 a check failed (and says
# so on its line), 2 the config was refused with one error line.  Three
# configs that once ended in a traceback head the cases.

GIBBS_MASS_UNDERFLOW = (
    "[shift]\nstates = a b\nedges = aa ab ba bb\n[potential]\nrange = 2\n"
    'default = 664.9597495989476\nvalue "ba" = 489.1226277746132\n'
    'value "bb" = 328.7640727285466\n[experiment]\nkind = gibbs\nn-max = 5\n'
)
GIBBS_EXP_OVERFLOW = (
    "[shift]\nstates = a b c d\nedges = aa ab ba bb bc ca cb cd da dc dd\n"
    '[potential]\nrange = 1\ndefault = -88.23546597355327\nvalue "b" = 72.94588124891828\n'
    'value "c" = 35.37968894443523\nvalue "d" = -52.93365380595616\n'
    "[experiment]\nkind = gibbs\nn-max = 5\n"
)
KERNEL_PAST_THE_FLOAT_RANGE = (
    "[shift]\nstates = a b c\nedges = ab ac ba bb bc ca cb\n[potential]\nrange = 2\n"
    'default = -675.9055621058365\nvalue "ab" = 47.66972063151616\n'
    'value "bb" = -124.71904480111493\nvalue "ba" = -62.444515191927735\n'
    "[experiment]\nkind = theorem2\ntrials = 1\nn = 1..4\n"
)
REDUCIBLE = "[shift]\nstates = a b\nedges = aa ab bb\n[experiment]\nkind = partition-sums\n"
# exp(-927.86...) is 0.0 on every edge
WEIGHTS_UNDERFLOW = (
    "[shift]\nstates = a b c d\nedges = ac bb bd cb da\n[potential]\nrange = 1\n"
    "default = -927.8634831245136\n[experiment]\nkind = {}\n"
)
# exp(-777.2...) is 0.0 on both edges out of b, so a -> b is the one positive edge
NILPOTENT = (
    "[shift]\nstates = a b\nedges = ab ba bb\n[potential]\nrange = 1\n"
    'default = 826.295938831171\nvalue "a" = -605.3297839029424\n'
    'value "b" = -777.2183578799874\n[experiment]\nkind = {}\n'
)

# the [experiment] keys of each finite-shift kind, and the kinds whose
# potentials have range at most 2
CONTRACT_KINDS = {
    "pressure": st.just(""),
    "gibbs": st.integers(1, 7).map("n-max = {}\n".format),
    "partition-sums": st.just(""),
    "theorem1": st.just("trials = 2\n"),
    "theorem2": st.just("trials = 1\nn = 1..4\n"),
    "corollary2": st.just("k = 3..5\n"),
    "corollary3": st.just("trials = 2\n"),
}
SHORT_RANGE = ("partition-sums", "corollary2", "corollary3")


@st.composite
def contract_configs(draw) -> str:
    """A finite shift on 1-4 states with a potential of range 1-3 and values
    in +-1000, or a geometric or zeta model, under one kind."""
    if draw(st.integers(0, 8)) == 0:
        kind = draw(st.sampled_from(["corollary1", "corollary2"]))
        model = draw(
            st.sampled_from(["geometric", "zeta"]).flatmap(
                lambda family: st.floats(0.0, 1.5 if family == "geometric" else 1200.0).map(
                    lambda arg: f"{family}({arg!r})"
                )
            )
        )
        keys = "k = 3..5\n" if kind == "corollary2" else ""
        return f"[shift]\nmodel = {model}\n[experiment]\nkind = {kind}\n{keys}"
    kind = draw(st.sampled_from(list(CONTRACT_KINDS)))
    states = "abcd"[: draw(st.integers(1, 4))]
    edges = [u + v for u, v in itertools.product(states, repeat=2) if draw(st.booleans())]
    depth = draw(st.integers(1, 2 if kind in SHORT_RANGE else 3))
    words = [
        "".join(w)
        for w in itertools.product(states, repeat=depth)
        if all(a + b in edges for a, b in zip(w, w[1:]))
    ]
    values = st.floats(-1000.0, 1000.0)
    chosen = draw(st.lists(st.sampled_from(words), unique=True, max_size=3)) if words else []
    lines = [f'value "{w}" = {draw(values)!r}' for w in chosen]
    return (
        f"[shift]\nstates = {' '.join(states)}\nedges = {' '.join(edges)}\n"
        f"[potential]\nrange = {depth}\ndefault = {draw(values)!r}\n"
        + "".join(line + "\n" for line in lines)
        + f"[experiment]\nkind = {kind}\n{draw(CONTRACT_KINDS[kind])}"
    )


def run_in_process(text: str) -> tuple:
    """(exit code, stdout, stderr) of one run of text."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "contract.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", cfg, "--out", os.path.join(tmp, "out")])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=contract_configs())
@example(text=GIBBS_MASS_UNDERFLOW)
@example(text=GIBBS_EXP_OVERFLOW)
@example(text=KERNEL_PAST_THE_FLOAT_RANGE)
def test_every_config_answers_or_is_refused(text):
    code, out, err = run_in_process(text)
    assert code in (0, 1, 2)
    if code == 1:
        assert re.search(r"^check \S+: FAIL \(", out, re.MULTILINE)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        (GIBBS_MASS_UNDERFLOW, "cylinder ratio of word 'b:b:b' (length 3) is past the float range"),
        (
            GIBBS_EXP_OVERFLOW,
            "cylinder ratio of word 'a:a:a:a:a' (length 5) is past the float range",
        ),
        (
            KERNEL_PAST_THE_FLOAT_RANGE,
            "Gibbs kernel has non-finite entries: the Perron vectors span past the float range",
        ),
        (
            REDUCIBLE,
            "the shift has 2 strong components: the Gurevich estimate needs an irreducible shift",
        ),
        *(
            (
                WEIGHTS_UNDERFLOW.format(kind),
                "every edge weight underflows to 0.0: the largest, exp(-927.8634831245136), "
                "is below the float range",
            )
            for kind in ("partition-sums", "pressure")
        ),
        *(
            (
                NILPOTENT.format(kind),
                "every cycle has an edge whose weight underflows to 0.0: "
                "the weighted matrix is nilpotent",
            )
            for kind in ("partition-sums", "pressure")
        ),
    ],
    ids=[
        "gibbs-mass-underflow",
        "gibbs-exp-overflow",
        "kernel-past-the-float-range",
        "partition-sums-reducible",
        "partition-sums-weights-underflow",
        "pressure-weights-underflow",
        "partition-sums-nilpotent",
        "pressure-nilpotent",
    ],
)
def test_values_past_the_float_range_are_refused(text, message):
    assert run_in_process(text) == (2, "", f"error: {message}\n")


def test_partition_sums_on_a_reducible_shift_exit_2_with_one_error_line():
    code, out, err = run_in_process(REDUCIBLE)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_multi_character_labels_write_the_csv_of_one_character_labels(tmp_path):
    # a range-3 potential recodes to blocks labelled by their states' labels
    values = {"aaa": 0.3, "aba": -0.7, "bab": 1.1, "bba": 0.2}
    csvs = []
    for states in (["a", "b"], ["s0", "s1"]):
        spell = dict(zip("ab", states))
        labels = [":".join(spell[c] for c in word) for word in values]
        edges = " ".join(spell[u] + ":" + spell[v] for u in "ab" for v in "ab")
        cfg = tmp_path / f"{states[0]}.cfg"
        cfg.write_text(
            f"[shift]\nstates = {' '.join(states)}\nedges = {edges}\n[potential]\nrange = 3\n"
            "default = 0.1\n"
            + "".join(f'value "{w}" = {v}\n' for w, v in zip(labels, values.values()))
            + "[experiment]\nkind = pressure\n"
        )
        out = tmp_path / states[0]
        assert run_main(["run", str(cfg), "--out", str(out)]) == 0
        csvs.append((out / "pressure.csv").read_bytes())
    assert csvs[0] == csvs[1]
