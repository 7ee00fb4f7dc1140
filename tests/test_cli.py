import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from thermoshift import approx, cli, measures, transfer
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
        [sys.executable, "-m", "thermoshift.cli", "--list-builtins"],
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
        ("golden-range2", "kind = theorem2\nell = 0", "line 6: ell must be at least 1, got 0"),
    ],
)
def test_empty_ranges_and_zero_counts_exit_2(tmp_path, capsys, system, experiment, message):
    shift = system if system.startswith("model") else f"system = {system}"
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"[shift]\n{shift}\n\n[experiment]\n{experiment}\n")
    assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
        ("kind = theorem2\nform = nope", "line 6: unknown form 'nope'"),
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


def test_overflowing_partition_sum_exits_2(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        "[shift]\nstates = a b c\nedges = ab ac ba\n"
        '[potential]\nrange = 1\ndefault = 1\nvalue "a" = 700.0\nvalue "b" = -2.0\n'
        "[experiment]\nkind = partition-sums\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "error: partition sum at n=4 overflows a float" in capsys.readouterr().err


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


# A nan fails the check it reaches, like any other value outside tolerance.


def test_nan_route_deviation_fails(tmp_path, capsys, monkeypatch):
    real = transfer.partition_sum

    def poisoned(shift, phi, state, n):
        sums = real(shift, phi, state, n)
        return sums._replace(enumeration=math.nan) if n == 2 else sums

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
