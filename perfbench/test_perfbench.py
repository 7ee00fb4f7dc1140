"""Self-tests of the benchmark itself (not of thermoshift).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from thermoshift import cli, is_topologically_mixing, parse_config  # noqa: E402


def test_spectral_generator_yields_mixing_shifts_of_stated_sizes():
    for inv in workloads.batch("spectral-large", seed=3, index=1):
        cfg = parse_config(inv.text)
        size = int(inv.name.rsplit("-n", 1)[1])
        assert 64 <= size <= 512
        assert cfg.shift.n == size and not cfg.shift.removed
        assert is_topologically_mixing(cfg.shift)
        assert cfg.phi.depth == 2


def test_batches_are_seeded_and_never_repeat_a_config():
    for workload in workloads.WORKLOADS:
        a = workloads.batch(workload, seed=5, index=1)
        assert [i.text for i in a] == [i.text for i in workloads.batch(workload, 5, 1)]
        texts = [i.text for i in a + workloads.batch(workload, 5, 2)]
        assert len(set(texts)) == len(texts)
        assert len({i.name for i in a}) == len(a)


def test_self_time_subtracts_direct_children():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("m.leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    middle = tracer.wrap("m.middle", middle)
    outer = tracer.wrap("m.outer", lambda: middle())
    outer()
    # clock reads: outer 0..7, middle 1..6, leaves 2..3 and 4..5
    stats = tracing.summarize(tracer.spans)
    assert (stats["m.outer"].inclusive, stats["m.outer"].self_time) == (7.0, 2.0)
    assert (stats["m.middle"].inclusive, stats["m.middle"].self_time) == (5.0, 3.0)
    assert (stats["m.leaf"].calls, stats["m.leaf"].inclusive, stats["m.leaf"].self_time) == (2, 2.0, 2.0)


def test_recursive_span_counts_inclusive_time_once():
    spans = [("f", 0.0, 10.0, -1), ("f", 2.0, 6.0, 0)]
    st = tracing.summarize(spans)["f"]
    assert (st.calls, st.inclusive, st.self_time) == (2, 10.0, 10.0)


def test_tracer_patches_every_namespace_and_restores_them():
    import thermoshift.approx
    import thermoshift.transfer

    original = thermoshift.transfer.perron_data
    tracer = tracing.Tracer()
    with tracer:
        assert cli.perron_data is thermoshift.transfer.perron_data is thermoshift.approx.perron_data
        assert cli.perron_data is not original
        cli.main(["--list-builtins"])
    assert cli.perron_data is original and thermoshift.approx.perron_data is original
    assert [s[0] for s in tracer.spans] == ["cli.main"]


def test_oracle_accepts_the_pressure_and_rejects_a_perturbed_one():
    edges, values = workloads.random_mixing_shift(64, np.random.default_rng(0))
    b = workloads.weighted_matrix(64, edges, values)
    oracle = gate.pressure_oracle(b)
    assert gate.pressure_agrees(oracle * (1 + 1e-12), oracle)
    assert not gate.pressure_agrees(oracle * (1 + 1e-8), oracle)
    assert not gate.pressure_agrees(oracle + 1e-9, oracle)


def test_builtin_oracle_matrices_match_the_program():
    from thermoshift import builtin_system, transfer_matrix

    for name, matrix in workloads.SYSTEM_MATRICES.items():
        shift, phi = builtin_system(name)
        assert np.allclose(transfer_matrix(shift, phi), matrix, rtol=1e-15, atol=0.0)


def test_gate_passes_a_run_and_catches_a_wrong_pressure(tmp_path):
    inv = next(i for i in workloads.batch("spectral-large", 2, 1) if i.name == "pressure-n64")
    outcome = gate.invoke(inv, tmp_path)
    assert gate.check(inv, outcome) == []
    wrong = workloads.Invocation(inv.name, inv.kind, inv.text, inv.rows, inv.matrix * 1.001)
    assert any("oracle" in r for r in gate.check(wrong, outcome))
    assert not list(tmp_path.iterdir())


def test_a_failed_check_raises_fail_frac(tmp_path, monkeypatch):
    inv = next(i for i in workloads.batch("kinds-small", 2, 1) if i.kind == "pressure")
    tally = gate.Tally()
    tally.record(inv, gate.check(inv, gate.invoke(inv, tmp_path)))
    assert tally.fail_frac == 0.0
    monkeypatch.setattr(cli, "IDENTITY_TOL", -1.0)  # every identity check now fails
    outcome = gate.invoke(inv, tmp_path)
    reasons = gate.check(inv, outcome)
    assert outcome.rc == 1 and any("FAIL" in r for r in reasons)
    tally.record(inv, reasons)
    assert (tally.attempted, tally.failed, tally.fail_frac) == (2, 1, 0.5)


def test_solver_probes_on_a_known_matrix():
    from thermoshift import builtin_system, perron_data

    data = perron_data(*builtin_system("golden-range2"))
    residual, gap = tracing.solver_probes([data])
    assert residual < 1e-13
    assert math.isclose(gap, 1.0 - data.kappa)
