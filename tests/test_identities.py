"""The identities kind draws each random measure once per builtin shift.

Its streams name no system, so the systems on one shift would draw the same
measures; a run draws them once and shares them.  A per-system loop that
draws them again for each system is inlined below as the oracle, and the CSV
must match it byte for byte."""

import math

import numpy as np
import pytest

from thermoshift import cli
from thermoshift.approx import orbit_entropy_identity, periodic_orbit_measures
from thermoshift.bounds import cohomology_residual, entropy_averaging_check
from thermoshift.measures import (
    _flat_dirichlet,
    block_entropy,
    conditional_kl_integral,
    entropy_rate,
    kl_divergence,
    metric_pressure,
    random_markov_measure,
)
from thermoshift.systems import BUILTIN_SHIFTS, BUILTIN_SYSTEMS, builtin_system, builtin_systems
from thermoshift.transfer import partition_sum, perron_data

IDENTITY_TOL = cli.IDENTITY_TOL


def identities_oracle(cfg):
    """``_build_identities`` as it was: one shift and fresh draws per system."""
    trials = cfg.params.get("trials", 20)
    k_max = cfg.params.get("k-max", 10)
    n_max = cfg.params.get("n-max", 10)
    records = []
    for name in sorted(BUILTIN_SYSTEMS):
        shift, phi = builtin_system(name)
        data = perron_data(shift, phi)
        records.append((name, "cohomology", cohomology_residual(data), IDENTITY_TOL))
        kl = []
        for i in range(trials):
            mu = random_markov_measure(shift, np.random.default_rng([cfg.seed, 4, i]))
            gap = data.pressure - metric_pressure(mu, phi)
            kl.append(abs(conditional_kl_integral(data.measure, mu) - gap))
        records.append((name, "kl-pressure", cli._worst(kl), IDENTITY_TOL))
        orbit, trace = [], []
        for nu in periodic_orbit_measures(data, range(1, k_max + 1)):
            lhs, rhs = orbit_entropy_identity(nu, phi)
            orbit.append(abs(lhs - rhs))
            trace.append(nu.trace_dev)
        records.append((name, "orbit-entropy", cli._worst(orbit), IDENTITY_TOL))
        records.append((name, "orbit-trace", cli._worst(trace), IDENTITY_TOL))
        sums = partition_sum(shift, phi, shift.states[0], range(1, n_max + 1))
        routes = cli._worst(p.rel_err for p in sums)
        records.append((name, "partition-routes", routes, IDENTITY_TOL))
        mu = random_markov_measure(shift, np.random.default_rng([cfg.seed, 5]))
        h_rate = entropy_rate(mu)
        chain = [abs(block_entropy(mu, n) - block_entropy(mu, n - 1) - h_rate) for n in range(2, 9)]
        records.append((name, "block-chain-rule", cli._worst(chain), IDENTITY_TOL))
        averaging = [entropy_averaging_check(data, mu, 1, m) for m in range(2, 8)]
        slack = cli._worst(a - b for a, b, _, _ in averaging)
        records.append((name, "averaging-slack", slack, 0.0))
        ident = cli._worst(abs(c - b) for _, _, c, b in averaging)
        records.append((name, "averaging-identity", ident, IDENTITY_TOL))
    violations = 0
    rng = np.random.default_rng([cfg.seed, 6])
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        p = _flat_dirichlet(rng, dim)
        q = _flat_dirichlet(rng, dim)
        kl = kl_divergence(p, q)
        if kl < 0.0 or float(np.abs(q - p).sum()) > math.sqrt(2.0 * kl) + 1e-12:
            violations += 1
    records.append(("global", "pinsker-violations", float(violations), 0.0))
    rows = [(s, c, value, tol, value <= tol) for s, c, value, tol in records if c != "orbit-trace"]
    return rows, [
        cli.Check(f"{s}/{c}", value <= tol, f"{value:.3g} vs {tol:.3g}")
        for s, c, value, tol in records
    ]


def run(tmp_path, capsys, seed, trials, out):
    cfg = tmp_path / "id.cfg"
    cfg.write_text(f"[experiment]\nkind = identities\ntrials = {trials}\nseed = {seed}\n")
    rc = cli.main(["run", str(cfg), "--out", str(tmp_path / out)])
    stdout = capsys.readouterr().out.replace(str(tmp_path / out), "<out>")
    return rc, stdout, (tmp_path / out / "identities.csv").read_bytes()


@pytest.mark.parametrize("trials", [1, 4, 20])
def test_identities_csv_matches_the_per_system_loop(tmp_path, capsys, monkeypatch, trials):
    for seed in range(1, 6):
        shared = run(tmp_path, capsys, seed, trials, f"shared-{seed}")
        with monkeypatch.context() as m:
            oracle = cli._KINDS["identities"]._replace(build=identities_oracle)
            m.setitem(cli._KINDS, "identities", oracle)
            assert run(tmp_path, capsys, seed, trials, f"oracle-{seed}") == shared
        assert shared[0] == 0


@pytest.mark.parametrize("trials", [1, 3])
def test_identities_draws_once_per_shift_and_run(tmp_path, capsys, monkeypatch, trials):
    calls = []

    def counted(shift, rng):
        calls.append(shift)
        return random_markov_measure(shift, rng)

    monkeypatch.setattr(cli, "random_markov_measure", counted)
    assert run(tmp_path, capsys, 7, trials, "one")[0] == 0
    # trials draws on stream [seed, 4, i] and one on [seed, 5], per builtin shift
    assert len(calls) == len(BUILTIN_SHIFTS) * (trials + 1) == 3 * (trials + 1)
    assert len(set(calls)) == 3
    # a second run draws afresh, on shifts of its own: nothing carries over
    assert run(tmp_path, capsys, 7, trials, "two")[0] == 0
    assert len(calls) == 6 * (trials + 1)
    assert len(set(calls)) == 6


def test_builtin_systems_share_one_shift_per_builtin_shift():
    systems = builtin_systems()
    assert [name for name, _, _ in systems] == sorted(BUILTIN_SYSTEMS)
    for name, shift, phi in systems:
        alone, alone_phi = builtin_system(name)
        assert shift.same_shift(alone) and phi.base is shift
        assert phi.depth == alone_phi.depth and phi.table == alone_phi.table
        shift_name = BUILTIN_SYSTEMS[name][0]
        on_same = {id(s) for n, s, _ in systems if BUILTIN_SYSTEMS[n][0] == shift_name}
        assert on_same == {id(shift)}
    assert len({id(shift) for _, shift, _ in systems}) == len(BUILTIN_SHIFTS)
    # a second call builds new shifts
    assert not {id(s) for _, s, _ in builtin_systems()} & {id(s) for _, s, _ in systems}
