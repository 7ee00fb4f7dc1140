"""Seeded config generators for the benchmark workloads.

A workload is an endless sequence of batches; batch ``index`` of workload
``name`` under ``seed`` is a pure function of those three values.  Each batch
holds the same multiset of cost-setting parameters (state counts, word
lengths, trial counts), and the seed draws how they are assigned, the
potentials, the graphs, the per-config seeds and the order.  That keeps the
cost of one batch nearly the same from seed to seed, so the timings spread
little, while no two invocations share a config.

The program only ever sees the generated config text.  The rest of an
``Invocation`` is what the benchmark knows independently: how many CSV rows
the kind must produce and, for ``pressure`` runs, the weighted matrix whose
log spectral radius is the expected pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("kinds-small", "orbit-enum", "spectral-large")

SYSTEMS = ("full2-zero", "full2-bernoulli", "golden-zero", "golden-range2", "tribonacci-zero")

# Weighted transfer matrices B_ij = t_ij exp(phi) of the builtin systems,
# written out from their definitions (two-letter states a, b[, c]).
SYSTEM_MATRICES = {
    "full2-zero": [[1.0, 1.0], [1.0, 1.0]],
    "full2-bernoulli": [[0.3, 0.3], [0.7, 0.7]],
    "golden-zero": [[1.0, 1.0], [1.0, 0.0]],
    "golden-range2": [[math.exp(0.25), math.exp(-0.4)], [math.exp(0.1), 0.0]],
    "tribonacci-zero": [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
}

# 0/1 transition matrices of the builtin shifts, states a, b[, c]
SHIFT_ADJACENCY = {
    "full-2": [[1, 1], [1, 1]],
    "golden-mean": [[1, 1], [1, 0]],
    "tribonacci": [[1, 1, 0], [1, 0, 1], [1, 0, 0]],
}

# identities checks: seven rows per builtin system plus the global Pinsker row
IDENTITY_ROWS = 7 * len(SYSTEMS) + 1


@dataclass(frozen=True)
class Invocation:
    name: str
    kind: str
    text: str
    rows: int | None = None
    matrix: np.ndarray | None = None


def _config(shift_lines, kind, params, extra_sections=()):
    lines = ["[shift]", *shift_lines, *extra_sections, "[experiment]", f"kind = {kind}"]
    lines += [f"{key} = {value}" for key, value in params.items()]
    return "\n".join(lines) + "\n"


def _seed(rng) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _rng(workload: str, seed: int, index: int):
    return np.random.default_rng([WORKLOADS.index(workload), seed, index])


# ---------------------------------------------------------------------------
# kinds-small: every kind over the five builtin systems, tiny problems


# One parameter set per system slot; the seed permutes them over the systems.
_SMALL_PARAMS = {
    "pressure": [{}] * 5,
    "gibbs": [{"n-max": n} for n in (6, 7, 8, 9, 10)],
    "partition-sums": [{"n": f"1..{n}"} for n in (8, 9, 10, 11, 12)],
    "theorem1": [
        {"trials": t, "f-range": r} for t, r in ((6, 3), (8, 2), (10, 3), (12, 1), (14, 2))
    ],
    "theorem2": [{"trials": t, "n": f"1..{n}"} for t, n in ((2, 10), (3, 9), (4, 8), (5, 7), (6, 6))],
    "corollary2": [{"k": f"3..{k}"} for k in (7, 8, 9, 10, 11)],
    "corollary3": [{"trials": t} for t in (2, 3, 4, 5, 6)],
    "identities": [
        {"trials": t, "k-max": k, "n-max": n}
        for t, k, n in ((2, 8, 6), (3, 7, 7), (4, 6, 8), (5, 5, 4), (6, 4, 5))
    ],
}


def _small_rows(kind: str, params: dict) -> int | None:
    if kind == "pressure":
        return 9
    if kind == "gibbs":
        return 1
    if kind in ("partition-sums", "corollary1", "corollary2"):
        lo, hi = params["k" if kind == "corollary2" else "n"].split("..")
        return int(hi) - int(lo) + 1
    if kind in ("theorem1", "corollary3"):
        return params["trials"]
    if kind == "identities":
        return IDENTITY_ROWS
    return None  # theorem2: the markov rows depend on the potential's range


def kinds_small(seed: int, index: int) -> list:
    rng = _rng("kinds-small", seed, index)
    out = []
    for kind, table in _SMALL_PARAMS.items():
        for params, system_index in zip(table, rng.permutation(len(SYSTEMS))):
            system = SYSTEMS[int(system_index)]
            params = {**params, "seed": _seed(rng)}
            matrix = np.array(SYSTEM_MATRICES[system]) if kind == "pressure" else None
            out.append(
                Invocation(
                    name=f"{kind}-{system}",
                    kind=kind,
                    text=_config([f"system = {system}"], kind, params),
                    rows=_small_rows(kind, params),
                    matrix=matrix,
                )
            )
    for family, low, high in _FAMILIES:
        model = f"{family}({rng.uniform(low, high):.6f})"
        params = {"n": f"2..{int(rng.integers(10, 21))}", "seed": _seed(rng)}
        out.append(
            Invocation(
                name=f"corollary1-{family}",
                kind="corollary1",
                text=_config([f"model = {model}"], "corollary1", params),
                rows=_small_rows("corollary1", params),
            )
        )
    # range-3 potentials, so equilibrium() recodes to the 2-block shift
    for shift_name, adjacency in SHIFT_ADJACENCY.items():
        values = {w: float(rng.uniform(-1.0, 1.0)) for w in three_words(adjacency)}
        potential = ["[potential]", "range = 3"] + [
            f'value "{"".join("abc"[i] for i in w)}" = {x!r}' for w, x in values.items()
        ]
        out.append(
            Invocation(
                name=f"pressure-range3-{shift_name}",
                kind="pressure",
                text=_config([f"builtin = {shift_name}"], "pressure", {"seed": _seed(rng)}, potential),
                rows=9,
                matrix=block_matrix(adjacency, values),
            )
        )
    # a two-state truncation, so the combined orbit harness runs here too
    family, low, high = _FAMILIES[int(rng.integers(len(_FAMILIES)))]
    params = {"n": 2, "k": "3..6", "seed": _seed(rng)}
    out.append(
        Invocation(
            name="corollary2-model",
            kind="corollary2",
            text=_config([f"model = {family}({rng.uniform(low, high):.6f})"], "corollary2", params),
            rows=4,
        )
    )
    return [out[i] for i in rng.permutation(len(out))]


def three_words(adjacency) -> list:
    n = len(adjacency)
    return [(a, b, c) for a in range(n) for b in range(n) for c in range(n)
            if adjacency[a][b] and adjacency[b][c]]


def block_matrix(adjacency, values: dict) -> np.ndarray:
    """Weighted matrix of a range-3 potential on the shift of admissible
    2-words: (a, b) -> (b, c) carries exp(phi(a, b, c))."""
    pairs = [(a, b) for a in range(len(adjacency)) for b in range(len(adjacency)) if adjacency[a][b]]
    index = {p: i for i, p in enumerate(pairs)}
    m = np.zeros((len(pairs), len(pairs)))
    for (a, b, c), x in values.items():
        m[index[(a, b)], index[(b, c)]] = math.exp(x)
    return m


# ---------------------------------------------------------------------------
# orbit-enum: corollary2, where periodic-orbit enumeration is the cost


# (truncation size, largest period) per model config; the seed draws the
# weight family and its parameter, which do not change the enumeration cost
_ORBIT_MODELS = ((3, 7), (4, 6), (5, 6), (6, 5))
# (two-state builtin system, largest period)
_ORBIT_SYSTEMS = (("full2-zero", 11), ("full2-bernoulli", 11), ("golden-zero", 14), ("golden-range2", 14))
_FAMILIES = (("geometric", 0.3, 0.7), ("zeta", 2.0, 4.0))


def orbit_enum(seed: int, index: int) -> list:
    rng = _rng("orbit-enum", seed, index)
    out = []
    for size, k_max in _ORBIT_MODELS:
        family, low, high = _FAMILIES[int(rng.integers(len(_FAMILIES)))]
        model = f"{family}({rng.uniform(low, high):.6f})"
        params = {"n": size, "k": f"3..{k_max}", "seed": _seed(rng)}
        out.append(
            Invocation(
                name=f"corollary2-n{size}-k{k_max}",
                kind="corollary2",
                text=_config([f"model = {model}"], "corollary2", params),
                rows=k_max - 2,
            )
        )
    for system, k_max in _ORBIT_SYSTEMS:
        params = {"k": f"3..{k_max}", "seed": _seed(rng)}
        out.append(
            Invocation(
                name=f"corollary2-{system}",
                kind="corollary2",
                text=_config([f"system = {system}"], "corollary2", params),
                rows=k_max - 2,
            )
        )
    return [out[i] for i in rng.permutation(len(out))]


# ---------------------------------------------------------------------------
# spectral-large: dense eigendata on random mixing shifts, no periodic orbits


# (kind, state count, extra experiment parameters)
_SPECTRAL = (
    ("pressure", 64, {}),
    ("pressure", 256, {}),
    ("pressure", 512, {}),
    ("theorem1", 128, {"trials": 4, "f-range": 2}),
    ("theorem1", 512, {"trials": 4, "f-range": 2}),
    ("corollary3", 64, {"trials": 2}),
    ("corollary3", 256, {"trials": 2}),
)


def random_mixing_shift(n: int, rng):
    """Edges of a random mixing shift on n states, with a value per edge.

    A Hamiltonian cycle makes the graph irreducible and one self-loop makes
    it aperiodic; 3n further distinct random edges keep the spectral gap
    away from zero (kappa about 0.6), so the eigensolver cost is steady.
    """
    order = rng.permutation(n)
    edges = {(int(order[i]), int(order[(i + 1) % n])) for i in range(n)}
    loop = int(rng.integers(n))
    edges.add((loop, loop))
    while len(edges) < 4 * n + 1:
        edges.add((int(rng.integers(n)), int(rng.integers(n))))
    edges = sorted(edges)
    values = [float(v) for v in rng.uniform(-1.0, 1.0, size=len(edges))]
    return edges, values


def weighted_matrix(n: int, edges, values) -> np.ndarray:
    b = np.zeros((n, n))
    for (u, v), x in zip(edges, values):
        b[u, v] = math.exp(x)
    return b


def spectral_large(seed: int, index: int) -> list:
    rng = _rng("spectral-large", seed, index)
    out = []
    for kind, n, extra in _SPECTRAL:
        edges, values = random_mixing_shift(n, rng)
        shift_lines = [
            "states = " + " ".join(f"s{i}" for i in range(n)),
            "edges = " + " ".join(f"s{u}:s{v}" for u, v in edges),
        ]
        potential = ["[potential]", "range = 2"] + [
            f'value "s{u}:s{v}" = {x!r}' for (u, v), x in zip(edges, values)
        ]
        params = {**extra, "seed": _seed(rng)}
        out.append(
            Invocation(
                name=f"{kind}-n{n}",
                kind=kind,
                text=_config(shift_lines, kind, params, potential),
                rows=9 if kind == "pressure" else params["trials"],
                matrix=weighted_matrix(n, edges, values) if kind == "pressure" else None,
            )
        )
    return [out[i] for i in rng.permutation(len(out))]


GENERATORS = {
    "kinds-small": kinds_small,
    "orbit-enum": orbit_enum,
    "spectral-large": spectral_large,
}


def batch(workload: str, seed: int, index: int) -> list:
    """The configs of batch ``index`` of a workload under ``seed``."""
    return GENERATORS[workload](seed, index)
