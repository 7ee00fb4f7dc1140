"""Config-driven experiment runner.

A config is a line-oriented text file with sections [shift], [potential],
[observable <name>], [measure <name>] and [experiment], each holding
`key = value` pairs; table entries are written `value "ab" = 1.5` with the
word spelled in state labels.  One experiment per invocation; results land in
one CSV per run plus a summary block on stdout.  Identical configs (same
seed) produce byte-identical CSVs: no timestamps, fixed float formatting.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .approx import (
    CountableModel,
    combined_orbit_harness,
    geometric_model,
    orbit_entropy_identity,
    periodic_orbit_harness,
    periodic_orbit_measure,
    stability_bound,
    truncate,
    truncation_harness,
    zeta_model,
)
from .bounds import (
    block_entropy_gap_bound,
    cohomology_residual,
    entropy_averaging_check,
    finitary_gap_bound,
    pressure_gap_bound,
)
from .measures import (
    MarkovMeasure,
    block_entropy,
    conditional_kl_integral,
    entropy_rate,
    kl_divergence,
    make_markov_measure,
    metric_pressure,
    pinsker_gap,
    random_markov_measure,
)
from .potential import LocallyConstantFunction, add, random_function
from .shift import TransitionMatrix, build_sft
from .systems import BUILTIN_SHIFTS, BUILTIN_SYSTEMS, builtin_shift, builtin_system
from .transfer import (
    equilibrium,
    gibbs_certificate,
    gurevich_estimate,
    partition_sum,
    perron_data,
)

EXPERIMENT_KINDS = (
    "pressure",
    "gibbs",
    "partition-sums",
    "theorem1",
    "theorem2",
    "corollary1",
    "corollary2",
    "corollary3",
    "identities",
)

IDENTITY_TOL = 1e-10


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# parsing


@dataclass
class _Section:
    kind: str
    name: str | None
    line: int
    entries: list = field(default_factory=list)  # (key, word_or_None, value, line)


_ENTRY_RE = re.compile(r'^(\w[\w-]*)\s*(?:"([^"]*)")?\s*=\s*(.*)$')


def _split_sections(text: str) -> list:
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            parts = line[1:-1].split()
            if not parts:
                raise ConfigError("empty section header", lineno)
            if len(parts) > 2:
                raise ConfigError("section header takes at most one name", lineno)
            current = _Section(
                kind=parts[0], name=parts[1] if len(parts) == 2 else None, line=lineno
            )
            sections.append(current)
            continue
        m = _ENTRY_RE.match(line)
        if m is None:
            raise ConfigError(f"cannot parse {line!r}", lineno)
        if current is None:
            raise ConfigError("entry before any section header", lineno)
        current.entries.append((m.group(1), m.group(2), m.group(3).strip(), lineno))
    return sections


def _plain_entries(section: _Section) -> dict:
    out = {}
    for key, word, value, lineno in section.entries:
        if word is not None:
            raise ConfigError(f"key {key!r} does not take a word index", lineno)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        out[key] = (value, lineno)
    return out


def _parse_float(value: str, lineno: int) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got {value!r}", lineno) from None
    if not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got {value!r}", lineno)
    return number


def _parse_int(value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}", lineno) from None


def _parse_word(shift: TransitionMatrix, text: str, lineno: int) -> tuple:
    """A word is spelled by concatenating one-character labels, or with
    colon-separated labels when any label is longer."""
    if ":" in text:
        labels = text.split(":")
    elif all(len(s) == 1 for s in shift.states):
        labels = list(text)
    else:
        raise ConfigError(
            "multi-character state labels need colon-separated words", lineno
        )
    try:
        word = tuple(shift.index(s) for s in labels)
    except ValueError as exc:
        raise ConfigError(str(exc), lineno) from None
    if not shift.is_word(word):
        raise ConfigError(f"word {text!r} is not admissible", lineno)
    return word


_MODEL_RE = re.compile(r"^(\w+)\s*\(([^)]*)\)$")


def _parse_model(value: str, lineno: int, scale: float) -> CountableModel:
    m = _MODEL_RE.match(value)
    if m is None:
        raise ConfigError(f"cannot parse model {value!r}", lineno)
    name = m.group(1)
    args = [
        _parse_float(part.strip(), lineno)
        for part in m.group(2).split(",")
        if part.strip()
    ]
    if name == "geometric":
        if len(args) == 1:
            return geometric_model(args[0], scale)
        if len(args) == 2:
            return geometric_model(args[0], args[1])
        raise ConfigError("geometric takes (ratio) or (ratio, scale)", lineno)
    if name == "zeta":
        if len(args) == 1:
            return zeta_model(args[0], scale)
        if len(args) == 2:
            return zeta_model(args[0], args[1])
        raise ConfigError("zeta takes (alpha) or (alpha, scale)", lineno)
    raise ConfigError(f"unknown weight family {name!r}", lineno)


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    seed: int
    out: str
    theta: float
    shift: TransitionMatrix | None
    phi: LocallyConstantFunction | None
    model: CountableModel | None
    observables: dict
    model_observables: dict
    measures: dict


def _build_function(
    shift: TransitionMatrix, section: _Section, theta: float
) -> LocallyConstantFunction:
    entries = {}
    depth = None
    default = None
    local_theta = theta
    for key, word, value, lineno in section.entries:
        if key == "range":
            depth = _parse_int(value, lineno)
        elif key == "theta":
            local_theta = _parse_float(value, lineno)
        elif key == "default":
            default = _parse_float(value, lineno)
        elif key == "value":
            if word is None:
                raise ConfigError('value entries look like: value "ab" = 1.5', lineno)
            entries[(word, lineno)] = _parse_float(value, lineno)
        else:
            raise ConfigError(f"unknown key {key!r}", lineno)
    if depth is None:
        depth = max((len(_parse_word(shift, w, ln)) for (w, ln) in entries), default=1)
    values = {}
    for (word_text, lineno), v in entries.items():
        word = _parse_word(shift, word_text, lineno)
        if len(word) != depth:
            raise ConfigError(
                f"word {word_text!r} has length {len(word)}, range is {depth}", lineno
            )
        values[tuple(shift.states[i] for i in word)] = v
    try:
        return LocallyConstantFunction.from_values(
            shift, depth, values, default=default, theta=local_theta
        )
    except ValueError as exc:
        raise ConfigError(str(exc), section.line) from None


def _build_model_observable(section: _Section) -> dict:
    values = {}
    for key, word, value, lineno in section.entries:
        if key != "value" or word is None:
            raise ConfigError(
                'countable-model observables take only value "s" = x entries', lineno
            )
        values[_parse_int(word, lineno)] = _parse_float(value, lineno)
    return values


def _build_measure(shift: TransitionMatrix, section: _Section, seed: int):
    plain = {key: (value, lineno) for key, word, value, lineno in section.entries if word is None}
    if "random" in plain:
        count, lineno = plain["random"]
        mseed = plain.get("seed", (str(seed), lineno))[0]
        return ("random", _parse_int(count, lineno), _parse_int(mseed, lineno))
    kernel = np.zeros((shift.n, shift.n))
    for key, word, value, lineno in section.entries:
        if key != "p" or word is None:
            raise ConfigError('kernel entries look like: p "ab" = 0.5', lineno)
        w = _parse_word(shift, word, lineno)
        if len(w) != 2:
            raise ConfigError("kernel entries are indexed by 2-words", lineno)
        kernel[w[0], w[1]] = _parse_float(value, lineno)
    try:
        return ("fixed", make_markov_measure(shift, kernel))
    except ValueError as exc:
        raise ConfigError(str(exc), section.line) from None


def parse_config(text: str) -> ExperimentConfig:
    sections = _split_sections(text)
    shift_sec = [s for s in sections if s.kind == "shift"]
    pot_sec = [s for s in sections if s.kind == "potential"]
    pert_sec = [s for s in sections if s.kind == "perturbation"]
    obs_secs = [s for s in sections if s.kind == "observable"]
    mes_secs = [s for s in sections if s.kind == "measure"]
    exp_sec = [s for s in sections if s.kind == "experiment"]
    known = {"shift", "potential", "perturbation", "observable", "measure", "experiment"}
    for s in sections:
        if s.kind not in known:
            raise ConfigError(f"unknown section [{s.kind}]", s.line)
    if len(exp_sec) != 1:
        raise ConfigError("config needs exactly one [experiment] section")
    if len(shift_sec) > 1 or len(pot_sec) > 1 or len(pert_sec) > 1:
        raise ConfigError("at most one [shift], [potential], [perturbation] each")

    exp_plain = _plain_entries(exp_sec[0])
    kind_entry = exp_plain.pop("kind", None)
    if kind_entry is None:
        raise ConfigError("experiment needs a kind", exp_sec[0].line)
    kind = kind_entry[0]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"unknown experiment kind {kind!r}; have {', '.join(EXPERIMENT_KINDS)}",
            kind_entry[1],
        )
    seed = 0
    out = "results"
    theta = 0.5
    params = {}
    for key, (value, lineno) in exp_plain.items():
        if key == "seed":
            seed = _parse_int(value, lineno)
        elif key == "out":
            out = value
        elif key == "theta":
            theta = _parse_float(value, lineno)
        else:
            params[key] = (value, lineno)

    shift = None
    phi = None
    model = None
    if shift_sec:
        plain = _plain_entries(shift_sec[0])
        if "system" in plain:
            name, lineno = plain["system"]
            if pot_sec:
                raise ConfigError(
                    "a builtin system already fixes the potential", pot_sec[0].line
                )
            try:
                shift, phi = builtin_system(name)
            except ValueError as exc:
                raise ConfigError(str(exc), lineno) from None
        elif "builtin" in plain:
            name, lineno = plain["builtin"]
            try:
                shift = builtin_shift(name)
            except ValueError as exc:
                raise ConfigError(str(exc), lineno) from None
        elif "model" in plain:
            value, lineno = plain["model"]
            scale = 1.0
            if "scale" in plain:
                scale = _parse_float(*plain["scale"])
            model = _parse_model(value, lineno, scale)
        elif "states" in plain:
            states_value, lineno = plain["states"]
            states = states_value.split()
            if "edges" not in plain:
                raise ConfigError("explicit shifts need an edges entry", lineno)
            edges_value, elineno = plain["edges"]
            edges = []
            for token in edges_value.split():
                if ":" in token:
                    u, v = token.split(":", 1)
                elif len(token) == 2:
                    u, v = token[0], token[1]
                else:
                    raise ConfigError(f"cannot parse edge {token!r}", elineno)
                edges.append((u, v))
            try:
                shift = build_sft(states, edges)
            except ValueError as exc:
                raise ConfigError(str(exc), lineno) from None
        else:
            raise ConfigError(
                "shift section needs system, builtin, model, or states+edges",
                shift_sec[0].line,
            )
    elif kind != "identities":
        raise ConfigError(f"experiment {kind!r} needs a [shift] section")

    if shift is not None and phi is None:
        if pot_sec:
            phi = _build_function(shift, pot_sec[0], theta)
        else:
            phi = LocallyConstantFunction.zero(shift, theta=theta)
    psi = None
    if pert_sec:
        if shift is None:
            raise ConfigError("perturbation needs a finite shift", pert_sec[0].line)
        psi = _build_function(shift, pert_sec[0], theta)
    params["_psi"] = psi

    observables = {}
    model_observables = {}
    for s in obs_secs:
        if s.name is None:
            raise ConfigError("observable sections need a name", s.line)
        if s.name in observables or s.name in model_observables:
            raise ConfigError(f"duplicate observable {s.name!r}", s.line)
        if model is not None:
            model_observables[s.name] = _build_model_observable(s)
        else:
            if shift is None:
                raise ConfigError("observable before any shift", s.line)
            observables[s.name] = _build_function(shift, s, theta)

    measures = {}
    for s in mes_secs:
        if s.name is None:
            raise ConfigError("measure sections need a name", s.line)
        if shift is None:
            raise ConfigError("measures need a finite shift", s.line)
        if s.name in measures:
            raise ConfigError(f"duplicate measure {s.name!r}", s.line)
        measures[s.name] = _build_measure(shift, s, seed)

    for key in ("observable", "measure"):
        if key in params:
            name, lineno = params[key]
            pool = observables if key == "observable" else measures
            pool_m = model_observables if key == "observable" else {}
            if name not in pool and name not in pool_m:
                raise ConfigError(f"experiment references undefined {key} {name!r}", lineno)

    return ExperimentConfig(
        kind=kind,
        params=params,
        seed=seed,
        out=out,
        theta=theta,
        shift=shift,
        phi=phi,
        model=model,
        observables=observables,
        model_observables=model_observables,
        measures=measures,
    )


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path: str, header: list, rows: list):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _int_param(params: dict, key: str, default: int) -> int:
    if key not in params:
        return default
    value, lineno = params[key]
    return _parse_int(value, lineno)


def _count_param(params: dict, key: str, default: int) -> int:
    """An integer parameter that counts something, so at least 1."""
    value = _int_param(params, key, default)
    if value < 1:
        raise ConfigError(f"{key} must be at least 1, got {value}", params[key][1])
    return value


def _float_param(params: dict, key: str, default: float) -> float:
    if key not in params:
        return default
    value, lineno = params[key]
    return _parse_float(value, lineno)


def _range_param(params: dict, key: str, default: range) -> range:
    if key not in params:
        return default
    value, lineno = params[key]
    if ".." in value:
        lo, hi = value.split("..", 1)
        span = range(_parse_int(lo, lineno), _parse_int(hi, lineno) + 1)
        if not span:
            raise ConfigError(f"{key} = {value} is an empty range", lineno)
        return span
    n = _parse_int(value, lineno)
    return range(n, n + 1)


def _str_param(params: dict, key: str, default: str | None) -> str | None:
    if key not in params:
        return default
    return params[key][0]


def _default_observable(shift: TransitionMatrix, theta: float) -> LocallyConstantFunction:
    return LocallyConstantFunction.indicator(shift, (0,), theta=theta)


def _pick_observable(cfg: ExperimentConfig) -> LocallyConstantFunction:
    name = _str_param(cfg.params, "observable", None)
    if name is not None:
        return cfg.observables[name]
    if cfg.observables:
        return next(iter(cfg.observables.values()))
    return _default_observable(cfg.shift, cfg.theta)


def _pick_model_observable(cfg: ExperimentConfig) -> dict:
    name = _str_param(cfg.params, "observable", None)
    if name is not None:
        return cfg.model_observables[name]
    if cfg.model_observables:
        return next(iter(cfg.model_observables.values()))
    return {1: 1.0}


def _measure_pool(cfg: ExperimentConfig, trials: int):
    """Concrete list of (label, measure) pairs for bound batteries."""
    name = _str_param(cfg.params, "measure", None)
    chosen = [name] if name is not None else sorted(cfg.measures)
    pool = []
    for key in chosen:
        entry = cfg.measures[key]
        if entry[0] == "fixed":
            pool.append((key, entry[1]))
        else:
            _, count, mseed = entry
            for i in range(count):
                rng = np.random.default_rng([mseed, i])
                pool.append((f"{key}-{i}", random_markov_measure(cfg.shift, rng)))
    if not pool:
        for i in range(trials):
            rng = np.random.default_rng([cfg.seed, 1, i])
            pool.append((f"random-{i}", random_markov_measure(cfg.shift, rng)))
    return pool


# ---------------------------------------------------------------------------
# experiments


def _require_finite(cfg: ExperimentConfig):
    if cfg.shift is None or cfg.phi is None:
        raise ConfigError(f"experiment {cfg.kind!r} needs a finite shift and potential")


def _run_pressure(cfg: ExperimentConfig):
    _require_finite(cfg)
    data = equilibrium(cfg.phi)
    rows = [
        ("pressure", data.pressure),
        ("lambda", data.lam),
        ("lambda2_mod", data.lambda2_mod),
        ("kappa", data.kappa),
        ("c", data.c),
        ("a", data.a),
        ("b", data.b),
        ("entropy_rate", entropy_rate(data.measure)),
        ("states", float(data.shift.n)),
    ]
    checks = [
        Check(
            "variational-identity",
            abs(metric_pressure(data.measure, data.phi) - data.pressure) <= IDENTITY_TOL,
            "Gibbs measure attains the pressure",
        )
    ]
    return ["quantity", "value"], rows, checks


def _run_gibbs(cfg: ExperimentConfig):
    _require_finite(cfg)
    data = equilibrium(cfg.phi)
    n_max = _count_param(cfg.params, "n-max", 8)
    cert = gibbs_certificate(data, n_max)
    word = "" if not cert.worst_word else ":".join(data.shift.labels(cert.worst_word))
    rows = [(n_max, cert.empirical, cert.apriori, cert.worst_ratio, word)]
    checks = [
        Check(
            "cylinder-window",
            cert.empirical <= cert.apriori,
            f"empirical {cert.empirical:.6g} within a-priori {cert.apriori:.6g}",
        )
    ]
    return ["n_max", "empirical_C", "apriori_C", "worst_ratio", "worst_word"], rows, checks


def _run_partition_sums(cfg: ExperimentConfig):
    _require_finite(cfg)
    if cfg.phi.depth > 2:
        raise ConfigError("partition sums need a potential of range at most 2")
    state = _str_param(cfg.params, "state", cfg.shift.states[0])
    n_range = _range_param(cfg.params, "n", range(1, 13))
    gur = dict(
        (n, (value, residual))
        for n, value, residual in gurevich_estimate(
            cfg.shift, cfg.phi, state, max(n_range)
        )
    )
    rows = []
    worst_rel = 0.0
    for n in n_range:
        ps = partition_sum(cfg.shift, cfg.phi, state, n)
        rel = abs(ps.enumeration - ps.matrix) / max(1.0, abs(ps.matrix))
        worst_rel = max(worst_rel, rel)
        rate, residual = gur.get(n, (math.nan, math.nan))
        rows.append((n, ps.enumeration, ps.matrix, rel, rate, residual))
    checks = [
        Check(
            "route-agreement",
            worst_rel <= IDENTITY_TOL,
            f"worst relative deviation {worst_rel:.3g}",
        )
    ]
    return ["n", "enumeration", "matrix", "rel_err", "rate", "residual"], rows, checks


def _run_theorem1(cfg: ExperimentConfig):
    _require_finite(cfg)
    data = equilibrium(cfg.phi)
    trials = _count_param(cfg.params, "trials", 100)
    f_range = _int_param(cfg.params, "f-range", 3)
    rows = []
    min_slack = math.inf
    for trial in range(trials):
        rng = np.random.default_rng([cfg.seed, trial])
        mu = random_markov_measure(data.shift, rng)
        depth = int(rng.integers(1, f_range + 1))
        f = random_function(data.shift, depth, rng, theta=cfg.theta)
        rep = pressure_gap_bound(data, mu, f)
        min_slack = min(min_slack, rep.slack)
        rows.append(
            (
                trial,
                cfg.seed,
                rep.terms["pressure_gap"],
                rep.terms["f_norm"],
                rep.lhs,
                rep.rhs,
                rep.slack,
                rep.vacuous,
            )
        )
    checks = [
        Check("slack-nonnegative", min_slack >= 0.0, f"min slack {min_slack:.6g}")
    ]
    header = ["trial", "seed", "pressure_gap", "f_norm", "lhs", "rhs", "slack", "vacuous"]
    return header, rows, checks


def _run_theorem2(cfg: ExperimentConfig):
    _require_finite(cfg)
    data = equilibrium(cfg.phi)
    trials = _count_param(cfg.params, "trials", 20)
    n_range = _range_param(cfg.params, "n", range(1, 13))
    form = _str_param(cfg.params, "form", "both")
    if form not in ("general", "markov", "both"):
        raise ConfigError(f"unknown form {form!r}")
    ell = next(k for k in range(1, data.phi.depth + 1) if data.phi.variation(k) == 0.0)
    ell = _int_param(cfg.params, "ell", ell)
    rows = []
    min_slack = math.inf
    for trial in range(trials):
        rng = np.random.default_rng([cfg.seed, 2, trial])
        mu = random_markov_measure(data.shift, rng)
        f = random_function(data.shift, int(rng.integers(1, 3)), rng, theta=cfg.theta)
        for n in n_range:
            if form in ("general", "both"):
                rep = finitary_gap_bound(data, mu, f, n)
                if not rep.vacuous:
                    min_slack = min(min_slack, rep.slack)
                rows.append(
                    (
                        "general",
                        trial,
                        cfg.seed,
                        n,
                        0,
                        rep.terms["raw_radicand"],
                        rep.lhs,
                        rep.rhs,
                        rep.slack,
                        rep.vacuous,
                    )
                )
            if form in ("markov", "both") and n >= 3 * ell:
                rep = block_entropy_gap_bound(data, mu, f, n, ell)
                min_slack = min(min_slack, rep.slack)
                rows.append(
                    (
                        "markov",
                        trial,
                        cfg.seed,
                        n,
                        ell,
                        rep.terms["raw_radicand"],
                        rep.lhs,
                        rep.rhs,
                        rep.slack,
                        rep.vacuous,
                    )
                )
    checks = [
        Check("slack-nonnegative", min_slack >= 0.0, f"min non-vacuous slack {min_slack:.6g}")
    ]
    header = ["form", "trial", "seed", "n", "ell", "radicand", "lhs", "rhs", "slack", "vacuous"]
    return header, rows, checks


def _run_corollary1(cfg: ExperimentConfig):
    if cfg.model is None:
        raise ConfigError("corollary1 needs a countable model in [shift]")
    n_range = _range_param(cfg.params, "n", range(2, 21))
    reports = truncation_harness(cfg.model, _pick_model_observable(cfg), n_range)
    rows = []
    min_slack = math.inf
    for rep in reports:
        if not rep.vacuous:
            min_slack = min(min_slack, rep.slack)
        rows.append(
            (
                rep.params["n"],
                rep.terms["pressure_gap"],
                rep.lhs,
                rep.rhs,
                rep.slack,
                rep.vacuous,
            )
        )
    checks = [
        Check("slack-nonnegative", min_slack >= 0.0, f"min non-vacuous slack {min_slack:.6g}")
    ]
    return ["n", "pressure_gap", "lhs", "rhs", "slack", "vacuous"], rows, checks


def _run_corollary2(cfg: ExperimentConfig):
    k_range = _range_param(cfg.params, "k", range(3, 13))
    if cfg.model is not None:
        sub = truncate(cfg.model, _int_param(cfg.params, "n", 6))
        reports = combined_orbit_harness(sub, _pick_model_observable(cfg), k_range)
    else:
        _require_finite(cfg)
        data = equilibrium(cfg.phi)
        f = _pick_observable(cfg)
        if data.recoding is not None:
            raise ConfigError("corollary2 needs a potential of range at most 2")
        reports = periodic_orbit_harness(data, f, k_range)
    rows = []
    min_slack = math.inf
    worst_identity = 0.0
    for rep in reports:
        identity_dev = rep.terms["identity_dev"]
        worst_identity = max(worst_identity, identity_dev)
        if not rep.params["pre_asymptotic"]:
            min_slack = min(min_slack, rep.slack)
        rows.append(
            (
                rep.params["k"],
                rep.lhs,
                rep.rhs,
                rep.slack,
                rep.params["pre_asymptotic"],
                rep.terms.get("combined_lhs", rep.lhs),
                rep.terms.get("combined_rhs", rep.rhs),
                identity_dev,
            )
        )
    checks = [
        Check(
            "slack-nonnegative",
            min_slack >= 0.0 or min_slack == math.inf,
            f"min slack on settled periods {min_slack:.6g}",
        ),
        Check(
            "orbit-entropy-identity",
            worst_identity <= IDENTITY_TOL,
            f"worst identity deviation {worst_identity:.3g}",
        ),
    ]
    header = [
        "k",
        "lhs",
        "rhs",
        "slack",
        "pre_asymptotic",
        "combined_lhs",
        "combined_rhs",
        "identity_dev",
    ]
    return header, rows, checks


def _run_corollary3(cfg: ExperimentConfig):
    _require_finite(cfg)
    if cfg.phi.depth > 2:
        raise ConfigError("corollary3 needs potentials of range at most 2")
    f = _pick_observable(cfg)
    psi = cfg.params.get("_psi")
    rows = []
    min_slack = math.inf
    worst_identity = 0.0
    if psi is not None:
        pairs = [(0, psi)]
    else:
        trials = _count_param(cfg.params, "trials", 100)
        max_diff = _float_param(cfg.params, "max-diff", 0.5)
        pairs = []
        for trial in range(trials):
            rng = np.random.default_rng([cfg.seed, 3, trial])
            bump = random_function(
                cfg.shift, 2, rng, low=-max_diff, high=max_diff, theta=cfg.theta
            )
            pairs.append((trial, add(cfg.phi.with_depth(2), bump)))
    data = perron_data(cfg.phi.base, cfg.phi)
    for trial, candidate in pairs:
        rep = stability_bound(data, candidate, f)
        ident = abs(rep.terms["identity_lhs"] - rep.terms["identity_rhs"])
        worst_identity = max(worst_identity, ident)
        min_slack = min(min_slack, rep.slack)
        rows.append(
            (trial, cfg.seed, rep.terms["sup_diff"], rep.lhs, rep.rhs, rep.slack, ident)
        )
    checks = [
        Check("slack-nonnegative", min_slack >= 0.0, f"min slack {min_slack:.6g}"),
        Check(
            "exchange-identity",
            worst_identity <= IDENTITY_TOL,
            f"worst identity deviation {worst_identity:.3g}",
        ),
    ]
    header = ["trial", "seed", "sup_diff", "lhs", "rhs", "slack", "identity_residual"]
    return header, rows, checks


def _run_identities(cfg: ExperimentConfig):
    trials = _count_param(cfg.params, "trials", 20)
    k_max = _count_param(cfg.params, "k-max", 10)
    n_max = _count_param(cfg.params, "n-max", 10)
    rows = []
    checks = []

    def record(system: str, check: str, value: float, tol: float):
        ok = value <= tol
        rows.append((system, check, value, tol, ok))
        checks.append(Check(f"{system}/{check}", ok, f"{value:.3g} vs {tol:.3g}"))

    for name in sorted(BUILTIN_SYSTEMS):
        shift, phi = builtin_system(name)
        data = perron_data(shift, phi)
        record(name, "cohomology", cohomology_residual(data), IDENTITY_TOL)

        worst = 0.0
        for i in range(trials):
            rng = np.random.default_rng([cfg.seed, 4, i])
            mu = random_markov_measure(shift, rng)
            dev = abs(
                conditional_kl_integral(data.measure, mu)
                - (data.pressure - metric_pressure(mu, phi))
            )
            worst = max(worst, dev)
        record(name, "kl-pressure", worst, IDENTITY_TOL)

        worst = 0.0
        for k in range(1, k_max + 1):
            nu = periodic_orbit_measure(shift, phi, k)
            lhs, rhs = orbit_entropy_identity(nu, phi)
            worst = max(worst, abs(lhs - rhs))
        record(name, "orbit-entropy", worst, IDENTITY_TOL)

        worst = 0.0
        for n in range(1, n_max + 1):
            ps = partition_sum(shift, phi, shift.states[0], n)
            worst = max(
                worst, abs(ps.enumeration - ps.matrix) / max(1.0, abs(ps.matrix))
            )
        record(name, "partition-routes", worst, IDENTITY_TOL)

        rng = np.random.default_rng([cfg.seed, 5])
        mu = random_markov_measure(shift, rng)
        worst = 0.0
        h_rate = entropy_rate(mu)
        for n in range(2, 9):
            worst = max(
                worst, abs(block_entropy(mu, n) - block_entropy(mu, n - 1) - h_rate)
            )
        record(name, "block-chain-rule", worst, IDENTITY_TOL)

        worst_slack = 0.0
        worst_ident = 0.0
        for m in range(2, 8):
            lhs, rhs, avg_c, avg_b = entropy_averaging_check(data, mu, 1, m)
            worst_slack = max(worst_slack, lhs - rhs)
            worst_ident = max(worst_ident, abs(avg_c - avg_b))
        record(name, "averaging-slack", max(worst_slack, 0.0), 0.0)
        record(name, "averaging-identity", worst_ident, IDENTITY_TOL)

    violations = 0
    rng = np.random.default_rng([cfg.seed, 6])
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        p = rng.dirichlet([1.0] * dim)
        q = rng.dirichlet([1.0] * dim)
        l1, bound = pinsker_gap(p, q)
        if l1 > bound + 1e-12:
            violations += 1
        if kl_divergence(p, q) < 0.0:
            violations += 1
    record("global", "pinsker-violations", float(violations), 0.0)

    header = ["system", "check", "value", "tolerance", "ok"]
    return header, rows, checks


_RUNNERS = {
    "pressure": _run_pressure,
    "gibbs": _run_gibbs,
    "partition-sums": _run_partition_sums,
    "theorem1": _run_theorem1,
    "theorem2": _run_theorem2,
    "corollary1": _run_corollary1,
    "corollary2": _run_corollary2,
    "corollary3": _run_corollary3,
    "identities": _run_identities,
}


def run_experiment(cfg: ExperimentConfig) -> int:
    header, rows, checks = _RUNNERS[cfg.kind](cfg)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, f"{cfg.kind}.csv")
    _write_csv(path, header, rows)
    print(f"experiment: {cfg.kind}")
    print(f"rows: {len(rows)}")
    print(f"csv: {path}")
    for check in checks:
        print(f"check {check.name}: {'PASS' if check.ok else 'FAIL'} ({check.detail})")
    failed = [c for c in checks if not c.ok]
    print(f"result: {'PASS' if not failed else 'FAIL'}")
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermoshift",
        description="Equilibrium-measure experiments on subshifts of finite type",
    )
    parser.add_argument("command", nargs="?", choices=["run"], help="run a config file")
    parser.add_argument("config", nargs="?", help="path to the experiment config")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument(
        "--list-builtins", action="store_true", help="list builtin shifts and systems"
    )
    args = parser.parse_args(argv)

    if args.list_builtins:
        for name in sorted(BUILTIN_SHIFTS):
            print(f"shift {name}")
        for name in sorted(BUILTIN_SYSTEMS):
            print(f"system {name}")
        return 0
    if args.command != "run" or args.config is None:
        parser.error("expected: thermoshift run <config> (or --list-builtins)")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        return run_experiment(cfg)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
