"""Config-driven experiment runner.

A config is a line-oriented text file with sections [shift], [potential],
[perturbation], [observable <name>] and [experiment], each holding
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
from collections import ChainMap
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
    block_entropy,
    conditional_kl_integral,
    entropy_rate,
    kl_divergence,
    metric_pressure,
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

IDENTITY_TOL = 1e-10
# values of theorem2's form key, which picks the inequalities it reports
_FORMS = ("general", "markov", "both")


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


def _at_line(lineno: int | None, build, *args, **kwargs):
    """Call build, reporting a ValueError it raises as a ConfigError at lineno."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), lineno) from None


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


def _param(params: dict, key: str, default, parse=None):
    """The value under key in a section's plain entries, run through
    parse(value, line) when given; default when the key is absent."""
    if key not in params:
        return default
    value, lineno = params[key]
    return value if parse is None else parse(value, lineno)


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
    word = _at_line(lineno, tuple, map(shift.index, labels))
    if not shift.is_word(word):
        raise ConfigError(f"word {text!r} is not admissible", lineno)
    return word


_MODEL_RE = re.compile(r"^(\w+)\s*\(([^)]*)\)$")
# weight family -> (constructor, name of its first argument)
_MODELS = {"geometric": (geometric_model, "ratio"), "zeta": (zeta_model, "alpha")}


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
    if name not in _MODELS:
        raise ConfigError(f"unknown weight family {name!r}", lineno)
    family, arg = _MODELS[name]
    if len(args) == 1:
        return family(args[0], scale)
    if len(args) == 2:
        return family(args[0], args[1])
    raise ConfigError(f"{name} takes ({arg}) or ({arg}, scale)", lineno)


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
    observables: dict  # name -> function, or state -> value on a model
    perturbation: LocallyConstantFunction | None


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


def parse_config(text: str) -> ExperimentConfig:
    sections = _split_sections(text)
    known = ("shift", "potential", "perturbation", "observable", "experiment")
    for s in sections:
        if s.kind not in known:
            raise ConfigError(f"unknown section [{s.kind}]", s.line)
    shift_sec, pot_sec, pert_sec, obs_secs, exp_sec = (
        [s for s in sections if s.kind == k] for k in known
    )
    if len(exp_sec) != 1:
        raise ConfigError("config needs exactly one [experiment] section")
    if len(shift_sec) > 1 or len(pot_sec) > 1 or len(pert_sec) > 1:
        raise ConfigError("at most one [shift], [potential], [perturbation] each")

    exp_plain = _plain_entries(exp_sec[0])
    kind_entry = exp_plain.pop("kind", None)
    if kind_entry is None:
        raise ConfigError("experiment needs a kind", exp_sec[0].line)
    kind = kind_entry[0]
    if kind not in _KINDS:
        raise ConfigError(
            f"unknown experiment kind {kind!r}; have {', '.join(_KINDS)}",
            kind_entry[1],
        )
    reads = ("seed", "out", "theta", *_KINDS[kind].keys)
    for key, (value, lineno) in exp_plain.items():
        if key not in reads:
            raise ConfigError(
                f"{kind} does not read {key!r}; it reads kind, {', '.join(reads)}", lineno
            )
    seed = _param(exp_plain, "seed", 0, _parse_int)
    out = _param(exp_plain, "out", "results")
    theta = _param(exp_plain, "theta", 0.5, _parse_float)
    params = {key: entry for key, entry in exp_plain.items() if key in _KINDS[kind].keys}

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
            shift, phi = _at_line(lineno, builtin_system, name)
        elif "builtin" in plain:
            name, lineno = plain["builtin"]
            shift = _at_line(lineno, builtin_shift, name)
        elif "model" in plain:
            value, lineno = plain["model"]
            model = _parse_model(value, lineno, _param(plain, "scale", 1.0, _parse_float))
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
            shift = _at_line(lineno, build_sft, states, edges)
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
    perturbation = None
    if pert_sec:
        if shift is None:
            raise ConfigError("perturbation needs a finite shift", pert_sec[0].line)
        perturbation = _build_function(shift, pert_sec[0], theta)

    observables = {}
    for s in obs_secs:
        if s.name is None:
            raise ConfigError("observable sections need a name", s.line)
        if s.name in observables:
            raise ConfigError(f"duplicate observable {s.name!r}", s.line)
        if model is not None:
            observables[s.name] = _build_model_observable(s)
        elif shift is None:
            raise ConfigError("observable before any shift", s.line)
        else:
            observables[s.name] = _build_function(shift, s, theta)

    if "observable" in params:
        name, lineno = params["observable"]
        if name not in observables:
            raise ConfigError(f"experiment references undefined observable {name!r}", lineno)
    if "form" in params and params["form"][0] not in _FORMS:
        raise ConfigError(f"unknown form {params['form'][0]!r}", params["form"][1])
    if "state" in params and shift is not None:
        _at_line(params["state"][1], shift.index, params["state"][0])
    # sections the kind would build and then drop, refused after every
    # [experiment] value has been read
    if pert_sec and kind != "corollary3":
        raise ConfigError(f"{kind} does not read a [perturbation] section", pert_sec[0].line)
    if obs_secs and "observable" not in _KINDS[kind].keys:
        raise ConfigError(f"{kind} does not read [observable] sections", obs_secs[0].line)

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
        perturbation=perturbation,
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


def _write_csv(path: str, header: str, rows: list):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _count_param(params: dict, key: str, default: int) -> int:
    """An integer parameter that counts something, so at least 1."""
    value = _param(params, key, default, _parse_int)
    if value < 1:
        raise ConfigError(f"{key} must be at least 1, got {value}", params[key][1])
    return value


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


def _pick_observable(cfg: ExperimentConfig):
    """The observable named in [experiment], else the first one defined, else
    the indicator of the first state (state 1 on a countable model)."""
    name = _param(cfg.params, "observable", next(iter(cfg.observables), None))
    if name is not None:
        return cfg.observables[name]
    if cfg.model is not None:
        return {1: 1.0}
    return LocallyConstantFunction.indicator(cfg.shift, (0,), theta=cfg.theta)


# ---------------------------------------------------------------------------
# experiments
#
# The library reports and the experiment judges: each kind builds its reports
# and CSV rows, and its checks decide the cross-checks those reports carry.


def _require_finite(cfg: ExperimentConfig):
    if cfg.shift is None or cfg.phi is None:
        raise ConfigError(f"experiment {cfg.kind!r} needs a finite shift and potential")


def _report_row(cfg: ExperimentConfig, rep, **given) -> tuple:
    """A bound report's row under its kind's header.  Each column is a value
    given here, else the seed, else the report's lhs, rhs, slack or vacuous,
    else one of its terms, else one of its params."""
    own = dict(seed=cfg.seed, lhs=rep.lhs, rhs=rep.rhs, slack=rep.slack, vacuous=rep.vacuous)
    values = ChainMap(given, own, rep.terms, rep.params)
    return tuple(values[column] for column in _KINDS[cfg.kind].header.split(","))


def _slack_check(reports: list, label: str) -> Check:
    """Slack must be nonnegative on every report that claims something;
    vacuous and pre-asymptotic reports claim nothing and are skipped.  A nan
    slack on a claiming report makes the smallest slack nan, which fails."""
    claims = (r for r in reports if not (r.vacuous or r.params.get("pre_asymptotic")))
    slacks = [r.slack for r in claims]
    slack = math.nan if any(map(math.isnan, slacks)) else min((math.inf, *slacks))
    return Check("slack-nonnegative", slack >= 0.0, f"{label} {slack:.6g}")


def _worst(deviations) -> float:
    """The largest deviation, 0.0 for none.  A nan deviation makes the
    result nan, so every check against a tolerance fails on it."""
    values = list(deviations)
    return math.nan if any(map(math.isnan, values)) else max((0.0, *values))


def _deviation_check(name: str, label: str, deviations) -> Check:
    worst = _worst(deviations)
    return Check(name, worst <= IDENTITY_TOL, f"worst {label} deviation {worst:.3g}")


def _identity_check(name: str, reports: list) -> Check:
    """An exact identity, judged on the identity_dev terms of the reports."""
    return _deviation_check(name, "identity", (r.terms["identity_dev"] for r in reports))


def _build_pressure(cfg: ExperimentConfig):
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
    return data, rows


def _build_gibbs(cfg: ExperimentConfig):
    _require_finite(cfg)
    data = equilibrium(cfg.phi)
    n_max = _count_param(cfg.params, "n-max", 8)
    cert = gibbs_certificate(data, n_max)
    word = "" if not cert.worst_word else ":".join(data.shift.labels(cert.worst_word))
    return cert, [(n_max, cert.empirical, cert.apriori, cert.worst_ratio, word)]


def _build_partition_sums(cfg: ExperimentConfig):
    _require_finite(cfg)
    if cfg.phi.depth > 2:
        raise ConfigError("partition sums need a potential of range at most 2")
    state = _param(cfg.params, "state", cfg.shift.states[0])
    n_range = _range_param(cfg.params, "n", range(1, 13))
    estimates = gurevich_estimate(cfg.shift, cfg.phi, state, max(n_range))
    gur = {n: (value, residual) for n, value, residual in estimates}
    sums = [partition_sum(cfg.shift, cfg.phi, state, n) for n in n_range]
    rows = [
        (n, ps.enumeration, ps.matrix, ps.rel_err, *gur.get(n, (math.nan, math.nan)))
        for n, ps in zip(n_range, sums)
    ]
    return sums, rows


def _build_theorem1(cfg: ExperimentConfig):
    _require_finite(cfg)
    data = equilibrium(cfg.phi)
    trials = _count_param(cfg.params, "trials", 100)
    f_range = _count_param(cfg.params, "f-range", 3)
    reports = []
    for trial in range(trials):
        rng = np.random.default_rng([cfg.seed, trial])
        mu = random_markov_measure(data.shift, rng)
        depth = int(rng.integers(1, f_range + 1))
        f = random_function(data.shift, depth, rng, theta=cfg.theta)
        reports.append(pressure_gap_bound(data, mu, f))
    return reports, [_report_row(cfg, rep, trial=t) for t, rep in enumerate(reports)]


def _build_theorem2(cfg: ExperimentConfig):
    _require_finite(cfg)
    data = equilibrium(cfg.phi)
    trials = _count_param(cfg.params, "trials", 20)
    n_range = _range_param(cfg.params, "n", range(1, 13))
    form = _param(cfg.params, "form", "both")
    ell = next(k for k in range(1, data.phi.depth + 1) if data.phi.variation(k) == 0.0)
    ell = _count_param(cfg.params, "ell", ell)
    reports = []
    given = []
    for trial in range(trials):
        rng = np.random.default_rng([cfg.seed, 2, trial])
        mu = random_markov_measure(data.shift, rng)
        f = random_function(data.shift, int(rng.integers(1, 3)), rng, theta=cfg.theta)
        for n in n_range:
            if form in ("general", "both"):
                reports.append(finitary_gap_bound(data, mu, f, n))
                given.append({"form": "general", "trial": trial, "n": n, "ell": 0})
            if form in ("markov", "both") and n >= 3 * ell:
                reports.append(block_entropy_gap_bound(data, mu, f, n, ell))
                given.append({"form": "markov", "trial": trial, "n": n, "ell": ell})
    rows = [
        _report_row(cfg, rep, radicand=rep.terms["raw_radicand"], **extra)
        for rep, extra in zip(reports, given)
    ]
    return reports, rows


def _build_corollary1(cfg: ExperimentConfig):
    if cfg.model is None:
        raise ConfigError("corollary1 needs a countable model in [shift]")
    n_range = _range_param(cfg.params, "n", range(2, 21))
    reports = truncation_harness(cfg.model, _pick_observable(cfg), n_range)
    return reports, [_report_row(cfg, rep) for rep in reports]


def _build_corollary2(cfg: ExperimentConfig):
    k_range = _range_param(cfg.params, "k", range(3, 13))
    if cfg.model is not None:
        sub = truncate(cfg.model, _param(cfg.params, "n", 6, _parse_int))
        reports = combined_orbit_harness(sub, _pick_observable(cfg), k_range)
    else:
        _require_finite(cfg)
        if "n" in cfg.params:
            raise ConfigError(
                "corollary2 reads n, the truncation size, only on a countable model",
                cfg.params["n"][1],
            )
        data = equilibrium(cfg.phi)
        f = _pick_observable(cfg)
        if data.recoding is not None:
            raise ConfigError("corollary2 needs a potential of range at most 2")
        reports = periodic_orbit_harness(data, f, k_range)
    rows = [
        _report_row(
            cfg,
            rep,
            combined_lhs=rep.terms.get("combined_lhs", rep.lhs),
            combined_rhs=rep.terms.get("combined_rhs", rep.rhs),
        )
        for rep in reports
    ]
    return reports, rows


def _build_corollary3(cfg: ExperimentConfig):
    _require_finite(cfg)
    if cfg.phi.depth > 2:
        raise ConfigError("corollary3 needs potentials of range at most 2")
    f = _pick_observable(cfg)
    if cfg.perturbation is not None:
        for key in ("trials", "max-diff"):
            if key in cfg.params:
                raise ConfigError(
                    f"corollary3 does not read {key!r} beside a [perturbation] section",
                    cfg.params[key][1],
                )
        candidates = [cfg.perturbation]
    else:
        trials = _count_param(cfg.params, "trials", 100)
        max_diff = _param(cfg.params, "max-diff", 0.5, _parse_float)
        candidates = []
        for trial in range(trials):
            rng = np.random.default_rng([cfg.seed, 3, trial])
            bump = random_function(
                cfg.shift, 2, rng, low=-max_diff, high=max_diff, theta=cfg.theta
            )
            candidates.append(add(cfg.phi.with_depth(2), bump))
    data = perron_data(cfg.phi.base, cfg.phi)
    reports = [stability_bound(data, psi, f) for psi in candidates]
    rows = [
        _report_row(cfg, rep, trial=trial, identity_residual=rep.terms["identity_dev"])
        for trial, rep in enumerate(reports)
    ]
    return reports, rows


def _build_identities(cfg: ExperimentConfig):
    """Reports here are (system, check, value, tolerance) records."""
    trials = _count_param(cfg.params, "trials", 20)
    k_max = _count_param(cfg.params, "k-max", 10)
    n_max = _count_param(cfg.params, "n-max", 10)
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
        records.append((name, "kl-pressure", _worst(kl), IDENTITY_TOL))

        orbit = []
        for k in range(1, k_max + 1):
            lhs, rhs = orbit_entropy_identity(periodic_orbit_measure(shift, phi, k), phi)
            orbit.append(abs(lhs - rhs))
        records.append((name, "orbit-entropy", _worst(orbit), IDENTITY_TOL))

        routes = [
            partition_sum(shift, phi, shift.states[0], n).rel_err
            for n in range(1, n_max + 1)
        ]
        records.append((name, "partition-routes", _worst(routes), IDENTITY_TOL))

        mu = random_markov_measure(shift, np.random.default_rng([cfg.seed, 5]))
        h_rate = entropy_rate(mu)
        chain = [
            abs(block_entropy(mu, n) - block_entropy(mu, n - 1) - h_rate)
            for n in range(2, 9)
        ]
        records.append((name, "block-chain-rule", _worst(chain), IDENTITY_TOL))

        averaging = [entropy_averaging_check(data, mu, 1, m) for m in range(2, 8)]
        slack = _worst(lhs - rhs for lhs, rhs, _, _ in averaging)
        records.append((name, "averaging-slack", slack, 0.0))
        ident = _worst(abs(avg_c - avg_b) for _, _, avg_c, avg_b in averaging)
        records.append((name, "averaging-identity", ident, IDENTITY_TOL))

    # Pinsker: |q - p|_1 <= sqrt(2 KL), and a negative divergence violates
    # it outright; one divergence per pair serves both tests
    violations = 0
    rng = np.random.default_rng([cfg.seed, 6])
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        p = rng.dirichlet([1.0] * dim)
        q = rng.dirichlet([1.0] * dim)
        kl = kl_divergence(p, q)
        if kl < 0.0 or float(np.abs(q - p).sum()) > math.sqrt(2.0 * kl) + 1e-12:
            violations += 1
    records.append(("global", "pinsker-violations", float(violations), 0.0))
    return records, [(s, c, value, tol, value <= tol) for s, c, value, tol in records]


class _Kind(NamedTuple):
    keys: tuple  # the [experiment] keys read beyond kind, seed, out and theta
    header: str
    build: Callable  # ExperimentConfig -> (reports, rows)
    checks: Callable  # reports -> list of Check


_KINDS = {
    "pressure": _Kind(
        (),
        "quantity,value",
        _build_pressure,
        lambda data: [
            Check(
                "variational-identity",
                abs(metric_pressure(data.measure, data.phi) - data.pressure) <= IDENTITY_TOL,
                "Gibbs measure attains the pressure",
            )
        ],
    ),
    "gibbs": _Kind(
        ("n-max",),
        "n_max,empirical_C,apriori_C,worst_ratio,worst_word",
        _build_gibbs,
        lambda cert: [
            Check(
                "cylinder-window",
                cert.empirical <= cert.apriori,
                f"empirical {cert.empirical:.6g} within a-priori {cert.apriori:.6g}",
            )
        ],
    ),
    "partition-sums": _Kind(
        ("state", "n"),
        "n,enumeration,matrix,rel_err,rate,residual",
        _build_partition_sums,
        lambda sums: [
            _deviation_check("route-agreement", "relative", (ps.rel_err for ps in sums))
        ],
    ),
    "theorem1": _Kind(
        ("trials", "f-range"),
        "trial,seed,pressure_gap,f_norm,lhs,rhs,slack,vacuous",
        _build_theorem1,
        lambda reports: [_slack_check(reports, "min slack")],
    ),
    "theorem2": _Kind(
        ("trials", "n", "form", "ell"),
        "form,trial,seed,n,ell,radicand,lhs,rhs,slack,vacuous",
        _build_theorem2,
        lambda reports: [_slack_check(reports, "min non-vacuous slack")],
    ),
    "corollary1": _Kind(
        ("n", "observable"),
        "n,pressure_gap,lhs,rhs,slack,vacuous",
        _build_corollary1,
        lambda reports: [_slack_check(reports, "min non-vacuous slack")],
    ),
    "corollary2": _Kind(
        ("k", "n", "observable"),
        "k,lhs,rhs,slack,pre_asymptotic,combined_lhs,combined_rhs,identity_dev",
        _build_corollary2,
        lambda reports: [
            _slack_check(reports, "min slack on settled periods"),
            _identity_check("orbit-entropy-identity", reports),
        ],
    ),
    "corollary3": _Kind(
        ("trials", "max-diff", "observable"),
        "trial,seed,sup_diff,lhs,rhs,slack,identity_residual",
        _build_corollary3,
        lambda reports: [
            _slack_check(reports, "min slack"),
            _identity_check("exchange-identity", reports),
        ],
    ),
    "identities": _Kind(
        ("trials", "k-max", "n-max"),
        "system,check,value,tolerance,ok",
        _build_identities,
        lambda records: [
            Check(f"{system}/{check}", value <= tol, f"{value:.3g} vs {tol:.3g}")
            for system, check, value, tol in records
        ],
    ),
}


def run_experiment(cfg: ExperimentConfig) -> int:
    kind = _KINDS[cfg.kind]
    reports, rows = kind.build(cfg)
    checks = kind.checks(reports)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, f"{cfg.kind}.csv")
    _write_csv(path, kind.header, rows)
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
