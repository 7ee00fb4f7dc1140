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
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .approx import (
    CountableModel,
    combined_orbit_harness,
    geometric_model,
    orbit_entropy_identity,
    periodic_orbit_harness,
    periodic_orbit_measures,
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
    _flat_dirichlet,
    _pairwise_sum,
    block_entropy,
    conditional_kl_integral,
    entropy_rate,
    kl_divergence,
    metric_pressure,
    random_markov_measure,
)
from .potential import LocallyConstantFunction, add, random_function
from .shift import DEFAULT_THETA, STATE_CAP, TransitionMatrix, build_sft, check_state_count
from .systems import (
    BUILTIN_SHIFTS,
    BUILTIN_SYSTEMS,
    builtin_shift,
    builtin_system,
    builtin_systems,
)
from .transfer import (
    equilibrium,
    gibbs_certificate,
    gurevich_estimate,
    partition_sum,
    perron_data,
)

IDENTITY_TOL = 1e-10
_FINITE = ("system", "builtin", "states")  # the [shift] sources besides model


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# parsing


_SECTION_KINDS = ("shift", "potential", "perturbation", "observable", "experiment")


@dataclass
class _Section:
    kind: str
    name: str | None
    line: int
    plain: dict = field(default_factory=dict)  # key -> (value, line)
    values: list = field(default_factory=list)  # (word, value, line) per value entry


_ENTRY_RE = re.compile(r'^(\w[\w-]*)\s*(?:"([^"]*)")?\s*=\s*(.*)$')


def _split_sections(text: str) -> list:
    """The sections in text order, each syntax rule checked at its line: known
    kinds, names on [observable] only, words on table values only, plain keys once."""
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
            kind, name = (*parts, None)[:2]
            if kind not in _SECTION_KINDS:
                raise ConfigError(f"unknown section [{kind}]", lineno)
            if kind == "observable" and name is None:
                raise ConfigError("observable sections need a name", lineno)
            if kind != "observable" and name is not None:
                raise ConfigError(f"section [{kind}] does not take a name", lineno)
            current = _Section(kind, name, lineno)
            sections.append(current)
            continue
        m = _ENTRY_RE.match(line)
        if m is None:
            raise ConfigError(f"cannot parse {line!r}", lineno)
        if current is None:
            raise ConfigError("entry before any section header", lineno)
        key, word, value = m.group(1), m.group(2), m.group(3).strip()
        if word is None:
            if key in current.plain:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            current.plain[key] = (value, lineno)
        elif key == "value" and current.kind not in ("shift", "experiment"):
            current.values.append((word, value, lineno))
        else:
            raise ConfigError(f"key {key!r} does not take a word index", lineno)
    return sections


def _once(seen: set, entry, what: str, lineno: int):
    """Refuse, at its line, a table entry whose key or parsed word came before."""
    if entry in seen:
        raise ConfigError(f"duplicate {what}", lineno)
    seen.add(entry)


def _at_line(lineno: int | None, build, *args, **kwargs):
    """Call build, reporting a ValueError it raises as a ConfigError at lineno."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), lineno) from None


# Every value parser takes (key, value, line), the shape the kind table's
# parsers share, and raises a ConfigError at the line.


def _real(key: str, value: str, lineno: int) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got {value!r}", lineno) from None
    if not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got {value!r}", lineno)
    return number


def _integer(key: str, value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}", lineno) from None


def _text(key: str, value: str, lineno: int) -> str:
    return value


def _span(key: str, value: str, lineno: int) -> range:
    """lo..hi, both ends included, or a single integer."""
    if ".." not in value:
        n = _integer(key, value, lineno)
        return range(n, n + 1)
    lo, hi = value.split("..", 1)
    span = range(_integer(key, lo, lineno), _integer(key, hi, lineno) + 1)
    if not span:
        raise ConfigError(f"{key} = {value} is an empty range", lineno)
    return span


def _at_least(low: int, parse: Callable) -> Callable:
    """parse, then refuse a number below low or a range that starts below it."""

    def parse_at_least(key: str, value: str, lineno: int):
        parsed = parse(key, value, lineno)
        if (parsed.start if isinstance(parsed, range) else parsed) < low:
            raise ConfigError(f"{key} must be at least {low}, got {value}", lineno)
        return parsed

    return parse_at_least


# counts start at 1, since 0 would pass over zero rows; sizes at 1, periods
# at 3 and a model's truncation at 2 states, since below them the library
# refuses or fails with no config line
_count = _at_least(1, _integer)
_size = _at_least(1, _span)
_period = _at_least(3, _span)


def _truncation(key: str, value: str, lineno: int) -> int:
    """A model's truncation size, at most STATE_CAP states, refused before
    a shift of that many states is built."""
    n = _at_least(2, _integer)(key, value, lineno)
    if n > STATE_CAP:
        message = f"{key} = {n} truncates to {n} states, the dense-solve limit is {STATE_CAP}"
        raise ConfigError(message, lineno)
    return n


def _theta(key: str, value: str, lineno: int) -> float:
    theta = _real(key, value, lineno)
    if not 0.0 < theta < 1.0:
        raise ConfigError("theta must lie in (0, 1)", lineno)
    return theta


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
# weight family -> (constructor, name of its one argument)
_MODELS = {"geometric": (geometric_model, "ratio"), "zeta": (zeta_model, "alpha")}


def _parse_model(value: str, lineno: int) -> CountableModel:
    m = _MODEL_RE.match(value)
    if m is None:
        raise ConfigError(f"cannot parse model {value!r}", lineno)
    name, arg = m.group(1), m.group(2).strip()
    if name not in _MODELS:
        raise ConfigError(f"unknown weight family {name!r}", lineno)
    family, arg_name = _MODELS[name]
    if not arg or "," in arg:
        raise ConfigError(f"{name} takes one argument: {name}({arg_name})", lineno)
    return _at_line(lineno, family, _real("model", arg, lineno))


@dataclass
class ExperimentConfig:
    kind: str
    params: dict  # the kind's own [experiment] keys -> parsed values
    seed: int
    out: str
    shift: TransitionMatrix | None
    phi: LocallyConstantFunction | None  # on `shift`, which carries the run's one theta
    model: CountableModel | None
    observables: dict  # name -> function, or state -> value on a model
    perturbation: LocallyConstantFunction | None


def _table_keys(section: _Section) -> tuple:
    """The range and default of a table on a finite shift, None where not given."""
    read = {"range": None, "default": None}
    for key, (value, lineno) in section.plain.items():
        if key == "value":
            raise ConfigError('value entries look like: value "ab" = 1.5', lineno)
        if key not in read:
            raise ConfigError(f"unknown key {key!r}", lineno)
        read[key] = (_count if key == "range" else _real)(key, value, lineno)
    return read["range"], read["default"]


def _build_function(
    shift: TransitionMatrix, section: _Section, keys: tuple, kind: str
) -> LocallyConstantFunction:
    """The section's table, its range checked against the kind's before any word is listed."""
    depth, default = keys
    entries = []  # (word, spelling, line, value) per value entry
    seen = set()  # the words given a value
    for word, value, lineno in section.values:
        number = _real("value", value, lineno)
        parsed = _parse_word(shift, word, lineno)
        _once(seen, parsed, f"value for word {word!r}", lineno)
        entries.append((parsed, word, lineno, number))
    if depth is None:
        depth = max((len(w) for w, *_ in entries), default=1)
    values = {}
    for w, spelling, lineno, number in entries:
        if len(w) != depth:
            raise ConfigError(f"word {spelling!r} has length {len(w)}, range is {depth}", lineno)
        values[tuple(shift.states[i] for i in w)] = number
    limit = _KINDS[kind].sections[section.kind]
    if depth > limit:
        message = f"{kind} takes a [{section.kind}] of range at most {limit}"
        raise ConfigError(f"{message}, got range {depth}", section.line)
    if section.kind == "potential" and depth > 2:  # equilibrium recodes it
        _at_line(section.line, check_state_count, shift, depth - 1)
    build = LocallyConstantFunction.from_values
    return _at_line(section.line, build, shift, depth, values, default=default)


def _build_model_observable(section: _Section) -> dict:
    for _, lineno in section.plain.values():  # refused at the first plain key
        raise ConfigError('countable-model observables take only value "s" = x entries', lineno)
    values = {}
    seen = set()
    for word, value, lineno in section.values:
        state = _integer("value", word, lineno)
        if state < 1:
            raise ConfigError(f"states are numbered from 1, got {word!r}", lineno)
        values[state] = _real("value", value, lineno)
        _once(seen, state, f"value for state {word!r}", lineno)
    return values


def _shift_source(section: _Section) -> tuple:
    """The one source key of a [shift] section, system, builtin, model or
    states (read with edges), and the section's plain entries."""
    plain = section.plain
    sources = [key for key in plain if key in (*_FINITE, "model")]
    if not sources:
        raise ConfigError(
            "shift section needs system, builtin, model, or states+edges", section.line
        )
    reads = ("states", "edges") if sources[0] == "states" else sources[:1]
    for key, (_, lineno) in plain.items():
        if key not in reads:
            raise ConfigError(f"[shift] with {sources[0]} does not read {key!r}", lineno)
    if "edges" in reads and "edges" not in plain:
        raise ConfigError("explicit shifts need an edges entry", plain["states"][1])
    return sources[0], plain


def parse_config(text: str) -> ExperimentConfig:
    sections = _split_sections(text)
    shift_sec, pot_sec, pert_sec, obs_secs, exp_sec = (
        [s for s in sections if s.kind == k] for k in _SECTION_KINDS
    )
    if len(exp_sec) != 1:
        raise ConfigError("config needs exactly one [experiment] section")
    if len(shift_sec) > 1 or len(pot_sec) > 1 or len(pert_sec) > 1:
        raise ConfigError("at most one [shift], [potential], [perturbation] each")

    exp_plain = exp_sec[0].plain
    kind_entry = exp_plain.pop("kind", None)
    if kind_entry is None:
        raise ConfigError("experiment needs a kind", exp_sec[0].line)
    kind = kind_entry[0]
    if kind not in _KINDS:
        raise ConfigError(
            f"unknown experiment kind {kind!r}; have {', '.join(_KINDS)}",
            kind_entry[1],
        )
    sections_read = _KINDS[kind].sections
    reads = {"seed": _at_least(0, _integer), "out": _text, **_KINDS[kind].keys}
    if "observable" in sections_read:
        reads["observable"] = _text
    for key, (value, lineno) in exp_plain.items():
        if key not in reads:
            raise ConfigError(
                f"{kind} does not read {key!r}; it reads kind, {', '.join(reads)}", lineno
            )
    source, plain = _shift_source(shift_sec[0]) if shift_sec else (None, {})
    # keys a kind reads only in some settings, refused before any value is parsed
    dropped = {}
    if kind == "corollary2" and source == "model":
        dropped["theta"] = "corollary2 reads theta only on a finite shift"
    elif kind == "corollary2":
        dropped["n"] = "corollary2 reads n, the truncation size, only on a countable model"
    elif kind == "corollary3" and pert_sec:
        for key in ("trials", "max-diff"):
            dropped[key] = f"corollary3 does not read {key!r} beside a [perturbation] section"
    for key, message in dropped.items():
        if key in exp_plain:
            raise ConfigError(message, exp_plain[key][1])
    params = {key: reads[key](key, value, line) for key, (value, line) in exp_plain.items()}
    value, lineno = plain.get(source, (None, None))
    # a source the kind does not run on, refused before any shift is built
    if source not in _KINDS[kind].runs_on:
        if source is None:
            raise ConfigError(f"experiment {kind!r} needs a [shift] section")
        if source == "model":
            raise ConfigError(f"experiment {kind!r} needs a finite shift and potential", lineno)
        raise ConfigError(f"{kind} needs a countable model in [shift]", lineno)
    seed = params.pop("seed", 0)
    out = params.pop("out", "results")
    theta = params.get("theta", DEFAULT_THETA)

    # each table's range and default, read like the [experiment] values
    # before any shift is built; a model's observables take neither
    tables = (*pot_sec, *pert_sec, *obs_secs)
    keys = {} if source == "model" else {s.line: _table_keys(s) for s in tables}
    shift = phi = model = None
    if source == "system":
        shift, phi = _at_line(lineno, builtin_system, value, theta)
    elif source == "builtin":
        shift = _at_line(lineno, builtin_shift, value, theta)
    elif source == "model":
        model = _parse_model(value, lineno)
    elif source == "states":
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
        shift = _at_line(lineno, build_sft, value.split(), edges, theta)
    if "observable" in params and params["observable"] not in [s.name for s in obs_secs]:
        raise ConfigError(
            f"experiment references undefined observable {params['observable']!r}",
            exp_plain["observable"][1],
        )
    if "state" in params:
        _at_line(exp_plain["state"][1], shift.index, params["state"])
    # sections the run does not read, refused after every [experiment] value
    # has been read and before any table is built; a system or a model fixes
    # its own weights
    for s in tables:
        if s.kind == "potential" and source == "system":
            raise ConfigError("a builtin system already fixes the potential", s.line)
        if s.kind == "potential" and source == "model":
            raise ConfigError("a countable model already fixes its weights", s.line)
        if s.kind not in sections_read:
            what = "[observable] sections" if s.kind == "observable" else f"a [{s.kind}] section"
            raise ConfigError(f"{kind} does not read {what}", s.line)

    def build(s: _Section) -> LocallyConstantFunction:
        return _build_function(shift, s, keys[s.line], kind)

    if shift is not None and phi is None:
        phi = build(pot_sec[0]) if pot_sec else LocallyConstantFunction.zero(shift)
    perturbation = build(pert_sec[0]) if pert_sec else None
    observables = {}
    for s in obs_secs:
        if s.name in observables:
            raise ConfigError(f"duplicate observable {s.name!r}", s.line)
        observables[s.name] = _build_model_observable(s) if model else build(s)

    return ExperimentConfig(
        kind=kind,
        params=params,
        seed=seed,
        out=out,
        shift=shift,
        phi=phi,
        model=model,
        observables=observables,
        perturbation=perturbation,
    )


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    if isinstance(value, float):  # about half the cells, np.float64 too
        return "%.17g" % value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
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


def _pick_observable(cfg: ExperimentConfig):
    """The observable named in [experiment], else the first one defined, else
    the indicator of the first state (state 1 on a countable model)."""
    name = cfg.params.get("observable", next(iter(cfg.observables), None))
    if name is not None:
        return cfg.observables[name]
    if cfg.model is not None:
        return {1: 1.0}
    return LocallyConstantFunction.indicator(cfg.shift, (0,))


# ---------------------------------------------------------------------------
# experiments
#
# The library reports and the experiment judges: each kind's build returns
# its CSV rows and then its checks, which decide the cross-checks carried by
# the reports it already holds.


def _report_row(cfg: ExperimentConfig, rep, **given) -> tuple:
    """A bound report's row under its kind's header.  Each column is a value
    given here, else the seed, else the report's lhs, rhs, slack or vacuous,
    else one of its terms, else one of its params."""
    own = dict(seed=cfg.seed, lhs=rep.lhs, rhs=rep.rhs, slack=rep.slack, vacuous=rep.vacuous)
    values = {**rep.params, **rep.terms, **own, **given}
    return tuple(values[column] for column in _COLUMNS[cfg.kind])


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
    attained = abs(metric_pressure(data.measure, data.phi) - data.pressure) <= IDENTITY_TOL
    return rows, [Check("variational-identity", attained, "Gibbs measure attains the pressure")]


def _build_gibbs(cfg: ExperimentConfig):
    data = equilibrium(cfg.phi)
    n_max = cfg.params.get("n-max", 8)
    cert = gibbs_certificate(data, n_max)
    word = "" if not cert.worst_word else ":".join(data.shift.labels(cert.worst_word))
    rows = [(n_max, cert.empirical, cert.apriori, cert.worst_ratio, word)]
    window = f"empirical {cert.empirical:.6g} within a-priori {cert.apriori:.6g}"
    return rows, [Check("cylinder-window", cert.empirical <= cert.apriori, window)]


def _build_partition_sums(cfg: ExperimentConfig):
    state = cfg.params.get("state", cfg.shift.states[0])
    n_range = cfg.params.get("n", range(1, 13))
    # a period past the float range is refused by the sums, with both routes
    # in the message, before the estimates read their diagonal
    sums = partition_sum(cfg.shift, cfg.phi, state, n_range)
    estimates = gurevich_estimate(cfg.shift, cfg.phi, state, max(n_range))
    gur = {n: (value, residual) for n, value, residual in estimates}
    rows = [
        (n, ps.enumeration, ps.matrix, ps.rel_err, *gur.get(n, (math.nan, math.nan)))
        for n, ps in zip(n_range, sums)
    ]
    return rows, [_deviation_check("route-agreement", "relative", (ps.rel_err for ps in sums))]


def _build_theorem1(cfg: ExperimentConfig):
    data = equilibrium(cfg.phi)
    trials = cfg.params.get("trials", 100)
    f_range = cfg.params.get("f-range", 3)
    reports = []
    for trial in range(trials):
        rng = np.random.default_rng([cfg.seed, trial])
        mu = random_markov_measure(data.shift, rng)
        depth = int(rng.integers(1, f_range + 1))
        f = random_function(data.shift, depth, rng)
        reports.append(pressure_gap_bound(data, mu, f))
    rows = [_report_row(cfg, rep, trial=t) for t, rep in enumerate(reports)]
    return rows, [_slack_check(reports, "min slack")]


def _build_theorem2(cfg: ExperimentConfig):
    data = equilibrium(cfg.phi)
    trials = cfg.params.get("trials", 20)
    n_range = cfg.params.get("n", range(1, 13))
    ell = next(k for k in range(1, data.phi.depth + 1) if data.phi.variation(k) == 0.0)
    reports, rows = [], []
    for trial in range(trials):
        rng = np.random.default_rng([cfg.seed, 2, trial])
        mu = random_markov_measure(data.shift, rng)
        f = random_function(data.shift, int(rng.integers(1, 3)), rng)
        for n in n_range:
            forms = [("general", 0, finitary_gap_bound(data, mu, f, n))]
            if n >= 3 * ell:
                forms.append(("markov", ell, block_entropy_gap_bound(data, mu, f, n, ell)))
            for form, depth, rep in forms:
                reports.append(rep)
                given = {"form": form, "trial": trial, "n": n, "ell": depth}
                rows.append(_report_row(cfg, rep, radicand=rep.terms["raw_radicand"], **given))
    chain = (r.terms.get("chain_dev", 0.0) for r in reports)
    return rows, [
        _slack_check(reports, "min non-vacuous slack"),
        _deviation_check("block-chain-rule", "chain-rule", chain),
    ]


def _build_corollary1(cfg: ExperimentConfig):
    n_range = cfg.params.get("n", range(2, 21))
    reports = truncation_harness(cfg.model, _pick_observable(cfg), n_range)
    rows = [_report_row(cfg, rep) for rep in reports]
    return rows, [_slack_check(reports, "min non-vacuous slack")]


def _build_corollary2(cfg: ExperimentConfig):
    k_range = cfg.params.get("k", range(3, 13))
    if cfg.model is not None:
        sub = truncate(cfg.model, cfg.params.get("n", 6))
        reports = combined_orbit_harness(sub, _pick_observable(cfg), k_range)
    else:
        reports = periodic_orbit_harness(equilibrium(cfg.phi), _pick_observable(cfg), k_range)
    rows = [
        _report_row(
            cfg,
            rep,
            combined_lhs=rep.terms.get("combined_lhs", rep.lhs),
            combined_rhs=rep.terms.get("combined_rhs", rep.rhs),
        )
        for rep in reports
    ]
    return rows, [
        _slack_check(reports, "min slack on settled periods"),
        _identity_check("orbit-entropy-identity", reports),
        _deviation_check("orbit-trace", "trace", (r.terms["trace_dev"] for r in reports)),
    ]


def _build_corollary3(cfg: ExperimentConfig):
    f = _pick_observable(cfg)
    if cfg.perturbation is not None:
        candidates = [cfg.perturbation]
    else:
        trials = cfg.params.get("trials", 100)
        max_diff = cfg.params.get("max-diff", 0.5)
        candidates = []
        for trial in range(trials):
            rng = np.random.default_rng([cfg.seed, 3, trial])
            bump = random_function(cfg.shift, 2, rng, low=-max_diff, high=max_diff)
            candidates.append(add(cfg.phi, bump))
    data = perron_data(cfg.phi.base, cfg.phi)
    reports = [stability_bound(data, psi, f) for psi in candidates]
    rows = [
        _report_row(cfg, rep, trial=trial, identity_residual=rep.terms["identity_dev"])
        for trial, rep in enumerate(reports)
    ]
    return rows, [_slack_check(reports, "min slack"), _identity_check("exchange-identity", reports)]


def _build_identities(cfg: ExperimentConfig):
    """Rows and checks both come from one list of (system, check, value,
    tolerance) records.

    The random streams name no system, so each shift's measures are drawn
    once a run and shared by the systems on it, with what the measures keep
    once computed."""
    trials = cfg.params.get("trials", 20)
    k_max = cfg.params.get("k-max", 10)
    n_max = cfg.params.get("n-max", 10)
    records = []
    draws = {}  # shift -> (the KL trials' measures, the chain-rule measure)

    for name, shift, phi in builtin_systems():
        if shift not in draws:
            draws[shift] = (
                [
                    random_markov_measure(shift, np.random.default_rng([cfg.seed, 4, i]))
                    for i in range(trials)
                ],
                random_markov_measure(shift, np.random.default_rng([cfg.seed, 5])),
            )
        trial_measures, chain_measure = draws[shift]
        data = perron_data(shift, phi)
        records.append((name, "cohomology", cohomology_residual(data), IDENTITY_TOL))

        kl = []
        for mu in trial_measures:
            gap = data.pressure - metric_pressure(mu, phi)
            kl.append(abs(conditional_kl_integral(data.measure, mu) - gap))
        records.append((name, "kl-pressure", _worst(kl), IDENTITY_TOL))

        orbit, trace = [], []
        for nu in periodic_orbit_measures(data, range(1, k_max + 1)):
            lhs, rhs = orbit_entropy_identity(nu, phi)
            orbit.append(abs(lhs - rhs))
            trace.append(nu.trace_dev)
        records.append((name, "orbit-entropy", _worst(orbit), IDENTITY_TOL))
        records.append((name, "orbit-trace", _worst(trace), IDENTITY_TOL))

        sums = partition_sum(shift, phi, shift.states[0], range(1, n_max + 1))
        records.append((name, "partition-routes", _worst(p.rel_err for p in sums), IDENTITY_TOL))

        mu = chain_measure
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
        p = _flat_dirichlet(rng, dim).tolist()
        q = _flat_dirichlet(rng, dim).tolist()
        kl = kl_divergence(p, q)
        l1 = _pairwise_sum([abs(b - a) for a, b in zip(p, q)])
        if kl < 0.0 or l1 > math.sqrt(2.0 * kl) + 1e-12:
            violations += 1
    records.append(("global", "pinsker-violations", float(violations), 0.0))
    # the trace check prints its line but writes no row
    rows = [(s, c, value, tol, value <= tol) for s, c, value, tol in records if c != "orbit-trace"]
    return rows, [
        Check(f"{s}/{c}", value <= tol, f"{value:.3g} vs {tol:.3g}") for s, c, value, tol in records
    ]


class _Kind(NamedTuple):
    keys: dict  # [experiment] key read beyond kind, seed and out -> its parser
    header: str
    build: Callable  # ExperimentConfig -> (rows, checks)
    runs_on: tuple = _FINITE  # the [shift] sources it takes, None for no [shift]
    # the optional sections it reads -> the longest range of each
    sections: dict = {"potential": math.inf}


_KINDS = {
    "pressure": _Kind({}, "quantity,value", _build_pressure),
    "gibbs": _Kind(
        {"n-max": _count},
        "n_max,empirical_C,apriori_C,worst_ratio,worst_word",
        _build_gibbs,
    ),
    "partition-sums": _Kind(
        {"state": _text, "n": _size},
        "n,enumeration,matrix,rel_err,rate,residual",
        _build_partition_sums,
        sections={"potential": 2},
    ),
    "theorem1": _Kind(
        {"trials": _count, "f-range": _count, "theta": _theta},
        "trial,seed,pressure_gap,f_norm,lhs,rhs,slack,vacuous",
        _build_theorem1,
    ),
    "theorem2": _Kind(
        {"trials": _count, "n": _size, "theta": _theta},
        "form,trial,seed,n,ell,radicand,lhs,rhs,slack,vacuous",
        _build_theorem2,
    ),
    "corollary1": _Kind(
        {"n": _size},
        "n,pressure_gap,lhs,rhs,slack,vacuous",
        _build_corollary1,
        runs_on=("model",),
        sections={"observable": math.inf},
    ),
    "corollary2": _Kind(
        {"k": _period, "n": _truncation, "theta": _theta},
        "k,lhs,rhs,slack,pre_asymptotic,combined_lhs,combined_rhs,identity_dev",
        _build_corollary2,
        runs_on=(*_FINITE, "model"),
        sections={"potential": 2, "observable": math.inf},
    ),
    "corollary3": _Kind(
        {"trials": _count, "max-diff": _at_least(0, _real), "theta": _theta},
        "trial,seed,sup_diff,lhs,rhs,slack,identity_residual",
        _build_corollary3,
        sections={"potential": 2, "perturbation": 2, "observable": math.inf},
    ),
    "identities": _Kind(
        {"trials": _count, "k-max": _count, "n-max": _count},
        "system,check,value,tolerance,ok",
        _build_identities,
        runs_on=(*_FINITE, "model", None),
        sections={},
    ),
}
# each kind's header, split once for the rows of every run
_COLUMNS = {name: tuple(kind.header.split(",")) for name, kind in _KINDS.items()}


def run_experiment(cfg: ExperimentConfig) -> int:
    kind = _KINDS[cfg.kind]
    os.makedirs(cfg.out, exist_ok=True)
    rows, checks = kind.build(cfg)
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


_PARSER = argparse.ArgumentParser(
    prog="thermoshift",
    description="Equilibrium-measure experiments on subshifts of finite type",
)
_PARSER.add_argument("command", nargs="?", choices=["run"], help="run a config file")
_PARSER.add_argument("config", nargs="?", help="path to the experiment config")
_PARSER.add_argument("--out", help="output directory (overrides the config)")
_PARSER.add_argument("--seed", type=int, help="seed override")
_PARSER.add_argument(
    "--list-builtins", action="store_true", help="list builtin shifts and systems"
)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        _PARSER.error(f"--seed must be at least 0, got {args.seed}")

    if args.list_builtins:
        for name in sorted(BUILTIN_SHIFTS):
            print(f"shift {name}")
        for name in sorted(BUILTIN_SYSTEMS):
            print(f"system {name}")
        return 0
    if args.command != "run" or args.config is None:
        _PARSER.error("expected: thermoshift run <config> (or --list-builtins)")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        return run_experiment(cfg)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
