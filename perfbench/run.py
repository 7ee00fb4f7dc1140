"""Benchmark of ``thermoshift run`` on seeded, generated configs.

    python3 perfbench/run.py --workload kinds-small --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's configs are generated from ``--seed`` (see
``workloads.py``) and run in-process, one after the other (a closed loop
with one caller), through ``thermoshift.cli.main``.  Every invocation goes
through the correctness gate in ``gate.py``.

One invocation of each kind warms the process; then batches of configs
run until ``--seconds`` would be exceeded by one more batch.  With
``--trace 0``, fresh interpreters are timed between batches until
``import thermoshift`` returns in them (the set-up every CLI user pays).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced batches with batches run under the external span tracer
(``tracing.py``) and reports the per-layer metrics, plus the import breakdown
from ``python -X importtime``.  Spans of the first traced batch are written
to ``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import os

# One BLAS thread: the figures should not depend on what else the machine
# runs.  Set before numpy is imported, here and in every child interpreter.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "thermoshift" / "__init__.py").is_file():
    sys.exit(f"no thermoshift sources under {SRC}")
sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 60
SETUP_PROBE = "import time, thermoshift; print(thermoshift.__file__); print(time.perf_counter())"


def child_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports thermoshift from ``src/``; the BLAS
    settings are inherited from ``os.environ``."""
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def setup_sample() -> float:
    """Seconds from spawning a fresh interpreter until ``import thermoshift``
    returns in it; perf_counter is CLOCK_MONOTONIC, shared with the child."""
    start = time.perf_counter()
    lines = child_python("-c", SETUP_PROBE).stdout.split("\n")
    if not Path(lines[0]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"child imported thermoshift from {lines[0]}")
    return float(lines[1]) - start


def import_breakdown() -> dict:
    """Self import time of numpy, scipy and thermoshift modules, summed per
    package from ``python -X importtime``; medians over a few fresh runs."""
    samples = {"import.numpy_s": [], "import.scipy_s": [], "import.thermoshift_self_s": []}
    for _ in range(IMPORT_SAMPLES):
        totals = dict.fromkeys(samples, 0.0)
        for line in child_python("-X", "importtime", "-c", "import thermoshift").stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _cum, module = (part.strip() for part in line[12:].split("|"))
            if not self_us.isdigit():
                continue  # the header line
            top = module.split(".")[0]
            key = {"numpy": "import.numpy_s", "scipy": "import.scipy_s",
                   "thermoshift": "import.thermoshift_self_s"}.get(top)
            if key is not None:
                totals[key] += int(self_us) * 1e-6
        for key, value in totals.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def run_batch(batch, workdir, tally, tracer=None):
    """Run each config of a batch; returns per-invocation seconds, CSV bytes
    and rows, and the outcomes by name (for the determinism rerun)."""
    times, csv_bytes, rows, outcomes = [], 0, 0, {}
    with tracer if tracer is not None else contextlib.nullcontext():
        for inv in batch:
            outcome = gate.invoke(inv, workdir)
            tally.record(inv, gate.check(inv, outcome))
            times.append(outcome.seconds)
            csv_bytes += len(outcome.csv or b"")
            rows += gate.reported_rows(outcome)
            outcomes[inv.name] = outcome
    return times, csv_bytes, rows, outcomes


def warm_up(workload, seed, workdir, tally):
    """One invocation per kind, the cheapest-looking, from batch 0."""
    cheapest = {}
    for inv in workloads.batch(workload, seed, 0):
        cost = len(inv.text) * (inv.rows or 1)
        if inv.kind not in cheapest or cost < cheapest[inv.kind][0]:
            cheapest[inv.kind] = (cost, inv)
    run_batch([inv for _, inv in cheapest.values()], workdir, tally)


@dataclass
class Measurements:
    plain: list = field(default_factory=list)  # untraced batch times
    per_call: list = field(default_factory=list)  # untraced invocation times
    traced: list = field(default_factory=list)  # traced batch times
    layers: list = field(default_factory=list)  # layer metrics per traced batch
    setup: list = field(default_factory=list)
    first_trace: tracing.Tracer | None = None


def measure(workload, seed, seconds, traced, workdir, tally) -> Measurements:
    """Closed loop over batches 1, 2, ... for about ``seconds``.

    Untraced: every batch is timed, and set-up samples are spread over the
    run so that a few slow seconds of a shared machine do not decide
    ``setup_s``.  Traced: odd batches untraced, even batches traced, so the
    overhead is measured on like batches in the same process.  One more
    batch starts only if the median batch so far still fits in the time left.
    """
    if not traced:
        child_python("-c", SETUP_PROBE)  # compiles the bytecode, untimed
    warm_up(workload, seed, workdir, tally)
    m = Measurements()
    sample = None
    durations = []
    start = time.perf_counter()
    index = 1
    while True:
        batch = workloads.batch(workload, seed, index)
        tracer = tracing.Tracer() if traced and index % 2 == 0 else None
        began = time.perf_counter()
        times, csv_bytes, rows, outcomes = run_batch(batch, workdir, tally, tracer)
        durations.append(time.perf_counter() - began)
        if tracer is None:
            m.plain.append(sum(times))
            m.per_call += times
        else:
            m.traced.append(sum(times))
            numbers = tracing.layer_metrics(tracer)
            numbers.update({"cli.csv_bytes": csv_bytes, "cli.rows": rows})
            m.layers.append(numbers)
            m.first_trace = m.first_trace or tracer
        if sample is None:
            inv = random.Random(f"{workload}-{seed}").choice(batch)
            sample = (inv, outcomes[inv.name].csv)
        index += 1
        elapsed = time.perf_counter() - start
        if not traced and len(m.setup) < 1 + SETUP_SAMPLES * elapsed / seconds:
            m.setup.append(setup_sample())
            elapsed = time.perf_counter() - start
        if m.plain and (m.traced or not traced) and elapsed + statistics.median(durations) > seconds:
            break
    determinism(sample, workdir, tally)
    return m


def determinism(sample, workdir, tally):
    """Rerun one invocation; the README promises byte-identical CSVs."""
    inv, csv = sample
    again = gate.invoke(inv, workdir)
    if again.csv != csv:
        tally.failed += 1
        print(f"FAIL {inv.name}: rerun CSV differs", file=sys.stderr)


def write_spans(tracer, workload, seed):
    names = sorted({s[0] for s in tracer.spans})
    code = {n: i for i, n in enumerate(names)}
    path = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names,
                   "spans": [[code[n], s, e, p] for n, s, e, p in tracer.spans]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if not Path(gate.cli.__file__).resolve().is_relative_to(SRC):
        print(f"thermoshift was imported from {gate.cli.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    metrics = import_breakdown() if args.trace else {}
    tally = gate.Tally()
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        m = measure(
            args.workload, args.seed, args.seconds, args.trace, workdir, tally
        )
    finally:
        for leftover in workdir.glob("*"):
            leftover.unlink()
        workdir.rmdir()

    if not args.trace:
        metrics["setup_s"] = statistics.median(m.setup)
        metrics["wall_s"] = statistics.median(m.plain)
        metrics["run_p50_s"] = statistics.median(m.per_call)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    else:
        write_spans(m.first_trace, args.workload, args.seed)
        for name in m.layers[0]:
            values = [numbers[name] for numbers in m.layers]
            # times vary run to run: median; counts and probes are exact per
            # seed: the first traced batch
            metrics[name] = statistics.median(values) if name.endswith("_s") else values[0]
        metrics["trace.wall_s"] = statistics.median(m.traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(m.plain)
        metrics["fail_frac"] = tally.fail_frac
        wanted = spec["per_layer"]

    batches = len(m.plain) + len(m.traced)
    print(f"workload {args.workload} seed {args.seed}: {batches} batches, "
          f"{tally.attempted} invocations, fail_frac {tally.fail_frac:.6g}")
    result = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        print(f"{entry['name']} = {value:.6g} {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
