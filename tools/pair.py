"""Paired, in-process timing of two source checkouts on the benchmark's configs.

    python3 tools/pair.py --parent ../parent --change . --workload kinds-small --seed 7 --batches 20

Each checkout's ``src/thermoshift`` is imported under a package name of its
own, so both sides run in one interpreter, on the same generated configs
(``perfbench/workloads.py`` of the checkout holding this script, imported
read-only).  Batches 0..N run on both sides, alternating which side goes
first; batch 0 warms both sides and is compared but not timed.  Each
config runs through ``perfbench/gate.py``'s ``invoke``, with ``gate.cli``
pointed at the side's ``cli`` module.  Each side's batch time is the process
time (``time.process_time``) of those calls, summed over the batch's
configs, so the host's other load moves it less than wall time.

RuntimeWarnings are errors here, as in the tier-1 suite.  Every invocation's
exit code, standard output (with the ``--out`` directory masked), standard
error and CSV bytes are compared between the sides.

The summary gives each side's median and quartiles of batch time, the
number of batches the change won, and the count of invocations whose CSV
bytes, or any part of whose outcome, differ.  The last line is one JSON
object with the same numbers.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

# One BLAS thread, as in perfbench/run.py; set before numpy is imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
sys.dont_write_bytecode = True  # leave no cache files beside the benchmark's sources

import gate  # noqa: E402
import workloads  # noqa: E402

SIDES = ("parent", "change")


def load_checkout(root: Path, name: str):
    """The ``cli`` module of ``root/src/thermoshift``, imported as the
    package ``name``; the package uses relative imports only."""
    package = root / "src" / "thermoshift"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None:
        raise SystemExit(f"no thermoshift sources under {root / 'src'}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def unload(name: str):
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]


def invoke(cli, inv, workdir: Path):
    """(process seconds, outcome) of one config run through ``gate.invoke``
    on ``cli``; the outcome is (exit code, stdout with the ``--out``
    directory masked, stderr, CSV bytes)."""
    gate.cli = cli
    start = time.process_time()
    o = gate.invoke(inv, workdir)
    seconds = time.process_time() - start
    return seconds, (o.rc, o.stdout.replace(str(workdir / inv.name), "<out>"), o.stderr, o.csv)


def run_batch(cli, batch, workdir: Path):
    """(process seconds of the batch, outcome per config)."""
    total, outcomes = 0.0, []
    for inv in batch:
        seconds, outcome = invoke(cli, inv, workdir)
        total += seconds
        outcomes.append(outcome)
    return total, outcomes


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pair(parent: Path, change: Path, workload: str, seed: int, batches: int) -> dict:
    clis = {}
    names = {side: f"_pair_{side}_thermoshift" for side in SIDES}
    try:
        for side, root in zip(SIDES, (parent, change)):
            clis[side] = load_checkout(root, names[side])
        times = {side: [] for side in SIDES}
        wins = csv_diffs = outcome_diffs = invocations = 0
        with tempfile.TemporaryDirectory(prefix="pair-") as tmp, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dirs = {side: Path(tmp) / side for side in SIDES}
            for d in dirs.values():
                d.mkdir()
            for index in range(batches + 1):
                batch = workloads.batch(workload, seed, index)
                order = SIDES if index % 2 else SIDES[::-1]
                results = {side: run_batch(clis[side], batch, dirs[side]) for side in order}
                if index > 0:  # batch 0 warms both sides
                    for side in SIDES:
                        times[side].append(results[side][0])
                    wins += results["change"][0] < results["parent"][0]
                for a, b in zip(results["parent"][1], results["change"][1]):
                    invocations += 1
                    csv_diffs += a[3] != b[3]
                    outcome_diffs += a != b
    finally:
        for name in names.values():
            unload(name)
    summary = {"workload": workload, "seed": seed, "pairs": batches, "invocations": invocations}
    for side in SIDES:
        q1, median, q3 = quartiles(times[side])
        summary[side] = {"median_s": median, "q1_s": q1, "q3_s": q3}
    summary["change_wins"] = wins
    summary["median_gap"] = summary["change"]["median_s"] / summary["parent"]["median_s"] - 1.0
    summary["parent_iqr_rel"] = (
        summary["parent"]["q3_s"] - summary["parent"]["q1_s"]
    ) / summary["parent"]["median_s"]
    summary["csv_differences"] = csv_diffs
    summary["outcome_differences"] = outcome_diffs
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="checkout under test")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--batches", type=int, default=20, help="timed pairs of batches")
    args = parser.parse_args(argv)
    if args.batches < 1:
        parser.error("--batches must be at least 1")

    s = pair(args.parent.resolve(), args.change.resolve(), args.workload, args.seed, args.batches)
    for side in SIDES:
        t = s[side]
        print(f"{side}: median {t['median_s'] * 1e3:.3f} ms a batch "
              f"(quartiles {t['q1_s'] * 1e3:.3f} .. {t['q3_s'] * 1e3:.3f})")
    print(f"change won {s['change_wins']} of {s['pairs']} pairs; median gap "
          f"{s['median_gap']:+.1%}, parent IQR {s['parent_iqr_rel']:.1%} of its median")
    print(f"CSV bytes equal: {s['csv_differences'] == 0} "
          f"({s['csv_differences']} of {s['invocations']} differ; "
          f"{s['outcome_differences']} outcomes differ in any part)")
    print(json.dumps(s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
