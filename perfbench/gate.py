"""Running one generated config through ``thermoshift.cli.main`` and
checking what it produced.

An invocation passes the gate when it exits 0, every ``check`` it prints is
PASS, its CSV has the row count it reports (and the count the kind fixes,
where the benchmark knows it), and every ``pressure`` row agrees with the
benchmark's own oracle: the log spectral radius of the weighted matrix the
benchmark generated, from ``numpy.linalg.eigvals``.  Whole reference CSVs
are deliberately not pinned: solver changes may move the last digits.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import thermoshift.cli as cli

PRESSURE_RTOL = 1e-10

_CHECK_RE = re.compile(r"^check (.+): (PASS|FAIL) ", re.MULTILINE)
_ROWS_RE = re.compile(r"^rows: (\d+)$", re.MULTILINE)


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    csv: bytes | None
    seconds: float


def invoke(inv, workdir: Path) -> Outcome:
    """Run one config in-process, as ``thermoshift run <cfg> --out <dir>``.

    ``cli.main`` is looked up on every call, so a tracer installed in the
    module is seen.  Only the call itself is timed.
    """
    cfg = workdir / f"{inv.name}.cfg"
    out = workdir / inv.name
    cfg.write_text(inv.text, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            rc = cli.main(["run", str(cfg), "--out", str(out)])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback fails the invocation, not the benchmark
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    csv_path = out / f"{inv.kind}.csv"
    csv = csv_path.read_bytes() if csv_path.is_file() else None
    shutil.rmtree(out, ignore_errors=True)
    cfg.unlink()
    return Outcome(rc, stdout.getvalue(), stderr.getvalue(), csv, seconds)


def pressure_oracle(matrix) -> float:
    return math.log(float(np.max(np.abs(np.linalg.eigvals(matrix)))))


def pressure_agrees(value: float, oracle: float) -> bool:
    """Relative agreement, floored at 1 so a zero pressure compares absolutely."""
    return abs(value - oracle) <= PRESSURE_RTOL * max(1.0, abs(oracle))


def csv_pressure(csv: bytes) -> float:
    for line in csv.decode("ascii").splitlines():
        quantity, _, value = line.partition(",")
        if quantity == "pressure":
            return float(value)
    raise ValueError("no pressure row")


def reported_rows(outcome: Outcome) -> int:
    m = _ROWS_RE.search(outcome.stdout)
    return int(m.group(1)) if m else 0


def check(inv, outcome: Outcome) -> list:
    """Reasons the invocation fails the gate; empty when it passes."""
    reasons = []
    if outcome.rc != 0:
        reasons.append(f"exit code {outcome.rc}: {outcome.stderr.strip()[-300:]}")
    checks = _CHECK_RE.findall(outcome.stdout)
    if not checks:
        reasons.append("no checks reported")
    reasons += [f"check {name} FAIL" for name, verdict in checks if verdict != "PASS"]
    if outcome.csv is None:
        return reasons + ["no CSV written"]
    data_rows = outcome.csv.count(b"\n") - 1
    if data_rows != reported_rows(outcome):
        reasons.append(f"CSV has {data_rows} rows, summary says {reported_rows(outcome)}")
    if inv.rows is not None and data_rows != inv.rows:
        reasons.append(f"CSV has {data_rows} rows, expected {inv.rows}")
    if inv.matrix is not None:
        try:
            value = csv_pressure(outcome.csv)
        except ValueError:
            return reasons + ["no pressure row in the CSV"]
        oracle = pressure_oracle(inv.matrix)
        if not pressure_agrees(value, oracle):
            reasons.append(f"pressure {value!r} disagrees with oracle {oracle!r}")
    return reasons


@dataclass
class Tally:
    """Invocations attempted and failed; ``fail_frac`` is their ratio."""

    attempted: int = 0
    failed: int = 0

    def record(self, inv, reasons: list):
        self.attempted += 1
        if reasons:
            self.failed += 1
            print(f"FAIL {inv.name}: {'; '.join(reasons)}", file=sys.stderr)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
