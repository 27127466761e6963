"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Each run starts the workload in fresh
interpreters (``python3 -m e2ebench.workload``), prints a JSON run
record, then, as its last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See README.md for the workloads and the metric definitions.

This file uses the standard library only, so it can refuse to run (exit
code 2) where the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: arm stores and trace files.
WORK_DIR = ROOT / ".e2ebench"

WORKLOADS = ("table2-quick", "audit-rand30", "audit-rand30-jobs2")
#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Requests of a traced audit run and of its untraced twin.  Fixed, so
#: the traced counts repeat exactly.
TRACE_REQUESTS = 30
#: Hard limit on a whole run: children still running then are killed.
RUN_LIMIT_S = 160.0
#: Run-record fields copied from the measured child.
RECORD_KEYS = (
    "wall_s", "window_s", "ops", "failed", "errors", "figures",
    "scenario_evals", "scenarios", "processes", "checked", "digests",
    "settings_digest", "scenarios_digest", "context",
)


class ChildFailed(RuntimeError):
    """A workload interpreter exited abnormally or printed no result."""


def child(argv: "list[str]", deadline: float) -> dict:
    """Run one workload interpreter to completion; its JSON result.

    The child leads its own process group; if it still runs at
    ``deadline`` (a ``time.monotonic()`` value), the whole group is
    killed, pool workers included.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "e2ebench.workload", *argv,
            "--work-dir", str(WORK_DIR), "--spawned-at", repr(spawned),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(0.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"run exceeded {RUN_LIMIT_S:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        wait_group_gone(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"workload child exited with {proc.returncode}")
    return json.loads(lines[-1])


def wait_group_gone(pgid: int, grace_s: float = 5.0) -> None:
    """Wait until no process of a finished child's group is left.

    Pool helpers (the shared-memory resource tracker) exit on their own
    right after the child; stragglers are killed after ``grace_s``.
    """
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline + grace_s:
        late = time.monotonic() > deadline
        try:
            os.killpg(pgid, signal.SIGKILL if late else 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: machine drift shows next to it."""
    begin = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - begin


def run(args: argparse.Namespace) -> "tuple[dict, dict]":
    """One benchmark run; returns (run record, final result)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK_DIR.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "calibration_s_start": calibration_s(),
    }
    if args.trace:
        fixed = (
            []
            if args.workload == "table2-quick"
            else ["--requests", str(TRACE_REQUESTS)]
        )
        plain = child(common + fixed, deadline)
        trace_file = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        measured = child(
            common + fixed + ["--trace-out", str(trace_file)], deadline
        )
        metrics = dict(measured["metrics"])
        metrics["trace.overhead_s"] = {
            "value": measured["window_s"] - plain["window_s"],
            "unit": "s",
        }
        runs = [plain, measured]
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        setups = [
            child(common + ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        measured = child(common + ["--seconds", str(args.seconds)], deadline)
        setups.append(measured["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **measured["metrics"],
        }
        runs = [measured]
        record["setup_samples_s"] = setups
        timed = measured["figures"]["ops_timed"]
        record["samples"] = {
            "setup_s": len(setups),
            "peak_rss_mb": 1,
            "scenarios_per_s": 1,
            "scenario_us.p50": timed,
            "scenario_us.tail": timed,
        }
    record.update({k: measured[k] for k in RECORD_KEYS if k in measured})
    record["calibration_s_end"] = calibration_s()
    record["loadavg_after"] = os.getloadavg()
    failed = sum(r["failed"] for r in runs)
    final = {
        "correct": failed == 0,
        "attempted": sum(r["ops"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }
    return record, final


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no library sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("e2ebench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        record, final = run(args)
    except ChildFailed as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"run": record}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
