"""Shared result schema of the ``BENCH_*.json`` trajectory records.

Every benchmark that tracks the performance trajectory PR-over-PR
(``bench_incremental.py``, ``bench_scale.py``, ``bench_sweep.py``)
writes its record through :func:`bench_payload` /
:func:`write_payload`, so the JSON artifacts stay structurally
comparable across PRs and across benchmarks:

* ``schema_version`` — bumped only on breaking layout changes;
* ``benchmark`` — the producing script's stem (``sweep``, ``scale``,
  ``incremental``);
* ``mode`` — one sentence describing what the numbers measure;
* ``context`` — benchmark-specific calibration constants and inputs
  (seeds, crossovers, sizes) worth pinning next to the numbers.  Every
  record additionally carries ``context.backend_availability`` — which
  routing backends were importable on the producing machine (and the
  numpy version) — so trajectory comparisons across PRs can tell a
  slow kernel from a missing one;
* ``rows`` — the measurements, one dict per benchmarked configuration.
  A timed arm reports the median and quartiles of its rounds
  (:func:`quartiles`) and every record carries ``context.cpu_count``,
  so a speedup is read with its spread and the box that produced it.

The helper is deliberately dependency-free (stdlib json only) so the
benchmarks stay runnable without the package installed; the backend
probe soft-imports :mod:`repro.routing.backend` and degrades to a
stub when the package is absent.
"""

from __future__ import annotations

import json
import os

#: Version of the shared BENCH_*.json layout.
SCHEMA_VERSION = 1


def _backend_availability() -> dict:
    """Probe which routing backends this interpreter can run."""
    try:
        from repro.routing.backend import backend_availability
    except ImportError:
        return {"python": True, "vector": None}
    return backend_availability()


def quartiles(values: "list[float]") -> "dict[str, float]":
    """Median and quartiles of one arm's timed rounds.

    Linear interpolation between order statistics (numpy's default
    percentile rule), rounded to 2 decimals.
    """
    ordered = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return {
        "median": round(at(0.5), 2),
        "q1": round(at(0.25), 2),
        "q3": round(at(0.75), 2),
    }


def bench_payload(
    benchmark: str,
    mode: str,
    rows: "list[dict]",
    context: "dict | None" = None,
) -> dict:
    """Assemble one benchmark record in the shared schema."""
    full_context = dict(context or {})
    full_context.setdefault("backend_availability", _backend_availability())
    full_context.setdefault("cpu_count", os.cpu_count())
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "mode": mode,
        "context": full_context,
        "rows": rows,
    }


def write_payload(path: str, payload: dict) -> None:
    """Write a record to ``path`` (pretty-printed, trailing newline)."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
