"""Derive the routing-backend crossover constant from BENCH_scale.json.

``resolve_backend("auto")`` picks a kernel backend by comparing
``work = num_destinations * (num_nodes + num_arcs)`` against
``VECTOR_CROSSOVER_WORK`` in :mod:`repro.routing.backend`: below it
the python loops beat the vector kernels (per-call numpy overhead
dominates tiny instances).

This script re-derives that constant from a measured
``bench_scale.py`` record instead of folklore: it brackets the
measured crossover — the largest per-sweep work where the python
backend still wins and the smallest where the vector one wins — and
suggests the geometric mean of the bracket (the standard midpoint on a
quantity spanning orders of magnitude).  It prints the suggestion next
to the current constant and exits 0; it never edits source —
calibration is a reviewed change, not a side effect::

    python scripts/calibrate_crossovers.py                    # BENCH_scale.json
    python scripts/calibrate_crossovers.py other_record.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.routing.backend import VECTOR_CROSSOVER_WORK  # noqa: E402


def sweep_work(row: dict) -> int:
    """The resolver's work metric for one full-sweep row.

    A sweep routes every destination, so ``num_destinations`` is the
    node count: ``work = nodes * (nodes + arcs)``.
    """
    return row["nodes"] * (row["nodes"] + row["arcs"])


def bracket_crossover(
    rows: "list[dict]", cheap: str, fast: str
) -> "tuple[int | None, int | None]":
    """Largest work where ``cheap`` wins, smallest where ``fast`` wins.

    Rows missing either column are skipped.
    """
    cheap_wins: "int | None" = None
    fast_wins: "int | None" = None
    for row in rows:
        cheap_rate = row.get(f"{cheap}_evals_per_sec")
        fast_rate = row.get(f"{fast}_evals_per_sec")
        if cheap_rate is None or fast_rate is None:
            continue
        work = sweep_work(row)
        if cheap_rate >= fast_rate:
            cheap_wins = max(cheap_wins or 0, work)
        elif fast_wins is None or work < fast_wins:
            fast_wins = work
    return cheap_wins, fast_wins


def suggest(cheap_wins: "int | None", fast_wins: "int | None") -> "int | None":
    """Geometric-mean midpoint of a crossover bracket."""
    if fast_wins is None:
        return None
    if cheap_wins is None or cheap_wins >= fast_wins:
        # No clean bracket (the fast backend won everywhere measured,
        # or the orderings interleave): the smallest fast-winning work
        # is the only defensible bound.
        return fast_wins
    return int(round(math.sqrt(cheap_wins * fast_wins)))


def report(
    name: str,
    current: int,
    cheap_wins: "int | None",
    fast_wins: "int | None",
) -> None:
    suggestion = suggest(cheap_wins, fast_wins)
    lo = f"{cheap_wins:,}" if cheap_wins is not None else "-"
    hi = f"{fast_wins:,}" if fast_wins is not None else "-"
    print(f"{name}:")
    print(f"  current constant : {current:>12,}")
    print(f"  crossover bracket: [{lo}, {hi}]")
    if suggestion is None:
        print("  suggestion       : (no measured rows for this pair)")
    else:
        print(f"  suggestion       : {suggestion:>12,}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "record",
        nargs="?",
        default="BENCH_scale.json",
        help="bench_scale.py record to calibrate from",
    )
    args = parser.parse_args(argv)

    path = Path(args.record)
    if not path.exists():
        print(f"no such record: {path}", file=sys.stderr)
        return 1
    payload = json.loads(path.read_text())
    if payload.get("benchmark") != "scale":
        print(
            f"{path} is a {payload.get('benchmark')!r} record, "
            "expected bench_scale.py output",
            file=sys.stderr,
        )
        return 1
    rows = payload["rows"]
    print(f"{path}: {len(rows)} measured instances")
    print()
    report(
        "VECTOR_CROSSOVER_WORK (python -> vector)",
        VECTOR_CROSSOVER_WORK,
        *bracket_crossover(rows, "python", "vector"),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
