"""Guards against code that nothing runs or that no longer imports.

* Every module under ``src/repro`` must be reachable from ``repro-exp``:
  a fresh interpreter imports the runner, every experiment module it
  dispatches to and the sweep-host server that ``repro-exp serve-host``
  loads lazily, and each module or package that is then missing from
  ``sys.modules`` is named.  Code no experiment reaches is code no
  result depends on; wire it into an experiment or delete it.
* Every script under ``examples/``, ``benchmarks/`` and ``scripts/``
  must import (its ``__main__`` block is not run), so a deleted or
  renamed name fails here instead of on the next manual run.
* ``python -m repro.exp.runner`` (the CLI without an install) must run
  the runner module once: a package ``__init__`` that imports it makes
  ``runpy`` execute it twice and warn.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

_IMPORT_ENTRY_POINTS = """
import importlib
import sys

from repro.exp.runner import EXPERIMENTS

for experiment_id in EXPERIMENTS:
    importlib.import_module(f"repro.exp.{experiment_id}")
importlib.import_module("repro.core.distributed")
print(*sorted(sys.modules))
"""

_IMPORT_FILES = """
import importlib.util
import os
import sys
import traceback

failed = []
for number, path in enumerate(sys.argv[1:]):
    sys.path.insert(0, os.path.dirname(path))
    spec = importlib.util.spec_from_file_location(f"_checked_{number}", path)
    try:
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    except Exception:
        failed.append(path + ": " + traceback.format_exc().splitlines()[-1])
    finally:
        sys.path.pop(0)
print("\\n".join(failed))
"""


def _run_python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=str(REPO),
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _source_modules() -> "list[str]":
    """Dotted names of every module and package under ``src/repro``."""
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_every_module_is_reachable_from_repro_exp():
    loaded = set(_run_python(_IMPORT_ENTRY_POINTS).split())
    unreachable = [m for m in _source_modules() if m not in loaded]
    assert not unreachable, (
        "no repro-exp entry point imports: " + ", ".join(unreachable)
    )


def test_examples_benchmarks_and_scripts_import():
    files = sorted(
        str(path)
        for folder in ("examples", "benchmarks", "scripts")
        for path in (REPO / folder).glob("*.py")
    )
    assert files
    failed = _run_python(_IMPORT_FILES, *files).strip()
    assert not failed, "cannot import:\n" + failed


def test_runner_module_runs_once():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable, "-W", "always::RuntimeWarning",
            "-m", "repro.exp.runner", "--list",
        ],
        capture_output=True,
        text=True,
        cwd=str(REPO),
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "table2" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
