"""Experiment harness: one module per paper table/figure plus presets.

See :data:`repro.exp.runner.EXPERIMENTS` for the full index and
DESIGN.md for the experiment-to-module mapping.  The package itself
re-exports nothing: ``python -m repro.exp.runner`` must find the runner
unimported, or ``runpy`` executes it twice.
"""
