"""Paper-shape experiment runner: experiment definitions E1–E11 and
table printing.

Every experiment in DESIGN.md §4 has one function in
:mod:`repro.bench.experiments` that builds the workload, runs it on the
relevant engine configurations, and returns an
:class:`~repro.bench.harness.ExperimentResult` whose rows are the
table/series the paper-shaped output is printed from.
``python -m repro.bench`` runs them all from the command line.
"""

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import ExperimentResult, format_table

__all__ = ["ALL_EXPERIMENTS", "ExperimentResult", "format_table"]
