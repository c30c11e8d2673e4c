"""Scenario-matrix sweeps: many co-verification runs, one command.

The paper's promise is that one network-level test bench verifies many
DUT configurations; this package is the scaling layer that delivers it
in bulk.  A :class:`SweepSpec` declares the matrix (traffic model ×
switch port count × seed × synchronisation mode), :class:`SweepRunner`
fans the expanded :class:`RunSpec` cells out over a persistent
:class:`WorkerPool` (shared with the ``repro serve`` job service) —
per-run wall-clock timeouts, one bounded retry on worker crash or
timeout, graceful degradation to serial execution when workers die —
and the per-run :class:`~repro.core.CoVerificationEnvironment` metrics
snapshots are aggregated (:func:`aggregate_results`) into a
machine-readable payload plus a human table
(:func:`render_sweep_report`).

Command-line front end: ``python -m repro sweep`` (see
``docs/api/sweep.md`` for the full reference, and
``examples/sweep_small.toml`` for a spec to start from).
"""

from .aggregate import (VOLATILE_KEYS, aggregate_results,
                        merge_latency_histograms, strip_volatile)
from .report import render_sweep_report
from .runner import SweepRunner, WorkerPool, run_sweep
from .scenario import execute_run
from .spec import (RunSpec, SweepSpec, SweepSpecError, SYNC_MODES,
                   TRAFFIC_MODELS)

__all__ = [
    "VOLATILE_KEYS", "aggregate_results", "merge_latency_histograms",
    "strip_volatile",
    "render_sweep_report",
    "SweepRunner", "WorkerPool", "run_sweep",
    "execute_run",
    "RunSpec", "SweepSpec", "SweepSpecError", "SYNC_MODES",
    "TRAFFIC_MODELS",
]
