"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload e1_cosim --seed 0 --seconds 10 \\
        --trace 0

Workloads: ``e1_cosim``, ``e1_pure_rtl``, ``shard_rtl_chain`` and
``sweep_behav`` (see ``perfbench/README.md``).  The stimulus of every
batch is generated from ``--seed``; one batch is run and checked as a
warm-up, then batches are set up, run and checked until ``--seconds``
have passed.  Every batch's outputs are compared with a reference, and
a failed batch counts in ``failed`` and contributes no throughput.

``--trace 0`` reports the end-to-end metrics (medians over the
batches, per reference CPU second of the benchmark process and the
program's worker processes, see ``perfbench/calibrate.py``);
``--trace 1`` runs the batches with every layer traced and reports
per-layer self times, in wall seconds, and counters per batch.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: where run artefacts (span traces, last results) are written
OUT_DIR = ROOT / ".perfbench"
#: the seed held out from tuning, for confirming a claimed gain
HELD_OUT_SEED = 7919
#: batches measured at least, however short ``--seconds`` is
MIN_BATCHES = 3
#: seconds of batches run and checked, but not measured, first
WARM_UP_S = 1.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("dut_cycles_per_s", "1/s"), ("cells_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"), ("unattributed_s", "s"),
    ("netsim.self_s", "s"), ("netsim.events", "count"),
    ("traffic.self_s", "s"), ("traffic.packets", "count"),
    ("atm.self_s", "s"), ("atm.cells_switched", "count"),
    ("sync.self_s", "s"), ("sync.calls", "count"),
    ("sync.messages_posted", "count"), ("sync.null_messages", "count"),
    ("sync.null_coalesced_ratio", "ratio"), ("sync.stale_ratio", "ratio"),
    ("iface.self_s", "s"), ("iface.cells_compiled", "count"),
    ("hdl.self_s", "s"), ("hdl.run_calls", "count"),
    ("hdl.events", "count"), ("hdl.delta_cycles", "count"),
    ("hdl.process_runs", "count"),
    ("compiled.evals", "count"), ("compiled.commit_writes", "count"),
    ("compiled.fallbacks", "count"),
    ("behav.self_s", "s"), ("behav.cells", "count"),
    ("sweep.self_s", "s"), ("sweep.wait_s", "s"), ("sweep.spawn_s", "s"),
    ("sweep.runs", "count"), ("sweep.retries", "count"),
    ("codec.self_s", "s"), ("codec.frames", "count"),
    ("codec.bytes", "count"),
    ("transport.self_s", "s"), ("transport.wait_s", "s"),
    ("transport.frames", "count"), ("transport.bytes", "count"),
    ("coord.self_s", "s"), ("coord.windows", "count"),
    ("coord.forwarded_cells", "count"),
    ("group.self_s", "s"),
    ("trace.overhead", "ratio"))


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="alter one output of every batch before it "
                             "is checked (tests the check itself)")
    return parser.parse_args(argv)


def _peak_rss_mb(workers: int) -> float:
    """This process's peak resident set plus, for each concurrent
    worker, the largest peak of any worker process it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _end_to_end(outcomes, workers: int) -> Dict[str, float]:
    passed = [o for o, ok in outcomes if ok]
    return {
        "dut_cycles_per_s": statistics.median(
            o.dut_cycles / (o.cpu_s * o.scale) for o in passed)
        if passed else 0.0,
        "cells_per_s": statistics.median(
            o.cells / (o.cpu_s * o.scale) for o in passed)
        if passed else 0.0,
        "setup_s": statistics.median(o.setup_s * o.scale
                                     for o, _ in outcomes),
        "peak_rss_mb": _peak_rss_mb(workers),
    }


def _per_layer(outcomes, overhead: float) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for outcome, _ in outcomes:
        for key, value in outcome.counters.items():
            totals[key] = totals.get(key, 0) + value
    nulls = totals.get("sync.null_messages", 0)
    totals["sync.null_coalesced_ratio"] = (
        totals.get("sync.null_coalesced", 0) / nulls if nulls else 0.0)
    totals["sync.stale_ratio"] = (
        totals.get("sync.stale_advances", 0) / nulls if nulls else 0.0)
    batches = len(outcomes)
    metrics = {}
    for name, unit in PER_LAYER:
        value = totals.get(name, 0)
        metrics[name] = value if unit == "ratio" else value / batches
    metrics["trace.overhead"] = overhead
    return metrics


def _measure(workload, seconds: float, corrupt_outputs: bool,
             tracer=None):
    """Warm up, then run batches for *seconds*.

    Returns ``(measured, checked)``: the measured batches as
    ``(outcome, passed)`` pairs, and every batch checked, warm-up
    included.  With a *tracer*, each traced batch is paired with an
    untraced one, and ``measured`` holds ``(traced, untraced)`` lists.
    """
    from perfbench.calibrate import kernel_seconds, to_reference
    from perfbench.workloads import corrupt
    checked = []
    # the kernel measured after one batch also serves before the next
    kernel = [kernel_seconds()]

    def one(batch):
        outcome = batch()
        before, kernel[0] = kernel[0], kernel_seconds()
        outcome.scale = to_reference(before, kernel[0])
        if corrupt_outputs:
            corrupt(outcome)
        checked.append((outcome, workload.check(outcome)))
        return checked[-1]

    warm_until = time.perf_counter() + WARM_UP_S
    one(workload.batch)
    while time.perf_counter() < warm_until:
        one(workload.batch)
    deadline = time.perf_counter() + seconds
    if tracer is None:
        measured = []
        while (time.perf_counter() < deadline
               or len(measured) < MIN_BATCHES):
            measured.append(one(workload.batch))
        return measured, checked
    traced, untraced = [], []
    while time.perf_counter() < deadline or not traced:
        untraced.append(one(workload.batch))
        traced.append(one(lambda: workload.trace_batch(tracer)))
    return (traced, untraced), checked


def _derived_ratio(name: str, seed: int, metrics: Dict[str, float]):
    """The paper's co-sim/RTL ratio, from this run and the latest run
    of the other E1 workload with the same seed (ungated)."""
    other = {"e1_cosim": "e1_pure_rtl", "e1_pure_rtl": "e1_cosim"}
    if name not in other:
        return None
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"last-{name}-s{seed}.json").write_text(
        json.dumps(metrics))
    path = OUT_DIR / f"last-{other[name]}-s{seed}.json"
    if not path.is_file():
        return None
    rates = {name: metrics["dut_cycles_per_s"],
             other[name]: json.loads(path.read_text())["dut_cycles_per_s"]}
    if not rates["e1_pure_rtl"]:
        return None
    return rates["e1_cosim"] / rates["e1_pure_rtl"]


def _stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts to track the shm
    transport's segments, so no process of the run outlives it."""
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def main(argv: List[str]) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.layers import Tracer
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare()
    if args.trace:
        tracer = Tracer()
        (traced, untraced), checked = _measure(
            workload, args.seconds, args.corrupt, tracer=tracer)
        overhead = (statistics.median(o.wall_s for o, _ in traced)
                    / statistics.median(o.wall_s for o, _ in untraced)
                    - 1.0)
        metrics = _per_layer(traced, overhead)
        units = dict(PER_LAYER)
        path = tracer.write(
            OUT_DIR / f"trace-{args.workload}.json.gz")
        print(f"spans: {len(tracer.start)} written to {path}")
    else:
        measured, checked = _measure(workload, args.seconds, args.corrupt)
        metrics = _end_to_end(measured, workload.workers)
        units = dict(END_TO_END)

    attempted = len(checked)
    failed = sum(1 for _, ok in checked if not ok)
    print(f"{args.workload} seed={args.seed} batches={attempted} "
          f"failed={failed} error_rate={failed / attempted:.4f}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    if not args.trace and not failed:
        ratio = _derived_ratio(args.workload, args.seed, metrics)
        if ratio is not None:
            print(f"  derived cosim/rtl ratio (ungated) {ratio:.3f}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    _stop_resource_tracker()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
