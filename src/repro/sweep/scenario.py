"""The per-run worker scenario behind ``repro.sweep``.

Each matrix cell runs one :class:`~repro.core.CoVerificationEnvironment`
scenario to completion inside a worker process: an abstract ATM switch
with one traffic source per port, the RTL accounting unit coupled as
the DUT on the aggregate switched stream, and the algorithmic
:class:`~repro.atm.AccountingUnit` as the reference model.  After the
drain, the DUT's charging records are compared against the reference
(:class:`~repro.core.StreamComparator`, sorted normalisation — record
order within a tariff interval is an implementation detail) and the
observability snapshot is condensed into the run result.

Like :mod:`repro.obs.scenario`, the builder is deliberately
self-contained (mirroring, not importing, ``benchmarks/common.py``) so
the installed package can sweep without the repo checkout — and so the
worker entry point pickles cleanly under every multiprocessing start
method.
"""

from __future__ import annotations

import os
import time as _time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from ..atm import AccountingUnit, AtmCell, AtmSwitch, Tariff
from ..behav import AccountingUnitBehav
from ..core import CoVerificationEnvironment, StreamComparator, TimeBase
from ..netsim import SinkModule
from ..rtl import AccountingUnitRtl
from ..traffic import (ArrivalProcess, ConstantBitRate, OnOffSource,
                       PoissonArrivals, TrafficSource)
from .spec import SweepSpecError

__all__ = ["execute_run"]


def _arrival_process(traffic: str, load: float, cell_time: float,
                     seed: int) -> ArrivalProcess:
    """Instantiate the traffic model for one port at mean rate
    ``load / cell_time`` cells per second."""
    if traffic == "cbr":
        return ConstantBitRate(period=cell_time / load, seed=seed)
    if traffic == "poisson":
        return PoissonArrivals(rate=load / cell_time, seed=seed)
    if traffic == "onoff":
        # 50 % duty cycle: peak rate 2x the mean keeps the same
        # long-run load while exercising bursty arrivals.
        return OnOffSource(peak_period=0.5 * cell_time / load,
                           mean_on=20 * cell_time,
                           mean_off=20 * cell_time, seed=seed)
    raise SweepSpecError(f"unknown traffic model {traffic!r}")


def _apply_injection(run: Dict[str, Any], attempt: int,
                     in_worker: bool) -> None:
    """Honour the test-only failure-injection hook of *run*.

    Hard process death (``os._exit``) and hangs are only simulated in
    worker processes — in the parent (serial fallback) a would-be crash
    raises instead, so the degraded path stays survivable.
    """
    inject = run.get("inject")
    if not inject:
        return
    if inject == "error":
        raise RuntimeError(f"injected error in run {run['name']!r}")
    if inject == "crash" or (inject == "crash_once" and attempt == 1):
        if in_worker:
            os._exit(23)
        raise RuntimeError(
            f"injected crash in run {run['name']!r} (serial execution)")
    if inject == "hang" and in_worker:
        _time.sleep(3600.0)


def _build_and_run(run: Dict[str, Any]) -> Dict[str, Any]:
    """Build the scenario for one matrix cell, run it, condense the
    metrics snapshot into the result dict."""
    timebase = TimeBase.for_line_rate()
    cell_time = timebase.cell_time_seconds
    ports = int(run["ports"])
    load = float(run["load"])
    seed = int(run["seed"])
    lockstep = run["sync"] == "lockstep"

    trace_file = run.get("trace_file")
    if trace_file is not None:
        # One file per run: workers never share a sink, so the JSONL
        # stream cannot interleave across processes.
        Path(trace_file).parent.mkdir(parents=True, exist_ok=True)
    env = CoVerificationEnvironment(name=f"sweep.{run['name']}",
                                    timebase=timebase, lockstep=lockstep,
                                    trace=trace_file,
                                    dut_level=run.get("level"))
    level = env.resolved_dut_level()
    if level == "behav":
        dut = AccountingUnitBehav("acct", timebase=timebase)
        entity = env.add_dut(behav=dut)
    else:
        dut = AccountingUnitRtl(env.hdl, "acct", env.clk)
        entity = env.add_dut(rx_port=dut.rx,
                             tick_signal=dut.tariff_tick)
    reference = AccountingUnit(drop_unknown=True)

    switch = AtmSwitch(env.network, "switch", num_ports=ports,
                       cell_time=cell_time)
    per_port = max(1, int(run["cells"]) // ports)
    for port in range(ports):
        vci = 100 + port
        switch.install_connection(port, 1, vci, (port + 1) % ports, 1, vci)
        dut.register(1, vci, units_per_cell=2)
        reference.register(1, vci, Tariff(units_per_cell=2))

        host = env.network.add_node(f"host{port}")
        arrivals = _arrival_process(run["traffic"], load, cell_time,
                                    seed=seed * 1009 + port)
        source = TrafficSource(
            f"src{port}", arrivals,
            packet_factory=lambda i, v=vci: AtmCell.with_payload(
                1, v, [i % 256]).to_packet(),
            count=per_port, tracker=env.provenance)
        tap = env.make_cell_tap(f"tap{port}", entity)
        tap.add_hook(lambda t, pkt: reference.cell_arrival(
            pkt["VPI"], pkt["VCI"], clp=pkt.get("CLP", 0)))
        sink = SinkModule("sink",
                          on_packet=(env.provenance.sink_hook(
                              f"sink{port}")
                              if env.provenance is not None else None))
        for module in (source, tap, sink):
            host.add_module(module)
        host.connect(source, 0, tap, 0)
        host.bind_port_output(0, tap, 0)
        host.bind_port_input(0, sink, 0)
        env.network.add_link(host, 0, switch.node, port,
                             rate_bps=155.52e6)
        env.network.add_link(switch.node, port, host, 0,
                             rate_bps=155.52e6)

    # the RTL record-bus monitor, or the twin's whole record tuples
    records = (dut.record_collector() if level == "rtl"
               else lambda: list(dut.records))

    start = _time.perf_counter()
    try:
        env.run()
        entity.send_tariff_tick(env.network.kernel.now + cell_time)
        env.finish()
        if level == "rtl":
            # Drain the record FIFO: the tariff tick queues records
            # that keep clocking out after the protocol drain.
            env.hdl.run(until=env.hdl.now
                        + 64 * timebase.clock_period_ticks)
    finally:
        # A failed run still flushes its partial trace — that stream
        # is exactly the evidence needed to debug the failure.
        env.close()
    wall = _time.perf_counter() - start

    dut_records: List[Tuple[int, ...]] = records()
    reference_records = [
        (r.vpi, r.vci, r.interval, r.cells_clp0, r.cells_clp1,
         r.charge_units) for r in reference.close_interval()]
    comparator = StreamComparator(f"{run['name']}-records",
                                  normalize="sorted")
    comparator.extend_reference(reference_records)
    comparator.extend_observed(dut_records)
    report = comparator.compare()

    if level == "behav":
        # No HDL kernel ran: clocks are the modelled activity span,
        # and there is no synchroniser to report exchanges for.
        hdl_clocks = entity.modelled_clocks
        sync = {}
        sync_exchanges = 0
    else:
        hdl_clocks = env.hdl.now // timebase.clock_period_ticks
        sync = entity.sync.stats.as_dict()
        sync_exchanges = int(sync["messages_posted"]
                             + sync["null_messages"])
    instruments = env.metrics_registry.snapshot()
    latency = instruments["histograms"].get(
        "cosim.cell_ingress_latency_s")
    result: Dict[str, Any] = {
        "name": run["name"],
        "params": {"traffic": run["traffic"], "ports": ports,
                   "seed": seed, "sync": run["sync"],
                   "cells": int(run["cells"]), "load": load,
                   "level": level},
        "status": "ok",
        "passed": report.passed,
        "comparison": {
            "compared": report.compared,
            "matched": report.matched,
            "mismatched": len(report.mismatches),
            "missing": report.missing,
            "unexpected": report.unexpected,
        },
        "cells_in": entity.cells_in,
        "records": len(dut_records),
        "hdl_clocks": hdl_clocks,
        "hdl_events": env.hdl.events_executed,
        "netsim_events": env.network.kernel.executed_events,
        "sync": sync,
        "sync_exchanges": sync_exchanges,
        "latency": latency,
        "wall_s": wall,
        "cycles_per_s": hdl_clocks / wall if wall > 0 else 0.0,
    }
    if trace_file is not None:
        result["trace_file"] = trace_file
        result["trace_records"] = env.trace.emitted
    if env.provenance is not None:
        result["provenance"] = env.provenance.stats_snapshot()
    return result


def execute_run(run: Dict[str, Any], attempt: int = 1,
                in_worker: bool = True) -> Dict[str, Any]:
    """Execute one matrix cell; returns the run-result dict.

    Args:
        run: a :meth:`~repro.sweep.RunSpec.as_dict` payload.
        attempt: 1-based attempt number (failure injection can key on
            it to model crash-then-recover).
        in_worker: True inside a pool worker process; False for the
            parent's serial/fallback execution, where hard-death
            injection is softened into a raised exception.
    """
    _apply_injection(run, attempt, in_worker)
    return _build_and_run(run)
