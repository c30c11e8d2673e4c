"""The four benchmark workloads.

Each workload is a batch: :meth:`Workload.batch` builds a fixed input
generated from the workload seed (the set-up), runs it (the timed
region) and returns an :class:`Outcome` holding both timings, the
simulated DUT clock cycles, the assigned cells that reached the DUTs
and the outputs to check.  Set-up and timed region are measured in
CPU seconds of the benchmark process and the worker processes the
program runs; the timed region is also measured in host wall
seconds, which the trace uses.  :meth:`Workload.check` compares those
outputs with a reference that never shares the code path under test:

* ``e1_cosim`` and ``e1_pure_rtl`` compare the RTL accounting unit's
  charging records with the algorithmic :class:`AccountingUnit`;
* ``shard_rtl_chain`` compares the sharded run's output digest with
  the local-mode twin's, computed once outside the timed region;
* ``sweep_behav`` requires every run to pass its own reference
  comparison and to match a serial in-process replay of the matrix.

:meth:`Workload.trace_batch` runs the same batch with the layers of
:mod:`perfbench.layers` traced.  Work that the program runs in worker
processes is replayed in-process for the trace: the local-mode twin
for the shard workers, a serial ``execute_run`` pass for the sweep
workers.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.atm import AccountingUnit, AtmCell, AtmSwitch, Tariff
from repro.core import CoVerificationEnvironment, TimeBase
from repro.hdl import CycleEngine, RisingEdge, Simulator
from repro.netsim import SinkModule
from repro.rtl import (RECORD_WORDS, AccountingUnitRtl, AtmSwitchRtl,
                       CellReceiver, CellSender)
from repro.shard import ShardSpec, TopologySpec
from repro.shard import topology as shard_topology
from repro.sweep import SweepRunner, SweepSpec
from repro.sweep import scenario as sweep_scenario
from repro.traffic import ConstantBitRate, TrafficSource

from .layers import Patcher, Tracer

TIMEBASE = TimeBase.for_line_rate()
CELL_TIME = TIMEBASE.cell_time_seconds
PERIOD_TICKS = TIMEBASE.clock_period_ticks

#: per-port line occupancy of the E1 sources (the paper's 25 % load)
LOAD = 0.25

Records = List[Tuple[int, ...]]


@dataclass
class Outcome:
    """What one batch did and produced."""

    #: CPU seconds of the set-up
    setup_s: float
    #: CPU seconds of the timed region
    cpu_s: float
    #: host wall seconds of the timed region
    wall_s: float
    dut_cycles: int
    cells: int
    #: outputs under test, compared with ``expected`` by the check
    observed: List[Tuple[Any, ...]]
    expected: List[Tuple[Any, ...]]
    #: per-layer counters and self times (trace runs)
    counters: Dict[str, float] = field(default_factory=dict)
    #: CPU seconds -> reference CPU seconds (see perfbench.calibrate)
    scale: float = 1.0


def corrupt(outcome: Outcome) -> None:
    """Change one observed output value — the fault the benchmark's own
    tests inject to show a wrong output is counted as a failure."""
    if not outcome.observed:
        outcome.observed.append(("corrupted",))
        return
    head = list(outcome.observed[0])
    last = head[-1]
    head[-1] = last + 1 if isinstance(last, int) else f"{last}!"
    outcome.observed[0] = tuple(head)


def _records(words: List[int]) -> Records:
    whole = len(words) // RECORD_WORDS
    return [tuple(words[i * RECORD_WORDS:(i + 1) * RECORD_WORDS])
            for i in range(whole)]


def _reference_records(reference: AccountingUnit) -> Records:
    return [(r.vpi, r.vci, r.interval, r.cells_clp0, r.cells_clp1,
             r.charge_units) for r in reference.close_interval()]


def _record_monitor(sim: Simulator, clk, dut: AccountingUnitRtl,
                    words: List[int]) -> None:
    """Collect the DUT's record-bus words from now on.  Attached only
    for the final record drain, so the per-edge monitor costs nothing
    while cells stream."""
    def monitor():
        while True:
            yield RisingEdge(clk)
            if dut.rec_valid.value == "1":
                words.append(dut.rec_word.as_int())

    sim.add_generator("perfbench.records", monitor())


def _digest(cells) -> str:
    """SHA-256 over a stream of 53-octet cells."""
    return hashlib.sha256(b"".join(bytes(octets)
                                   for octets in cells)).hexdigest()


def cpu_seconds(children: bool = False) -> float:
    """User plus system CPU seconds this process has used, with those
    of its reaped child processes when *children*.

    CPU time leaves out the time the host's other tenants take from
    this machine's CPUs (the hypervisor's steal time), which swings the
    wall time of identical code by a third on a shared host.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    if children:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        total += usage.ru_utime + usage.ru_stime
    return total


def _process_cpu_seconds(pid: int) -> float:
    """CPU seconds a running single-threaded process has used so far
    (Linux: the scheduler's run time in ``/proc/<pid>/schedstat``)."""
    with open(f"/proc/{pid}/schedstat") as stat:
        return int(stat.read().split()[0]) / 1e9


def _settled(children: bool = False) -> Tuple[float, float]:
    """Collect the garbage of earlier batches, so no cyclic collection
    of it lands in the timed region; returns the region's start as
    ``(wall, cpu)`` seconds."""
    gc.collect()
    return time.perf_counter(), cpu_seconds(children)


def _merged(*parts: Dict[str, float]) -> Dict[str, float]:
    """Key-wise sum of counter dicts."""
    total: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def _payload(rng: random.Random) -> List[int]:
    return [rng.randrange(256) for _ in range(8)]


class Workload:
    """Base class: a named batch generator bound to one seed."""

    name = ""
    #: worker processes the program runs concurrently (peak memory)
    workers = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Compute whatever reference the check needs, once per run
        and outside every measured region."""

    def _batch(self, region: Callable) -> Outcome:
        """Set up one batch, run its timed part as ``region(fn)`` and
        collect the outcome."""
        raise NotImplementedError

    def batch(self) -> Outcome:
        """Set up, run and collect one batch."""
        return self._batch(lambda fn: fn())

    def trace_batch(self, tracer: Tracer) -> Outcome:
        """:meth:`batch` with the workload's layers traced."""
        raise NotImplementedError

    @staticmethod
    def check(outcome: Outcome) -> bool:
        """True when the batch's outputs equal the reference."""
        return outcome.observed == outcome.expected


# ---------------------------------------------------------------------------
# E1: co-simulation (Figure 1)
# ---------------------------------------------------------------------------

class _E1(Workload):
    """An E1 workload: one in-process simulation per batch."""

    def trace_batch(self, tracer: Tracer) -> Outcome:
        with tracer.installed(tracer.E1_LAYERS):
            outcome = self._batch(tracer.region)
            outcome.counters = tracer.collect()
        return outcome


class E1Cosim(_E1):
    """A 4-port abstract switch with CBR sources at 25 % load feeding
    the RTL accounting DUT through the conservative synchroniser."""

    name = "e1_cosim"
    CELLS_PER_PORT = 600

    def _stimulus(self) -> List[Tuple[int, int, List[AtmCell]]]:
        """Per port: VCI, CBR jitter seed and the cells to send."""
        rng = random.Random(self.seed)
        ports = []
        for port in range(4):
            vci = 100 + port
            cells = [AtmCell.with_payload(1, vci, _payload(rng),
                                          clp=int(rng.random() < 0.2))
                     for _ in range(self.CELLS_PER_PORT)]
            ports.append((vci, rng.randrange(1 << 30), cells))
        return ports

    def _build(self):
        env = CoVerificationEnvironment(timebase=TIMEBASE, observe=False)
        dut = AccountingUnitRtl(env.hdl, "acct", env.clk)
        entity = env.add_dut(rx_port=dut.rx, tick_signal=dut.tariff_tick)
        reference = AccountingUnit(drop_unknown=True)
        switch = AtmSwitch(env.network, "switch", num_ports=4,
                           cell_time=CELL_TIME)
        period = CELL_TIME / LOAD
        for port, (vci, jitter_seed, cells) in enumerate(self._stimulus()):
            switch.install_connection(port, 1, vci, (port + 1) % 4, 1, vci)
            dut.register(1, vci, units_per_cell=2, units_per_cell_clp1=1)
            reference.register(1, vci, Tariff(units_per_cell=2,
                                              units_per_cell_clp1=1))
            host = env.network.add_node(f"host{port}")
            source = TrafficSource(
                f"src{port}",
                ConstantBitRate(period=period, jitter=0.25 * period,
                                seed=jitter_seed),
                packet_factory=lambda i, c=cells: c[i].to_packet(),
                count=len(cells))
            tap = env.make_cell_tap(f"tap{port}", entity)
            tap.add_hook(lambda t, pkt: reference.cell_arrival(
                pkt["VPI"], pkt["VCI"], clp=pkt.get("CLP", 0)))
            sink = SinkModule("sink")
            for module in (source, tap, sink):
                host.add_module(module)
            host.connect(source, 0, tap, 0)
            host.bind_port_output(0, tap, 0)
            host.bind_port_input(0, sink, 0)
            env.network.add_link(host, 0, switch.node, port,
                                 rate_bps=155.52e6)
            env.network.add_link(switch.node, port, host, 0,
                                 rate_bps=155.52e6)
        # the lazy time-zero initialisation belongs to the set-up
        env.hdl.initialize()
        return env, dut, entity, reference

    def _run(self, env, dut, entity) -> List[int]:
        env.run()
        # Jittered CBR at 100 % aggregate load leaves cells queued at the
        # DUT input when the network run ends; the reference counted
        # them all, so the interval closes only after the drain.
        env.finish()
        words: List[int] = []
        _record_monitor(env.hdl, env.clk, dut, words)
        tick = max(env.network.kernel.now,
                   TIMEBASE.to_seconds(env.hdl.now)) + CELL_TIME
        entity.send_tariff_tick(tick)
        entity.finish(tick)
        env.hdl.run(until=env.hdl.now + 64 * PERIOD_TICKS)
        return words

    def _batch(self, region: Callable) -> Outcome:
        start = cpu_seconds()
        env, dut, entity, reference = self._build()
        built = cpu_seconds()
        wall, cpu = _settled()
        words = region(lambda: self._run(env, dut, entity))
        cpu = cpu_seconds() - cpu
        wall = time.perf_counter() - wall
        total = 4 * self.CELLS_PER_PORT
        return Outcome(
            setup_s=built - start, cpu_s=cpu, wall_s=wall,
            dut_cycles=env.hdl.now // PERIOD_TICKS,
            cells=entity.cells_in,
            observed=_records(words) + [("cells_in", entity.cells_in)],
            expected=_reference_records(reference) + [("cells_in", total)])


# ---------------------------------------------------------------------------
# E1 baseline: everything RTL
# ---------------------------------------------------------------------------

class E1PureRtl(_E1):
    """The paper's pure-RTL baseline: RTL stimulus senders at line
    occupancy (idle cells fill three of every four slots), the RTL
    switch of four port modules and the GCU, monitors on every output
    and the accounting DUT on port 0's output stream."""

    name = "e1_pure_rtl"
    CELLS_PER_PORT = 220

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.expected: List[Tuple[Any, ...]] = []

    def _stimulus(self) -> List[List[AtmCell]]:
        """The assigned cells of each input port."""
        rng = random.Random(self.seed)
        return [[AtmCell.with_payload(1, 100 + port, _payload(rng),
                                      clp=int(rng.random() < 0.2))
                 for _ in range(self.CELLS_PER_PORT)]
                for port in range(4)]

    def prepare(self) -> None:
        streams = self._stimulus()
        reference = AccountingUnit(drop_unknown=True)
        reference.register(1, 100, Tariff(units_per_cell=2,
                                          units_per_cell_clp1=1))
        for cell in streams[0]:
            reference.cell_arrival(cell.vpi, cell.vci, clp=cell.clp)
        self.expected = _reference_records(reference) + [
            (f"port{port}", _digest(cell.to_octets() for cell in cells))
            for port, cells in enumerate(streams)]

    def _build(self):
        sim = Simulator(time_unit=TIMEBASE.tick_seconds)
        clk = sim.signal("clk", init="0")
        CycleEngine(sim, clk, period=PERIOD_TICKS)
        fabric = AtmSwitchRtl(sim, "fabric", clk, num_ports=4,
                              queue_depth=64)
        idle = AtmCell.idle().to_octets()
        idle_per_cell = int(round(1.0 / LOAD)) - 1
        receivers = []
        for index, cells in enumerate(self._stimulus()):
            vci = 100 + index
            fabric.install_connection(index, 1, vci, index, 1, vci)
            sender = CellSender(sim, f"gen{index}", clk,
                                port=fabric.rx_ports[index])
            receivers.append(CellReceiver(sim, f"mon{index}", clk,
                                          fabric.tx_ports[index]))
            for cell in cells:
                sender.send(cell.to_octets())
                for _ in range(idle_per_cell):
                    sender.send(idle)
        dut = AccountingUnitRtl(sim, "acct", clk, rx=fabric.tx_ports[0])
        dut.register(1, 100, units_per_cell=2, units_per_cell_clp1=1)
        sim.initialize()
        clocks = 53 * (self.CELLS_PER_PORT * (1 + idle_per_cell) + 10)
        return sim, clk, fabric, receivers, dut, clocks

    @staticmethod
    def _run(sim, clk, dut, clocks) -> List[int]:
        sim.run(until=clocks * PERIOD_TICKS)
        words: List[int] = []
        _record_monitor(sim, clk, dut, words)
        dut.tariff_tick.drive("1")
        dut.tariff_tick.drive("0", delay=PERIOD_TICKS)
        sim.run(until=sim.now + 64 * PERIOD_TICKS)
        return words

    def _batch(self, region: Callable) -> Outcome:
        start = cpu_seconds()
        sim, clk, fabric, receivers, dut, clocks = self._build()
        built = cpu_seconds()
        wall, cpu = _settled()
        words = region(lambda: self._run(sim, clk, dut, clocks))
        cpu = cpu_seconds() - cpu
        wall = time.perf_counter() - wall
        observed = _records(words) + [
            (f"port{port}", _digest(receiver.cells))
            for port, receiver in enumerate(receivers)]
        return Outcome(
            setup_s=built - start, cpu_s=cpu, wall_s=wall,
            dut_cycles=sim.now // PERIOD_TICKS,
            cells=fabric.cells_received - self._idle_cells(),
            observed=observed, expected=list(self.expected))

    def _idle_cells(self) -> int:
        """Idle cells the senders clocked in (stripped at the ports)."""
        return 4 * self.CELLS_PER_PORT * (int(round(1.0 / LOAD)) - 1)


# ---------------------------------------------------------------------------
# Two chained RTL shards over shared memory
# ---------------------------------------------------------------------------

class _CpuProbe:
    """Measures the CPU seconds of ``run_topology``: those of the
    set-up steps it performs before its timed region (stimulus
    generation, the worker spawn up to the HELLO handshake, or the
    local twins' construction) and those of the timed region, which
    starts when the fleet has started and ends when it is closed.
    Both count the coordinator and its worker processes."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.region_s = 0.0
        self.stimulus_cells = 0
        self.idle_cells = 0
        self._pids: List[int] = []
        self._region_start = 0.0

    def _workers_cpu(self) -> float:
        return sum(_process_cpu_seconds(pid) for pid in self._pids)

    def timed(self, fn):
        def wrapper(*args, **kwargs):
            start = cpu_seconds()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_s += cpu_seconds() - start
        return wrapper

    def started(self, fn):
        """Wraps ``ShardedTopology.start``: the workers' CPU seconds up
        to their HELLO are set-up, and the timed region begins."""
        timed = self.timed(fn)

        def wrapper(fleet):
            handles = timed(fleet)
            self._pids = [handle.process.pid for handle in handles]
            workers = self._workers_cpu()
            self.setup_s += workers
            self._region_start = cpu_seconds() + workers
            return handles
        return wrapper

    def closed(self, fn):
        """Wraps ``ShardedTopology.close``, which ends the timed region
        while every worker still runs."""
        def wrapper(fleet):
            if self._pids:
                self.region_s = (cpu_seconds() + self._workers_cpu()
                                 - self._region_start)
                self._pids = []
            return fn(fleet)
        return wrapper

    def events(self, fn):
        timed = self.timed(fn)

        def wrapper(spec):
            streams = timed(spec)
            for events in streams:
                for ev, _slot, _port, octets, _tid in events:
                    if ev == "cell":
                        self.stimulus_cells += 1
                        if AtmCell.from_octets(octets,
                                               verify_hec=False).is_idle:
                            self.idle_cells += 1
            return streams
        return wrapper


class ShardRtlChain(Workload):
    """Two chained 4-port RTL switch+accounting shards in worker
    processes, coupled over the same-host shared-memory transport with
    a narrow sync window."""

    name = "shard_rtl_chain"
    workers = 2
    CELLS = 512
    WINDOW_SLOTS = 16
    #: stimulus draws per run, run in rotation: the work per simulated
    #: clock of a single 512-cell draw differs by about 10 % between
    #: seeds, which would swamp any change worth gating on
    STREAMS = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.specs = [TopologySpec(
            shards=[ShardSpec("shard0", level="rtl"),
                    ShardSpec("shard1", level="rtl")],
            cells=self.CELLS, seed=seed * self.STREAMS + stream,
            window_slots=self.WINDOW_SLOTS, chain=True, transport="shm",
            max_batch=512, max_inflight=4)
            for stream in range(self.STREAMS)]
        self.expected: List[List[Tuple[Any, ...]]] = []
        self._stream = 0

    @staticmethod
    def _observed(report: Dict[str, Any]) -> List[Tuple[Any, ...]]:
        totals = report["totals"]
        return [("digest", report["digest"]),
                ("cells_in", totals["cells_in"]),
                ("output_cells", totals["output_cells"]),
                ("records", totals["records"])]

    def prepare(self) -> None:
        self.expected = [
            self._observed(shard_topology.run_topology(spec, mode="local"))
            for spec in self.specs]

    def _run(self, stream: int,
             mode: str) -> Tuple[Dict[str, Any], _CpuProbe]:
        probe = _CpuProbe()
        patcher = Patcher()
        patcher.wrap(shard_topology, "_shard_events", probe.events)
        patcher.wrap(shard_topology.ShardedTopology, "start",
                     probe.started)
        patcher.wrap(shard_topology.ShardedTopology, "close",
                     probe.closed)
        patcher.wrap(shard_topology.LocalShardHandle, "__init__",
                     probe.timed)
        gc.collect()
        try:
            report = shard_topology.run_topology(self.specs[stream],
                                                 mode=mode)
        finally:
            patcher.unwrap()
        return report, probe

    def _outcome(self, stream: int) -> Outcome:
        report, probe = self._run(stream, "sharded")
        totals = report["totals"]
        forwarded = totals["cells_in"] - probe.stimulus_cells
        return Outcome(
            setup_s=probe.setup_s, cpu_s=probe.region_s,
            wall_s=report["wall_s"],
            dut_cycles=totals["clocks"],
            cells=probe.stimulus_cells - probe.idle_cells + forwarded,
            observed=self._observed(report),
            expected=list(self.expected[stream]),
            counters={"coord.forwarded_cells": forwarded,
                      "transport.frames": totals["frames"],
                      "transport.bytes": totals["bytes"],
                      "codec.bytes": totals["bytes"]})

    def _next_stream(self) -> int:
        stream = self._stream
        self._stream = (stream + 1) % self.STREAMS
        return stream

    def _batch(self, region: Callable) -> Outcome:
        stream = self._next_stream()
        return region(lambda: self._outcome(stream))

    def trace_batch(self, tracer: Tracer) -> Outcome:
        stream = self._next_stream()
        # The coordinator's own layers, traced around the real run (the
        # forked workers inherit the wrappers but record nothing here).
        with tracer.installed(tracer.COORD_LAYERS):
            outcome = tracer.region(lambda: self._outcome(stream))
            counters = tracer.collect()
        # The workers' replay, traced in-process through the local twin:
        # the identical op stream through ShardGroup.apply_packed.
        with tracer.installed(tracer.GROUP_LAYERS):
            tracer.region(lambda: self._run(stream, "local"))
            counters = _merged(counters, tracer.collect())
        counters["coord.windows"] = (counters.pop("coord.barriers")
                                     / len(self.specs[stream].shards))
        outcome.counters = _merged(counters, outcome.counters)
        return outcome


# ---------------------------------------------------------------------------
# Behavioural sweep through the worker pool
# ---------------------------------------------------------------------------

def _run_key(result: Dict[str, Any]) -> Tuple[Any, ...]:
    comparison = result.get("comparison", {})
    return (result["name"], result["status"], result["passed"],
            result.get("cells_in"), result.get("records"),
            result.get("hdl_clocks"), result.get("netsim_events"),
            comparison.get("matched"))


class SweepBehav(Workload):
    """A behavioural-level sweep matrix (cbr/poisson/onoff x 2/4
    ports) executed by :class:`SweepRunner` with two worker jobs."""

    name = "sweep_behav"
    workers = 2
    CELLS = 6000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.expected: List[Tuple[Any, ...]] = []

    def _spec(self) -> SweepSpec:
        return SweepSpec(traffic=["cbr", "poisson", "onoff"],
                         ports=[2, 4], seeds=[self.seed],
                         level=["behav"], cells=self.CELLS, load=LOAD,
                         jobs=2, timeout_s=120.0)

    def _replay(self, spec: SweepSpec) -> List[Dict[str, Any]]:
        """The matrix run serially in this process."""
        return [sweep_scenario.execute_run(run.as_dict(), in_worker=False)
                for run in spec.expand()]

    def prepare(self) -> None:
        results = self._replay(self._spec())
        self.expected = [_run_key(result) for result in results]
        failed = [key[0] for key in self.expected if not key[2]]
        if failed:
            raise RuntimeError(f"reference replay failed runs {failed}")

    def _batch(self, region: Callable) -> Outcome:
        start = cpu_seconds()
        runner = SweepRunner(self._spec())
        built = cpu_seconds()
        # every worker is spawned and reaped inside the timed region
        wall, cpu = _settled(children=True)
        payload = region(runner.run)
        cpu = cpu_seconds(children=True) - cpu
        wall = time.perf_counter() - wall
        runs = payload["runs"]
        return Outcome(
            setup_s=built - start, cpu_s=cpu, wall_s=wall,
            dut_cycles=sum(run.get("hdl_clocks", 0) for run in runs),
            cells=sum(run.get("cells_in", 0) for run in runs),
            observed=[_run_key(run) for run in runs],
            expected=list(self.expected),
            counters={"sweep.runs": len(runs),
                      "sweep.retries": payload["execution"]["retries"]})

    def trace_batch(self, tracer: Tracer) -> Outcome:
        with tracer.installed(tracer.POOL_LAYERS):
            outcome = self._batch(tracer.region)
            counters = tracer.collect()
        # The worker bodies, replayed serially in this process.
        spec = self._spec()
        with tracer.installed(tracer.REPLAY_LAYERS):
            tracer.region(lambda: self._replay(spec))
            counters = _merged(counters, tracer.collect())
        outcome.counters = _merged(counters, outcome.counters)
        return outcome


WORKLOADS = {cls.name: cls
             for cls in (E1Cosim, E1PureRtl, ShardRtlChain, SweepBehav)}
