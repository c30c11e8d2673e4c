"""Per-layer tracing from outside the program.

The :class:`Tracer` wraps the public entry points of each layer of
``repro`` (see the ``*_LAYERS`` tables) with a span recorder.  Spans
(site, start, end, parent) are kept in flat in-memory arrays and
written out once, at exit (:meth:`Tracer.write`).  A layer's self time
is the duration of its spans minus the part covered by their child
spans, so nested layers are never counted twice:

    netsim.run ─┬─ iface.send_cell ── sync.post ── hdl.run
                └─ traffic._emit

Only spans inside a :meth:`Tracer.region` count.  A region's own self
time is ``unattributed_s``, and spans of the ``setup`` pseudo-layer
(worker spawn, stimulus generation) are cut out of the region
together with everything beneath them, so that

    sum(<layer>.self_s) + unattributed_s == wall_s

holds for every traced batch.  Counters are read from the program's
own statistics on the objects built while the tracer is installed.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.atm import AccountingUnit, AtmSwitch
from repro.atm.switch import PortModule
from repro.behav.entity import BehavioralEntity
from repro.core import CosimulationEntity, TapModule
from repro.core.sync import ConservativeSynchronizer
from repro.hdl import Simulator
from repro.netsim.kernel import Kernel
from repro.shard import codec as shard_codec
from repro.shard import group as shard_group
from repro.shard import topology as shard_topology
from repro.shard import transport as shard_transport
from repro.shard.client import ShardHandle
from repro.sweep import runner as sweep_runner
from repro.sweep import scenario as sweep_scenario
from repro.traffic import TrafficSource

#: the pseudo-layer of a region span (its self time is unattributed)
REGION = "unattributed"
#: the pseudo-layer cut out of regions with its whole subtree
SETUP = "setup"

#: (owner, attribute, layer) — one traced entry point each
Site = Tuple[Any, str, str]


def _sites(owner: Any, names: Sequence[str], layer: str) -> List[Site]:
    return [(owner, name, layer) for name in names]


NETSIM = _sites(Kernel, ["run"], "netsim")
TRAFFIC = _sites(TrafficSource, ["_emit", "on_simulation_start"],
                 "traffic")
ATM = (_sites(PortModule, ["receive"], "atm")
       + _sites(AccountingUnit, ["cell_arrival"], "atm"))
IFACE = (_sites(TapModule, ["receive"], "iface")
         + _sites(CosimulationEntity,
                  ["send_cell", "send_tariff_tick", "advance_time",
                   "finish", "_deliver", "_on_cell_out",
                   "_on_cell_ingress"], "iface"))
SYNC = _sites(ConservativeSynchronizer,
              ["post", "post_many", "advance_time", "drain"], "sync")
HDL = _sites(Simulator, ["run"], "hdl")
BEHAV = _sites(BehavioralEntity,
               ["send_cell", "send_tariff_tick", "advance_time",
                "finish"], "behav")
GROUP = _sites(shard_group.ShardGroup,
               ["apply_packed", "new_outputs_packed", "finish",
                "result"], "group")
COORD_DRIVER = _sites(shard_topology, ["run_topology", "_forward"],
                      "coord")
COORD = COORD_DRIVER + _sites(ShardHandle, ["barrier"], "coord")
CODEC = _sites(shard_codec, ["encode_frame", "decode_frame",
                             "decode_payload"], "codec")
TRANSPORT = (_sites(shard_transport.ShmRingTransport, ["send", "recv"],
                    "transport")
             + _sites(shard_transport._Ring, ["read_into"],
                      "transport.wait"))
SHARD_SETUP = (_sites(shard_topology, ["_shard_events"], SETUP)
               + _sites(shard_topology.ShardedTopology,
                        ["start", "close"], SETUP)
               + _sites(shard_topology.LocalShardHandle, ["__init__"],
                        SETUP))
POOL = (_sites(sweep_runner.SweepRunner, ["run"], "sweep")
        + _sites(sweep_runner.SweepRunner, ["_spawn"], "sweep.spawn")
        + _sites(sweep_runner, ["_conn_wait"], "sweep.wait"))
SWEEP_BODY = _sites(sweep_scenario, ["execute_run"], "sweep")

#: objects whose counters :meth:`Tracer.collect` reads
COUNTED = (Kernel, TrafficSource, AtmSwitch, ConservativeSynchronizer,
           CosimulationEntity, Simulator, BehavioralEntity)


def self_time_key(layer: str) -> str:
    """The metric name of *layer*'s self time."""
    if layer.endswith((".wait", ".spawn")):
        return f"{layer}_s"
    return f"{layer}.self_s"


class Patcher:
    """Replaces attributes and puts them back in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str,
             make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` (defined on *owner* itself) by
        ``make(owner.name)``."""
        original = vars(owner)[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class Tracer:
    """In-memory span recorder over the layer entry points."""

    E1_LAYERS = NETSIM + TRAFFIC + ATM + IFACE + SYNC + HDL
    COORD_LAYERS = COORD + CODEC + TRANSPORT + SHARD_SETUP
    GROUP_LAYERS = (GROUP + COORD_DRIVER + IFACE + SYNC + HDL + BEHAV
                    + SHARD_SETUP)
    POOL_LAYERS = POOL
    REPLAY_LAYERS = (SWEEP_BODY + NETSIM + TRAFFIC + ATM + IFACE + BEHAV
                     + SYNC + HDL)

    def __init__(self) -> None:
        self.sites: List[Tuple[str, str]] = []
        self._site_ids: Dict[Tuple[int, str], int] = {}
        self._region_site = self._site(REGION, "region")
        self.start = array("d")
        self.end = array("d")
        self.site = array("i")
        self.parent = array("i")
        self._stack: List[int] = []
        self._mark = 0
        self._objects: List[Any] = []
        self._patcher = Patcher()

    # -- recording -----------------------------------------------------
    def _site(self, layer: str, label: str) -> int:
        self.sites.append((layer, label))
        return len(self.sites) - 1

    def _span(self, site: int) -> Callable[[Callable], Callable]:
        start, end, sites, parent = (self.start, self.end, self.site,
                                     self.parent)
        stack = self._stack
        clock = time.perf_counter

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(start)
                parent.append(stack[-1] if stack else -1)
                sites.append(site)
                end.append(0.0)
                stack.append(index)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[index] = clock()
                    stack.pop()
            return traced
        return make

    def _capture(self, fn: Callable) -> Callable:
        objects = self._objects

        @functools.wraps(fn)
        def init(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            objects.append(obj)
        return init

    @contextlib.contextmanager
    def installed(self, sites: Sequence[Site]) -> Iterator[None]:
        """Trace *sites* (and count the objects built) in the body."""
        for owner, name, layer in sites:
            key = (id(owner), name)
            if key not in self._site_ids:
                label = f"{getattr(owner, '__name__', owner)}.{name}"
                self._site_ids[key] = self._site(layer, label)
            self._patcher.wrap(owner, name,
                               self._span(self._site_ids[key]))
        for cls in COUNTED:
            self._patcher.wrap(cls, "__init__", self._capture)
        try:
            yield
        finally:
            self._patcher.unwrap()

    def region(self, fn: Callable[[], Any]) -> Any:
        """Run *fn* as one measured region; returns its result."""
        return self._span(self._region_site)(fn)()

    # -- analysis ------------------------------------------------------
    def collect(self) -> Dict[str, float]:
        """Self times, call counts and program counters of the spans
        and objects recorded since the previous call."""
        first, last = self._mark, len(self.start)
        self._mark = last
        layer_of = [layer for layer, _ in self.sites]
        covered = [0.0] * (last - first)
        # a span is counted when its root is a region and no ancestor
        # (itself included) is set-up; parents precede their children
        counted = [False] * (last - first)
        out: Dict[str, float] = {"wall_s": 0.0}
        for offset in range(last - first):
            index = first + offset
            up = self.parent[index]
            layer = layer_of[self.site[index]]
            duration = self.end[index] - self.start[index]
            if up < first:
                counted[offset] = layer == REGION
                if counted[offset]:
                    out["wall_s"] += duration
                continue
            if not counted[up - first]:
                continue
            covered[up - first] += duration
            if layer == SETUP:
                out["wall_s"] -= duration
            else:
                counted[offset] = True
        calls: Dict[str, int] = {}
        for offset in range(last - first):
            if not counted[offset]:
                continue
            index = first + offset
            layer = layer_of[self.site[index]]
            key = self_time_key(layer)
            own = self.end[index] - self.start[index] - covered[offset]
            out[key] = out.get(key, 0.0) + own
            calls[layer] = calls.get(layer, 0) + 1
            label = self.sites[self.site[index]][1]
            calls[label] = calls.get(label, 0) + 1
        out["unattributed_s"] = out.pop(self_time_key(REGION), 0.0)
        out["hdl.run_calls"] = calls.get("hdl", 0)
        out["sync.calls"] = calls.get("sync", 0)
        out["codec.frames"] = calls.get("codec", 0)
        out["coord.barriers"] = calls.get("ShardHandle.barrier", 0)
        out.update(self._counters())
        return out

    def _counters(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}

        def add(key: str, value: float) -> None:
            totals[key] = totals.get(key, 0) + value

        for obj in self._objects:
            if isinstance(obj, Kernel):
                add("netsim.events", obj.executed_events)
            elif isinstance(obj, TrafficSource):
                add("traffic.packets", obj.emitted)
            elif isinstance(obj, AtmSwitch):
                add("atm.cells_switched", obj.cells_switched)
            elif isinstance(obj, ConservativeSynchronizer):
                stats = obj.stats
                add("sync.messages_posted", stats.messages_posted)
                add("sync.null_messages", stats.null_messages)
                add("sync.null_coalesced", stats.null_messages_coalesced)
                add("sync.stale_advances", stats.stale_advances)
            elif isinstance(obj, CosimulationEntity):
                add("iface.cells_compiled", obj.sender.template_hits
                    + obj.sender.template_misses)
            elif isinstance(obj, Simulator):
                stats = obj.stats_snapshot()
                add("hdl.events", stats["events_executed"])
                add("hdl.delta_cycles", stats["delta_cycles"])
                add("hdl.process_runs", stats["process_runs"])
                add("compiled.evals", stats["compiled_evals"])
                add("compiled.commit_writes",
                    stats["compiled_commit_writes"])
                add("compiled.fallbacks", stats["compiled_fallbacks"])
            elif isinstance(obj, BehavioralEntity):
                add("behav.cells", obj.cells_in)
        self._objects.clear()
        return totals

    # -- output --------------------------------------------------------
    def write(self, path: Path) -> Path:
        """Write every recorded span as gzip-compressed Chrome
        trace-event JSON (one event per line; Perfetto opens it)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write('{"traceEvents": [\n')
            for index in range(len(self.start)):
                layer, label = self.sites[self.site[index]]
                start = self.start[index]
                out.write(json.dumps({
                    "name": label, "cat": layer, "ph": "X", "pid": 0,
                    "tid": 0, "ts": round(start * 1e6, 3),
                    "dur": round((self.end[index] - start) * 1e6, 3)}))
                out.write(",\n" if index + 1 < len(self.start) else "\n")
            out.write("]}\n")
        return path
