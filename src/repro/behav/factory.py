"""Level-agnostic DUT construction for the swappable designs.

:func:`build_dut` instantiates one of the four swappable DUTs —
port module, switch fabric, policer, accounting unit — at either
abstraction level and couples it into a
:class:`~repro.core.CoVerificationEnvironment`, returning a
:class:`DutHandle` whose surface (entities, records, decisions,
counters) is identical at both levels.  This is the "multi-
abstraction swap" in executable form: scenario builders call
``build_dut(env, kind)`` and the environment's resolved DUT level
(constructor argument, ``REPRO_DUT_LEVEL``, or per-call override)
decides whether an RTL design plus co-simulation entities or a
behavioural twin plus :class:`~repro.behav.entity.BehavioralEntity`
endpoints appear behind the handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.contract import DutContract
from ..core.environment import CoVerificationEnvironment
from ..rtl import (AccountingUnitRtl, AtmPortModuleRtl, AtmSwitchRtl,
                   UpcPolicerRtl)
from .twins import (AccountingUnitBehav, AtmPortModuleBehav,
                    AtmSwitchBehav, UpcPolicerBehav)

__all__ = ["DutHandle", "build_dut", "KINDS"]

#: the swappable DUT kinds :func:`build_dut` knows how to construct
KINDS = ("port_module", "switch", "policer", "accounting")


@dataclass
class DutHandle:
    """One constructed DUT with its level-agnostic access surface.

    Attributes:
        kind: one of :data:`KINDS`.
        level: the resolved abstraction level ("rtl" | "behav").
        design: the RTL component or the behavioural twin.
        entities: the coupled endpoints, one per stream port (a
            single-port DUT has one; the switch fabric has one per
            port, index == port number).
        records: zero-arg callable returning the accounting DUT's
            charging records as 6-tuples (empty for other kinds).
        decisions: zero-arg callable returning the policer's
            :class:`~repro.rtl.policer.PolicingDecision` list (empty
            for other kinds).
    """

    kind: str
    level: str
    design: Any
    entities: List[DutContract]
    records: Callable[[], List[Tuple[int, ...]]] = field(
        default=lambda: [])
    decisions: Callable[[], List[Any]] = field(default=lambda: [])

    @property
    def entity(self) -> DutContract:
        """The first (for single-port DUTs: the only) endpoint."""
        return self.entities[0]

    def counters(self) -> Dict[str, int]:
        """The design's counter snapshot — same keys at both levels
        (the shared contract surface the equivalence harness diffs)."""
        return self.design.counters()


def build_dut(env: CoVerificationEnvironment, kind: str,
              name: str = "dut", level: Optional[str] = None,
              **config) -> DutHandle:
    """Construct one swappable DUT of *kind* at the resolved *level*
    and couple it into *env*.

    Args:
        env: the hosting environment (provides clock, timebase, level
            policy and observability).
        kind: one of :data:`KINDS`.
        name: instance name for the design and its HDL processes.
        level: per-instance override ("rtl" | "behav" | "auto" |
            None); resolved through
            :meth:`~repro.core.CoVerificationEnvironment.resolved_dut_level`.
        **config: kind-specific knobs forwarded to the design —
            ``bug`` (policer/accounting), ``action`` (policer),
            ``table_size`` (accounting), ``num_ports`` /
            ``lookup_latency`` / ``queue_depth`` (switch).
    """
    if kind not in KINDS:
        raise ValueError(
            f"unknown DUT kind {kind!r}; known: {', '.join(KINDS)}")
    resolved = env.resolved_dut_level(level)
    if resolved == "behav":
        return _build_behav(env, kind, name, **config)
    return _build_rtl(env, kind, name, **config)


def _build_rtl(env: CoVerificationEnvironment, kind: str, name: str,
               **config) -> DutHandle:
    """RTL construction: one design in ``env.hdl``, one co-simulation
    entity per stream port."""
    if kind == "port_module":
        design = AtmPortModuleRtl(env.hdl, name, env.clk)
        entities = [env.add_dut(rx_port=design.rx, tx_port=design.tx)]
        return DutHandle("port_module", "rtl", design, entities)
    if kind == "switch":
        design = AtmSwitchRtl(env.hdl, name, env.clk, **config)
        entities = [
            env.add_dut(rx_port=design.rx_ports[i],
                        tx_port=design.tx_ports[i])
            for i in range(design.num_ports)]
        return DutHandle("switch", "rtl", design, entities)
    if kind == "policer":
        design = UpcPolicerRtl(env.hdl, name, env.clk, **config)
        entities = [env.add_dut(rx_port=design.rx, tx_port=design.tx)]
        return DutHandle("policer", "rtl", design, entities,
                         decisions=lambda: list(design.decisions))
    design = AccountingUnitRtl(env.hdl, name, env.clk, **config)
    entities = [env.add_dut(rx_port=design.rx,
                            tick_signal=design.tariff_tick)]
    return DutHandle("accounting", "rtl", design, entities,
                     records=design.record_collector())


def _build_behav(env: CoVerificationEnvironment, kind: str, name: str,
                 **config) -> DutHandle:
    """Behavioural construction: one twin, one behavioural entity per
    stream port — no HDL kernel involvement at all."""
    if kind == "port_module":
        twin = AtmPortModuleBehav(name, timebase=env.timebase)
        entities = [env.add_dut(behav=twin)]
        return DutHandle("port_module", "behav", twin, entities)
    if kind == "switch":
        twin = AtmSwitchBehav(name, timebase=env.timebase, **config)
        entities = [env.add_dut(behav=twin, behav_port=i)
                    for i in range(twin.num_ports)]
        return DutHandle("switch", "behav", twin, entities)
    if kind == "policer":
        twin = UpcPolicerBehav(name, timebase=env.timebase, **config)
        entities = [env.add_dut(behav=twin)]
        return DutHandle("policer", "behav", twin, entities,
                         decisions=lambda: list(twin.decisions))
    twin = AccountingUnitBehav(name, timebase=env.timebase, **config)
    entities = [env.add_dut(behav=twin)]
    return DutHandle("accounting", "behav", twin, entities,
                     records=lambda: list(twin.records))
