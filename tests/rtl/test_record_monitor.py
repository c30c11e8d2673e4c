"""The gated record-bus monitor against the per-edge poller.

:meth:`AccountingUnitRtl.record_collector` samples ``rec_word`` only
while records stream and otherwise parks on ``tariff_tick``.  The
reference here is the monitor it replaced, which resumed on every
rising clock edge and sampled whenever ``rec_valid`` was '1'.  Both run
side by side on the same design and must read the same words.
"""

import pytest

from repro.atm import AtmCell
from repro.hdl import CycleEngine, RisingEdge, Simulator
from repro.rtl import RECORD_WORDS, AccountingUnitRtl, CellSender
from repro.shard import protocol
from repro.shard.group import ShardGroup
from repro.sweep import RunSpec
from repro.sweep.scenario import execute_run

PERIOD = 10


def _poll(design, words):
    """Attach the per-edge poller to *design*, appending to *words*."""
    def poller():
        while True:
            yield RisingEdge(design.clk)
            if design.rec_valid.value == "1":
                words.append(design.rec_word.as_int())

    design.sim.add_generator(f"{design.name}.poller", poller())


def _grouped(words):
    assert len(words) % RECORD_WORDS == 0
    return [tuple(words[i:i + RECORD_WORDS])
            for i in range(0, len(words), RECORD_WORDS)]


@pytest.mark.parametrize("clocking", ["cycle", "event"])
@pytest.mark.parametrize("backend", ["compiled", "event"])
def test_back_to_back_records_and_two_closes(clocking, backend):
    """Three connections give 18-word bursts; the second close lands
    while the first burst still streams, so rec_valid stays high across
    both (back to back), and a third close comes after the bus idles."""
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    if clocking == "cycle":
        CycleEngine(sim, clk, period=PERIOD)
    else:
        sim.add_clock(clk, period=PERIOD)
    acct = AccountingUnitRtl(sim, "acct", clk, backend=backend)
    for vci in (100, 101, 102):
        acct.register(1, vci, units_per_cell=2, units_per_cell_clp1=1)
    sender = CellSender(sim, "tx", clk, port=acct.rx)
    records = acct.record_collector()
    polled = []
    _poll(acct, polled)

    def tick(delay):
        acct.tariff_tick.drive("1", delay=delay)
        acct.tariff_tick.drive("0", delay=delay + PERIOD)

    for index in range(9):
        sender.send(AtmCell.with_payload(1, 100 + index % 3, [index],
                                         clp=index % 2).to_octets())
    sim.run(until=6000)
    tick(3)
    tick(3 + 8 * PERIOD)                 # closes mid-burst
    sim.run(until=sim.now + 60 * PERIOD)
    sender.send(AtmCell.with_payload(1, 101, [7]).to_octets())
    sim.run(until=sim.now + 100 * PERIOD)
    tick(3)
    sim.run(until=sim.now + 40 * PERIOD)

    assert records() == _grouped(polled)
    assert [record[2] for record in records()] == [0] * 3 + [1] * 3 + [2] * 3
    assert records()[6:] == [(1, 100, 2, 0, 0, 0), (1, 101, 2, 1, 0, 2),
                             (1, 102, 2, 0, 0, 0)]


def _drive_group(group, poll):
    polled = []
    if poll:
        _poll(group.accounting.design, polled)
    cell_time = group.env.timebase.cell_time_seconds
    ops = []
    for index in range(24):
        octets = bytes(AtmCell.with_payload(
            1, 100 + index % 4, [index % 256], clp=index % 3 == 0
        ).to_octets())
        ops.append((protocol.OP_CELL, (index + 1) * 4 * cell_time,
                    index % 4, octets))
        if index == 11:
            ops.append((protocol.OP_TICK, (index + 1.5) * 4 * cell_time))
    ops.append((protocol.OP_TICK, 100 * 4 * cell_time))
    group.apply_ops(ops)
    group.finish(140 * 4 * cell_time)
    snapshot = group.env.hdl.stats_snapshot()
    records = group.accounting.records()
    group.close()
    return records, polled, snapshot


def test_shard_group_records_match_and_process_runs_drop():
    gated, polled, both = _drive_group(ShardGroup("g0", level="rtl"),
                                       poll=True)
    assert gated == _grouped(polled)
    assert {record[2] for record in gated} == {0, 1}
    assert len(gated) == 8                # four connections, two closes
    _, _, alone = _drive_group(ShardGroup("g1", level="rtl"), poll=False)
    # identical kernel work apart from the poller's runs
    for key in ("events_executed", "delta_cycles", "compiled_evals",
                "compiled_commit_writes"):
        assert alone[key] == both[key]
    assert alone["process_runs"] * 10 < both["process_runs"]


def test_rtl_sweep_run_records_match(monkeypatch):
    polled = []
    collectors = []
    original = AccountingUnitRtl.record_collector

    def with_poller(self):
        _poll(self, polled)
        collectors.append(original(self))
        return collectors[-1]

    monkeypatch.setattr(AccountingUnitRtl, "record_collector", with_poller)
    run = RunSpec(name="rec", traffic="onoff", ports=2, seed=3,
                  sync="conservative", cells=40, load=0.5,
                  level="rtl").as_dict()
    result = execute_run(run, in_worker=False)
    assert result["passed"]
    assert result["records"] == 2
    assert collectors[0]() == _grouped(polled)
