"""Identity of the cycle engine's edge runs with per-edge dispatch.

:class:`~repro.hdl.CycleEngine` applies the clock edges nothing
observes in one loop (``_edge_run``) and falls back to one
``_apply_edge`` call per edge while anything watches the clock.  A
no-op ``signal_hooks`` entry forces the per-edge path for a whole run,
so running the same compiled design once with and once without it
must give identical outputs, kernel counters, edge counts, clock
change counts and final delta stamps.
"""

from repro.atm import AtmCell
from repro.hdl import CycleEngine, RisingEdge, Simulator, VcdWriter
from repro.hdl.compiled import compile_kernel
from repro.rtl import AccountingUnitRtl, CellSender

PERIOD = 10          # rising edges at 5 + 10k, falling edges at 10k


def _cell(index):
    return AtmCell.with_payload(1, 100 + index % 2, [index % 256],
                                clp=index % 3 == 0).to_octets()


def _tick(acct, delay):
    """Pulse tariff_tick for one period: two timed heap events."""
    acct.tariff_tick.drive("1", delay=delay)
    acct.tariff_tick.drive("0", delay=delay + PERIOD)


def _watch(sim, clk, acct, seen):
    """Observers the loop has to respect: a timed probe resumed on and
    between edges, reading the clock level there (heap events apply
    before a coincident edge); a watcher woken by the compiled commit
    that raises rec_valid, which then waits on clock edges; and a
    compiled evaluation reading the clock's slot, time and edge."""
    def probe():
        for delay in (1240, 3, 2, 500, 5, 1):
            yield delay
            seen.append(("probe", sim.now, clk.value))

    def burst_watcher():
        while True:
            yield RisingEdge(acct.rec_valid)
            for _ in range(3):
                yield RisingEdge(clk)
                seen.append(("burst", sim.now, acct.rec_word.as_int()))

    def seq_probe(ctx):
        clk_slot = ctx.read(clk)

        def evaluate():
            if sim.now % 500 == 5:
                seen.append(("eval", sim.now, clk_slot.value,
                             clk.rising(), clk.previous))
        return evaluate

    sim.add_generator("probe", probe())
    sim.add_generator("burst", burst_watcher())
    compile_kernel(sim, clk).add_seq("probe", seq_probe)


def _fingerprint(script, hooked, tmp_path=None, monitor=True):
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    engine = CycleEngine(sim, clk, period=PERIOD)
    acct = AccountingUnitRtl(sim, "acct", clk, backend="compiled")
    acct.register(1, 100, units_per_cell=2, units_per_cell_clp1=1)
    acct.register(1, 101, units_per_cell=3)
    sender = CellSender(sim, "tx", clk, port=acct.rx, playback="bulk")
    records = acct.record_collector() if monitor else list
    seen = []
    _watch(sim, clk, acct, seen)
    per_edge = []
    apply_edge = engine._apply_edge

    def counted():
        per_edge.append(sim.now)
        apply_edge()

    engine._apply_edge = counted
    if hooked:
        sim.signal_hooks.append(lambda signal: None)
    script(sim, engine, acct, sender, tmp_path)
    assert acct.counters()["records_emitted"] > 0
    return {
        "records": records(),
        "seen": seen,
        "kernel": sim.stats_snapshot(),
        "engine": engine.stats_snapshot(),
        "change_count": clk.change_count,
        "delta_stamp": sim._delta_stamp,
        "clk": (clk.value, clk.previous, clk.last_event_time),
        "counters": acct.counters(),
    }, len(per_edge)


def _assert_identical(script, tmp_path=None, monitor=True):
    fast, fast_calls = _fingerprint(script, hooked=False,
                                    tmp_path=tmp_path, monitor=monitor)
    slow, slow_calls = _fingerprint(script, hooked=True,
                                    tmp_path=tmp_path, monitor=monitor)
    assert fast == slow
    edges = slow["engine"]["edges_applied"]
    assert slow_calls == edges           # the hook forces every edge
    assert fast_calls < edges // 2       # the loop took the rest
    return fast, fast_calls


def _send(sender, first, count):
    for index in range(first, first + count):
        sender.send(_cell(index))


def test_run_until_mid_period_with_coincident_waveforms_and_heap():
    """Bulk cell waveforms land on rising edges; ticks are heap events
    between edges; every horizon ends mid-period."""
    def script(sim, engine, acct, sender, _tmp):
        _send(sender, 0, 6)
        sim.run(until=1233)
        _tick(acct, 9)                   # lands 2 ticks past an edge
        _send(sender, 6, 5)
        sim.run(until=2004)
        _tick(acct, 13)
        sim.run(until=3001)
        sim.run(until=3001)              # a zero-length horizon
        sim.run(until=3457)

    fast, _ = _assert_identical(script)
    assert fast["kernel"]["now_ticks"] == 3457
    assert len(fast["records"]) == 4     # two connections, two closes


def test_commit_that_wakes_a_clock_waiter_ends_the_run():
    """Without the record monitor nothing watches the clock when the
    compiled commit raises rec_valid mid-run; the watcher it wakes then
    waits on clk, so the loop must stop after that edge's deltas."""
    def script(sim, engine, acct, sender, _tmp):
        _send(sender, 0, 6)
        _tick(acct, 1242)
        sim.run(until=3001)

    fast, _ = _assert_identical(script, monitor=False)
    assert [entry for entry in fast["seen"] if entry[0] == "burst"]


def test_run_until_none_drains_heap_and_waveforms():
    def script(sim, engine, acct, sender, _tmp):
        _send(sender, 0, 4)
        _tick(acct, 2503)

        def late_cells():
            yield 1777                   # a heap resume between edges
            _send(sender, 4, 3)

        sim.add_generator("late", late_cells())
        sim.run()
        _tick(acct, 3)
        sim.run()

    _assert_identical(script)


def test_run_cycles():
    def script(sim, engine, acct, sender, _tmp):
        _send(sender, 0, 5)
        engine.run_cycles(250)
        _tick(acct, 4)
        engine.run_cycles(1)
        engine.run_cycles(0)
        engine.run_cycles(137)

    fast, _ = _assert_identical(script)
    assert fast["engine"]["cycles_run"] == 388


def test_waiter_and_vcd_hook_added_mid_run_fall_back(tmp_path):
    """A clock waiter and a VCD writer attached mid-run see every edge:
    the loop must stand aside while they are there and resume after."""
    edges_seen = []

    def script(sim, engine, acct, sender, tmp):
        edges_seen.clear()
        _send(sender, 0, 4)
        sim.run(until=1002)

        def waiter():
            for _ in range(40):
                yield RisingEdge(engine.clk)
                edges_seen.append(sim.now)

        sim.add_generator("waiter", waiter())
        sim.run(until=1700)
        _tick(acct, 3)
        vcd_path = tmp / f"run{len(sim.signal_hooks)}.vcd"
        with VcdWriter(sim, vcd_path, [engine.clk, acct.rec_valid]):
            sim.run(until=2206)
        script.vcd = vcd_path.read_text()
        sim.run(until=4000)

    fast, fast_calls = _assert_identical(script, tmp_path)
    fast_vcd = script.vcd
    _fingerprint(script, hooked=True, tmp_path=tmp_path)
    assert fast_vcd == script.vcd
    assert edges_seen == [1005 + PERIOD * k for k in range(40)]
    # 40 waited rising edges and their falling edges, the 100 edges
    # under the VCD writer, and the edges while records stream out
    assert fast_calls >= 80 + 100
