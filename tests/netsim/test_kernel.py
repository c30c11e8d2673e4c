"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim import Kernel, SchedulingError


def test_initial_time_is_zero():
    assert Kernel().now == 0.0


def test_events_execute_in_time_order():
    k = Kernel()
    order = []
    k.schedule(3.0, lambda: order.append(3))
    k.schedule(1.0, lambda: order.append(1))
    k.schedule(2.0, lambda: order.append(2))
    k.run()
    assert order == [1, 2, 3]


def test_now_tracks_event_time():
    k = Kernel()
    seen = []
    k.schedule(5.5, lambda: seen.append(k.now))
    k.run()
    assert seen == [5.5]
    assert k.now == 5.5


def test_simultaneous_events_fifo_order():
    k = Kernel()
    order = []
    for i in range(10):
        k.schedule(1.0, lambda i=i: order.append(i))
    k.run()
    assert order == list(range(10))


def test_priority_breaks_simultaneous_ties():
    k = Kernel()
    order = []
    k.schedule(1.0, lambda: order.append("low"), priority=5)
    k.schedule(1.0, lambda: order.append("high"), priority=-5)
    k.run()
    assert order == ["high", "low"]


def test_schedule_in_past_raises():
    k = Kernel()
    k.schedule(2.0, lambda: None)
    k.run()
    with pytest.raises(SchedulingError):
        k.schedule(1.0, lambda: None)


def test_schedule_at_current_time_allowed():
    k = Kernel()
    hits = []
    def at_two():
        hits.append("a")
        k.schedule(k.now, lambda: hits.append("b"))
    k.schedule(2.0, at_two)
    k.run()
    assert hits == ["a", "b"]


def test_negative_delay_raises():
    k = Kernel()
    with pytest.raises(SchedulingError):
        k.schedule_after(-0.1, lambda: None)


def test_run_until_stops_before_later_events():
    k = Kernel()
    hits = []
    k.schedule(1.0, lambda: hits.append(1))
    k.schedule(10.0, lambda: hits.append(10))
    k.run(until=5.0)
    assert hits == [1]
    assert k.now == 5.0  # horizon reached even without an event there
    k.run()
    assert hits == [1, 10]


def test_run_until_advances_clock_with_empty_list():
    k = Kernel()
    k.run(until=7.0)
    assert k.now == 7.0


def test_max_events_limit():
    k = Kernel()
    hits = []
    for i in range(5):
        k.schedule(float(i + 1), lambda i=i: hits.append(i))
    k.run(max_events=2)
    assert hits == [0, 1]


def test_cancelled_event_not_executed():
    k = Kernel()
    hits = []
    ev = k.schedule(1.0, lambda: hits.append("x"))
    ev.cancel()
    k.run()
    assert hits == []
    assert k.pending_events == 0


def test_stop_from_within_event():
    k = Kernel()
    hits = []
    k.schedule(1.0, lambda: (hits.append(1), k.stop()))
    k.schedule(2.0, lambda: hits.append(2))
    k.run()
    assert hits == [1]
    k.run()
    assert hits == [1, 2]


def test_executed_events_counter():
    k = Kernel()
    for i in range(7):
        k.schedule(float(i), lambda: None)
    k.run()
    assert k.executed_events == 7


def test_next_event_time():
    k = Kernel()
    assert k.next_event_time() is None
    k.schedule(4.0, lambda: None)
    k.schedule(2.0, lambda: None)
    assert k.next_event_time() == 2.0


def test_time_listener_called_on_advance():
    k = Kernel()
    seen = []
    k.time_listeners.append(seen.append)
    k.schedule(1.0, lambda: None)
    k.schedule(2.0, lambda: None)
    k.run()
    assert seen == [1.0, 2.0]


def test_events_scheduled_during_execution():
    k = Kernel()
    hits = []
    def cascade(depth):
        hits.append(k.now)
        if depth > 0:
            k.schedule_after(1.0, lambda: cascade(depth - 1))
    k.schedule(0.0, lambda: cascade(3))
    k.run()
    assert hits == [0.0, 1.0, 2.0, 3.0]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_property_execution_order_is_sorted(times):
    """Whatever the schedule order, execution times are non-decreasing."""
    k = Kernel()
    executed = []
    for t in times:
        k.schedule(t, lambda t=t: executed.append(k.now))
    k.run()
    assert executed == sorted(executed)
    assert len(executed) == len(times)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.integers(min_value=-3, max_value=3)),
                min_size=1, max_size=40))
def test_property_priority_then_fifo(entries):
    """Simultaneous events execute in (priority, insertion) order."""
    k = Kernel()
    executed = []
    for idx, (t, prio) in enumerate(entries):
        k.schedule(t, lambda rec=(t, prio, idx): executed.append(rec),
                   priority=prio)
    k.run()
    assert executed == sorted(executed, key=lambda r: (r[0], r[1], r[2]))


def test_nan_time_rejected():
    k = Kernel()
    order = []
    for t in (3.0, 1.0):
        k.schedule(t, lambda t=t: order.append(t))
    with pytest.raises(SchedulingError):
        k.schedule(float("nan"), lambda: order.append("nan"))
    for t in (2.0, 0.5):
        k.schedule(t, lambda t=t: order.append(t))
    k.run()
    assert order == [0.5, 1.0, 2.0, 3.0]
    assert k.now == 3.0


def test_nan_delay_rejected():
    k = Kernel()
    with pytest.raises(SchedulingError):
        k.schedule_after(float("nan"), lambda: None)
    assert k.pending_events == 0


def test_run_until_keeps_clock_behind_events_left_by_max_events():
    k = Kernel()
    hits = []
    for t in (0.0, 1.0, 4.0):
        k.schedule(t, lambda t=t: hits.append(t))
    assert k.run(until=2.0, max_events=1) == 0.0
    assert k.run(until=2.0) == 2.0
    assert hits == [0.0, 1.0]
    k.run()
    assert hits == [0.0, 1.0, 4.0]


def test_run_until_keeps_clock_behind_events_left_by_stop():
    k = Kernel()
    hits = []
    k.schedule(1.0, lambda: (hits.append(1.0), k.stop()))
    k.schedule(1.5, lambda: hits.append(1.5))
    assert k.run(until=3.0) == 1.0
    assert k.run(until=3.0) == 3.0
    assert hits == [1.0, 1.5]


def test_step_executes_one_event_at_a_time():
    k = Kernel()
    hits = []
    k.schedule(2.0, lambda: hits.append(2))
    k.schedule(1.0, lambda: hits.append(1))
    assert k.step() and hits == [1] and k.now == 1.0
    assert k.step() and hits == [1, 2] and k.now == 2.0
    assert not k.step()
    assert k.executed_events == 2


def test_step_skips_cancelled_head():
    k = Kernel()
    hits = []
    k.schedule(1.0, lambda: hits.append(1)).cancel()
    k.schedule(2.0, lambda: hits.append(2))
    assert k.step()
    assert hits == [2]


def test_time_listeners_fire_only_on_a_change():
    k = Kernel()
    seen = []
    k.time_listeners.append(seen.append)
    for t in (1.0, 1.0, 0.0, 2.0):
        k.schedule(t, lambda: None)
    k.run(until=3.0)
    assert seen == [1.0, 2.0, 3.0]
    assert k.time_advances == 3


# A schedule entry: (time, priority, cancelled up front, calls stop(),
# index of an event its action cancels or None).
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])
_ENTRY = st.tuples(_TIMES, st.integers(min_value=-2, max_value=2),
                   st.booleans(), st.booleans(),
                   st.one_of(st.none(), st.integers(0, 29)))
_OP = st.one_of(
    st.just(("step",)),
    st.tuples(st.just("run"), st.one_of(st.none(), _TIMES,
                                        st.just(1.25)),
              st.one_of(st.none(), st.integers(0, 4))))


def _reference(entries, ops):
    """Per operation: the indices dispatched and ``now`` afterwards."""
    order = sorted(range(len(entries)),
                   key=lambda i: (entries[i][0], entries[i][1], i))
    cancelled = {i for i, entry in enumerate(entries) if entry[2]}
    pos, now, log = 0, 0.0, []
    for op in ops:
        until, budget = (None, 1) if op[0] == "step" else op[1:]
        segment = []
        while pos < len(order) and (budget is None
                                    or len(segment) < budget):
            i = order[pos]
            if i in cancelled:
                pos += 1
                continue
            time, _, _, stops, kills = entries[i]
            if until is not None and time > until:
                break
            pos += 1
            now = time
            segment.append(i)
            if kills is not None:
                cancelled.add(kills)
            if stops:
                break
        pending = [entries[i][0] for i in order[pos:]
                   if i not in cancelled]
        if until is not None and until > now and (
                not pending or pending[0] > until):
            now = until
        log.append((segment, now))
    return log


@given(st.lists(_ENTRY, min_size=1, max_size=30),
       st.lists(_OP, max_size=6))
def test_property_dispatch_follows_time_priority_seq(entries, ops):
    """Whatever mix of priorities, equal times, cancellations, ``until``,
    ``max_events``, ``stop()`` and ``step()``, events dispatch exactly
    in sorted ``(time, priority, seq)`` order."""
    ops = ops + [("run", None, None)] * 2   # plain runs, as after stop()
    k = Kernel()
    dispatched = []
    events = []

    def action(i):
        dispatched.append(i)
        _, _, _, stops, kills = entries[i]
        if kills is not None and kills < len(events):
            events[kills].cancel()
        if stops:
            k.stop()

    for i, (time, priority, _, _, _) in enumerate(entries):
        events.append(k.schedule(time, lambda i=i: action(i),
                                 priority=priority))
    for i, entry in enumerate(entries):
        if entry[2]:
            events[i].cancel()
    entries = [entry if entry[4] is None or entry[4] < len(entries)
               else entry[:4] + (None,) for entry in entries]
    observed = []
    for op in ops:
        start = len(dispatched)
        if op[0] == "step":
            assert k.step() == (len(dispatched) > start)
        else:
            assert k.run(until=op[1], max_events=op[2]) == k.now
        observed.append((dispatched[start:], k.now))
    assert observed == _reference(entries, ops)
    assert k.executed_events == len(dispatched)
    keys = [(entries[i][0], entries[i][1], events[i].seq)
            for i in dispatched]
    assert keys == sorted(keys)
