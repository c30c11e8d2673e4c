"""Unit tests for extended-FSM process models."""

import pytest

from repro.netsim import (FsmError, InterruptKind, Network, Packet,
                          ProcessModel, ProcessorModule, SinkModule, State)


def make_hosted_process(process):
    """Attach *process* to a processor module inside a one-node network."""
    net = Network("t")
    node = net.add_node("n")
    module = ProcessorModule("proc", process)
    node.add_module(module)
    return net, node, module


def test_initial_state_entered_on_start():
    p = ProcessModel("p")
    entered = []
    p.add_state(State("init", enter=lambda pr: entered.append("init")))
    net, node, module = make_hosted_process(p)
    p.start()
    assert entered == ["init"]
    assert p.state == "init"


def test_begin_interrupt_transition():
    p = ProcessModel("p")
    p.add_state(State("init"))
    p.add_state(State("run"))
    p.add_transition(
        "init", "run",
        guard=lambda pr, it: it.kind == InterruptKind.BEGIN)
    make_hosted_process(p)
    p.start()
    assert p.state == "run"


def test_forced_state_chains_immediately():
    p = ProcessModel("p")
    trace = []
    p.add_state(State("a", enter=lambda pr: trace.append("a"), forced=True))
    p.add_state(State("b", enter=lambda pr: trace.append("b"), forced=True))
    p.add_state(State("idle", enter=lambda pr: trace.append("idle")))
    p.add_transition("a", "b")
    p.add_transition("b", "idle")
    make_hosted_process(p)
    p.start()
    assert trace == ["a", "b", "idle"]
    assert p.state == "idle"


def test_forced_cycle_detected():
    p = ProcessModel("p")
    p.add_state(State("a", forced=True))
    p.add_state(State("b", forced=True))
    p.add_transition("a", "b")
    p.add_transition("b", "a")
    make_hosted_process(p)
    with pytest.raises(FsmError):
        p.start()


def test_guard_selection_over_default():
    p = ProcessModel("p")
    p.add_state(State("idle"))
    p.add_state(State("hit"))
    p.add_state(State("miss"))
    p.add_transition("idle", "hit",
                     guard=lambda pr, it: it.kind == InterruptKind.STREAM)
    p.add_transition("idle", "miss")  # default
    make_hosted_process(p)
    p.start()
    assert p.state == "miss"  # BEGIN doesn't match the stream guard


def test_unmatched_interrupt_stays_in_unforced_state():
    p = ProcessModel("p")
    p.add_state(State("idle"))
    p.add_state(State("other"))
    p.add_transition("idle", "other",
                     guard=lambda pr, it: it.kind == InterruptKind.STREAM)
    make_hosted_process(p)
    p.start()
    assert p.state == "idle"


def test_duplicate_state_rejected():
    p = ProcessModel("p")
    p.add_state(State("a"))
    with pytest.raises(FsmError):
        p.add_state(State("a"))


def test_transition_to_unknown_state_rejected():
    p = ProcessModel("p")
    p.add_state(State("a"))
    with pytest.raises(FsmError):
        p.add_transition("a", "ghost")


def test_two_default_transitions_rejected_at_runtime():
    p = ProcessModel("p")
    p.add_state(State("a"))
    p.add_state(State("b"))
    p.add_state(State("c"))
    p.add_transition("a", "b")
    p.add_transition("a", "c")
    make_hosted_process(p)
    with pytest.raises(FsmError):
        p.start()


def test_self_interrupt_scheduling_and_delivery():
    p = ProcessModel("timer")
    fired = []

    p.add_state(State("init", forced=True,
                      enter=lambda pr: pr.schedule_self(5.0, code=42)))
    p.add_state(State("wait"))
    p.add_state(State("done",
                      enter=lambda pr: fired.append((pr.now,
                                                     pr.interrupt.code))))
    p.add_transition("init", "wait")
    p.add_transition("wait", "done",
                     guard=lambda pr, it: it.kind == InterruptKind.SELF)
    net, node, module = make_hosted_process(p)
    net.run()
    assert fired == [(5.0, 42)]


def test_cancel_self_interrupts():
    p = ProcessModel("timer")
    fired = []
    p.add_state(State("init", forced=True,
                      enter=lambda pr: pr.schedule_self(5.0)))
    p.add_state(State("wait"))
    p.add_state(State("done", enter=lambda pr: fired.append(pr.now)))
    p.add_transition("init", "wait")
    p.add_transition("wait", "done",
                     guard=lambda pr, it: it.kind == InterruptKind.SELF)
    net, node, module = make_hosted_process(p)
    net.start()
    assert p.cancel_self_interrupts() == 1
    net.run()
    assert fired == []


def test_fired_self_interrupts_leave_the_pending_set():
    # A periodic timer re-armed on every tick: only the one armed after
    # the last tick is pending, however many have fired.
    p = ProcessModel("ticker")
    ticks = []
    p.add_state(State("init", forced=True,
                      enter=lambda pr: pr.schedule_self(1.0)))
    p.add_state(State("wait"))
    p.add_state(State("tick", forced=True,
                      enter=lambda pr: (ticks.append(pr.now),
                                        pr.schedule_self(1.0))))
    p.add_transition("init", "wait")
    p.add_transition("wait", "tick",
                     guard=lambda pr, it: it.kind == InterruptKind.SELF)
    p.add_transition("tick", "wait")
    net, node, module = make_hosted_process(p)
    net.run(until=500.5)
    assert len(ticks) == 500
    assert len(p._pending_self) == 1
    assert p.cancel_self_interrupts() == 1
    assert len(p._pending_self) == 0
    net.run(until=600.0)
    assert len(ticks) == 500


def test_stream_interrupt_carries_packet():
    p = ProcessModel("rx")
    got = []
    p.add_state(State("idle"))
    p.add_state(State("rx", forced=True,
                      enter=lambda pr: got.append(pr.interrupt.data)))
    p.add_transition("idle", "rx",
                     guard=lambda pr, it: it.kind == InterruptKind.STREAM)
    p.add_transition("rx", "idle")
    net, node, module = make_hosted_process(p)
    p.start()
    pkt = Packet(fields={"n": 1})
    module.receive(pkt, stream=0)
    assert got == [pkt]
    assert p.state == "idle"


def test_send_through_module_wiring():
    p = ProcessModel("tx")
    p.add_state(State("init", forced=True,
                      enter=lambda pr: pr.send(Packet(fields={"hello": 1}))))
    p.add_state(State("idle"))
    p.add_transition("init", "idle")

    net = Network("t")
    node = net.add_node("n")
    module = ProcessorModule("proc", p)
    sink = SinkModule("sink", keep=True)
    node.add_module(module)
    node.add_module(sink)
    node.connect(module, 0, sink, 0)
    net.run()
    assert len(sink.received) == 1
    assert sink.received[0]["hello"] == 1


def test_unattached_process_send_raises():
    p = ProcessModel("lonely")
    p.add_state(State("a"))
    with pytest.raises(FsmError):
        p.send(Packet())


def test_state_variables_persist():
    p = ProcessModel("counter")
    def bump(pr):
        pr.sv["count"] = pr.sv.get("count", 0) + 1
    p.add_state(State("idle"))
    p.add_state(State("bump", forced=True, enter=bump))
    p.add_transition("idle", "bump",
                     guard=lambda pr, it: it.kind == InterruptKind.STREAM)
    p.add_transition("bump", "idle")
    net, node, module = make_hosted_process(p)
    p.start()
    for _ in range(3):
        module.receive(Packet(), 0)
    assert p.sv["count"] == 3


def test_exit_executive_runs():
    p = ProcessModel("p")
    trace = []
    p.add_state(State("a", exit=lambda pr: trace.append("exit-a"),
                      forced=True))
    p.add_state(State("b", enter=lambda pr: trace.append("enter-b")))
    p.add_transition("a", "b")
    make_hosted_process(p)
    p.start()
    assert trace == ["exit-a", "enter-b"]
