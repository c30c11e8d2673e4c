"""Discrete-event simulation kernel.

This is the OPNET-equivalent substrate of the co-verification
environment.  It provides a single-threaded event-list scheduler with
the semantics section 3.1 of the paper relies on:

* events are managed in an event list ordered by time stamp;
* events execute in monotone non-decreasing time order;
* events may be scheduled for the current simulated time or any future
  time, but never for a past time or a NaN one (attempting to do so
  raises :class:`~repro.netsim.events.SchedulingError`);
* simultaneous events execute in deterministic (priority, FIFO) order.

The event list is a binary heap of ``(time, priority, seq, event)``
tuples, so the heap compares keys in C and never calls back into
Python; ``seq`` is unique, so the event itself is never compared.
:meth:`Kernel.run` and :meth:`Kernel.step` share one dispatch loop.

The kernel knows nothing about networking; nodes, links and process
models are layered on top (see :mod:`repro.netsim.node`,
:mod:`repro.netsim.process`).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from .events import Event, SchedulingError, _event_sequence

__all__ = ["Kernel"]

_INFINITY = float("inf")


class Kernel:
    """A discrete-event simulation kernel with a binary-heap event list.

    Example:
        >>> k = Kernel()
        >>> hits = []
        >>> k.schedule(2.0, lambda: hits.append(k.now))
        >>> k.schedule(1.0, lambda: hits.append(k.now))
        >>> k.run()
        >>> hits
        [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._now: float = 0.0
        self._executed_events = 0
        self._stop_requested = False
        #: largest event-list length ever reached (observability)
        self.peak_pending_events = 0
        #: number of distinct time advances (observability)
        self.time_advances = 0
        #: Hooks invoked with the kernel each time ``now`` advances.
        self.time_listeners: List[Callable[[float], None]] = []
        #: optional profiling hook — a zero-arg callable returning a
        #: context manager, wrapped around every :meth:`run` call (see
        #: :func:`repro.obs.profile.attach_profiling`)
        self.profile: Optional[Callable[[], object]] = None

    # ------------------------------------------------------------------
    # Time and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (for event accounting)."""
        return self._executed_events

    @property
    def pending_events(self) -> int:
        """Number of live (not cancelled) events in the event list."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    def stats_snapshot(self) -> dict:
        """Machine-readable kernel counters — plain reads, no reset."""
        return {
            "now_s": self._now,
            "executed_events": self._executed_events,
            "pending_events": self.pending_events,
            "peak_pending_events": self.peak_pending_events,
            "time_advances": self.time_advances,
        }

    def next_event_time(self) -> Optional[float]:
        """Time stamp of the earliest pending event, or ``None`` if empty."""
        self._drop_cancelled_head()
        if not self._queue:
            return None
        return self._queue[0][0]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, time: float, action: Callable[[], None],
                 priority: int = 0) -> Event:
        """Schedule *action* to run at absolute *time*.

        Raises:
            SchedulingError: if *time* lies in the simulator's past or
                is NaN.
        """
        if not time >= self._now:
            raise SchedulingError(
                f"event scheduled at t={time} in the past of t={self._now}")
        seq = next(_event_sequence)
        event = Event(time, priority, seq, action)
        queue = self._queue
        heapq.heappush(queue, (time, priority, seq, event))
        if len(queue) > self.peak_pending_events:
            self.peak_pending_events = len(queue)
        return event

    def schedule_after(self, delay: float, action: Callable[[], None],
                       priority: int = 0) -> Event:
        """Schedule *action* to run *delay* time units from now."""
        if not delay >= 0:
            raise SchedulingError(f"negative or NaN delay {delay}")
        return self.schedule(self._now + delay, action, priority)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single earliest pending event.

        Returns:
            ``True`` if an event was executed, ``False`` if the event
            list is empty.
        """
        return self._run_events(None, 1) == 1

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the list drains, *until* is reached, or
        *max_events* events have executed.

        When *until* is given, the kernel's clock is advanced to exactly
        *until* on return even if the last event fired earlier, so that
        coupled simulators observe a consistent horizon.  It is not
        advanced while events at or before *until* are still pending
        (after *max_events* or :meth:`stop`): they would otherwise lie
        in the past.

        Returns:
            The simulated time at which execution stopped.
        """
        self._stop_requested = False
        profile = self.profile
        if profile is None:
            self._run_events(until, max_events)
        else:
            with profile():
                self._run_events(until, max_events)
        return self._now

    def _run_events(self, until: Optional[float],
                    max_events: Optional[int]) -> int:
        """The dispatch loop: execute events in ``(time, priority,
        seq)`` order until the list drains, the next event lies beyond
        *until*, *max_events* have run or :meth:`stop` was called.

        Returns:
            The number of events executed.
        """
        queue = self._queue
        heappop = heapq.heappop
        horizon = _INFINITY if until is None else until
        budget = _INFINITY if max_events is None else max_events
        executed = 0
        while queue and executed < budget:
            time, _, _, event = queue[0]
            if event.cancelled:
                heappop(queue)
                continue
            if time > horizon:
                break
            heappop(queue)
            now = self._now
            if time != now:
                if time < now:
                    raise SchedulingError(
                        f"causality violation: popped event at t={time} "
                        f"behind current time t={now}")
                self._now = time
                self.time_advances += 1
                for listener in self.time_listeners:
                    listener(time)
            event.action()
            self._executed_events += 1
            executed += 1
            if self._stop_requested:
                break
        if until is not None and until > self._now:
            head = self.next_event_time()
            if head is None or head > until:
                self._advance_time(until)
        return executed

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance_time(self, time: float) -> None:
        if time < self._now:
            raise SchedulingError(
                f"attempt to move time backwards: {self._now} -> {time}")
        if time != self._now:
            self._now = time
            self.time_advances += 1
            for listener in self.time_listeners:
                listener(time)

    def _drop_cancelled_head(self) -> None:
        while self._queue and self._queue[0][3].cancelled:
            heapq.heappop(self._queue)
