"""Parallel fan-out of a sweep matrix over one persistent worker pool.

:class:`WorkerPool` is the one place worker processes are spawned,
timed out, killed and respawned; :class:`SweepRunner` and the ``repro
serve`` job service (:class:`repro.shard.JobService`) both drive it.
Each of its slots holds a long-lived worker that runs one task at a
time.  A task that raises is an ``error`` at once (deterministic, so a
retry cannot help); a worker that dies (pipe EOF or an exit code) or
overruns its deadline (terminated, then killed) is respawned into the
same slot and the task retried once, then reported ``crash`` or
``timeout``.  What a terminal crash or timeout means is the caller's
policy: the sweep re-executes a twice-crashed run serially in the
parent, where a raised exception is caught and recorded as ``status:
"error"``, and records a twice-timed-out run as ``status: "timeout"``
(a hang in the parent would stall the sweep).  The sweep spawns
``min(jobs, runs)`` workers and reaps them inside :meth:`SweepRunner.
run`; with ``jobs=1``, or for runs no worker can be spawned for, it
executes serially — same results, no parallelism.

Results are always reported in matrix order regardless of completion
order, so identical specs produce identically ordered payloads (the
determinism contract ``repro.sweep.strip_volatile`` tests rely on).
"""

from __future__ import annotations

import gc
import multiprocessing
import time
import traceback
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from .aggregate import aggregate_results
from .scenario import execute_run
from .spec import RunSpec, SweepSpec

__all__ = ["SweepRunner", "WorkerPool", "run_sweep"]

#: attempts per task before a crash or timeout is terminal
MAX_ATTEMPTS = 2

#: seconds a worker gets to exit before it is terminated, and again
#: before it is killed
REAP_S = 5.0


def mp_context():
    """The context of every worker process: fork where the platform
    offers it (fast — no re-import), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _error_detail(exc: BaseException) -> Dict[str, str]:
    """Type, message and formatted traceback of a task exception (the
    exception object itself dies with the worker)."""
    return {"type": type(exc).__name__, "message": str(exc),
            "traceback": traceback.format_exc()}


def _pool_worker_main(conn, task: Callable) -> None:
    """Worker-process entry: reply to each ``(payload, attempt)``
    request with ``task(payload, attempt)`` until ``None`` or EOF.

    The collection after each task keeps the worker's peak memory at
    that of one task, as if each task had a fresh process.
    """
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request is None:
            return
        try:
            reply = ("ok", task(*request))
        except Exception as exc:
            reply = ("error", _error_detail(exc))
        conn.send(reply)
        gc.collect()


class Outcome(NamedTuple):
    """How one pool task ended: *kind* ``ok`` (*value* is the task's
    return value), ``error``, ``crash`` or ``timeout`` (*value* is the
    failure detail) at *attempt*; *retried* holds an ``{"attempt",
    "kind", "detail"}`` record of each earlier, retried failure."""

    key: Any
    kind: str
    value: Any
    attempt: int
    retried: List[Dict[str, Any]]


class _Slot:
    """One worker slot.  It outlives its worker processes, so ``name``
    and the ``counters`` carry on across respawns."""

    __slots__ = ("name", "process", "conn", "key", "payload", "attempt",
                 "retried", "deadline", "counters")

    def __init__(self, name: str) -> None:
        self.name = name
        self.process = self.conn = self.key = self.payload = None
        self.attempt = 0
        self.retried: List[Dict[str, Any]] = []
        self.deadline = 0.0
        self.counters = {"jobs": 0, "ok": 0, "errors": 0,
                         "crashes": 0, "timeouts": 0, "retries": 0}

    @property
    def busy(self) -> bool:
        return self.key is not None

    @property
    def alive(self) -> bool:
        process = self.process  # read once: STATS reads from threads
        return process is not None and process.is_alive()


class WorkerPool:
    """*slots* persistent workers running the module-level function
    ``task(payload, attempt)``, each attempt within *timeout_s*.

    :meth:`start` spawns every slot's worker; a slot whose worker died
    gets a new one when it next gets a task.  :meth:`dispatch` hands a
    task to an idle slot, :meth:`poll` returns the :class:`Outcome` of
    each finished task and :meth:`close` reaps every worker.
    :attr:`stats` counts ``workers_spawned``, ``crashes``,
    ``timeouts`` and ``retries``.
    """

    def __init__(self, task: Callable, slots: int,
                 timeout_s: float) -> None:
        self.task = task
        self.timeout_s = timeout_s
        self.slots = [_Slot(f"worker{index}") for index in range(slots)]
        self.stats = {"workers_spawned": 0, "crashes": 0,
                      "timeouts": 0, "retries": 0}
        self._ctx = mp_context()

    @property
    def idle(self) -> int:
        """Number of slots without a task."""
        return sum(not slot.busy for slot in self.slots)

    @property
    def busy(self) -> bool:
        """True while any slot runs a task."""
        return any(slot.busy for slot in self.slots)

    def start(self) -> "WorkerPool":
        """Spawn every slot's worker; on ``OSError`` reap those already
        spawned and re-raise."""
        try:
            for slot in self.slots:
                self._spawn(slot)
        except OSError:
            self.close()
            raise
        return self

    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        try:
            process = self._ctx.Process(
                target=_pool_worker_main, args=(child_conn, self.task),
                name=f"pool-{slot.name}", daemon=True)
            process.start()
        except OSError:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        slot.process, slot.conn = process, parent_conn
        self.stats["workers_spawned"] += 1

    def dispatch(self, key: Any, payload: Any) -> None:
        """Hand task *key* to an idle slot; ``OSError`` when the slot
        needs a new worker and none can be spawned (the task is then
        not taken)."""
        slot = next(slot for slot in self.slots if not slot.busy)
        slot.retried = []
        self._send(slot, key, payload, 1)

    def _send(self, slot: _Slot, key: Any, payload: Any,
              attempt: int) -> None:
        if slot.process is None or slot.process.exitcode is not None:
            self._retire(slot)
            self._spawn(slot)
        slot.key, slot.payload, slot.attempt = key, payload, attempt
        slot.deadline = time.monotonic() + self.timeout_s
        try:
            slot.conn.send((payload, attempt))
        except OSError:
            pass  # the worker just died: poll() reports the crash

    def poll(self, timeout: float) -> List[Outcome]:
        """Wait up to *timeout* seconds, less when a deadline falls
        first, and return the outcomes of the tasks that ended.  A
        crash or timeout before :data:`MAX_ATTEMPTS` is instead retried
        in the same slot with a new worker, or ends the task if no
        worker can be spawned."""
        busy = [slot for slot in self.slots if slot.busy]
        if not busy:
            return []
        horizon = min(slot.deadline for slot in busy) - time.monotonic()
        _conn_wait([slot.conn for slot in busy],
                   timeout=max(0.0, min(horizon, timeout)))
        outcomes = []
        for slot in busy:
            if slot.conn.poll():
                try:
                    kind, value = slot.conn.recv()
                except (EOFError, OSError):
                    # reap first: right after the pipe EOF the child
                    # may not be waitable yet and reads exit code None
                    slot.process.join(timeout=REAP_S)
                    kind, value = "crash", \
                        {"exitcode": slot.process.exitcode}
            elif slot.process.exitcode is not None:
                kind, value = "crash", {"exitcode": slot.process.exitcode}
            elif time.monotonic() >= slot.deadline:
                kind, value = "timeout", {"timeout_s": self.timeout_s}
            else:
                continue
            outcome = self._settle(slot, kind, value)
            if outcome is not None:
                outcomes.append(outcome)
        return outcomes

    def _settle(self, slot: _Slot, kind: str,
                value: Any) -> Optional[Outcome]:
        key, payload, attempt = slot.key, slot.payload, slot.attempt
        slot.key = slot.payload = None
        counters = slot.counters
        if kind in ("crash", "timeout"):
            counter = "crashes" if kind == "crash" else "timeouts"
            self.stats[counter] += 1
            counters[counter] += 1
            self._retire(slot)
            if attempt < MAX_ATTEMPTS:
                try:
                    self._send(slot, key, payload, attempt + 1)
                except OSError:
                    pass  # no worker for the retry: the failure stands
                else:
                    slot.retried.append(
                        {"attempt": attempt, "kind": kind, "detail": value})
                    self.stats["retries"] += 1
                    counters["retries"] += 1
                    return None
        counters["jobs"] += 1
        if kind in ("ok", "error"):
            counters["ok" if kind == "ok" else "errors"] += 1
        return Outcome(key, kind, value, attempt, slot.retried)

    def _retire(self, slot: _Slot, grace: float = 0.0) -> None:
        """Close the slot's pipe and reap its worker: wait *grace*
        seconds, then terminate, then kill."""
        process = slot.process
        if process is None:
            return
        slot.conn.close()
        slot.process = slot.conn = None
        process.join(timeout=grace)
        if process.is_alive():
            process.terminate()
            process.join(timeout=REAP_S)
            if process.is_alive():  # pragma: no cover - ignores SIGTERM
                process.kill()
                process.join()

    def close(self) -> None:
        """Ask every worker to stop, then reap them all (idempotent);
        tasks still running are abandoned."""
        for slot in self.slots:
            if slot.conn is not None:
                try:
                    slot.conn.send(None)
                except OSError:
                    pass
        for slot in self.slots:
            self._retire(slot, grace=REAP_S)
            slot.key = slot.payload = None


class SweepRunner:
    """Executes a sweep spec and aggregates the results.

    Args:
        spec: the scenario matrix and knobs.
        jobs: override ``spec.jobs`` (worker processes; 1 = serial).
        timeout_s: override ``spec.timeout_s`` (per-run budget).

    Example::

        spec = SweepSpec(traffic=["cbr", "poisson"], seeds=[0, 1])
        payload = SweepRunner(spec).run()
        print(payload["aggregate"]["runs_passed"])
    """

    def __init__(self, spec: SweepSpec, jobs: Optional[int] = None,
                 timeout_s: Optional[float] = None) -> None:
        self.spec = spec
        self.jobs = spec.jobs if jobs is None else int(jobs)
        self.timeout_s = spec.timeout_s if timeout_s is None \
            else float(timeout_s)
        if self.jobs < 1:
            raise ValueError(f"need >= 1 job, got {self.jobs}")
        if self.timeout_s <= 0:
            raise ValueError(f"non-positive timeout {self.timeout_s}")
        self.stats: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Execute the whole matrix; returns the sweep payload
        (per-run results in matrix order, the aggregate, and the
        execution record)."""
        runs = self.spec.expand()
        started = time.perf_counter()
        self.stats = {"jobs": self.jobs,
                      "start_method": mp_context().get_start_method(),
                      "workers_spawned": 0, "crashes": 0, "timeouts": 0,
                      "retries": 0, "serial_fallbacks": 0,
                      "degraded_to_serial": False,
                      # one entry per retried/degraded attempt, with
                      # the failure detail that motivated it
                      "retry_log": []}
        if self.jobs == 1:
            results = {run.name: self._run_serial(run) for run in runs}
        else:
            results = self._run_pool(runs)
        ordered = [results[run.name] for run in runs]
        self.stats["sweep_wall_s"] = time.perf_counter() - started
        return {
            "benchmark": "sweep",
            "spec": self.spec.as_dict(),
            "runs": ordered,
            "aggregate": aggregate_results(ordered),
            "execution": dict(self.stats),
        }

    # -- serial --------------------------------------------------------
    def _run_serial(self, run: RunSpec, attempt: int = 1,
                    mode: str = "serial") -> Dict[str, Any]:
        """Execute one run in the parent process, converting scenario
        exceptions into an ``"error"`` result."""
        try:
            result = execute_run(run.as_dict(), attempt=attempt,
                                 in_worker=False)
        except Exception as exc:
            result = self._failure_result(run, "error", _error_detail(exc))
        result["mode"] = mode
        result["attempts"] = attempt
        return result

    # -- pool ----------------------------------------------------------
    def _spawn(self, runs: List[RunSpec]) -> Optional[WorkerPool]:
        """Start the pool of ``min(jobs, len(runs))`` workers; None
        when process creation fails (the signal to degrade the whole
        sweep to serial)."""
        pool = WorkerPool(execute_run, min(self.jobs, len(runs)),
                          self.timeout_s)
        try:
            return pool.start()
        except OSError:
            return None

    def _run_pool(self, runs: List[RunSpec]) -> Dict[str, Dict[str, Any]]:
        """Fan runs out over the worker pool; runs no worker could be
        spawned for execute serially in the parent."""
        pending = list(reversed(runs))
        results: Dict[str, Dict[str, Any]] = {}
        pool = self._spawn(runs)
        if pool is not None:
            try:
                spawnable = True
                while (spawnable and pending) or pool.busy:
                    while spawnable and pending and pool.idle:
                        run = pending[-1]
                        try:
                            pool.dispatch(run, run.as_dict())
                        except OSError:
                            spawnable = False
                        else:
                            pending.pop()
                    for outcome in pool.poll(timeout=0.25):
                        results[outcome.key.name] = self._settle(outcome)
            finally:
                pool.close()
                self.stats.update(pool.stats)
        if pending:
            self.stats["degraded_to_serial"] = True
        for run in reversed(pending):
            results[run.name] = self._run_serial(run,
                                                 mode="serial-fallback")
        return results

    def _settle(self, outcome: Outcome) -> Dict[str, Any]:
        """Apply the sweep's terminal policy to one pool outcome."""
        run, retry_log = outcome.key, self.stats["retry_log"]
        for failure in outcome.retried:
            retry_log.append({"name": run.name, **failure})
        if outcome.kind == "crash":
            # Second crash: degrade this run to serial execution so its
            # result (or a caught error) survives without a worker.
            self.stats["serial_fallbacks"] += 1
            retry_log.append({"name": run.name, "attempt": outcome.attempt,
                              "kind": "crash", "detail": outcome.value})
            return self._run_serial(run, attempt=outcome.attempt + 1,
                                    mode="serial-fallback")
        if outcome.kind == "ok":
            result = outcome.value
        else:
            result = self._failure_result(run, outcome.kind,
                                          outcome.value)
        result["mode"] = "pool"
        result["attempts"] = outcome.attempt
        return result

    @staticmethod
    def _failure_result(run: RunSpec, status: str,
                        detail) -> Dict[str, Any]:
        """A result record for a run that produced no scenario output."""
        return {
            "name": run.name,
            "params": {"traffic": run.traffic, "ports": run.ports,
                       "seed": run.seed, "sync": run.sync,
                       "cells": run.cells, "load": run.load,
                       "level": run.level},
            "status": status,
            "passed": False,
            "detail": detail,
        }


def run_sweep(spec: SweepSpec, jobs: Optional[int] = None,
              timeout_s: Optional[float] = None) -> Dict[str, Any]:
    """Convenience wrapper: ``SweepRunner(spec, ...).run()``."""
    return SweepRunner(spec, jobs=jobs, timeout_s=timeout_s).run()
