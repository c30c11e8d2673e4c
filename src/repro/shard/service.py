"""The persistent scenario job service behind ``python -m repro serve``.

:class:`JobService` is a thin request front end — queue, result store,
lock, JSON-lines TCP socket and STATS — over the sweep's
:class:`repro.sweep.WorkerPool`, which only its dispatcher thread
drives.  Jobs are sweep run payloads (:meth:`repro.sweep.RunSpec.
as_dict` dicts) run by :func:`repro.sweep.scenario.execute_run` in
workers that persist across jobs, so the shared compiled cell-template
cache (:func:`repro.rtl.cell_stream.enable_shared_templates`)
amortises compilation over every job a worker runs.  The pool applies
the sweep's failure policy: an exception is recorded at once as
``status: "error"`` with the worker traceback; a worker crash or hang
gets the worker respawned and the job retried once, then the job is
recorded as ``status: "crash"`` (with the exit code) or ``"timeout"``.

Wire protocol (one UTF-8 JSON object per line, both directions, a
request line at most :data:`MAX_REQUEST_BYTES` long)::

    {"op": "submit", "run": {...}}          -> {"ok": true, "job_id": "job-1"}
    {"op": "result", "job_id": "job-1",
     "wait": true, "timeout": 30}           -> {"ok": true, "job": {...}}
    {"op": "status"}                        -> {"ok": true, "status": {...}}
    {"op": "stats"}                         -> {"ok": true, "stats": {...}}
    {"op": "shutdown"}                      -> {"ok": true}

The ``stats`` op is the live-introspection STATS handshake: queue
depth, running job ids, the per-worker job/crash/timeout/retry
counters (they belong to the pool *slot*, so they survive a respawn)
and the merged telemetry of the completed jobs.  ``python -m repro
stats --service HOST:PORT`` and ``python -m repro serve --status
HOST:PORT`` render it.

:class:`ServeClient` wraps that protocol for Python callers (and the
tests' serve smoke).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from ..obs.merge import merge_counters, merge_histograms, merge_provenance
from ..rtl.cell_stream import enable_shared_templates, shared_template_stats
from ..sweep.runner import Outcome, WorkerPool
from ..sweep.scenario import execute_run
from ..sweep.spec import RunSpec, SweepSpecError

__all__ = ["JobService", "ServeClient"]

#: longest request line the socket front door reads, newline included;
#: a longer line is answered with an error and the rest of it is read
#: and dropped in chunks of this size, never held whole
MAX_REQUEST_BYTES = 64 * 1024


def _serve_task(run: Dict[str, Any], attempt: int) -> Dict[str, Any]:
    """Pool task of the service: one job with the worker's shared
    compiled cell-template cache on.

    Workers persist across jobs, which is the whole point: the cache
    carries each job's template compilations into every later job the
    worker runs (``templates`` in each result reports the accumulated
    reuse).
    """
    enable_shared_templates()
    result = execute_run(run, attempt=attempt, in_worker=True)
    result["templates"] = shared_template_stats()
    return result


class JobService:
    """Persistent job service: queue, worker pool, result store.

    Args:
        jobs: pool size — for sharded workloads, size this to the
            shard count so every shard's scenarios stream through a
            dedicated long-lived worker.
        timeout_s: per-job wall-clock budget before the worker is
            killed and respawned.
        host, port: TCP bind address for :meth:`serve_forever`
            (``port=0`` picks an ephemeral port, published via
            :attr:`address` once :meth:`start` ran).

    Programmatic surface: :meth:`submit` / :meth:`result` /
    :meth:`status` / :meth:`shutdown`; the socket server simply maps
    the wire ops onto these.
    """

    def __init__(self, jobs: int = 2, timeout_s: float = 120.0,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        if jobs < 1:
            raise ValueError(f"need >= 1 worker, got {jobs}")
        if timeout_s <= 0:
            raise ValueError(f"non-positive timeout {timeout_s}")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._pool = WorkerPool(_serve_task, jobs, timeout_s)
        self._queue: List[str] = []
        self._store: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._torn_down = False
        self._dispatcher: Optional[threading.Thread] = None
        self._listener: Optional[socket.socket] = None
        self._seq = 0
        self._counts = {"submitted": 0, "completed": 0, "errors": 0}

    @property
    def stats(self) -> Dict[str, int]:
        """Job counters (submitted, completed, errors) plus the pool's
        (workers_spawned, crashes, timeouts, retries)."""
        return {**self._counts, **self._pool.stats}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "JobService":
        """Spawn the worker pool and the dispatcher thread; binds the
        TCP listener (``address`` becomes the dial target)."""
        if self._dispatcher is not None:
            return self
        self._pool.start()
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen()
        self._listener.settimeout(0.25)
        self.address = self._listener.getsockname()[:2]
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch",
            daemon=True)
        self._dispatcher.start()
        return self

    def shutdown(self) -> None:
        """Stop dispatching, cancel queued jobs, reap the pool
        (idempotent).

        Guarded by its own flag, not ``_stop``: a wire-level shutdown
        request trips ``_stop`` first (to break the accept loop) and
        the actual teardown still has to run exactly once after it.
        """
        if self._torn_down:
            return
        self._torn_down = True
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10.0)
        with self._lock:
            for job_id in self._queue:
                self._store[job_id]["status"] = "cancelled"
            self._queue.clear()
            self._done.notify_all()
        self._pool.close()
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def __enter__(self) -> "JobService":
        """Start the service on scope entry."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Shut the service down on scope exit, exception or not."""
        self.shutdown()

    # ------------------------------------------------------------------
    # Programmatic API
    # ------------------------------------------------------------------
    def submit(self, run: Dict[str, Any]) -> str:
        """Enqueue one job (a :meth:`~repro.sweep.RunSpec.as_dict`
        payload, validated before queueing); returns the job id."""
        spec = RunSpec.from_dict(dict(run))  # raises on bad payloads
        with self._lock:
            if self._stop.is_set():
                raise RuntimeError("service is shut down")
            self._seq += 1
            job_id = f"job-{self._seq}"
            self._store[job_id] = {"job_id": job_id,
                                   "name": spec.name,
                                   "status": "queued",
                                   "run": spec.as_dict(),
                                   "attempts": 0,
                                   "result": None}
            self._queue.append(job_id)
            self._counts["submitted"] += 1
        return job_id

    def result(self, job_id: str, wait: bool = True,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """The job record; with *wait*, block until it leaves the
        queue/running states (or *timeout* seconds elapse)."""
        with self._lock:
            record = self._store.get(job_id)
            if record is None:
                raise KeyError(f"unknown job id {job_id!r}")
            if wait:
                self._done.wait_for(
                    lambda: record["status"] not in ("queued", "running"),
                    timeout=timeout)
            return dict(record)

    def status(self) -> Dict[str, Any]:
        """Service-level counters plus the per-state job census."""
        with self._lock:
            census = Counter(record["status"]
                             for record in self._store.values())
            return {"jobs": self.jobs,
                    "timeout_s": self.timeout_s,
                    "queue_depth": len(self._queue),
                    "census": dict(census),
                    "stats": self.stats}

    def stats_snapshot(self) -> Dict[str, Any]:
        """The live-introspection STATS payload: queue depth, the
        per-worker counters, running job ids, and the merged
        telemetry of every completed job."""
        with self._lock:
            workers = [{"name": slot.name, "alive": slot.alive,
                        "busy": slot.busy, "job": slot.key,
                        "attempt": slot.attempt,
                        "counters": dict(slot.counters)}
                       for slot in self._pool.slots]
            running = sorted(
                record["job_id"]
                for record in self._store.values()
                if record["status"] == "running")
            return {
                "queue_depth": len(self._queue),
                "running": running,
                "service": self.stats,
                "workers": workers,
                "telemetry": self._job_telemetry_locked(),
            }

    def _job_telemetry_locked(self) -> Dict[str, Any]:
        """Merge the telemetry every completed job reported (caller
        holds the lock): latency histograms bucket-merge across jobs,
        sync and provenance totals sum — the same semantics
        :func:`repro.obs.merge.merge_telemetry` applies to shard
        payloads."""
        results = [record["result"] for record in self._store.values()
                   if record["status"] == "done"
                   and isinstance(record["result"], dict)]
        latencies = [result["latency"] for result in results
                     if result.get("latency")]
        return {
            "jobs": len(results),
            "latency": (merge_histograms(latencies)
                        if latencies else None),
            "sync": merge_counters(result.get("sync") or {}
                                   for result in results),
            "provenance": merge_provenance(
                result.get("provenance") for result in results) or None,
            "trace_records": sum(int(result.get("trace_records", 0))
                                 for result in results),
        }

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        pool = self._pool
        while not self._stop.is_set():
            self._assign()
            if pool.busy:
                outcomes = pool.poll(timeout=0.1)
                if outcomes:
                    with self._lock:
                        for outcome in outcomes:
                            self._record(outcome)
            else:
                time.sleep(0.02)

    def _assign(self) -> None:
        """Hand queued jobs to idle pool slots, oldest first."""
        with self._lock:
            while self._queue and self._pool.idle:
                job_id = self._queue[0]
                record = self._store[job_id]
                try:
                    self._pool.dispatch(job_id, record["run"])
                except OSError:
                    return  # no worker could be spawned: next round
                self._queue.pop(0)
                record["status"] = "running"
                record["attempts"] = 1

    def _record(self, outcome: Outcome) -> None:
        """Store one terminal job outcome (caller holds the lock)."""
        record = self._store[outcome.key]
        record["attempts"] = outcome.attempt
        if outcome.kind == "ok":
            record["status"] = "done"
            record["result"] = outcome.value
            self._counts["completed"] += 1
        else:
            record["status"] = outcome.kind
            record["result"] = {"detail": outcome.value}
            if outcome.kind == "error":
                self._counts["errors"] += 1
        self._done.notify_all()

    # ------------------------------------------------------------------
    # Socket front door
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept clients until a ``shutdown`` request (or
        :meth:`shutdown` from another thread); each client connection
        is served by its own thread, one JSON object per line."""
        self.start()
        assert self._listener is not None
        try:
            while not self._stop.is_set():
                try:
                    sock, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_client, args=(sock,),
                    daemon=True)
                thread.start()
        finally:
            self.shutdown()

    def _serve_client(self, sock: socket.socket) -> None:
        stream = sock.makefile("rwb")
        try:
            while True:
                raw = stream.readline(MAX_REQUEST_BYTES + 1)
                if not raw:
                    break
                if len(raw) > MAX_REQUEST_BYTES:
                    reply = {"ok": False,
                             "error": f"RequestTooLong: request line "
                                      f"exceeds {MAX_REQUEST_BYTES} bytes"}
                    while raw and not raw.endswith(b"\n"):
                        raw = stream.readline(MAX_REQUEST_BYTES + 1)
                else:
                    reply = self._reply(raw)
                    if reply is None:
                        continue
                stream.write(json.dumps(reply).encode("utf-8") + b"\n")
                stream.flush()
                if reply.get("bye"):
                    break
        except (BrokenPipeError, ConnectionError, OSError):
            pass
        finally:
            try:
                stream.close()
                sock.close()
            except OSError:
                pass

    def _reply(self, raw: bytes) -> Optional[Dict[str, Any]]:
        """The reply to one request line (``None`` for a blank one);
        every malformed request gets a typed ``ok: false`` reply."""
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                return None
            return self._handle(json.loads(line))
        except (UnicodeDecodeError, json.JSONDecodeError, SweepSpecError,
                KeyError, RuntimeError, TypeError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _handle(self, request: Any) -> Dict[str, Any]:
        if not isinstance(request, dict):
            raise TypeError("request must be a JSON object, got "
                            f"{type(request).__name__}")
        for name, (types, what) in _FIELDS.items():
            value = request.get(name)
            if value is not None and (
                    not isinstance(value, types)
                    or (types is not bool and isinstance(value, bool))):
                raise TypeError(f"{name!r} must be {what}")
        op = request.get("op")
        if op == "submit":
            job_id = self.submit(request["run"])
            return {"ok": True, "job_id": job_id}
        if op == "result":
            record = self.result(request["job_id"],
                                 wait=request.get("wait", True),
                                 timeout=request.get("timeout"))
            return {"ok": True, "job": record}
        if op == "status":
            return {"ok": True, "status": self.status()}
        if op == "stats":
            return {"ok": True, "stats": self.stats_snapshot()}
        if op == "shutdown":
            # Reply first, then trip the stop flag: serve_forever's
            # finally block performs the actual teardown.
            self._stop.set()
            return {"ok": True, "bye": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


#: request field -> (accepted types, description for the error reply)
_FIELDS = {"run": (dict, "a JSON object"),
           "job_id": (str, "a string"),
           "wait": (bool, "true or false"),
           "timeout": ((int, float), "a number of seconds")}


class ServeClient:
    """Python-side client of the serve wire protocol.

    Example::

        with ServeClient(("127.0.0.1", 7453)) as client:
            job_id = client.submit(run_payload)
            record = client.result(job_id, wait=True)
    """

    def __init__(self, address: Tuple[str, int],
                 timeout: Optional[float] = 60.0) -> None:
        self.address = tuple(address)
        self._sock = socket.create_connection(self.address,
                                              timeout=timeout)
        self._stream = self._sock.makefile("rw", encoding="utf-8",
                                           newline="\n")

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._stream.write(json.dumps(request) + "\n")
        self._stream.flush()
        line = self._stream.readline()
        if not line:
            raise ConnectionError(
                f"serve endpoint {self.address} closed the connection")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise RuntimeError(
                f"serve request failed: {reply.get('error')}")
        return reply

    def submit(self, run: Dict[str, Any]) -> str:
        """Submit one run payload; returns the job id."""
        return self._call({"op": "submit", "run": run})["job_id"]

    def result(self, job_id: str, wait: bool = True,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """Fetch (optionally await) one job record."""
        request: Dict[str, Any] = {"op": "result", "job_id": job_id,
                                   "wait": wait}
        if timeout is not None:
            request["timeout"] = timeout
        return self._call(request)["job"]

    def status(self) -> Dict[str, Any]:
        """The service's status snapshot."""
        return self._call({"op": "status"})["status"]

    def stats(self) -> Dict[str, Any]:
        """The live STATS introspection payload (queue depth,
        per-worker counters, merged completed-job telemetry)."""
        return self._call({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        """Ask the service to shut down."""
        self._call({"op": "shutdown"})

    def close(self) -> None:
        """Close the client connection (idempotent)."""
        try:
            self._stream.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        """Enter ``with ServeClient(...) as client`` — returns self."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the connection on scope exit."""
        self.close()
