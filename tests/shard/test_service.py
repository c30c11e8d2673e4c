"""The persistent job service: pool reuse, failure policy, wire API."""

import threading

import pytest

from repro.shard import JobService, ServeClient


def run_payload(name, level="behav", cells=8, inject=None):
    payload = {"name": name, "traffic": "cbr", "ports": 2, "seed": 0,
               "sync": "conservative", "level": level, "cells": cells,
               "load": 0.25}
    if inject is not None:
        payload["inject"] = inject
    return payload


def test_submit_validates_before_queueing():
    with JobService(jobs=1) as service:
        with pytest.raises(Exception):
            service.submit({"name": "bad"})  # missing matrix fields
        assert service.status()["stats"]["submitted"] == 0


def test_jobs_complete_and_results_are_stored():
    with JobService(jobs=2) as service:
        ids = [service.submit(run_payload(f"job{i}"))
               for i in range(3)]
        records = [service.result(job_id, wait=True, timeout=60)
                   for job_id in ids]
        assert [r["status"] for r in records] == ["done"] * 3
        assert all(r["result"]["passed"] for r in records)
        status = service.status()
        assert status["census"] == {"done": 3}
        assert status["stats"]["completed"] == 3
    # shutdown reaped the pool
    assert not any(w["alive"] for w in service.stats_snapshot()["workers"])


def test_unknown_job_id_raises():
    with JobService(jobs=1) as service:
        with pytest.raises(KeyError, match="unknown job id"):
            service.result("job-999", wait=False)


def test_error_job_keeps_full_traceback_and_no_retry():
    with JobService(jobs=1) as service:
        job_id = service.submit(run_payload("boom", inject="error"))
        record = service.result(job_id, wait=True, timeout=60)
        assert record["status"] == "error"
        assert record["attempts"] == 1  # deterministic — not retried
        detail = record["result"]["detail"]
        assert detail["type"] == "RuntimeError"
        assert "injected error" in detail["message"]
        assert "Traceback (most recent call last)" in \
            detail["traceback"]
        # the pool survives a job error: the next job still runs
        ok = service.submit(run_payload("after"))
        assert service.result(ok, wait=True,
                              timeout=60)["status"] == "done"


def test_crash_once_is_retried_to_success():
    with JobService(jobs=1) as service:
        job_id = service.submit(run_payload("flaky",
                                            inject="crash_once"))
        record = service.result(job_id, wait=True, timeout=60)
        assert record["status"] == "done"
        assert record["attempts"] == 2
        stats = service.status()["stats"]
        assert stats["crashes"] == 1
        assert stats["retries"] == 1
        assert stats["workers_spawned"] == 2  # original + respawn


def test_persistent_crash_becomes_terminal():
    with JobService(jobs=1) as service:
        job_id = service.submit(run_payload("dead", inject="crash"))
        record = service.result(job_id, wait=True, timeout=60)
        assert record["status"] == "crash"
        assert record["attempts"] == 2
        assert record["result"]["detail"]["exitcode"] == 23


def test_hung_job_times_out_and_the_slot_keeps_serving():
    with JobService(jobs=1, timeout_s=1.0) as service:
        job_id = service.submit(run_payload("stuck", inject="hang"))
        record = service.result(job_id, wait=True, timeout=60)
        assert record["status"] == "timeout"
        assert record["attempts"] == 2
        assert record["result"]["detail"]["timeout_s"] == 1.0
        stats = service.status()["stats"]
        assert stats["timeouts"] == 2
        assert stats["retries"] == 1
        after = service.submit(run_payload("after-hang"))
        assert service.result(after, wait=True,
                              timeout=60)["status"] == "done"
        # the original worker, the retry's respawn, and the respawn
        # that serves the next job — all in the one slot
        assert service.status()["stats"]["workers_spawned"] == 3
        (worker,) = service.stats_snapshot()["workers"]
        assert worker["counters"]["timeouts"] == 2
        assert worker["counters"]["ok"] == 1


def test_rtl_templates_shared_across_jobs():
    """The point of the persistent pool: job 2 reuses the compiled
    cell templates job 1 published in the same worker process."""
    with JobService(jobs=1) as service:
        first = service.result(
            service.submit(run_payload("rtl1", level="rtl")),
            wait=True, timeout=120)
        second = service.result(
            service.submit(run_payload("rtl2", level="rtl")),
            wait=True, timeout=120)
        t1 = first["result"]["templates"]
        t2 = second["result"]["templates"]
        assert t1["enabled"] and t2["enabled"]
        assert t1["misses"] > 0  # job 1 compiled and published
        assert t2["hits"] > t1["hits"]  # job 2 adopted shared entries
        assert t2["entries"] == t1["entries"]  # nothing recompiled


def test_serve_smoke_over_socket():
    """The CI serve smoke: 3 jobs over the local socket, results
    collected, clean shutdown on request."""
    service = JobService(jobs=2)
    service.start()
    thread = threading.Thread(target=service.serve_forever,
                              daemon=True)
    thread.start()
    try:
        with ServeClient(service.address) as client:
            ids = [client.submit(run_payload(f"wire{i}"))
                   for i in range(3)]
            for job_id in ids:
                record = client.result(job_id, wait=True, timeout=60)
                assert record["status"] == "done"
                assert record["result"]["passed"]
            status = client.status()
            assert status["stats"]["completed"] == 3
            client.shutdown()
    finally:
        thread.join(timeout=30)
        service.shutdown()
    assert not thread.is_alive()
    assert not any(w["alive"]  # pool reaped
                   for w in service.stats_snapshot()["workers"])


def test_serve_stats_live_introspection():
    """The STATS handshake: per-worker counters, queue depth, and the
    merged telemetry of every completed job (latency bucket-merged,
    provenance totals summed)."""
    service = JobService(jobs=2)
    service.start()
    thread = threading.Thread(target=service.serve_forever,
                              daemon=True)
    thread.start()
    try:
        with ServeClient(service.address) as client:
            ids = [client.submit(run_payload(f"stats{i}"))
                   for i in range(2)]
            for job_id in ids:
                client.result(job_id, wait=True, timeout=60)
            stats = client.stats()
            assert set(stats) == {"queue_depth", "running", "service",
                                  "workers", "telemetry"}
            assert stats["queue_depth"] == 0
            assert stats["running"] == []
            assert stats["service"]["completed"] == 2
            workers = stats["workers"]
            assert len(workers) == 2
            assert all(w["alive"] and not w["busy"] for w in workers)
            assert sum(w["counters"]["ok"] for w in workers) == 2
            telemetry = stats["telemetry"]
            assert telemetry["jobs"] == 2
            # 8 cells per job, both jobs folded into one histogram
            assert telemetry["latency"]["count"] == 16
            assert telemetry["provenance"]["cells_seen"] == 16
            assert telemetry["provenance"]["sample"] == 1  # max
            client.shutdown()
    finally:
        thread.join(timeout=30)
        service.shutdown()


def test_wire_protocol_rejects_garbage():
    service = JobService(jobs=1)
    service.start()
    thread = threading.Thread(target=service.serve_forever,
                              daemon=True)
    thread.start()
    try:
        with ServeClient(service.address) as client:
            with pytest.raises(RuntimeError, match="unknown op"):
                client._call({"op": "dance"})
            with pytest.raises(RuntimeError):
                client._call({"op": "submit", "run": {"name": "x"}})
            with pytest.raises(RuntimeError, match="unknown job id"):
                client.result("job-404", wait=False)
            client.shutdown()
    finally:
        thread.join(timeout=30)
        service.shutdown()


def test_serve_refuses_malformed_requests_and_keeps_serving():
    """A request that is not a JSON object, or carries an ill-typed
    field, gets an ``ok: false`` reply naming the problem; the same
    connection then still answers a valid request."""
    import json
    import socket

    service = JobService(jobs=1)
    service.start()
    thread = threading.Thread(target=service.serve_forever,
                              daemon=True)
    thread.start()
    try:
        with socket.create_connection(service.address, timeout=30) as sock:
            stream = sock.makefile("rw", encoding="utf-8", newline="\n")

            def call(line):
                stream.write(line + "\n")
                stream.flush()
                return json.loads(stream.readline())

            for line, error in (
                    ("[]", "must be a JSON object, got list"),
                    ('"x"', "must be a JSON object, got str"),
                    ('{"op": "result", "job_id": "job-1", '
                     '"timeout": "soon"}', "'timeout' must be a number"),
                    ('{"op": "result", "job_id": 7}', "'job_id'"),
                    ('{"op": "result", "job_id": "job-1", "wait": "no"}',
                     "'wait'"),
                    ('{"op": "submit", "run": []}', "'run'")):
                reply = call(line)
                assert reply["ok"] is False
                assert error in reply["error"]
            reply = call('{"op": "status"}')
            assert reply["ok"] is True
            assert reply["status"]["stats"]["submitted"] == 0
            assert call('{"op": "shutdown"}')["bye"] is True
            stream.close()
    finally:
        thread.join(timeout=30)
        service.shutdown()
    assert not thread.is_alive()


def test_serve_answers_undecodable_and_over_long_lines():
    """A request line that is not UTF-8, or longer than
    ``MAX_REQUEST_BYTES``, gets a typed ``ok: false`` reply; the same
    connection then still completes a job."""
    import json
    import socket

    from repro.shard.service import MAX_REQUEST_BYTES

    service = JobService(jobs=1, timeout_s=60.0)
    service.start()
    thread = threading.Thread(target=service.serve_forever,
                              daemon=True)
    thread.start()
    try:
        with socket.create_connection(service.address, timeout=30) as sock:
            stream = sock.makefile("rwb")

            def call(line):
                stream.write(line + b"\n")
                stream.flush()
                return json.loads(stream.readline())

            reply = call(b'\xff\xfe{"op": "status"}')
            assert reply["ok"] is False
            assert reply["error"].startswith("UnicodeDecodeError:")
            reply = call(b'{"op": "status", "pad": "'
                         + b"x" * (2 * MAX_REQUEST_BYTES) + b'"}')
            assert reply["ok"] is False
            assert reply["error"].startswith("RequestTooLong:")
            assert str(MAX_REQUEST_BYTES) in reply["error"]
            # a line of exactly the limit, newline included, is served
            status = b'{"op": "status"}'
            reply = call(status + b" " * (MAX_REQUEST_BYTES - 1
                                          - len(status)))
            assert reply["ok"] is True
            run = run_payload("after-bad-lines")
            reply = call(json.dumps({"op": "submit", "run": run}).encode())
            assert reply["ok"] is True
            record = call(json.dumps(
                {"op": "result", "job_id": reply["job_id"], "wait": True,
                 "timeout": 60}).encode())["job"]
            assert record["status"] == "done", record
            assert call(b'{"op": "shutdown"}')["bye"] is True
            stream.close()
    finally:
        thread.join(timeout=30)
        service.shutdown()
    assert not thread.is_alive()
