"""Tests for the parallel sweep runner's failure policy.

The worker-death paths are driven through the spec's failure-injection
hooks (``inject``): ``crash_once`` dies on the first attempt only,
``crash`` dies on every worker attempt, ``hang`` sleeps past any
timeout, ``error`` raises a Python exception inside the scenario.
"""

import pytest

from repro.sweep import SweepRunner, SweepSpec, WorkerPool, strip_volatile


def _spec(seeds, inject=None, jobs=2, timeout_s=60.0, cells=8):
    return SweepSpec(traffic=["cbr"], ports=[2], seeds=seeds,
                     sync=["conservative"], cells=cells,
                     jobs=jobs, timeout_s=timeout_s,
                     inject=inject or {})


def _by_name(payload):
    return {run["name"]: run for run in payload["runs"]}


def test_parallel_sweep_completes_and_aggregates():
    payload = SweepRunner(_spec(seeds=[0, 1, 2, 3])).run()
    aggregate = payload["aggregate"]
    assert aggregate["runs_total"] == 4
    assert aggregate["runs_passed"] == 4
    assert aggregate["runs_by_status"] == {"ok": 4}
    assert aggregate["cells_processed"] == 32
    assert aggregate["sync_exchanges"] > 0
    assert aggregate["latency"]["count"] == 32
    assert payload["execution"]["jobs"] == 2
    # two persistent workers serve all four runs
    assert payload["execution"]["workers_spawned"] == 2
    assert all(run["mode"] == "pool" for run in payload["runs"])


def test_results_stay_in_matrix_order():
    spec = _spec(seeds=[5, 3, 1])
    payload = SweepRunner(spec).run()
    assert [r["name"] for r in payload["runs"]] == \
        [r.name for r in spec.expand()]


def test_serial_mode_with_one_job():
    payload = SweepRunner(_spec(seeds=[0, 1], jobs=1)).run()
    assert payload["aggregate"]["runs_passed"] == 2
    assert all(run["mode"] == "serial" for run in payload["runs"])
    assert payload["execution"]["workers_spawned"] == 0


def test_crash_is_retried_once_then_succeeds():
    inject = {"cbr-p2-s0-conservative": "crash_once"}
    payload = SweepRunner(_spec(seeds=[0, 1], inject=inject)).run()
    runs = _by_name(payload)
    crashed = runs["cbr-p2-s0-conservative"]
    assert crashed["status"] == "ok"
    assert crashed["passed"]
    assert crashed["attempts"] == 2
    assert payload["execution"]["crashes"] == 1
    assert payload["execution"]["retries"] == 1
    # the healthy run is unaffected
    assert runs["cbr-p2-s1-conservative"]["status"] == "ok"


def test_respawned_slot_keeps_serving():
    inject = {"cbr-p2-s0-conservative": "crash_once"}
    payload = SweepRunner(_spec(seeds=[0, 1, 2, 3], inject=inject)).run()
    assert all(run["mode"] == "pool" for run in payload["runs"])
    # two workers at start plus one respawn into the crashed slot
    assert payload["execution"]["workers_spawned"] == 3
    clean = SweepRunner(_spec(seeds=[0, 1, 2, 3])).run()
    assert strip_volatile(payload) == strip_volatile(clean)


def test_spawn_failure_degrades_the_sweep_to_serial(monkeypatch):
    def refuse(pool, slot):
        raise OSError("no processes left")

    monkeypatch.setattr(WorkerPool, "_spawn", refuse)
    payload = SweepRunner(_spec(seeds=[0, 1])).run()
    assert payload["execution"]["degraded_to_serial"]
    assert payload["execution"]["workers_spawned"] == 0
    assert all(run["mode"] == "serial-fallback" for run in payload["runs"])
    assert payload["aggregate"]["runs_passed"] == 2


def test_persistent_crash_degrades_to_serial_without_losing_others():
    inject = {"cbr-p2-s1-conservative": "crash"}
    payload = SweepRunner(_spec(seeds=[0, 1, 2], inject=inject)).run()
    runs = _by_name(payload)
    doomed = runs["cbr-p2-s1-conservative"]
    # two worker deaths, then the run lands in the parent where the
    # injected crash surfaces as a caught error — not a lost sweep
    assert doomed["status"] == "error"
    assert doomed["mode"] == "serial-fallback"
    assert payload["execution"]["crashes"] == 2
    assert payload["execution"]["serial_fallbacks"] == 1
    for name in ("cbr-p2-s0-conservative", "cbr-p2-s2-conservative"):
        assert runs[name]["status"] == "ok"
        assert runs[name]["passed"]
    assert payload["aggregate"]["runs_by_status"] == \
        {"ok": 2, "error": 1}


def test_hanging_worker_is_killed_and_reported_as_timeout():
    inject = {"cbr-p2-s0-conservative": "hang"}
    payload = SweepRunner(
        _spec(seeds=[0, 1], inject=inject, timeout_s=1.0)).run()
    runs = _by_name(payload)
    hung = runs["cbr-p2-s0-conservative"]
    assert hung["status"] == "timeout"
    assert not hung["passed"]
    assert hung["detail"]["timeout_s"] == 1.0
    assert payload["execution"]["timeouts"] == 2  # first try + retry
    # a timed-out run is never re-executed serially in the parent
    assert hung["mode"] == "pool"
    assert runs["cbr-p2-s1-conservative"]["status"] == "ok"


def test_scenario_exception_is_an_error_without_retry():
    inject = {"cbr-p2-s0-conservative": "error"}
    payload = SweepRunner(_spec(seeds=[0, 1], inject=inject)).run()
    runs = _by_name(payload)
    failed = runs["cbr-p2-s0-conservative"]
    assert failed["status"] == "error"
    assert failed["attempts"] == 1
    assert failed["detail"]["type"] == "RuntimeError"
    assert payload["execution"]["retries"] == 0


def test_lockstep_and_bursty_traffic_cells_survive_the_pool():
    spec = SweepSpec(traffic=["onoff"], ports=[2], seeds=[0],
                     sync=["lockstep"], cells=8, jobs=2)
    payload = SweepRunner(spec).run()
    assert payload["aggregate"]["runs_passed"] == 1


def test_runner_rejects_bad_overrides():
    with pytest.raises(ValueError):
        SweepRunner(_spec(seeds=[0]), jobs=0)
    with pytest.raises(ValueError):
        SweepRunner(_spec(seeds=[0]), timeout_s=0.0)


def test_worker_error_detail_carries_the_traceback():
    # The exception object dies with the worker process — the
    # formatted traceback in the detail payload is the only record of
    # where the failure happened.
    inject = {"cbr-p2-s0-conservative": "error"}
    payload = SweepRunner(_spec(seeds=[0], inject=inject)).run()
    failed = _by_name(payload)["cbr-p2-s0-conservative"]
    assert failed["mode"] == "pool"
    tb = failed["detail"]["traceback"]
    assert "Traceback (most recent call last)" in tb
    assert "RuntimeError: injected error" in tb
    assert "_apply_injection" in tb  # the actual raise site


def test_serial_error_detail_carries_the_traceback():
    inject = {"cbr-p2-s0-conservative": "error"}
    payload = SweepRunner(_spec(seeds=[0], inject=inject, jobs=1)).run()
    failed = _by_name(payload)["cbr-p2-s0-conservative"]
    assert failed["mode"] == "serial"
    tb = failed["detail"]["traceback"]
    assert "Traceback (most recent call last)" in tb
    assert "_apply_injection" in tb


def test_retry_log_records_the_motivating_failure():
    inject = {"cbr-p2-s0-conservative": "crash_once"}
    payload = SweepRunner(_spec(seeds=[0, 1], inject=inject)).run()
    retry_log = payload["execution"]["retry_log"]
    assert len(retry_log) == 1
    entry = retry_log[0]
    assert entry["name"] == "cbr-p2-s0-conservative"
    assert entry["attempt"] == 1
    assert entry["kind"] == "crash"
    assert entry["detail"]["exitcode"] == 23


def test_retry_log_covers_serial_degradation():
    inject = {"cbr-p2-s0-conservative": "crash"}
    payload = SweepRunner(_spec(seeds=[0], inject=inject)).run()
    retry_log = payload["execution"]["retry_log"]
    # first crash -> retry entry; second crash -> degradation entry
    assert [e["attempt"] for e in retry_log] == [1, 2]
    assert all(e["kind"] == "crash" for e in retry_log)


def test_failure_details_render_in_the_report():
    from repro.sweep import render_sweep_report

    inject = {"cbr-p2-s0-conservative": "error"}
    payload = SweepRunner(_spec(seeds=[0], inject=inject)).run()
    report = render_sweep_report(payload)
    assert "failures:" in report
    assert "RuntimeError: injected error" in report
    assert "Traceback (most recent call last)" in report
