"""Aggregation of per-process telemetry into one coherent view.

The merge layer is the second half of distributed telemetry
(:mod:`repro.obs.distributed` builds one payload per process; this
module folds N of them together):

* **counters** sum;
* **histograms** bucket-merge — bucket tallies are keyed on their
  upper bound (``le``), counts/totals sum, min/max recombine, and the
  approximate quantiles are re-derived from the merged buckets (the
  same upper-bound approximation :meth:`Histogram.quantile` uses, so
  a merged p99 is exactly what one process-wide histogram would have
  reported);
* **span streams** concatenate shard-attributed and clock-domain
  tagged, ordered by originator time so the merged stream reads like
  one process's trace;
* **coverage** recombines: FSM visited-state sets union, sync-window
  occupancy re-derives from summed totals, hop latency tails
  re-derive from the merged histograms, residual backlogs
  concatenate.

Everything operates on plain dicts (the wire shapes), never on live
instruments — merging N workers' telemetry needs no simulator state
and works the same on payloads read back from JSON files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from .distributed import (hop_tail_coverage, residual_backlog,
                          sync_window_coverage)

__all__ = ["merge_counters", "merge_histograms",
           "merge_instrument_snapshots", "merge_provenance",
           "merge_spans", "merge_coverage", "merge_telemetry",
           "merge_trace_records", "load_trace_jsonl"]


def merge_counters(snapshots: Iterable[Dict[str, int]]
                   ) -> Dict[str, int]:
    """Sum counter maps name-by-name."""
    merged: Dict[str, int] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            merged[name] = merged.get(name, 0) + int(value)
    return dict(sorted(merged.items()))


def _bucket_key(le: Union[float, str]) -> float:
    return float("inf") if le == "inf" else float(le)


def _merged_quantile(q: float, count: int,
                     buckets: List[Dict[str, Any]],
                     maximum: Optional[float]) -> Optional[float]:
    """Quantile over merged buckets, matching
    :meth:`Histogram.quantile`'s upper-bound approximation (the
    overflow bucket reports the observed max)."""
    if count == 0:
        return None
    rank = q * count
    seen = 0
    for bucket in buckets:
        seen += bucket["count"]
        if seen >= rank and bucket["count"]:
            if bucket["le"] == "inf":
                return maximum
            return bucket["le"]
    return maximum


def merge_histograms(dicts: Iterable[Dict[str, Any]]
                     ) -> Dict[str, Any]:
    """Bucket-merge histogram snapshots (``Histogram.as_dict`` shape)
    into one snapshot of the same shape."""
    count = 0
    total = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    tallies: Dict[float, Dict[str, Any]] = {}
    for hist in dicts:
        count += int(hist.get("count", 0))
        total += float(hist.get("total", 0.0))
        for stat, fold in (("min", min), ("max", max)):
            value = hist.get(stat)
            if value is None:
                continue
            current = minimum if stat == "min" else maximum
            folded = value if current is None else fold(current, value)
            if stat == "min":
                minimum = folded
            else:
                maximum = folded
        for bucket in hist.get("buckets", []):
            key = _bucket_key(bucket["le"])
            slot = tallies.get(key)
            if slot is None:
                tallies[key] = {"le": bucket["le"],
                                "count": bucket["count"]}
            else:
                slot["count"] += bucket["count"]
    buckets = [tallies[key] for key in sorted(tallies)]
    return {
        "count": count,
        "total": total,
        "mean": total / count if count else 0.0,
        "min": minimum,
        "max": maximum,
        "p50": _merged_quantile(0.5, count, buckets, maximum),
        "p99": _merged_quantile(0.99, count, buckets, maximum),
        "buckets": buckets,
    }


def merge_instrument_snapshots(snapshots: Iterable[Dict[str, Any]]
                               ) -> Dict[str, Any]:
    """Fold N ``MetricsRegistry.snapshot()`` dicts into one coherent
    registry view (counter sum + histogram bucket-merge)."""
    snapshots = list(snapshots)
    merged_counters = merge_counters(
        snapshot.get("counters", {}) for snapshot in snapshots)
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for snapshot in snapshots:
        for name, hist in snapshot.get("histograms", {}).items():
            by_name.setdefault(name, []).append(hist)
    return {
        "counters": merged_counters,
        "histograms": {name: merge_histograms(dicts)
                       for name, dicts in sorted(by_name.items())},
    }


def _span_domain(span: Dict[str, Any]) -> str:
    if "t" in span and "hdl_s" in span:
        return "both"
    return "hdl" if "hdl_s" in span else "t"


def _span_order(span: Dict[str, Any]) -> float:
    when = span.get("t")
    if when is None:
        when = span.get("hdl_s")
    return when if when is not None else float("inf")


def merge_spans(span_streams: Iterable[List[Dict[str, Any]]]
                ) -> List[Dict[str, Any]]:
    """Concatenate per-process span streams into one stream ordered
    by originator time, each span tagged with its clock ``domain``
    (``"t"`` / ``"hdl"`` / ``"both"``); shard attribution is already
    on each span."""
    merged: List[Dict[str, Any]] = []
    for stream in span_streams:
        for span in stream:
            tagged = dict(span)
            tagged.setdefault("domain", _span_domain(span))
            merged.append(tagged)
    merged.sort(key=_span_order)  # stable: intra-shard order kept
    return merged


def merge_coverage(payloads: List[Dict[str, Any]],
                   instruments: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """Recombine per-shard coverage blocks.

    *instruments* is the already-merged registry snapshot (hop tails
    re-derive from it so the merged tail view matches the merged
    histograms exactly).
    """
    fsm: Dict[str, Dict[str, Any]] = {}
    sync_totals: Dict[str, int] = {}
    residual_entities: List[Dict[str, Any]] = []
    for payload in payloads:
        coverage = payload.get("coverage", {})
        for name, entry in coverage.get("fsm_states", {}).items():
            slot = fsm.get(name)
            if slot is None:
                fsm[name] = {"visited": list(entry["visited"]),
                             "states": entry["states"]}
            else:
                slot["visited"] = sorted(
                    set(slot["visited"]) | set(entry["visited"]))
                slot["states"] = max(slot["states"], entry["states"])
        for key, value in coverage.get("sync_windows", {}).items():
            if key == "messages_per_window":
                continue
            sync_totals[key] = sync_totals.get(key, 0) + int(value)
        for backlog in (coverage.get("residual_backlog", {})
                        .get("per_entity", [])):
            residual_entities.append({"sender_backlog": backlog})
    for entry in fsm.values():
        total = entry["states"]
        entry["visited"] = sorted(entry["visited"])
        entry["fraction"] = (len(entry["visited"]) / total
                             if total else 0.0)
    return {
        "fsm_states": fsm,
        "sync_windows": sync_window_coverage(sync_totals),
        "hop_latency_tail": hop_tail_coverage(instruments),
        "residual_backlog": residual_backlog(residual_entities),
    }


def merge_provenance(snapshots: Iterable[Optional[Dict[str, int]]]
                     ) -> Dict[str, int]:
    """Sum provenance stats key by key; ``sample`` (the 1-in-N duty
    cycle) takes the max.  Missing snapshots count as empty."""
    merged: Dict[str, int] = {}
    for snapshot in snapshots:
        for key, value in (snapshot or {}).items():
            if key == "sample":
                merged[key] = max(merged.get(key, 1), int(value))
            else:
                merged[key] = merged.get(key, 0) + int(value)
    return merged


def merge_telemetry(payloads: Iterable[Dict[str, Any]]
                    ) -> Dict[str, Any]:
    """Fold N shard telemetry payloads
    (:func:`repro.obs.distributed.build_telemetry` shape) into one
    topology-wide payload of the same shape, plus a ``shards`` list
    naming the contributors."""
    payloads = [p for p in payloads if p]
    instruments = merge_instrument_snapshots(
        p.get("instruments", {}) for p in payloads)
    provenance = merge_provenance(p.get("provenance") for p in payloads)
    return {
        "schema": max((p.get("schema", 1) for p in payloads),
                      default=1),
        "shards": [p.get("shard") for p in payloads],
        "instruments": instruments,
        "provenance": provenance or None,
        "spans": merge_spans(p.get("spans", []) for p in payloads),
        "trace_records": sum(int(p.get("trace_records", 0))
                             for p in payloads),
        "coverage": merge_coverage(payloads, instruments),
    }


def merge_trace_records(streams: Iterable[List[Dict[str, Any]]]
                        ) -> List[Dict[str, Any]]:
    """Interleave per-process trace-record streams by originator time
    (stable, so each process's own record order is preserved) — the
    input the multi-process Chrome exporter consumes."""
    merged: List[Dict[str, Any]] = []
    for stream in streams:
        merged.extend(stream)
    merged.sort(key=_span_order)
    return merged


def load_trace_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read one JSONL trace file (``TraceWriter`` output) back into
    record dicts — blank lines skipped, everything else must parse."""
    records: List[Dict[str, Any]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records
