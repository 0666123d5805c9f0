"""Per-layer metrics of a traced serving run.

Inputs are the spans and counters ``traced_serve.py`` dumps at drain, the
server's ``status`` frame, and the latencies the load generator observed.
A layer's self time is its span's duration minus the part of that
interval covered by the spans of the layers below it.  The server runs
one event loop, so any span below the gateway that overlaps a request's
``gateway.search`` span is time that request spent waiting on that layer.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Dict, List, Sequence, Tuple

from loadgen import percentile, tail_quantile

Interval = Tuple[float, float]


def union(spans: Sequence[Sequence[float]]) -> List[Interval]:
    """Merge ``[start, end, ...]`` spans into disjoint sorted intervals."""
    merged: List[List[float]] = []
    for start, end, *_ in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


class Cover:
    """Fast ``|[a, b] ∩ union|`` queries over one merged interval set."""

    def __init__(self, spans: Sequence[Sequence[float]]) -> None:
        self.intervals = union(spans)
        self.starts = [start for start, _ in self.intervals]
        # prefix[i] = total length of intervals[:i]
        self.prefix = [0.0]
        for start, end in self.intervals:
            self.prefix.append(self.prefix[-1] + end - start)

    def within(self, a: float, b: float) -> float:
        if not self.intervals or b <= a:
            return 0.0
        lo = max(bisect.bisect_right(self.starts, a) - 1, 0)
        hi = bisect.bisect_left(self.starts, b)
        if lo >= hi:
            return 0.0
        total = self.prefix[hi] - self.prefix[lo]
        first_start, first_end = self.intervals[lo]
        total -= max(0.0, min(a, first_end) - first_start)
        last_start, last_end = self.intervals[hi - 1]
        total -= max(0.0, last_end - max(b, last_start))
        return total

    def overlaps(self, a: float, b: float) -> bool:
        return self.within(a, b) > 0.0


def _total(spans) -> float:
    return sum(end - start for start, end, *_ in spans)


def _items(spans) -> int:
    return sum(int(span[2]) for span in spans)


def _ms_ratio(seconds: float, count: int) -> float:
    return 1e3 * seconds / count if count else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(dump: Dict, status: Dict,
                  probe_latencies_s: Sequence[float],
                  windows: Sequence[Interval]) -> Dict[str, float]:
    """The ``net``/``gateway``/``cluster``/``service``/``ingest`` metrics.

    ``probe_latencies_s`` are the client's send-to-reply times of the
    open-loop probes, which ran inside ``windows``; the per-request
    metrics use the ``gateway.search`` spans that started in them.
    Clocks agree because ``time.perf_counter`` is system-wide.
    """
    spans = dump["spans"]
    gateway_spans = spans["gateway.search"]
    requests = [span for span in gateway_spans
                if any(start <= span[0] <= end for start, end in windows)]
    batch_spans = spans["cluster.search_batch"]
    shard_spans = spans["service.probe_batch"]
    ingest_probe = spans["ingest.probe"]
    applies = spans["ingest.apply_batch"]
    maintenance = spans["ingest.flush"] + spans["ingest.compact"]

    below_gateway = Cover(batch_spans + applies)
    durations = [end - start for start, end, _ in requests]
    gateway_self = [
        (end - start) - below_gateway.within(start, end)
        for start, end, _ in requests
    ]
    client_mean = statistics.fmean(probe_latencies_s) if probe_latencies_s else 0.0
    gateway_mean = statistics.fmean(durations) if durations else 0.0

    codec_spans = spans["net.encode"] + spans["net.decode"]
    frames = len(spans["net.encode"]) + _items(spans["net.decode"])
    codec_s = _total(codec_spans)

    queries = _items(batch_spans)
    batch_s = _total(batch_spans)
    shard_s = _total(shard_spans)
    ingest_probe_s = _total(ingest_probe)

    shard = dump["counters"]["shard"]
    probes = shard.get("cluster.node.probes", 0)
    candidates = shard.get("service.probe.candidates", 0)

    net = status.get("net", {})
    gateway = status.get("gateway", {}).get("gateway", {})
    route = status.get("gateway", {}).get("route", {})
    requests = gateway.get("requests", 0)

    apply_ms = sorted(1e3 * (end - start) for start, end, _ in applies)
    ingest = dump["counters"]["ingest"] or {}
    ingest_status = ingest.get("status", {})
    maintenance_cover = Cover(maintenance)

    # Server-side time each probe can be shown to have spent: decoding
    # its request frame, encoding its reply, and its gateway.search span
    # (gateway self time plus every layer below).  The rest is socket,
    # kernel and client time.
    attributed = 2 * _ratio(codec_s, frames) + gateway_mean
    return {
        "net.codec_us_per_frame": 1e6 * _ratio(codec_s, frames),
        "net.self_ms_mean": 1e3 * (client_mean - gateway_mean),
        "net.requests": net.get("requests", 0),
        "net.request_errors": net.get("request_errors", 0),
        "gateway.search_ms_p50": 1e3 * percentile(sorted(durations), 0.5)
        if durations else 0.0,
        "gateway.self_ms_mean": 1e3 * statistics.fmean(gateway_self)
        if gateway_self else 0.0,
        "gateway.cache_hit_ratio": _ratio(gateway.get("cache_hits", 0),
                                          requests),
        "gateway.coalesced_ratio": _ratio(gateway.get("coalesced", 0),
                                          requests),
        "gateway.batch_size_mean": _ratio(gateway.get("dispatched", 0),
                                          gateway.get("batches", 0)),
        "gateway.shed": gateway.get("quota_shed", 0) + route.get("shed", 0),
        "cluster.search_batch_ms_per_query": _ms_ratio(batch_s, queries),
        "cluster.self_ms_per_query": _ms_ratio(
            batch_s - shard_s - ingest_probe_s, queries),
        "cluster.shards_probed_per_query": _ratio(
            route.get("shards_probed", 0), route.get("searches", 0)),
        "cluster.hedges": route.get("hedges", 0),
        "cluster.failovers": route.get("failovers", 0),
        "service.probe_ms_per_query": _ms_ratio(shard_s, queries),
        "service.candidates_per_query": _ratio(candidates, probes),
        "service.hits_per_candidate": _ratio(
            shard.get("service.probe.results", 0), candidates),
        "service.posting_lookups_per_query": _ratio(
            shard.get("service.probe.posting_lookups", 0), probes),
        "ingest.apply_batch_ms_p50": percentile(apply_ms, 0.5)
        if apply_ms else 0.0,
        "ingest.apply_batch_ms_tail": percentile(
            apply_ms, tail_quantile(len(apply_ms))) if apply_ms else 0.0,
        "ingest.flushes": ingest_status.get("flushes", 0),
        "ingest.flush_ms_total": 1e3 * _total(spans["ingest.flush"]),
        "ingest.compactions": ingest_status.get("compactions", 0),
        "ingest.compact_ms_total": 1e3 * _total(spans["ingest.compact"]),
        "ingest.wal_bytes_per_record": _ratio(ingest.get("wal_bytes", 0),
                                              ingest.get("wal_records", 0)),
        "ingest.probe_ms_per_query": _ms_ratio(ingest_probe_s, queries),
        "ingest.stalled_probes": sum(
            1 for start, end, _ in gateway_spans
            if maintenance_cover.overlaps(start, end)
        ),
        "trace.probe_ms_mean": 1e3 * client_mean,
        "trace.attributed_frac": _ratio(attributed, client_mean),
    }
