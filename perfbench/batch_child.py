"""Child process of the ``fsjoin-batch`` workload.

    python batch_child.py CORPUS OUT --mode setup|join|traced

Loads the corpus, then writes ``ready`` on stdout: the parent times its
set-up from process start to that line.  ``setup`` exits there.  ``join``
runs ``FSJoin(FSJoinConfig(theta=JOIN_THETA)).run`` on the default serial
executor ``JOIN_REPEATS`` times and writes each run's wall time and pairs,
and the peak RSS, to ``OUT`` as JSON.  ``traced`` runs an untraced join,
one on ``SimulatedCluster(tracer=Tracer())`` and another untraced one, and
adds the per-layer metrics derived from the traced run's spans and job
metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import FSJoin, FSJoinConfig  # noqa: E402
from repro.data.datasets import load_records  # noqa: E402
from repro.mapreduce.runtime import ClusterSpec, SimulatedCluster  # noqa: E402
from repro.observability.tracer import Tracer  # noqa: E402

JOIN_THETA = 0.8
#: Joins timed in one ``join`` run; the parent reports their median.
JOIN_REPEATS = 3


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def layer_metrics(result, spans) -> dict:
    """``mapreduce.*`` and ``core.*`` metrics of one traced join."""
    def total(phase: str) -> float:
        return sum(span.duration for span in spans if span.phase == phase)

    def driver(name: str) -> float:
        return sum(span.duration for span in spans
                   if span.phase == "driver" and span.name == name)

    counters = result.counters()
    candidates = counters.get("fsjoin.verify", "candidates")
    metrics = result.job_metrics()
    return {
        "mapreduce.map_s": total("map-wave"),
        "mapreduce.shuffle_s": total("shuffle"),
        "mapreduce.reduce_s": total("reduce-wave"),
        "mapreduce.shuffle_records": result.total_shuffle_records(),
        "mapreduce.shuffle_mb": result.total_shuffle_bytes() / 1e6,
        "mapreduce.reduce_load_max_over_mean": max(
            job.reduce_load_max_over_mean() for job in metrics
        ),
        "core.order_build_s": driver("order-build"),
        "core.filter_job_s": driver("filter-job"),
        "core.verify_job_s": driver("verify-job"),
        "core.pairs_considered": counters.get("fsjoin.filter",
                                              "pairs_considered"),
        "core.candidates_emitted": counters.get("fsjoin.filter",
                                                "candidates_emitted"),
        "core.results_per_candidate": (
            counters.get("fsjoin.verify", "results") / candidates
            if candidates else 0.0
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("corpus")
    parser.add_argument("out")
    parser.add_argument("--mode", choices=("setup", "join", "traced"),
                        required=True)
    args = parser.parse_args()

    records = load_records(args.corpus)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    config = FSJoinConfig(theta=JOIN_THETA)
    # ``traced`` brackets the traced join with two untraced ones, so the
    # tracing overhead is measured against neighbours in time.
    plan = ([False, True, False] if args.mode == "traced"
            else [False] * JOIN_REPEATS)
    runs, layers = [], None
    for traced in plan:
        result = None  # one join's state alive at a time
        tracer = Tracer() if traced else None
        join = FSJoin(config, SimulatedCluster(ClusterSpec(), tracer=tracer))
        started = time.perf_counter()
        result = join.run(records)
        wall = time.perf_counter() - started
        runs.append({
            "traced": traced,
            "wall_s": wall,
            "pairs": [[a, b, score] for (a, b), score in result.pairs],
        })
        if traced:
            spans = tracer.spans()
            layers = layer_metrics(result, spans)
            layers["trace.attributed_frac"] = sum(
                span.duration for span in spans if span.phase == "driver"
            ) / wall
    document = {"runs": runs, "records": len(records),
                "peak_rss_mb": vm_hwm_mb(), "layers": layers}
    Path(args.out).write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
