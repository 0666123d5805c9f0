"""The stack benchmark: FS-Join batch, Zipf read serving, mixed write serving.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``fsjoin-batch`` -- ``FSJoin(FSJoinConfig(theta=0.8)).run`` on 800
  wiki-like records, in a child process on the default serial executor;
  a run times three joins and reports their median.
* ``serve-zipf`` -- read-only Zipf(1.2) probes of indexed records at
  θ=0.6 against ``python -m repro serve`` over a 2,000-record cluster
  (3 shards × 2 replicas, 8 fragments).
* ``serve-mixed`` -- the same server with ``--ingest``; every probe is
  unique and one op in ten appends 4 near-duplicates of base records.

Each serve workload warms the server up, then alternates six open-loop
rounds (a fixed offered rate for 75% of ``--seconds`` in all; latency
counts from each request's due time) with six closed-loop rounds (a
fixed op count, 8 requests in flight per connection) that give the peak
rate.  Latencies are medians over the rounds; the peak rate is answered
probes over the closed rounds' whole time.  Op counts depend only on
``--seconds``, never on how fast the system is.  Load comes from
this process over at most ``nproc`` (capped at 2) connections.  Every
answer is checked against an oracle (``oracle.py``); a mismatch prints
``"correct": false`` and exits 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload traced between two untraced runs with the same seed -- the
server under ``traced_serve.py``, the join on
``SimulatedCluster(tracer=Tracer())`` -- and prints the per-layer
metrics and the tracing overhead against the untraced runs.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: name -> (unit, better); the order is the output order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
}
PER_LAYER = {
    "mapreduce.map_s": ("s", "lower"),
    "mapreduce.shuffle_s": ("s", "lower"),
    "mapreduce.reduce_s": ("s", "lower"),
    "mapreduce.shuffle_records": ("count", "lower"),
    "mapreduce.shuffle_mb": ("MB", "lower"),
    "mapreduce.reduce_load_max_over_mean": ("ratio", "lower"),
    "core.order_build_s": ("s", "lower"),
    "core.filter_job_s": ("s", "lower"),
    "core.verify_job_s": ("s", "lower"),
    "core.pairs_considered": ("count", "lower"),
    "core.candidates_emitted": ("count", "lower"),
    "core.results_per_candidate": ("ratio", "higher"),
    "net.codec_us_per_frame": ("us", "lower"),
    "net.self_ms_mean": ("ms", "lower"),
    "net.requests": ("count", "higher"),
    "net.request_errors": ("count", "lower"),
    "gateway.search_ms_p50": ("ms", "lower"),
    "gateway.self_ms_mean": ("ms", "lower"),
    "gateway.cache_hit_ratio": ("ratio", "higher"),
    "gateway.coalesced_ratio": ("ratio", "higher"),
    "gateway.batch_size_mean": ("count", "higher"),
    "gateway.shed": ("count", "lower"),
    "cluster.search_batch_ms_per_query": ("ms", "lower"),
    "cluster.self_ms_per_query": ("ms", "lower"),
    "cluster.shards_probed_per_query": ("count", "lower"),
    "cluster.hedges": ("count", "lower"),
    "cluster.failovers": ("count", "lower"),
    "service.probe_ms_per_query": ("ms", "lower"),
    "service.candidates_per_query": ("count", "lower"),
    "service.hits_per_candidate": ("ratio", "higher"),
    "service.posting_lookups_per_query": ("count", "lower"),
    "ingest.apply_batch_ms_p50": ("ms", "lower"),
    "ingest.apply_batch_ms_tail": ("ms", "lower"),
    "ingest.flushes": ("count", "lower"),
    "ingest.flush_ms_total": ("ms", "lower"),
    "ingest.compactions": ("count", "lower"),
    "ingest.compact_ms_total": ("ms", "lower"),
    "ingest.wal_bytes_per_record": ("B", "lower"),
    "ingest.probe_ms_per_query": ("ms", "lower"),
    "ingest.stalled_probes": ("count", "lower"),
    "load.failed_frac": ("ratio", "lower"),
    "load.lateness_p50_ms": ("ms", "lower"),
    "load.lateness_max_ms": ("ms", "lower"),
    "load.probe_samples": ("count", "higher"),
    "load.tail_quantile": ("quantile", "higher"),
    "load.append_p50_ms": ("ms", "lower"),
    "load.append_tail_ms": ("ms", "lower"),
    "load.append_samples": ("count", "higher"),
    "trace.probe_ms_mean": ("ms", "lower"),
    "trace.attributed_frac": ("ratio", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

WORKLOADS = ("fsjoin-batch", "serve-zipf", "serve-mixed")


# -- entry point -----------------------------------------------------------
def render(result: Dict, trace: bool) -> Dict:
    """The final JSON line: every declared metric, by name, with its unit."""
    table = PER_LAYER if trace else END_TO_END
    values = result["metrics"]
    return {
        "correct": result["mismatches"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, (unit, _) in table.items()
        },
    }


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=int, default=None,
                        help="corpus size override (smoke tests)")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    # A SIGTERM unwinds like an error, so the children are still stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    procs = workloads.Processes(workdir)
    try:
        runner = (workloads.run_batch if args.workload == "fsjoin-batch"
                  else workloads.run_serve)
        result = runner(args, procs)
    except (workloads.BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        procs.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    document = render(result, bool(args.trace))
    try:
        line = json.dumps(document, allow_nan=False)
    except ValueError:
        print(f"error: a metric is not a finite number: {document['metrics']}",
              file=sys.stderr)
        return 1
    print(line)
    if not document["correct"]:
        print(f"error: {result['mismatches']} answers failed the oracle",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
