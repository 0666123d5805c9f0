"""The three workloads: set-up, load, oracle checks and metrics.

``run_batch`` and ``run_serve`` each return ``{"attempted", "failed",
"mismatches", "metrics"}`` for one ``perfbench/run.py`` invocation; the
metrics are the end-to-end ones, or the per-layer ones when ``--trace 1``.
Every child process goes through :class:`Processes`, which stops and
reaps all of them when the run ends.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from attribution import layer_metrics
from batch_child import JOIN_THETA, vm_hwm_mb
from loadgen import (
    Connection,
    Op,
    closed_loop,
    open_loop,
    percentile,
    status,
    tail_quantile,
)
from oracle import (
    ProbeOracle,
    bounded_mismatches,
    join_mismatches,
    probe_mismatches,
)
from repro.baselines.naive import naive_self_join
from repro.data import make_corpus, save_records
from repro.data.records import Record
from repro.net import protocol

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOIN_RECORDS = 800
SERVE_RECORDS = 2000
SERVE_THETA = 0.6
SHARDS, REPLICATION, FRAGMENTS = 3, 2, 8
ZIPF_S = 1.2
APPEND_EVERY, APPEND_SIZE = 10, 4
#: Appended records get ids from here up, clear of the base corpus.
APPEND_RID_BASE = 10_000_000
#: Open-loop offered rate (ops/s).  It sits below the knee of open-loop
#: latency on a contended 2-vCPU host (Zipf p50 was steady at 150/s and
#: swung 2-6x at 500/s), a tenth to a third of the closed-loop peak, so
#: the open loop measures latency rather than queue growth.
OPEN_RATE = {"serve-zipf": 150.0, "serve-mixed": 90.0}
#: Share of ``--seconds`` the open-loop rounds are scheduled over.
OPEN_SHARE = 0.75
#: Closed-loop ops per second of ``--seconds``: each closed round takes
#: one to one and a half seconds on a 2-vCPU host, so single flushes,
#: compactions and cache misses move it little, and the closed rounds
#: together span most of the run, over which the host's speed varies.
CLOSED_OPS_PER_S = {"serve-zipf": 1200.0, "serve-mixed": 400.0}
#: Requests each connection keeps outstanding in the closed loop, enough
#: to keep the server busy so the phase measures its peak rate.
CLOSED_DEPTH = 8
#: Each timed phase is split into this many rounds; a phase reports the
#: median of its rounds' figures.
ROUNDS = 6
#: Unmeasured closed-loop ops first, so the gateway cache and the
#: server's lazy state are warm when timing starts.
WARMUP_OPS = {"serve-zipf": 1000, "serve-mixed": 200}
SETUP_REPEATS = 5
FINAL_PROBES = 100
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
CHILD_TIMEOUT = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run (not an answer mismatch)."""


# -- processes -----------------------------------------------------------
class Processes:
    """Every child this run starts; all are stopped and reaped on exit."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.children: List[subprocess.Popen] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")

    def popen(self, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        child = subprocess.Popen([sys.executable, *argv], env=self.env,
                                 cwd=str(ROOT), **kwargs)
        self.children.append(child)
        return child

    def run(self, argv: Sequence[str]) -> None:
        child = self.popen(argv, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE)
        _, err = child.communicate(timeout=CHILD_TIMEOUT)
        if child.returncode:
            raise BenchError(f"{argv[:3]} failed: {err.decode()[-400:]}")

    def stop_all(self) -> None:
        for child in self.children:
            if child.poll() is None:
                child.kill()
            child.wait()


class Server:
    """``python -m repro serve`` (or its traced launcher) in a child."""

    LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")

    def __init__(self, procs: Processes, cluster_dir: Path, ingest: bool,
                 dump: Optional[Path] = None) -> None:
        serve = ["serve", str(cluster_dir), "--port", "0"]
        if ingest:
            serve.append("--ingest")
        argv = (["-m", "repro", *serve] if dump is None
                else [str(HERE / "traced_serve.py"), str(dump), *serve])
        tag = "traced" if dump is not None else "plain"
        self.stderr_path = procs.workdir / f"server-{tag}-{len(procs.children)}.err"
        self.stderr = open(self.stderr_path, "wb")
        self.process = procs.popen(argv, stdout=subprocess.DEVNULL,
                                   stderr=self.stderr)
        try:
            self.address = self._wait_listening()
        except BenchError:
            self.stderr.close()
            raise

    def _wait_listening(self):
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            match = self.LISTENING.search(
                self.stderr_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError("server did not start: "
                         + self.stderr_path.read_text(errors="replace")[-400:])

    def stop(self) -> None:
        """SIGTERM drains the server; wait until it has exited."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.stderr.close()
        if self.process.returncode:
            raise BenchError("server exited with code "
                             f"{self.process.returncode}")


def build_cluster(procs: Processes, corpus: Path, out: Path) -> None:
    procs.run(["-m", "repro", "cluster", "build", str(corpus),
               "--output", str(out), "--shards", str(SHARDS),
               "--replication", str(REPLICATION),
               "--vertical", str(FRAGMENTS)])


def ms(seconds: float) -> float:
    return 1e3 * seconds


# -- fsjoin-batch --------------------------------------------------------
def spawn_child(procs: Processes, corpus: Path, out: Path, mode: str):
    """Start the join child; returns it and its set-up time (spawn to
    corpus loaded)."""
    started = time.perf_counter()
    child = procs.popen([str(HERE / "batch_child.py"), str(corpus), str(out),
                         "--mode", mode],
                        stdout=subprocess.PIPE)
    line = child.stdout.readline()
    if line.strip() != b"ready":
        child.wait(timeout=CHILD_TIMEOUT)
        raise BenchError(f"join child failed to start (code {child.returncode})")
    return child, time.perf_counter() - started


def finish_child(child, out: Path) -> Dict:
    child.stdout.read()
    if child.wait(timeout=CHILD_TIMEOUT):
        raise BenchError(f"join child exited with code {child.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_batch(args, procs: Processes) -> Dict:
    records = make_corpus("wiki", args.records or JOIN_RECORDS, seed=args.seed)
    corpus = procs.workdir / "corpus.txt"
    save_records(records, corpus)
    expected = naive_self_join(records, JOIN_THETA)

    if args.trace:
        child, _ = spawn_child(procs, corpus, procs.workdir / "join.json",
                               "traced")
    else:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            child, setup = spawn_child(procs, corpus,
                                       procs.workdir / "unused", "setup")
            child.wait(timeout=CHILD_TIMEOUT)
            setups.append(setup)
        child, setup = spawn_child(procs, corpus, procs.workdir / "join.json",
                                   "join")
        setups.append(setup)
    joined = finish_child(child, procs.workdir / "join.json")
    runs = joined["runs"]
    result = {
        "attempted": len(runs),
        "failed": 0,
        "mismatches": sum(
            join_mismatches({(a, b): s for a, b, s in run["pairs"]}, expected)
            for run in runs),
    }
    wall = statistics.median(run["wall_s"] for run in runs if not run["traced"])
    if not args.trace:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": joined["peak_rss_mb"],
            "throughput_per_s": joined["records"] / wall,
            # Three joins support no percentile beyond the median, so the
            # tail reports the median too.
            "latency_p50_ms": ms(wall),
            "latency_tail_ms": ms(wall),
        }
        return result
    traced_wall = next(run["wall_s"] for run in runs if run["traced"])
    result["metrics"] = dict(
        joined["layers"],
        **{"trace.overhead_ms": ms(traced_wall - wall),
           "trace.overhead_frac": traced_wall / wall - 1.0})
    return result


# -- serve-* ---------------------------------------------------------------
class OpStream:
    """The seeded op sequence of one serve workload.

    ``serve-zipf``: probes with the tokens of indexed records drawn
    Zipf(1.2) over a seeded permutation of the corpus.  ``serve-mixed``:
    every tenth op appends 4 near-duplicates of base records; the others
    probe a base record with one token replaced by a fresh one, so no two
    probes share a cache key.
    """

    def __init__(self, workload: str, records, seed: int) -> None:
        self.mixed = workload == "serve-mixed"
        self.records = list(records)
        self.rng = random.Random(seed)
        self.ids = itertools.count(1)
        self.n = 0
        self.appended = 0
        order = list(range(len(self.records)))
        self.rng.shuffle(order)
        self.zipf_order = order
        self.zipf_cum = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_S for rank in range(len(order))))

    def _mutate(self, record, fresh: str) -> List[str]:
        tokens = list(record.tokens)
        tokens[self.rng.randrange(len(tokens))] = fresh
        return tokens

    def take(self, count: int) -> List[Op]:
        ops = []
        for _ in range(count):
            self.n += 1
            if not self.mixed:
                index = self.rng.choices(self.zipf_order,
                                         cum_weights=self.zipf_cum)[0]
                ops.append(self._probe(self.records[index].tokens))
            elif self.n % APPEND_EVERY == 0:
                ops.append(self._append())
            else:
                base = self.rng.choice(self.records)
                ops.append(self._probe(self._mutate(base, f"probe{self.n}")))
        return ops

    def final_probes(self, appended_records) -> List[Op]:
        """Untimed pass, probes only: appended records' own tokens, then
        fresh unique probes of base records."""
        picks = self.rng.sample(appended_records,
                                min(FINAL_PROBES // 2, len(appended_records)))
        ops = [self._probe(record.tokens) for record in picks]
        while len(ops) < FINAL_PROBES:
            self.n += 1
            base = self.rng.choice(self.records)
            ops.append(self._probe(self._mutate(base, f"probe{self.n}")))
        return ops

    def _probe(self, tokens) -> Op:
        return Op("probe", protocol.search_frame(
            next(self.ids), tokens, SERVE_THETA))

    def _append(self) -> Op:
        batch = []
        for _ in range(APPEND_SIZE):
            base = self.rng.choice(self.records)
            rid = APPEND_RID_BASE + self.appended
            batch.append(Record.make(rid, self._mutate(base, f"appended{rid}")))
            self.appended += 1
        return Op("append", protocol.append_frame(next(self.ids), batch),
                  records=batch)


async def drive(address, warmup_ops, open_rounds, rate, closed_rounds,
                final_ops):
    """Run the phases over fresh connections; returns results + status."""
    host, port = address
    connections = [await Connection.open(host, port, "bench")
                   for _ in range(CONNECTIONS)]
    try:
        observed = {"warmup": [await closed_loop(connections, warmup_ops)]}
        # Open and closed rounds alternate, so a burst of contention on
        # the host lands in one round of each phase, not in a whole phase.
        observed["open"], observed["closed"] = [], []
        for open_ops, closed_ops in zip(open_rounds, closed_rounds):
            observed["open"].append(await open_loop(connections, open_ops,
                                                    rate))
            observed["closed"].append(await closed_loop(
                connections, closed_ops, CLOSED_DEPTH))
        observed["final"] = [await closed_loop(connections[:1], final_ops)]
        observed["status"] = await status(connections[0], 0)
    finally:
        for connection in connections:
            await connection.close()
    return observed


def serve_pass(args, records, server: Server, traced: bool = False) -> Dict:
    """Drive one started server through the load phases, then stop it."""
    workload = args.workload
    stream = OpStream(workload, records, args.seed)
    warmup_ops = stream.take(WARMUP_OPS[workload])
    n_open = round(OPEN_RATE[workload] * args.seconds * OPEN_SHARE)
    n_closed = round(CLOSED_OPS_PER_S[workload] * args.seconds)
    open_rounds, closed_rounds = [], []
    for _ in range(ROUNDS):
        open_rounds.append(stream.take(max(1, n_open // ROUNDS)))
        closed_rounds.append(stream.take(max(1, n_closed // ROUNDS)))
    appends = [op for ops in [warmup_ops, *open_rounds, *closed_rounds]
               for op in ops if op.kind == "append"]
    appended = [record for op in appends for record in op.records]
    # The final pass checks answers after all writes; traced passes skip
    # it so spans and client latencies cover the same requests.
    final_ops = ([] if workload != "serve-mixed" or traced
                 else stream.final_probes(appended))
    try:
        observed = asyncio.run(drive(
            server.address, warmup_ops, open_rounds, OPEN_RATE[workload],
            closed_rounds, final_ops))
        observed["rss"] = vm_hwm_mb(server.process.pid)
    finally:
        server.stop()
    observed["appends"] = appends
    observed["appended"] = appended
    return observed


#: Phases under load, and all phases (the untimed final pass last).
LOADED = ("warmup", "open", "closed")
PHASES = LOADED + ("final",)


def ops_of(observed: Dict, phases=PHASES) -> list:
    return [op for phase in phases for result in observed[phase]
            for op in result.ops]


def check_serve(args, records, observed: Dict) -> int:
    """Oracle mismatches of one pass."""
    timed = ops_of(observed, LOADED)
    if args.workload == "serve-zipf":
        return probe_mismatches(timed, ProbeOracle(records, SERVE_THETA))
    oracle = ProbeOracle(list(records) + observed["appended"], SERVE_THETA)
    return (bounded_mismatches(timed, observed["appends"], oracle)
            + probe_mismatches(ops_of(observed, ("final",)), oracle))


def round_latency(results, kind: str, q: Optional[float] = None) -> float:
    """Median over rounds of each round's ``q`` latency percentile (the
    highest percentile with ten samples beyond it when ``q`` is None)."""
    values = []
    for result in results:
        latencies = result.latencies(kind)
        if latencies:
            quantile = tail_quantile(len(latencies)) if q is None else q
            values.append(percentile(latencies, quantile))
    return ms(statistics.median(values)) if values else 0.0


def open_loop_times(observed: Dict) -> Tuple[List[float], List[Tuple]]:
    """Send-to-reply seconds of the answered open-loop probes, and the
    ``(first send, last reply)`` window of each open-loop round."""
    times, windows = [], []
    for result in observed["open"]:
        answered = [op for op in result.ops if op.ok]
        times += [op.done - op.sent for op in answered if op.kind == "probe"]
        if answered:
            windows.append((min(op.sent for op in answered),
                            max(op.done for op in answered)))
    return times, windows


def load_metrics(observed: Dict) -> Dict[str, float]:
    """What the generator saw: failures, lateness, sample counts and the
    append latencies (open and closed loop together)."""
    opened = observed["open"]
    ops = ops_of(observed)
    appends = sorted(latency for result in opened + observed["closed"]
                     for latency in result.latencies("append"))
    return {
        "load.failed_frac": sum(1 for op in ops if not op.ok) / len(ops),
        "load.lateness_p50_ms": ms(statistics.median(
            op.sent - op.due for result in opened for op in result.ops)),
        "load.lateness_max_ms": ms(max(r.lateness_max_s for r in opened)),
        "load.probe_samples": sum(len(r.latencies("probe")) for r in opened),
        "load.tail_quantile": tail_quantile(len(opened[0].latencies("probe"))),
        "load.append_p50_ms": ms(percentile(appends, 0.5)) if appends else 0.0,
        "load.append_tail_ms": ms(percentile(
            appends, tail_quantile(len(appends)))) if appends else 0.0,
        "load.append_samples": len(appends),
    }


def run_serve(args, procs: Processes) -> Dict:
    records = make_corpus("wiki", args.records or SERVE_RECORDS, seed=args.seed)
    corpus = procs.workdir / "corpus.txt"
    save_records(records, corpus)

    mixed = args.workload == "serve-mixed"
    setups = []
    for k in range(1 if args.trace else SETUP_REPEATS):
        if setups:
            server.stop()
        started = time.perf_counter()
        cluster_dir = procs.workdir / f"cluster-{k}"
        build_cluster(procs, corpus, cluster_dir)
        server = Server(procs, cluster_dir, mixed)
        setups.append(time.perf_counter() - started)

    plain = serve_pass(args, records, server)
    passes = [plain]
    if args.trace:
        # The traced pass runs between two untraced ones, so the tracing
        # overhead is measured against neighbours in time.
        dump_path = procs.workdir / "spans.json"
        traced = serve_pass(
            args, records, Server(procs, cluster_dir, mixed, dump_path),
            traced=True)
        after = serve_pass(args, records, Server(procs, cluster_dir, mixed))
        passes += [traced, after]

    all_ops = [op for observed in passes for op in ops_of(observed)]
    result = {
        "attempted": len(all_ops),
        "failed": sum(1 for op in all_ops if not op.ok),
        "mismatches": sum(check_serve(args, records, observed)
                          for observed in passes),
    }
    if not args.trace:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": plain["rss"],
            # Answered probes over the closed rounds' whole time: the
            # rate averages over the run, as the host's speed varies
            # from one second to the next.
            "throughput_per_s": sum(
                1 for op in ops_of(plain, ("closed",))
                if op.kind == "probe" and op.ok)
            / sum(r.elapsed_s for r in plain["closed"]),
            "latency_p50_ms": round_latency(plain["open"], "probe", 0.5),
            "latency_tail_ms": round_latency(plain["open"], "probe"),
        }
        return result

    dump = json.loads(dump_path.read_text(encoding="utf-8"))
    traced_times, windows = open_loop_times(traced)
    metrics = layer_metrics(dump, traced["status"], traced_times, windows)
    metrics.update(load_metrics(plain))
    plains = (plain, after)
    metrics["trace.overhead_ms"] = (
        round_latency(traced["open"], "probe", 0.5)
        - statistics.fmean(round_latency(observed["open"], "probe", 0.5)
                           for observed in plains))
    metrics["trace.overhead_frac"] = (
        statistics.fmean(traced_times)
        / statistics.fmean(seconds for observed in plains
                           for seconds in open_loop_times(observed)[0]) - 1.0)
    result["metrics"] = metrics
    return result
