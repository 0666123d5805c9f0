"""Smoke tests of the benchmark itself, at tiny sizes.

    python -m pytest perfbench/test_smoke.py

Each workload runs untraced and traced; every metric ``BENCHMARK.json``
declares must come out by name with its unit.  A deliberately corrupted
answer must trip the oracle gate, and a checkout without the sources
must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import loadgen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from loadgen import Op  # noqa: E402
from repro.data.records import Record  # noqa: E402
from repro.net import protocol  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"fsjoin-batch": 60, "serve-zipf": 150, "serve-mixed": 150}


def bench(capsys, workload: str, trace: int) -> tuple:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--records", str(TINY[workload])])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(capsys, workload,
                                                        trace):
    code, result = bench(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()
            } == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_declared_workloads_and_metrics_match_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[key]
                } == table


@pytest.mark.parametrize("workload", ["serve-zipf", "serve-mixed"])
def test_corrupted_probe_answer_trips_the_gate(capsys, monkeypatch, workload):
    feed = protocol.FrameDecoder.feed
    corrupted = []

    def corrupting_feed(self, data):
        """Shift the score of the first hit the generator receives."""
        frames = feed(self, data)
        for frame in frames:
            hits = frame.payload.get("hits")
            if hits and not corrupted:
                hits[0][1] += 0.125
                corrupted.append(frame)
        return frames

    monkeypatch.setattr(protocol.FrameDecoder, "feed", corrupting_feed)
    code, result = bench(capsys, workload, 0)
    assert corrupted
    assert code != 0
    assert result["correct"] is False


def test_failed_probes_still_print_finite_json(capsys, monkeypatch):
    """Probes the server refuses count as failed, and the result line
    stays valid JSON with finite values."""
    probe = workloads.OpStream._probe

    def refused_probe(self, tokens):
        op = probe(self, tokens)
        op.frame.payload["theta"] = 2.0  # outside (0, 1]: an error frame
        return op

    monkeypatch.setattr(workloads.OpStream, "_probe", refused_probe)
    code = run.main(["--workload", "serve-zipf", "--seed", "3",
                     "--seconds", "1", "--trace", "0",
                     "--records", str(TINY["serve-zipf"])])
    line = capsys.readouterr().out.strip().splitlines()[-1]

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    result = json.loads(line, parse_constant=reject)
    assert code == 0
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["latency_p50_ms"]["value"] == (
        1e3 * loadgen.REPLY_TIMEOUT)


def test_corrupted_join_answer_trips_the_gate(capsys, monkeypatch):
    finish = workloads.finish_child

    def corrupt(child, out):
        document = finish(child, out)
        first = document["runs"][0]
        first["pairs"] = first["pairs"][1:]
        return document

    monkeypatch.setattr(workloads, "finish_child", corrupt)
    code, result = bench(capsys, "fsjoin-batch", 0)
    assert code != 0
    assert result["correct"] is False


def _probe(rid_hits, sent, done):
    op = Op("probe", protocol.search_frame(1, ["a"], 0.6))
    op.sent, op.done = sent, done
    op.reply = protocol.result_frame(1, {"hits": rid_hits})
    return op


def _append(rid, sent, done):
    op = Op("append", protocol.append_frame(2, [Record(rid, ("a",))]),
            records=[Record(rid, ("a",))])
    op.sent, op.done = sent, done
    op.reply = protocol.result_frame(2, {"added": 1})
    return op


class _Fixed:
    """An oracle whose answer is fixed."""

    def __init__(self, hits):
        self.hits = hits

    def answer(self, tokens):
        return self.hits


def test_bounds_require_acknowledged_and_forbid_unsent_appends():
    full = _Fixed([(1, 1.0), (100, 0.75)])
    acked_before = [_append(100, sent=0.0, done=1.0)]
    # Appended before the probe was sent: the hit is required.
    assert oracle.bounded_mismatches(
        [_probe([[1, 1.0]], 2.0, 3.0)], acked_before, full) == 1
    assert oracle.bounded_mismatches(
        [_probe([[1, 1.0], [100, 0.75]], 2.0, 3.0)], acked_before, full) == 0
    # In flight while the probe ran: either answer is allowed.
    racing = [_append(100, sent=2.5, done=3.5)]
    for hits in ([[1, 1.0]], [[1, 1.0], [100, 0.75]]):
        assert oracle.bounded_mismatches(
            [_probe(hits, 2.0, 3.0)], racing, full) == 0
    # Sent after the reply: the hit is forbidden.
    later = [_append(100, sent=4.0, done=5.0)]
    assert oracle.bounded_mismatches(
        [_probe([[1, 1.0], [100, 0.75]], 2.0, 3.0)], later, full) == 1
    # A wrong score is a mismatch even on a base record.
    assert oracle.bounded_mismatches(
        [_probe([[1, 0.5]], 2.0, 3.0)], [], full) == 1


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
