"""Answer checks for every workload, separate from the failure count.

Each check returns the number of mismatching answers; the benchmark's
result is ``correct`` only when every check returns zero.

* batch join: the pairs and scores equal ``naive_self_join``;
* read serving: each probe's hits equal an in-process
  ``SegmentIndex.build(...).probe`` over the same records;
* mixed serving: each probe's hits lie between the answer over the
  records whose append was acknowledged before the probe was sent and
  the answer over the records sent before its reply arrived.  Membership
  of one record in an exact answer depends only on the probe and that
  record, so both bounds are read off one index over base plus all
  appends.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.service.index import SegmentIndex

#: Fragments of the oracle index (exact answers do not depend on it).
ORACLE_FRAGMENTS = 8

Hits = List[Tuple[int, float]]


def join_mismatches(got: Dict[Tuple[int, int], float],
                    expected: Dict[Tuple[int, int], float]) -> int:
    """Pairs missing, extra, or scored differently."""
    keys = set(got) | set(expected)
    return sum(1 for key in keys if got.get(key) != expected.get(key))


class ProbeOracle:
    """Exact probe answers over a fixed record set, memoized per query."""

    def __init__(self, records, theta: float) -> None:
        self.index = SegmentIndex.build(records, n_vertical=ORACLE_FRAGMENTS)
        self.theta = theta
        self._memo: Dict[Tuple[str, ...], Hits] = {}

    def answer(self, tokens: Iterable[str]) -> Hits:
        key = tuple(tokens)
        hits = self._memo.get(key)
        if hits is None:
            hits = [(hit.rid, hit.score)
                    for hit in self.index.probe(key, self.theta)]
            self._memo[key] = hits
        return hits


def wire_hits(op) -> Hits:
    """A probe reply's hits as ``(rid, score)`` tuples."""
    return [(int(rid), float(score)) for rid, score in op.reply.payload["hits"]]


def probe_mismatches(ops: Sequence, oracle: ProbeOracle) -> int:
    """Answered probes whose hits differ from the oracle's."""
    return sum(
        1 for op in ops
        if op.kind == "probe" and op.ok
        and wire_hits(op) != oracle.answer(op.frame.payload["tokens"])
    )


def bounded_mismatches(ops: Sequence, appends: Sequence,
                       oracle: ProbeOracle) -> int:
    """Answered probes outside their consistency bounds.

    ``oracle`` indexes base plus every appended record; ``appends`` are
    the append ops.  A hit on a base record is always required.  A hit on
    an appended record is required once its append was acknowledged
    before the probe was sent, and allowed once it was sent before the
    reply arrived.  Scores must equal the oracle's and hits keep the
    ``(-score, rid)`` order.
    """
    acked: Dict[int, float] = {}
    sent: Dict[int, float] = {}
    for op in appends:
        for record in op.records:
            sent[record.rid] = op.sent
            if op.ok:
                acked[record.rid] = op.done
    bad = 0
    for op in ops:
        if op.kind != "probe" or not op.ok:
            continue
        got = wire_hits(op)
        full = dict(oracle.answer(op.frame.payload["tokens"]))
        got_rids = {rid for rid, _ in got}
        required = {
            rid for rid in full
            if rid not in sent or acked.get(rid, float("inf")) < op.sent
        }
        allowed = all(
            full.get(rid) == score
            and (rid not in sent or sent[rid] < op.done)
            for rid, score in got
        )
        ordered = got == sorted(got, key=lambda hit: (-hit[1], hit[0]))
        if not (allowed and ordered and required <= got_rids):
            bad += 1
    return bad
