"""``repro serve`` with per-layer spans recorded from outside the program.

    python traced_serve.py DUMP serve CLUSTER_DIR [repro serve options...]

Wraps, at class level, the public entry point of each serving layer:

* net: ``encode_frame`` as the server calls it, ``FrameDecoder.feed``;
* gateway: ``SimilarityGateway.search``;
* cluster: ``ClusterRouter.search_batch``;
* service: ``ShardNode.probe_batch``;
* ingest: ``IngestNode.probe``, ``StreamingIndex.apply_batch``,
  ``StreamingIndex.flush`` and ``StreamingIndex.compact``, and the
  bytes ``WriteAheadLog.append_batch`` adds to the log;

then calls ``repro.cli.main`` with the remaining arguments, so the stack
is exactly the one ``repro serve`` builds.  Spans stay in memory as
``(start, end, items)`` triples; when the server has drained they are
written to ``DUMP`` as JSON, beside the shard and ingest counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import cli  # noqa: E402
from repro.cluster.node import IngestNode, ShardNode  # noqa: E402
from repro.cluster.router import ClusterRouter  # noqa: E402
from repro.gateway.gateway import SimilarityGateway  # noqa: E402
from repro.ingest.streaming import StreamingIndex  # noqa: E402
from repro.ingest.wal import WriteAheadLog  # noqa: E402
from repro.net import server as net_server  # noqa: E402
from repro.net.protocol import FrameDecoder  # noqa: E402


def _items(value) -> int:
    """How many units of work a call handled (queries, frames, records)."""
    return len(value) if isinstance(value, (list, tuple)) else 1


class Recorder:
    """Spans per layer entry point, plus the objects the counters live on."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[List[float]]] = {}
        self.router = None
        self.wal_bytes = 0
        self.wal_records = 0

    def wrap(self, owner, attr: str, name: str, count_arg=None,
             count_result: bool = False) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``count_arg`` is the index of the positional argument whose
        length is the span's item count; ``count_result`` counts the
        returned list instead.
        """
        original = getattr(owner, attr)
        spans = self.spans.setdefault(name, [])

        def items(args, result) -> int:
            if count_result:
                return _items(result)
            return _items(args[count_arg]) if count_arg is not None else 1

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def timed(*args, **kwargs):
                started = time.perf_counter()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    spans.append([started, time.perf_counter(),
                                  items(args, result)])
        else:
            @functools.wraps(original)
            def timed(*args, **kwargs):
                started = time.perf_counter()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    spans.append([started, time.perf_counter(),
                                  items(args, result)])

        setattr(owner, attr, timed)

    def install(self) -> None:
        self.wrap(net_server, "encode_frame", "net.encode")
        self.wrap(FrameDecoder, "feed", "net.decode", count_result=True)
        self.wrap(SimilarityGateway, "search", "gateway.search")
        self.wrap(ClusterRouter, "search_batch", "cluster.search_batch",
                  count_arg=1)
        self.wrap(ShardNode, "probe_batch", "service.probe_batch",
                  count_arg=1)
        self.wrap(IngestNode, "probe", "ingest.probe")
        self.wrap(StreamingIndex, "apply_batch", "ingest.apply_batch",
                  count_arg=1)
        self.wrap(StreamingIndex, "flush", "ingest.flush")
        self.wrap(StreamingIndex, "compact", "ingest.compact")

        recorder = self
        original_append = WriteAheadLog.append_batch

        @functools.wraps(original_append)
        def append_batch(wal, records):
            before = recorder.log_bytes(wal)
            try:
                return original_append(wal, records)
            finally:
                recorder.wal_bytes += recorder.log_bytes(wal) - before
                recorder.wal_records += len(records)

        WriteAheadLog.append_batch = append_batch

        original_init = SimilarityGateway.__init__

        @functools.wraps(original_init)
        def init(gateway, router, *args, **kwargs):
            recorder.router = router
            original_init(gateway, router, *args, **kwargs)

        SimilarityGateway.__init__ = init

    @staticmethod
    def log_bytes(wal) -> int:
        return sum(wal.dfs.size_bytes(path) for path in wal.segment_paths())

    def counters(self) -> Dict:
        """Shard probe counters summed over replicas, and ingest state."""
        router = self.router
        shard: Dict[str, int] = {}
        for s in range(router.n_shards):
            for r in range(router.replication):
                node = router.replica(s, r)
                for group in ("service.probe", "cluster.node"):
                    for name, value in node.counters.group(group).items():
                        key = f"{group}.{name}"
                        shard[key] = shard.get(key, 0) + value
        ingest = None
        if router.ingest is not None:
            ingest = {
                "status": router.ingest.streaming.status(),
                "wal_bytes": self.wal_bytes,
                "wal_records": self.wal_records,
            }
        return {"shard": shard, "ingest": ingest}


def main(argv: List[str]) -> int:
    dump, repro_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    code = cli.main(repro_args)
    document = {"spans": recorder.spans, "counters": recorder.counters()}
    Path(dump).write_text(json.dumps(document), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
