"""A closed-loop load generator for the served workloads.

Each caller owns one keep-alive connection and sends its next request
only after the previous reply's body has been read, as the CLI, a
notebook or an app server does.  There are at most two callers: the
calling thread and one helper thread.  The latency clock stops once the
body is read; decoding and answer checks happen after the measured
window, so they cannot slow the callers down.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from harness import NullRecorder, Result, geomean, median, percentile

#: A pass is this many consecutive ops of one caller; ``suite_s`` is the
#: median pass time.
PASS_OPS = 50


class Op:
    """One request a caller will send."""

    __slots__ = ("kind", "meta", "body", "t_send", "t_recv", "status", "data", "caller", "seconds")

    def __init__(self, kind: str, meta: Any, body: Optional[bytes] = None):
        self.kind = kind
        self.meta = meta
        self.body = body
        self.t_send = 0.0
        self.t_recv = 0.0
        self.status = 0
        self.data = b""
        self.caller = 0
        self.seconds = 0.0


def run_callers(
    server: Any,
    streams: List[Iterator[Op]],
    seconds: float,
    encode: Callable[[Op], bytes],
    recorder: Any = None,
) -> Dict[str, Any]:
    """Drive one caller per stream until ``seconds`` have passed.

    ``encode`` builds an op's request body at send time (so a write can
    claim the next version number as it goes out).
    """
    recorder = recorder or NullRecorder()
    logs: List[List[Op]] = [[] for _ in streams]
    errors: List[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def caller(index: int) -> None:
        client = server.connect()
        try:
            for op in streams[index]:
                if time.perf_counter() >= deadline:
                    break
                body = encode(op)
                op.caller = index
                with recorder.span("service.net.request", kind=op.kind):
                    op.t_send = time.perf_counter()
                    try:
                        op.status, op.data, op.seconds = client.post_raw(body)
                    except (OSError, http.client.HTTPException):
                        # A dropped connection is a failed op: reconnect and go on.
                        op.status, op.data = 0, b""
                        client.close()
                        client = server.connect()
                    op.t_recv = time.perf_counter()
                logs[index].append(op)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)
        finally:
            client.close()

    helpers = [threading.Thread(target=caller, args=(i,)) for i in range(1, len(streams))]
    for thread in helpers:
        thread.start()
    caller(0)
    for thread in helpers:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return {"logs": logs, "start": start, "elapsed": elapsed}


def decode(op: Op) -> Optional[Dict[str, Any]]:
    if op.status != 200:
        return None
    try:
        reply = json.loads(op.data.decode("utf-8"))
    except ValueError:
        return None
    return reply if isinstance(reply, dict) and reply.get("ok") else None


def report(
    run: Dict[str, Any],
    check: Callable[[Op, Dict[str, Any]], bool],
    result: Result,
    label: str,
) -> Dict[str, Any]:
    """Check every op's answer and fill the end-to-end latency metrics.

    Throughput and the latency percentiles are taken over every ok op of
    the measured window.  (A median over 5 or 10 blocks of the window was
    no steadier on a shared 2-vCPU host, whose slow spells last about as
    long as a whole run.)
    """
    ops = [op for log in run["logs"] for op in log]
    by_kind: Dict[str, List[float]] = {}
    latencies: List[float] = []
    failed = wrong = 0
    replies: List[Any] = []
    for op in ops:
        reply = decode(op)
        replies.append(reply)
        if reply is None:
            failed += 1
            continue
        if not check(op, reply):
            wrong += 1
            continue
        by_kind.setdefault(op.kind, []).append(op.seconds)
        latencies.append(op.seconds)
    passes = []
    for log in run["logs"]:
        for first in range(0, len(log) - PASS_OPS + 1, PASS_OPS):
            chunk = log[first : first + PASS_OPS]
            passes.append(chunk[-1].t_recv - chunk[0].t_send)
    if not latencies:
        raise RuntimeError("%s: no op succeeded" % label)
    ok = len(latencies)
    if not passes:
        passes = [run["elapsed"] * PASS_OPS * len(run["logs"]) / ok]
    result.attempted += len(ops)
    result.failed += failed + wrong
    result.wrong += wrong
    result.metric("suite_s", median(passes), "s")
    result.metric("geomean_ms", geomean([t * 1e3 for t in latencies]), "ms")
    result.metric("throughput_qps", ok / run["elapsed"], "1/s")
    result.metric("latency_p50_ms", percentile(latencies, 0.5) * 1e3, "ms")
    result.metric("latency_p99_ms", percentile(latencies, 0.99) * 1e3, "ms")
    result.metric("ok_fraction", ok / max(len(ops), 1), "ratio")
    result.notes.append(
        "%s: %d ops in %.2fs, %d failed, %d wrong; %s"
        % (
            label,
            len(ops),
            run["elapsed"],
            failed,
            wrong,
            ", ".join(
                "%s n=%d p50=%.2fms" % (kind, len(v), median(v) * 1e3)
                for kind, v in sorted(by_kind.items())
            ),
        )
    )
    return {"ops": ops, "replies": replies, "by_kind": by_kind}
