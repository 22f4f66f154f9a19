"""The ``serve-mix`` workload: prepared, parameterised ``execute`` traffic
against ``repro serve --http 0 --workers 2``.

Two tables come from the seed: ``sales`` (3000 rows) and ``rates`` (64
rows).  Two closed-loop callers send, in exactly these shares per round
of 100 ops: point lookups by ``id`` (50 %), a ``sum`` over a ``$min``
filter (20 %), a wide scan that returns about 2300 rows (10 %), lookups
on ``rates`` (17 %) and ``register`` writes that replace ``rates`` with
the next seeded version (3 %).  Every read is checked against the
benchmark's own straight-Python answer; a ``rates`` read may see any
version that could have been live while it was in flight.
"""

from __future__ import annotations

import json
import random
import threading
from typing import Any, Dict, Iterator, List

import loadgen
from harness import Result, multiset_close, timed_setup
from server import Server

SALES_ROWS = 3000
RATES_ROWS = 64
REGIONS = ("north", "south", "east", "west", "centre", "coast", "hills", "plains")
STATEMENTS = {
    "point": "select id, region, qty, price from sales where id = $id",
    "sum": "select sum(price) as total from sales where qty > $min",
    "scan": "select id, qty, price from sales where qty >= $min",
    "rates": "select code, rate from rates where code = $code",
}
#: Op shares (percent) of the traffic.
MIX = (("point", 50), ("sum", 20), ("scan", 10), ("rates", 17), ("register", 3))
CALLERS = 2


def sales_rows(seed: int) -> List[Dict[str, Any]]:
    rng = random.Random("sales:%d" % seed)
    return [
        {
            "id": i,
            "region": rng.choice(REGIONS),
            "qty": rng.randint(0, 99),
            "price": round(rng.uniform(1.0, 500.0), 2),
        }
        for i in range(SALES_ROWS)
    ]


def rates_rows(seed: int, version: int) -> List[Dict[str, Any]]:
    rng = random.Random("rates:%d:%d" % (seed, version))
    return [{"code": "C%02d" % i, "rate": round(rng.uniform(0.5, 2.0), 4)} for i in range(RATES_ROWS)]


class Model:
    """The benchmark's own straight-Python answers."""

    def __init__(self, seed: int):
        self.seed = seed
        self.sales = sales_rows(seed)
        self._rates: Dict[int, Dict[str, float]] = {}

    def rates(self, version: int) -> Dict[str, float]:
        if version not in self._rates:
            self._rates[version] = {r["code"]: r["rate"] for r in rates_rows(self.seed, version)}
        return self._rates[version]

    def answer(self, kind: str, params: Dict[str, Any], version: int = 0) -> List[Dict[str, Any]]:
        if kind == "point":
            return [dict(r) for r in self.sales if r["id"] == params["id"]]
        if kind == "sum":
            return [{"total": sum(r["price"] for r in self.sales if r["qty"] > params["min"])}]
        if kind == "scan":
            return [
                {"id": r["id"], "qty": r["qty"], "price": r["price"]}
                for r in self.sales
                if r["qty"] >= params["min"]
            ]
        if kind == "rates":
            rate = self.rates(version).get(params["code"])
            return [] if rate is None else [{"code": params["code"], "rate": rate}]
        raise ValueError(kind)


class OpStream:
    """The callers' one endless, seeded sequence of ops.

    Ops come in shuffled rounds of 100 that hold each kind exactly its
    share, so every couple of seconds of traffic carries the same mix
    whatever the seed (with independent draws, 130 ops would hold
    13 +- 4 of the 120 ms scans).  The kinds and
    parameters depend only on the seed; which caller sends which op
    depends on timing.
    """

    def __init__(self, seed: int):
        self.rng = random.Random("serve-mix:%d" % seed)
        self.round: List[str] = []
        self.lock = threading.Lock()

    def __iter__(self) -> Iterator[loadgen.Op]:
        return self

    def __next__(self) -> loadgen.Op:
        with self.lock:
            if not self.round:
                self.round = [kind for kind, share in MIX for _ in range(share)]
                self.rng.shuffle(self.round)
            kind = self.round.pop()
            if kind == "point":
                params: Dict[str, Any] = {"id": self.rng.randrange(SALES_ROWS)}
            elif kind == "sum":
                params = {"min": self.rng.randint(10, 90)}
            elif kind == "scan":
                params = {"min": self.rng.randint(20, 26)}
            elif kind == "rates":
                params = {"code": "C%02d" % self.rng.randrange(RATES_ROWS)}
            else:
                params = {}
        return loadgen.Op(kind, params)


class Deployment:
    """A set-up server: tables registered, statements prepared."""

    def __init__(self, seed: int, trace_sample: Any = None):
        self.server = Server(trace_sample=trace_sample)
        try:
            self.server.wait_healthy()
            with self.server.connect() as client:
                for table, rows in (("sales", sales_rows(seed)), ("rates", rates_rows(seed, 0))):
                    reply = client.post({"op": "register", "table": table, "rows": rows})
                    if not reply.get("ok"):
                        raise RuntimeError("register %s failed: %r" % (table, reply))
                self.handles = {}
                for kind, text in STATEMENTS.items():
                    reply = client.post({"op": "prepare", "query": text})
                    if not reply.get("ok"):
                        raise RuntimeError("prepare %s failed: %r" % (kind, reply))
                    self.handles[kind] = reply["handle"]
        except BaseException:
            self.server.stop()
            raise

    def stop(self) -> None:
        self.server.stop()


class Traffic:
    """Encodes ops at send time and remembers when each rates version went out."""

    def __init__(self, seed: int, handles: Dict[str, str]):
        self.seed = seed
        self.handles = handles
        self.lock = threading.Lock()
        self.next_version = 1
        self.registers: Dict[int, loadgen.Op] = {}

    def encode(self, op: loadgen.Op) -> bytes:
        if op.kind == "register":
            with self.lock:
                version = self.next_version
                self.next_version += 1
                self.registers[version] = op
            op.meta = {"version": version}
            return json.dumps(
                {"op": "register", "table": "rates", "rows": rates_rows(self.seed, version)}
            ).encode("utf-8")
        return json.dumps(
            {"op": "execute", "handle": self.handles[op.kind], "params": op.meta}
        ).encode("utf-8")

    def live_versions(self, op: loadgen.Op) -> List[int]:
        """Versions a read sent at ``t_send`` and answered at ``t_recv`` may see.

        Two writes in flight together may be applied in either order, so
        a version only drops out once a write that started after it had
        finished has itself finished before the read began.
        """
        writes = {0: (float("-inf"), float("-inf"))}
        for version, write in self.registers.items():
            if write.t_send:
                writes[version] = (write.t_send, write.t_recv or float("inf"))
        live = []
        for version, (sent, done) in sorted(writes.items()):
            if sent >= op.t_recv:
                continue  # not sent before the read finished
            superseded = any(
                other_sent > done and other_done < op.t_send
                for other_sent, other_done in writes.values()
            )
            if not superseded:
                live.append(version)
        return live


def make_checker(model: Model, traffic: Traffic):
    def check(op: loadgen.Op, reply: Dict[str, Any]) -> bool:
        if op.kind == "register":
            return reply.get("table", {}).get("rows") == RATES_ROWS
        rows = reply.get("result")
        if op.kind == "rates":
            return any(
                multiset_close(rows, model.answer("rates", op.meta, v))
                for v in traffic.live_versions(op)
            )
        return multiset_close(rows, model.answer(op.kind, op.meta))

    return check


def run(seed: int, seconds: float, result: Result) -> None:
    """The untraced serve-mix run."""
    deployment, setup_s = timed_setup(lambda: Deployment(seed), Deployment.stop)
    try:
        traffic = Traffic(seed, deployment.handles)
        streams = [OpStream(seed)] * CALLERS
        outcome = loadgen.run_callers(deployment.server, streams, seconds, traffic.encode)
        with deployment.server.connect() as client:
            workers = client.get_json("/workers")
        leader_kb = deployment.server.peak_rss_kb()
    finally:
        deployment.stop()
    result.metric("setup_s", setup_s, "s")
    loadgen.report(outcome, make_checker(Model(seed), traffic), result, "serve-mix")
    result.metric("rss_mb", (leader_kb * 1024 + worker_rss_bytes(workers)) / 2**20, "MB")


def worker_rss_bytes(workers: Dict[str, Any]) -> int:
    return sum(
        (w.get("resources") or {}).get("rss_bytes", 0)
        for w in workers.get("workers", [])
        if w.get("alive")
    )
