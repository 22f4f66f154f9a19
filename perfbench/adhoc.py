"""The ``adhoc`` workload: one-shot ``query`` ops, every text different,
against ``repro serve --http 0 --workers 2`` loaded with the seeded micro
TPC-H tables.

A seeded generator draws queries over the small tables (``region``,
``nation``, ``supplier``, ``customer``, ``part``, ``orders``): 1-3
predicates with random literals, an optional key join, optional group-by
aggregates and an optional order-by/limit; each of the 4 shapes without
group-by comes twice as often as each of the 4 with it.  Every op misses
the plan cache, so compilation dominates.  Each answer is checked against a
straight-Python evaluation of the generated query.
"""

from __future__ import annotations

import json
import random
import threading
from typing import Any, Dict, Iterator, List, Tuple

import loadgen
from harness import Result, multiset_close, timed_setup
from server import Server

CALLERS = 2
TABLES = ("region", "nation", "supplier", "customer", "part", "orders")

#: Per table: key column, numeric columns, categorical columns, date
#: columns, and the (foreign key, partner table, partner key) join.
SCHEMA: Dict[str, Dict[str, Any]] = {
    "region": {"key": "r_regionkey", "num": ["r_regionkey"], "cat": ["r_name"], "date": [], "join": None},
    "nation": {
        "key": "n_nationkey",
        "num": ["n_nationkey", "n_regionkey"],
        "cat": ["n_name"],
        "date": [],
        "join": ("n_regionkey", "region", "r_regionkey"),
    },
    "supplier": {
        "key": "s_suppkey",
        "num": ["s_suppkey", "s_acctbal"],
        "cat": ["s_name"],
        "date": [],
        "join": ("s_nationkey", "nation", "n_nationkey"),
    },
    "customer": {
        "key": "c_custkey",
        "num": ["c_custkey", "c_acctbal", "c_nationkey"],
        "cat": ["c_mktsegment", "c_name"],
        "date": [],
        "join": ("c_nationkey", "nation", "n_nationkey"),
    },
    "part": {
        "key": "p_partkey",
        "num": ["p_partkey", "p_size", "p_retailprice"],
        "cat": ["p_brand", "p_container", "p_mfgr"],
        "date": [],
        "join": None,
    },
    "orders": {
        "key": "o_orderkey",
        "num": ["o_orderkey", "o_totalprice", "o_shippriority"],
        "cat": ["o_orderstatus", "o_orderpriority"],
        "date": ["o_orderdate"],
        "join": ("o_custkey", "customer", "c_custkey"),
    },
}
AGGREGATES = ("count", "sum", "min", "max", "avg")


def load_tables(seed: int) -> Dict[str, List[Dict[str, Any]]]:
    """The small micro TPC-H tables as plain rows (dates stay DateValues)."""
    from repro.data.model import to_python
    from repro.tpch.datagen import MICRO, generate

    db = generate(MICRO, seed)
    return {name: [dict(to_python(row)) for row in db[name]] for name in TABLES}


def wire_rows(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rows in the JSON wire format (dates tagged as ``{"$date": ...}``)."""
    return [
        {k: {"$date": v.isoformat()} if hasattr(v, "isoformat") else v for k, v in row.items()}
        for row in rows
    ]


class Query:
    """A generated query: its SQL text and the plan to evaluate it in Python."""

    def __init__(self, text: str, shape: str, spec: Dict[str, Any]):
        self.text = text
        self.shape = shape
        self.spec = spec


class Generator:
    """Seeded, duplicate-free query texts over the loaded tables."""

    def __init__(self, tables: Dict[str, List[Dict[str, Any]]], seed: int):
        self.tables = tables
        self.rng = random.Random("adhoc:%d" % seed)
        self.seen: set = set()
        self.round: List[Tuple[bool, bool, bool]] = []

    def _literal(self, table: str, column: str) -> Tuple[Any, str]:
        rng = self.rng
        values = [row[column] for row in self.tables[table]]
        if column in SCHEMA[table]["date"]:
            low, high = min(values), max(values)
            year = rng.randint(low.year, high.year)
            month, day = rng.randint(1, 12), rng.randint(1, 28)
            text = "%04d-%02d-%02d" % (year, month, day)
            from repro.data.foreign import DateValue

            return DateValue.parse(text), "date '%s'" % text
        if column in SCHEMA[table]["cat"]:
            value = rng.choice(values)
            return value, "'%s'" % value.replace("'", "''")
        low, high = min(values), max(values)
        if all(isinstance(v, int) for v in values):
            value = rng.randint(low, high)
            return value, str(value)
        value = round(rng.uniform(low, high), 2)
        return value, "%.2f" % value

    def _predicate(self, table: str) -> Tuple[Tuple[str, str, Any], str]:
        rng = self.rng
        schema = SCHEMA[table]
        kind = rng.choice(["num", "num", "cat"] + (["date"] if schema["date"] else []))
        column = rng.choice(schema[kind])
        value, literal = self._literal(table, column)
        if kind == "cat":
            op = rng.choice(("=", "<>"))
        else:
            op = rng.choice(("<", "<=", ">", ">="))
        return (column, op, value), "%s %s %s" % (column, op, literal)

    def next(self) -> Query:
        """The next query; shapes come in rounds of 12, so any stretch of
        the sequence has the same mix of cheap and costly shapes.

        A round holds each (join, order) shape twice without group-by and
        once with it.  Group-by compiles take 3-4x longer, so with equal
        shares the median latency would sit on the gap between the two
        clusters and jump across it from one run to the next; at one third
        it falls inside the join cluster.
        """
        if not self.round:
            self.round = [
                (j, g, o)
                for j in (False, True)
                for o in (False, True)
                for g in (False, False, True)
            ]
            self.rng.shuffle(self.round)
        shape = self.round.pop()
        while True:
            query = self._draw(*shape)
            if query.text not in self.seen:
                self.seen.add(query.text)
                return query

    def _draw(self, joined: bool, grouped: bool, ordered: bool) -> Query:
        rng = self.rng
        base = rng.choice([t for t in TABLES if SCHEMA[t]["join"] is not None] if joined else TABLES)
        schema = SCHEMA[base]
        tables = [base]
        join = None
        if joined:
            join = schema["join"]
            tables.append(join[1])
        preds, texts = [], []
        if join is not None:
            texts.append("%s = %s" % (join[0], join[2]))
        for _ in range(rng.randint(1, 3)):
            pred, text = self._predicate(rng.choice(tables))
            preds.append(pred)
            texts.append(text)
        spec: Dict[str, Any] = {"tables": tables, "join": join, "preds": preds}
        if grouped:
            table = rng.choice(tables)
            group = rng.choice(SCHEMA[table]["cat"])
            aggs = []
            for index in range(rng.randint(1, 3)):
                func = rng.choice(AGGREGATES)
                column = None if func == "count" else rng.choice(SCHEMA[rng.choice(tables)]["num"])
                aggs.append((func, column, "a%d" % index))
            select = [group] + [
                "%s(%s) as %s" % (f, "*" if c is None else c, alias) for f, c, alias in aggs
            ]
            spec.update(group=group, aggs=aggs, columns=[group])
            order_cols = [group]
        else:
            columns = [schema["key"]]
            pool = [c for t in tables for c in SCHEMA[t]["num"] + SCHEMA[t]["cat"] + SCHEMA[t]["date"]]
            for column in rng.sample(pool, min(len(pool), rng.randint(1, 3))):
                if column not in columns:
                    columns.append(column)
            select = list(columns)
            spec.update(group=None, aggs=[], columns=columns)
            sort_col = rng.choice(columns)
            order_cols = [sort_col] + ([schema["key"]] if sort_col != schema["key"] else [])
        text = "select %s from %s where %s" % (", ".join(select), ", ".join(tables), " and ".join(texts))
        if grouped:
            text += " group by %s" % spec["group"]
        if ordered:
            descending = rng.random() < 0.5
            limit = rng.randint(1, 6)
            direction = " desc" if descending else ""
            text += " order by %s limit %d" % (
                ", ".join(c + direction for c in order_cols),
                limit,
            )
            spec.update(order=order_cols, descending=descending, limit=limit)
        else:
            spec.update(order=None)
        shape = "%s%s%s" % ("join" if join else "scan", "+group" if grouped else "", "+order" if ordered else "")
        return Query(text, shape, spec)


_OPS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def evaluate(query: Query, tables: Dict[str, List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Straight-Python evaluation of a generated query."""
    spec = query.spec
    rows = [dict(r) for r in tables[spec["tables"][0]]]
    if spec["join"] is not None:
        fk, partner, pk = spec["join"]
        index: Dict[Any, List[Dict[str, Any]]] = {}
        for p in tables[partner]:
            index.setdefault(p[pk], []).append(p)
        rows = [dict(r, **p) for r in rows for p in index.get(r[fk], [])]
    rows = [r for r in rows if all(_OPS[op](r[c], v) for c, op, v in spec["preds"])]
    if spec["group"] is not None:
        groups: Dict[Any, List[Dict[str, Any]]] = {}
        for r in rows:
            groups.setdefault(r[spec["group"]], []).append(r)
        out = []
        for key, members in groups.items():
            record = {spec["group"]: key}
            for func, column, alias in spec["aggs"]:
                values = [m[column] for m in members] if column else members
                if func == "count":
                    record[alias] = len(values)
                elif func == "sum":
                    record[alias] = sum(values)
                elif func == "min":
                    record[alias] = min(values)
                elif func == "max":
                    record[alias] = max(values)
                else:
                    record[alias] = sum(values) / len(values)
            out.append(record)
    else:
        out = [{c: r[c] for c in spec["columns"]} for r in rows]
    if spec["order"]:
        out.sort(key=lambda r: tuple(r[c] for c in spec["order"]), reverse=spec["descending"])
        out = out[: spec["limit"]]
    return out


class SharedStream:
    """One seeded, duplicate-free query sequence shared by every caller.

    The texts and their order depend only on the seed; which caller sends
    which text depends on timing.
    """

    def __init__(self, tables: Dict[str, List[Dict[str, Any]]], seed: int):
        self.generator = Generator(tables, seed)
        self.lock = threading.Lock()

    def __iter__(self) -> Iterator[loadgen.Op]:
        return self

    def __next__(self) -> loadgen.Op:
        with self.lock:
            query = self.generator.next()
        body = json.dumps({"op": "query", "query": query.text}).encode("utf-8")
        return loadgen.Op(query.shape, query, body)


class Deployment:
    def __init__(self, tables: Dict[str, List[Dict[str, Any]]], trace_sample: Any = None):
        self.server = Server(trace_sample=trace_sample)
        try:
            self.server.wait_healthy()
            with self.server.connect() as client:
                for name in TABLES:
                    reply = client.post(
                        {"op": "register", "table": name, "rows": wire_rows(tables[name])}
                    )
                    if not reply.get("ok"):
                        raise RuntimeError("register %s failed: %r" % (name, reply))
        except BaseException:
            self.server.stop()
            raise

    def stop(self) -> None:
        self.server.stop()


def make_checker(tables: Dict[str, List[Dict[str, Any]]]):
    def check(op: loadgen.Op, reply: Dict[str, Any]) -> bool:
        return multiset_close(reply.get("result"), evaluate(op.meta, tables))

    return check


def run(seed: int, seconds: float, result: Result) -> None:
    """The untraced adhoc run."""
    tables = load_tables(seed)
    deployment, setup_s = timed_setup(lambda: Deployment(tables), Deployment.stop)
    try:
        shared = SharedStream(tables, seed)
        streams = [shared] * CALLERS
        outcome = loadgen.run_callers(deployment.server, streams, seconds, lambda op: op.body)
        with deployment.server.connect() as client:
            workers = client.get_json("/workers")
        leader_kb = deployment.server.peak_rss_kb()
    finally:
        deployment.stop()
    from serve_mix import worker_rss_bytes

    result.metric("setup_s", setup_s, "s")
    loadgen.report(outcome, make_checker(tables), result, "adhoc")
    result.metric("rss_mb", (leader_kb * 1024 + worker_rss_bytes(workers)) / 2**20, "MB")
