"""The traced run: all three workloads again, with the benchmark's own
spans around each call into a layer, giving the per-layer metrics.

Every layer is measured from outside: by timing calls into its public
functions (``parse_query``, ``plan_key``, ``compile_parsed``,
``compile_nnrc_to_callable``, ``CompiledPlan.bind``, ``json_io``,
``Catalog.register_table``, ``eval_fast``) and by reading what the
program already exposes (``/stats``, ``/workers``, ``/trace/<id>``, the
response ``seconds``, ``CompilationResult.timings()``,
``OptimizeResult``).  The served workloads run on an untraced server at
the default settings and on one at ``--trace-sample 1.0`` with spans on;
on serve-mix the two alternate block by block and
``obs.overhead_fraction`` compares their median latencies.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Any, Dict, List, Optional

import adhoc
import loadgen
import serve_mix
import tpch_suite
from harness import Result, SpanRecorder, layer_table, median, multiset_close
from repro.nraenv.exec import FALLBACK_REASONS
from repro.tpch.queries import ENGINE_EXECUTABLE as QUERY_NAMES

STAGES = ("to_nraenv", "nraenv_opt", "to_nnrc", "nnrc_opt")
SERVE_KINDS = ("point", "sum", "scan", "rates", "register")
#: Ad-hoc texts compiled in process by the compile-layer probe.
COMPILE_PROBE_QUERIES = 40
#: Engine timing repetitions per TPC-H query.
ENGINE_REPS = 5
#: serve-mix alternates this many untraced/traced block pairs.
OVERHEAD_PAIRS = 4
#: After each traced block, the merged traces of its last this-many reads
#: are fetched (the leader's trace ring keeps the 64 most recent).
TRACE_FETCHES = 48

PER_LAYER: List[tuple] = (
    [("sql.parse_ms", "ms"), ("plan_key.ms", "ms")]
    + [("pipeline.%s_ms" % s, "ms") for s in STAGES]
    + [("codegen.ms", "ms")]
    + [("optim.%s.%s" % (ir, m), "count") for ir in ("nraenv", "nnrc") for m in ("passes", "fires", "cost_out")]
    + [("plan_cache.hit_ratio.serve-mix", "ratio"), ("plan_cache.hit_ratio.adhoc", "ratio")]
    + [("served.ms.%s" % q, "ms") for q in QUERY_NAMES]
    + [("engine.ms.%s" % q, "ms") for q in QUERY_NAMES]
    + [("engine.%s" % c, "count") for c in ("hash_joins", "group_by", "columnar")]
    + [("engine.fallback.%s" % r, "count") for r in FALLBACK_REASONS]
    + [("service.bind_ms", "ms"), ("json_io.encode_ms", "ms"), ("result.bytes", "bytes")]
    + [
        ("frontend.overhead_ms", "ms"),
        ("leader.self_ms", "ms"),
        ("worker.self_ms", "ms"),
        ("ipc.ms", "ms"),
        ("executor.queue_ms", "ms"),
        ("admission.admitted", "count"),
        ("admission.shed", "count"),
        ("catalog.register_ms", "ms"),
    ]
    + [("op.%s.p50_ms" % k, "ms") for k in SERVE_KINDS + ("query",)]
    + [("leader.rss_mb", "MB"), ("worker.rss_mb", "MB"), ("tpch.missed_rss_mb", "MB")]
    + [("obs.overhead_fraction", "ratio")]
)


def compile_probe(texts: List[str], recorder: SpanRecorder) -> List[Dict[str, Any]]:
    """Compile each text through the layers' public functions, one span each."""
    from repro.backend.python_gen import compile_nnrc_to_callable
    from repro.compiler.pipeline import NNRC_OPT, NRAENV_OPT, compile_parsed
    from repro.service.plan_key import plan_key
    from repro.service.prepared import parse_query

    out = []
    for text in texts:
        row: Dict[str, Any] = {}
        with recorder.span("service.prepare"):
            with recorder.span("repro.sql.parse"):
                start = time.perf_counter()
                ast = parse_query("sql", text)
                row["parse"] = time.perf_counter() - start
            with recorder.span("service.plan_key"):
                start = time.perf_counter()
                plan_key("sql", ast)
                row["plan_key"] = time.perf_counter() - start
            with recorder.span("compiler.pipeline") as span:
                compiled = compile_parsed("sql", ast)
                for stage, seconds in compiled.timings().items():
                    recorder.add("compiler.pipeline." + stage, seconds, parent=span)
            row["stages"] = compiled.timings()
            with recorder.span("backend.codegen"):
                start = time.perf_counter()
                compile_nnrc_to_callable(compiled.final, name="probe")
                row["codegen"] = time.perf_counter() - start
        row["nraenv"] = compiled.optimize_result(NRAENV_OPT)
        row["nnrc"] = compiled.optimize_result(NNRC_OPT)
        out.append(row)
    return out


def _mean_ms(values: List[float]) -> float:
    return sum(values) / len(values) * 1e3


# -- tpch-suite ------------------------------------------------------------------


def trace_tpch(seed: int, result: Result, recorder: SpanRecorder, profile_dir: Optional[str]) -> None:
    from repro.data.model import Record
    from repro.data import json_io
    from repro.nraenv.exec import eval_fast
    from repro.obs.metrics import MetricsRegistry, set_metrics
    from repro.tpch.queries import QUERIES

    with recorder.span("setup.tpch-suite"):
        db, service, handles = tpch_suite.build_service(trace_sample=1.0)
    expected = tpch_suite.expected_answers(db)
    runner = tpch_suite.ForkedRunner(service)
    try:
        stats = tpch_suite.run_passes(
            runner,
            handles,
            expected,
            0.0,
            random.Random("tpch-suite:%d" % seed),
            recorder=recorder,
            profile_dir=profile_dir,
            max_passes=1,
        )
    finally:
        runner.close()
    result.attempted += stats.attempted
    result.failed += stats.failed
    result.wrong += stats.wrong
    result.metric("tpch.missed_rss_mb", runner.missed_rss_kb / 1024.0, "MB")
    for name in QUERY_NAMES:
        result.metric("served.ms.%s" % name, median(stats.visits[name]) * 1e3, "ms")

    constants = service.catalog.constants()
    counts: Dict[str, float] = {}
    for name in QUERY_NAMES:
        plan = service.prepared(handles[name]).plan.nraenv
        registry = MetricsRegistry()
        set_metrics(registry)
        try:
            value = eval_fast(plan, Record({}), None, constants)
        finally:
            set_metrics(None)
        result.attempted += 1
        if not multiset_close(json_io.to_jsonable(value), expected[name]):
            result.wrong += 1
            result.failed += 1
            result.notes.append("traced: engine answer for %s is wrong" % name)
        for counter, total in registry.snapshot()["counters"].items():
            counts[counter] = counts.get(counter, 0) + total
        times = []
        for _ in range(ENGINE_REPS):
            with recorder.span("nraenv.exec", query=name):
                start = time.perf_counter()
                eval_fast(plan, Record({}), None, constants)
                times.append(time.perf_counter() - start)
        result.metric("engine.ms.%s" % name, median(times) * 1e3, "ms")
    result.metric("engine.hash_joins", counts.get("engine.join", 0), "count")
    result.metric("engine.group_by", counts.get("engine.group_by", 0), "count")
    result.metric("engine.columnar", counts.get("engine.columnar", 0), "count")
    for reason in FALLBACK_REASONS:
        result.metric("engine.fallback.%s" % reason, counts.get("engine.fallback." + reason, 0), "count")

    rows = compile_probe([QUERIES[name] for name in QUERY_NAMES], recorder)
    for ir in ("nraenv", "nnrc"):
        results = [row[ir] for row in rows]
        result.metric("optim.%s.passes" % ir, sum(r.passes for r in results), "count")
        result.metric("optim.%s.fires" % ir, sum(sum(r.fire_counts.values()) for r in results), "count")
        result.metric("optim.%s.cost_out" % ir, sum(r.final_cost for r in results), "count")


# -- serve-mix -------------------------------------------------------------------------


def _served(deployment: Any, streams: List[Any], seconds: float, encode: Any, recorder=None):
    outcome = loadgen.run_callers(deployment.server, streams, seconds, encode, recorder=recorder)
    with deployment.server.connect() as client:
        workers = client.get_json("/workers")
        stats = client.get_json("/stats")
    leader_kb = deployment.server.peak_rss_kb()
    return outcome, workers, stats, leader_kb


def _checked(run: Dict[str, Any], check: Any, result: Result, label: str) -> Dict[str, Any]:
    """Answer-check a phase; its op counts go to ``result``, its
    end-to-end figures are discarded (the traced run reports layers)."""
    phase = Result()
    report = loadgen.report(run, check, phase, label)
    result.attempted += phase.attempted
    result.failed += phase.failed
    result.wrong += phase.wrong
    result.notes.extend(phase.notes)
    return report


def _hit_ratio(workers: Dict[str, Any]) -> float:
    rates = [
        (w.get("resources") or {}).get("plan_cache_hit_rate", 0.0)
        for w in workers.get("workers", [])
        if w.get("alive")
    ]
    return sum(rates) / len(rates) if rates else 0.0


def _split_trace(fragment: Dict[str, Any], rtt: float) -> Optional[Dict[str, float]]:
    """Leader / IPC / worker / queue split of one merged trace."""
    leader = worker = None
    for process in fragment.get("processes", []):
        spans = {s["name"]: s for s in process.get("spans", [])}
        if process.get("process") == "leader":
            leader = spans
        else:
            worker = spans
    if not leader or not worker or "serve.dispatch" not in leader or "service.execute" not in worker:
        return None
    dispatch = leader["serve.dispatch"]["end"] - leader["serve.dispatch"]["start"]
    execute = worker["service.execute"]["end"] - worker["service.execute"]["start"]
    queue = 0.0
    if "executor.run" in worker:
        queue = worker["executor.run"]["start"] - worker["service.execute"]["start"]
    return {
        "leader": rtt - dispatch,
        "ipc": dispatch - execute,
        "worker": execute,
        "queue": queue,
    }


def _ok_p50(report: Dict[str, Any]) -> float:
    return median([op.seconds for op in report["ops"] if op.status == 200])


def _fetch_traces(deployment: Any, ops: List[loadgen.Op], recorder: SpanRecorder) -> Dict[int, Any]:
    """Merged traces of the last ``TRACE_FETCHES`` reads of a block."""
    reads = sorted((op for log in ops for op in log if op.kind != "register"), key=lambda op: op.t_recv)
    fragments: Dict[int, Any] = {}
    with deployment.server.connect() as client:
        for op in reads[-TRACE_FETCHES:]:
            reply = loadgen.decode(op)
            if reply is not None:
                with recorder.span("obs.trace_fetch"):
                    fragments[id(op)] = client.get_json("/trace/" + reply["query_id"])
    return fragments


def trace_serve_mix(seed: int, seconds: float, result: Result, recorder: SpanRecorder) -> None:
    """Untraced and traced servers side by side, driven in alternating
    blocks (ABBA order), so a drift in the host's speed hits both alike.

    Both sides carry client-side spans (the untraced side's go to a
    discarded recorder), and traces are fetched between blocks, so
    ``obs.overhead_fraction`` (the median over block pairs of the traced
    p50 over the untraced p50, minus 1) is the server's tracing alone.
    """
    from repro.data import json_io
    from repro.service.catalog import Catalog
    from repro.service.prepared import compile_plan, parse_query

    model = serve_mix.Model(seed)
    block = seconds / (2 * OVERHEAD_PAIRS)
    sides: Dict[str, Any] = {}
    try:
        sides["untraced"] = {"deployment": serve_mix.Deployment(seed), "recorder": SpanRecorder()}
        with recorder.span("setup.serve-mix"):
            sides["traced"] = {"deployment": serve_mix.Deployment(seed, trace_sample=1.0), "recorder": recorder}
        for side in sides.values():
            side["traffic"] = serve_mix.Traffic(seed, side["deployment"].handles)
            side["streams"] = [serve_mix.OpStream(seed)] * serve_mix.CALLERS
            side["reports"] = []
        fragments: Dict[int, Any] = {}
        for pair in range(OVERHEAD_PAIRS):
            order = ("untraced", "traced") if pair % 2 == 0 else ("traced", "untraced")
            for name in order:
                side = sides[name]
                run = loadgen.run_callers(
                    side["deployment"].server,
                    side["streams"],
                    block,
                    side["traffic"].encode,
                    recorder=side["recorder"],
                )
                side["reports"].append(
                    _checked(run, serve_mix.make_checker(model, side["traffic"]), result, "serve-mix " + name)
                )
                if name == "traced":
                    fragments.update(_fetch_traces(side["deployment"], run["logs"], recorder))
        deployment = sides["traced"]["deployment"]
        with deployment.server.connect() as client:
            workers = client.get_json("/workers")
            stats = client.get_json("/stats")
        leader_kb = deployment.server.peak_rss_kb()
    finally:
        for side in sides.values():
            side["deployment"].stop()

    traced_reports = sides["traced"]["reports"]
    ops = [op for r in traced_reports for op in r["ops"]]
    replies = [reply for r in traced_reports for reply in r["replies"]]
    by_kind: Dict[str, List[float]] = {}
    for r in traced_reports:
        for kind, values in r["by_kind"].items():
            by_kind.setdefault(kind, []).extend(values)
    for kind in SERVE_KINDS:
        result.metric("op.%s.p50_ms" % kind, median(by_kind.get(kind, [0.0])) * 1e3, "ms")
    overheads, splits, sizes = [], [], []
    for op, reply in zip(ops, replies):
        if reply is None:
            continue
        sizes.append(len(op.data))
        if op.kind == "register":
            continue
        overheads.append(op.seconds - float(reply.get("seconds") or 0.0))
        if id(op) in fragments:
            split = _split_trace(fragments[id(op)], op.seconds)
            if split is not None:
                splits.append(split)
    result.metric("frontend.overhead_ms", median(overheads) * 1e3, "ms")
    result.metric("result.bytes", sum(sizes) / len(sizes), "bytes")
    for key, name in (("leader", "leader.self_ms"), ("worker", "worker.self_ms"), ("ipc", "ipc.ms"), ("queue", "executor.queue_ms")):
        result.metric(name, median([s[key] for s in splits]) * 1e3 if splits else 0.0, "ms")
    counters = stats.get("metrics", {}).get("counters", {})
    result.metric("admission.admitted", counters.get("service.admitted", 0), "count")
    result.metric("admission.shed", counters.get("service.shed", 0), "count")
    result.metric("plan_cache.hit_ratio.serve-mix", _hit_ratio(workers), "ratio")
    result.metric("leader.rss_mb", leader_kb / 1024.0, "MB")
    alive = [w for w in workers.get("workers", []) if w.get("alive")]
    result.metric("worker.rss_mb", serve_mix.worker_rss_bytes(workers) / max(len(alive), 1) / 2**20, "MB")
    ratios = [
        _ok_p50(traced) / _ok_p50(untraced)
        for traced, untraced in zip(traced_reports, sides["untraced"]["reports"])
    ]
    result.metric("obs.overhead_fraction", median(ratios) - 1.0, "ratio")

    # In-process probes of the bind, encode and register layers.
    catalog = Catalog()
    sales = serve_mix.sales_rows(seed)
    times = []
    for _ in range(5):
        with recorder.span("service.catalog.register"):
            start = time.perf_counter()
            catalog.register_table("sales", sales)
            times.append(time.perf_counter() - start)
    result.metric("catalog.register_ms", median(times) * 1e3, "ms")
    plans = {k: compile_plan("sql", parse_query("sql", t)) for k, t in serve_mix.STATEMENTS.items()}
    constants = catalog.constants()
    rng = random.Random("bind:%d" % seed)
    times = []
    for _ in range(200):
        with recorder.span("service.prepared.bind"):
            start = time.perf_counter()
            plans["point"].bind(constants, {"id": rng.randrange(serve_mix.SALES_ROWS)})
            times.append(time.perf_counter() - start)
    result.metric("service.bind_ms", _mean_ms(times), "ms")
    scan = plans["scan"].execute(constants, {"min": 23})
    result.attempted += 1
    if not multiset_close(json_io.to_jsonable(scan), model.answer("scan", {"min": 23})):
        result.wrong += 1
        result.failed += 1
    times = []
    for _ in range(5):
        with recorder.span("data.json_io.encode"):
            start = time.perf_counter()
            json.dumps(json_io.to_jsonable(scan))
            times.append(time.perf_counter() - start)
    result.metric("json_io.encode_ms", median(times) * 1e3, "ms")


# -- adhoc ---------------------------------------------------------------------------------


def trace_adhoc(seed: int, seconds: float, result: Result, recorder: SpanRecorder) -> None:
    tables = adhoc.load_tables(seed)
    half = seconds / 2.0
    checker = adhoc.make_checker(tables)
    base = adhoc.Deployment(tables)
    try:
        shared = adhoc.SharedStream(tables, seed)
        untraced, _, _, _ = _served(base, [shared] * adhoc.CALLERS, half, lambda op: op.body)
    finally:
        base.stop()
    _checked(untraced, checker, result, "adhoc untraced")
    with recorder.span("setup.adhoc"):
        deployment = adhoc.Deployment(tables, trace_sample=1.0)
    try:
        shared = adhoc.SharedStream(tables, seed)
        traced, workers, _, _ = _served(
            deployment, [shared] * adhoc.CALLERS, half, lambda op: op.body, recorder=recorder
        )
    finally:
        deployment.stop()
    report = _checked(traced, checker, result, "adhoc traced")
    result.metric("op.query.p50_ms", median([op.seconds for op in report["ops"]]) * 1e3, "ms")
    result.metric("plan_cache.hit_ratio.adhoc", _hit_ratio(workers), "ratio")

    generator = adhoc.Generator(tables, seed)
    texts = [generator.next().text for _ in range(COMPILE_PROBE_QUERIES)]
    rows = compile_probe(texts, recorder)
    result.metric("sql.parse_ms", _mean_ms([r["parse"] for r in rows]), "ms")
    result.metric("plan_key.ms", _mean_ms([r["plan_key"] for r in rows]), "ms")
    for stage in STAGES:
        result.metric("pipeline.%s_ms" % stage, _mean_ms([r["stages"][stage] for r in rows]), "ms")
    result.metric("codegen.ms", _mean_ms([r["codegen"] for r in rows]), "ms")


def run(workload: str, seed: int, seconds: float, result: Result, out_dir: str, profile: bool) -> None:
    """The traced run over all three workloads (``workload`` names the files)."""
    recorder = SpanRecorder()
    os.makedirs(out_dir, exist_ok=True)
    profile_dir = None
    if profile:
        profile_dir = os.path.join(out_dir, "profile-%d" % seed)
        os.makedirs(profile_dir, exist_ok=True)
    started = time.perf_counter()
    with recorder.span("workload.tpch-suite"):
        trace_tpch(seed, result, recorder, profile_dir)
    # Each served phase gets half the run length, so a traced run, which
    # also serves the whole tpch suite once, takes about 100 s at 40 s.
    with recorder.span("workload.serve-mix"):
        trace_serve_mix(seed, seconds / 2.0, result, recorder)
    with recorder.span("workload.adhoc"):
        trace_adhoc(seed, seconds / 2.0, result, recorder)
    missing = [name for name, _ in PER_LAYER if name not in result.metrics]
    if missing:
        raise RuntimeError("traced run did not measure: %s" % ", ".join(missing))
    result.metrics = {name: result.metrics[name] for name, _ in PER_LAYER}
    stem = os.path.join(out_dir, "%s-%d" % (workload, seed))
    with open(stem + ".trace.json", "w") as handle:
        json.dump(recorder.chrome_trace(), handle)
    table = layer_table(recorder)
    with open(stem + ".layers.txt", "w") as handle:
        handle.write(table + "\n\n")
        for name, metric in result.metrics.items():
            handle.write("%-34s %14.4f %s\n" % (name, metric["value"], metric["unit"]))
    result.notes.append(table)
    result.notes.append(
        "traced run: %.1fs; wrote %s.trace.json and %s.layers.txt" % (time.perf_counter() - started, stem, stem)
    )
