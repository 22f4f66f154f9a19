"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import adhoc  # noqa: E402
import harness  # noqa: E402
import loadgen  # noqa: E402
import run as bench_run  # noqa: E402
import serve_mix  # noqa: E402
import tpch_suite  # noqa: E402
import traced  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


# -- metric names ----------------------------------------------------------------


def test_per_layer_names_match_benchmark_json():
    assert [name for name, _ in traced.PER_LAYER] == PER_LAYER
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, unit in traced.PER_LAYER} == units


def test_spec_json_documents_every_metric():
    with open(os.path.join(BENCH, "spec.json")) as handle:
        spec = json.load(handle)
    assert sorted(spec["end_to_end"]) == sorted(END_TO_END)
    assert sorted(spec["workloads"]) == sorted(bench_run.WORKLOADS)
    for entry in spec["end_to_end"].values():
        assert entry["workloads"] == list(bench_run.WORKLOADS)
    patterns = {
        "served.ms.<q>": ["served.ms.%s" % q for q in traced.QUERY_NAMES],
        "engine.ms.<q>": ["engine.ms.%s" % q for q in traced.QUERY_NAMES],
        "engine.fallback.<reason>": ["engine.fallback.%s" % r for r in traced.FALLBACK_REASONS],
        "op.<kind>.p50_ms": ["op.%s.p50_ms" % k for k in traced.SERVE_KINDS + ("query",)],
    }
    documented = []
    for name in spec["per_layer"]:
        documented.extend(patterns.get(name, [name]))
    assert sorted(documented) == sorted(PER_LAYER)
    for entry in spec["per_layer"].values():
        for target in entry["moves"]:
            workload, metric = target.split(":")
            assert workload in bench_run.WORKLOADS and metric in END_TO_END


def test_workload_names_match_benchmark_json():
    with open(os.path.join(BENCH, "spec.json")) as handle:
        workloads = json.load(handle)["workloads"]
    listed = [name for name in bench_run.WORKLOADS if workloads[name]["in_benchmark_json"]]
    assert [w["name"] for w in SPEC["workloads"]] == listed
    for name in bench_run.WORKLOADS:
        if name not in listed:
            assert workloads[name]["why_not_in_benchmark_json"]


def test_tpch_report_prints_every_end_to_end_metric():
    stats = tpch_suite.SuiteStats()
    stats.visits = {"q1": [0.01], "q3": [3.0]}
    stats.completed = {"q1": [0.01]}
    stats.attempted, stats.ok, stats.over_limit = 2, 1, 1
    stats.pass_seconds = [3.01]
    stats.executions_ok, stats.busy_seconds = 3, 3.03
    result = harness.Result()
    result.metric("setup_s", 1.0, "s")
    tpch_suite.report(stats, result)
    result.metric("rss_mb", 40.0, "MB")
    assert sorted(result.metrics) == sorted(END_TO_END)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result.metrics.items()} == units


def _bench(workload: str, seconds: str = "1", trace: str = "0") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", ["serve-mix", "adhoc"])
def test_served_run_prints_every_end_to_end_metric(workload):
    proc = _bench(workload)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == END_TO_END
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units


def test_traced_run_prints_every_per_layer_metric():
    proc = _bench("serve-mix", seconds="2", trace="1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == PER_LAYER
    assert os.path.isfile(os.path.join(BENCH, "out", "serve-mix-3.layers.txt"))
    with open(os.path.join(BENCH, "out", "serve-mix-3.trace.json")) as handle:
        assert json.load(handle)["traceEvents"]


# -- planted failures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch():
    db, service, handles = tpch_suite.build_service()
    return db, service, handles, tpch_suite.expected_answers(db)


def test_planted_over_limit_query_is_charged_the_limit_and_leaves_nothing(tpch):
    _, service, handles, expected = tpch
    runner = tpch_suite.ForkedRunner(service, limit=0.5)
    try:
        # q18 takes minutes on the served path at this commit's seed.
        first = runner.pid
        assert runner.run(handles["q18"]) is None
        assert runner.pid is None and first is None
        # The killed fork's memory is read before the kill, apart from
        # the peak of the forks that finished.
        assert runner.missed_rss_kb > 0 and runner.peak_rss_kb == 0
        start = time.perf_counter()
        reply = runner.run(handles["q6"])
        wall = time.perf_counter() - start
        assert reply is not None and reply["ok"]
        # A leftover q18 thread would share the CPU and slow q6 down.
        assert reply["seconds"] < 0.1 and wall < 0.5
        assert runner.peak_rss_kb == reply["rss_kb"]
        stats = tpch_suite.run_passes(
            runner, {"q18": handles["q18"], "q6": handles["q6"]}, expected, 0.0, random.Random(1)
        )
    finally:
        runner.close()
    assert runner.pid is None
    assert stats.visits["q18"] == [0.5]
    assert stats.over_limit == 1 and stats.ok == 1 and stats.attempted == 2
    result = harness.Result()
    tpch_suite.report(stats, result)
    assert result.metrics["ok_fraction"]["value"] == 0.5


def test_profile_is_dumped_even_for_a_query_that_is_killed(tpch, tmp_path):
    _, service, handles, _ = tpch
    runner = tpch_suite.ForkedRunner(service, limit=0.5)
    try:
        assert runner.run(handles["q18"], profile=str(tmp_path / "q18.prof")) is None
        assert runner.run(handles["q6"], profile=str(tmp_path / "q6.prof"))["ok"]
    finally:
        runner.close()
    import pstats

    for name in ("q18", "q6"):
        assert pstats.Stats(str(tmp_path / ("%s.prof" % name))).total_calls > 0


def test_planted_wrong_tpch_answer_counts_as_failure(tpch):
    _, service, handles, expected = tpch
    planted = dict(expected)
    planted["q6"] = [{"revenue": -1.0}]
    runner = tpch_suite.ForkedRunner(service)
    try:
        stats = tpch_suite.run_passes(runner, {"q6": handles["q6"], "q1": handles["q1"]}, planted, 0.0, random.Random(1))
    finally:
        runner.close()
    assert stats.wrong == 1 and stats.failed == 1 and stats.wrong_queries == ["q6"]
    result = harness.Result()
    tpch_suite.report(stats, result)
    assert not result.correct and result.failed == 1
    assert result.metrics["ok_fraction"]["value"] == 0.5


def test_planted_wrong_served_answer_fails_the_command(monkeypatch, capsys):
    real = serve_mix.Model.answer

    def planted(self, kind, params, version=0):
        rows = real(self, kind, params, version)
        return [dict(r, qty=-1) for r in rows] if kind == "point" else rows

    monkeypatch.setattr(serve_mix.Model, "answer", planted)
    code = bench_run.main(["--workload", "serve-mix", "--seed", "2", "--seconds", "1", "--trace", "0"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert line["correct"] is False and line["failed"] >= 1


# -- seeds ---------------------------------------------------------------------------


def _ops(stream, n=60):
    return [(op.kind, json.dumps(op.meta, sort_keys=True)) for op, _ in zip(stream, range(n))]


def test_serve_mix_inputs_follow_the_seed():
    assert _ops(serve_mix.OpStream(5)) == _ops(serve_mix.OpStream(5))
    assert _ops(serve_mix.OpStream(5)) != _ops(serve_mix.OpStream(6))
    assert serve_mix.sales_rows(5) == serve_mix.sales_rows(5) != serve_mix.sales_rows(6)
    assert serve_mix.rates_rows(5, 1) != serve_mix.rates_rows(5, 2)


def test_serve_mix_rounds_hold_the_exact_shares():
    stream = serve_mix.OpStream(5)
    for _ in range(3):
        kinds = [next(stream).kind for _ in range(100)]
        assert {kind: kinds.count(kind) for kind in set(kinds)} == dict(serve_mix.MIX)


def _texts(seed, n=40):
    generator = adhoc.Generator(adhoc.load_tables(seed), seed)
    return [generator.next().text for _ in range(n)]


def test_adhoc_texts_follow_the_seed_and_never_repeat():
    first = _texts(5, 200)
    assert first == _texts(5, 200)
    assert first[:40] != _texts(6)
    assert len(set(first)) == len(first)


def test_tpch_order_follows_the_seed():
    def order(seed):
        names = sorted(traced.QUERY_NAMES)
        random.Random("tpch-suite:%d" % seed).shuffle(names)
        return names

    assert order(1) == order(1) != order(2)


# -- answer checks --------------------------------------------------------------------


def test_multiset_close():
    assert harness.multiset_close([{"a": 1, "b": 0.1 + 0.2}, {"a": 2, "b": 1.0}], [{"b": 1, "a": 2}, {"a": 1, "b": 0.3}])
    assert not harness.multiset_close([{"a": 1}], [{"a": 1}, {"a": 1}])
    assert not harness.multiset_close([{"a": 1}, {"a": 1}], [{"a": 1}, {"a": 2}])
    assert harness.multiset_close([{"d": {"$date": "1995-01-02"}}], [{"d": "1995-01-02"}])
    # Values that straddle a 2-decimal rounding boundary still match.
    assert harness.multiset_close([{"x": 0.0049999999}, {"x": 0.006}], [{"x": 0.006}, {"x": 0.005}], abs_tol=1e-6)


def test_adhoc_evaluator_agrees_with_the_service():
    from repro.data import json_io
    from repro.service import QueryService

    tables = adhoc.load_tables(11)
    service = QueryService()
    for name in adhoc.TABLES:
        service.register_table(name, adhoc.wire_rows(tables[name]))
    generator = adhoc.Generator(tables, 11)
    shapes = set()
    for _ in range(60):
        query = generator.next()
        shapes.add(query.shape)
        outcome = service.query("sql", query.text)
        assert outcome.ok, (query.text, outcome.error)
        assert harness.multiset_close(json_io.to_jsonable(outcome.value), adhoc.evaluate(query, tables)), query.text
    service.close()
    assert len(shapes) >= 6


def test_rates_reads_accept_every_version_that_could_be_live():
    traffic = serve_mix.Traffic(1, {})
    write = loadgen.Op("register", {})
    write.t_send, write.t_recv = 10.0, 12.0
    traffic.registers[1] = write
    read = loadgen.Op("rates", {"code": "C01"})
    read.t_send, read.t_recv = 11.0, 11.5
    assert traffic.live_versions(read) == [0, 1]
    read.t_send, read.t_recv = 13.0, 13.5
    assert traffic.live_versions(read) == [1]
    read.t_send, read.t_recv = 8.0, 9.0
    assert traffic.live_versions(read) == [0]
    # Two overlapping writes may be applied in either order.
    second = loadgen.Op("register", {})
    second.t_send, second.t_recv = 11.0, 11.8
    traffic.registers[2] = second
    read.t_send, read.t_recv = 13.0, 13.5
    assert traffic.live_versions(read) == [1, 2]
    third = loadgen.Op("register", {})
    third.t_send, third.t_recv = 12.5, 12.9
    traffic.registers[3] = third
    assert traffic.live_versions(read) == [3]


# -- the contract's empty-directory case -------------------------------------------


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adhoc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
