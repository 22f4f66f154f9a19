"""The ``tpch-suite`` workload: the 20 engine-executable TPC-H queries served
in process through ``QueryService.execute``, each capped at a latency limit.

Set-up builds the micro database, registers its tables in a
``QueryService`` and prepares every query once.  That process never
executes a query itself: each query visit runs in a worker freshly forked
from it, so every query starts from the same prepared state whatever ran
before it.  When a query misses the limit the worker is killed (an
executor timeout would only abandon a thread that keeps burning CPU into
the next query), so a miss leaves no running work behind.

The database is the repository's canonical micro database (data seed 7,
the one the tests and references use); ``--seed`` orders the queries.  At
this scale a query's served cost swings by 50x with the data seed (q17
takes 0.07 s on data seed 3 and 3.5 s on data seed 11), which would make
the limit, not the program, decide the run-to-run spread.
"""

from __future__ import annotations

import gc
import json
import os
import random
import select
import signal
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import (
    NullRecorder,
    Result,
    geomean,
    median,
    multiset_close,
    peak_rss_kb,
    percentile,
)

#: Per-query latency limit (seconds); a miss is charged exactly this.
LIMIT_S = 3.0
#: Extra wall time the parent allows for the worker to encode and send a
#: reply; the miss itself is decided on the worker-measured latency.
REPLY_GRACE_S = 0.25
#: The first this-many passes each run on a fresh set-up (see :func:`run`);
#: a set-up takes about 2 s, so there are fewer than on the served
#: workloads.
SETUP_REPEATS = 3
#: The canonical micro database's data seed.
DATA_SEED = 7
#: Within one visit a query is re-run back to back while its runs total
#: less than this, at most ``MAX_REPS`` times; the visit reports their
#: mean (a fork's runs alternate between fast ones and ones that pay for a
#: garbage collection, so a median of a few would jump between the two).
VISIT_BUDGET_S = 0.5
MAX_REPS = 5


def build_service(trace_sample: Optional[float] = 0.05):
    """Data generated, tables registered, every query prepared."""
    from repro.service import QueryService
    from repro.tpch.datagen import MICRO, generate
    from repro.tpch.queries import ENGINE_EXECUTABLE, QUERIES

    db = generate(MICRO, DATA_SEED)
    service = QueryService(trace_sample_rate=trace_sample)
    for name, bag in db.items():
        service.register_table(name, bag)
    handles = {name: service.prepare("sql", QUERIES[name]).handle for name in ENGINE_EXECUTABLE}
    return db, service, handles


def expected_answers(db: Any) -> Dict[str, List[Any]]:
    """The straight-Python reference rows of every query."""
    from repro.tpch.reference import REFERENCES

    return {name: fn(db) for name, fn in REFERENCES.items()}


class ForkedRunner:
    """Executes prepared queries in a forked copy of ``service``.

    The parent keeps the prepared service and never executes; each
    worker is forked from it, runs queries on request and reports the
    outcome, its result rows and its peak RSS.  :meth:`run` returns
    ``None`` when the query missed ``limit``; the worker is then killed
    and waited for, and the next call forks a fresh one.
    """

    def __init__(self, service: Any, limit: float = LIMIT_S):
        self.service = service
        self.limit = limit
        self.pid: Optional[int] = None
        self._to_child = -1
        self._from_child = -1
        self._buffer = b""
        self.forks = 0
        #: Peak RSS over the forks whose query finished within the limit.
        self.peak_rss_kb = 0
        #: Largest RSS a fork reached before it was killed at the limit.
        #: It grows with how far the query got in that time (about 45 MB/s
        #: on the heavy misses), so it follows the host's speed and stays
        #: out of ``peak_rss_kb``.
        self.missed_rss_kb = 0

    def _spawn(self) -> None:
        if threading.active_count() != 1:
            raise RuntimeError("forking the query worker needs a single-threaded parent")
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        # Everything the parent holds (the prepared service) goes to the
        # collector's permanent generation, so a worker's collections do
        # not walk it and copy its pages on write.  An in-process service
        # would pay neither; unfrozen, a fork's q19 ran 70-160 ms instead
        # of 62-106 ms.
        gc.freeze()
        pid = os.fork()
        if pid == 0:  # the worker
            code = 0
            try:
                os.close(down_w)
                os.close(up_r)
                _worker_loop(self.service, down_r, up_w)
            except BaseException:  # noqa: BLE001 - a forked child must never return
                code = 1
            os._exit(code)
        os.close(down_r)
        os.close(up_w)
        self.pid, self._to_child, self._from_child = pid, down_w, up_r
        self._buffer = b""
        self.forks += 1

    def run(self, handle: str, profile: Optional[str] = None) -> Optional[Dict[str, Any]]:
        if self.pid is None:
            self._spawn()
        request = json.dumps({"handle": handle, "profile": profile, "limit": self.limit})
        os.write(self._to_child, request.encode("utf-8") + b"\n")
        deadline = time.perf_counter() + self.limit + REPLY_GRACE_S
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                self.missed_rss_kb = max(self.missed_rss_kb, peak_rss_kb(self.pid))
                self.kill()
                return None
            ready, _, _ = select.select([self._from_child], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(self._from_child, 1 << 20)
            if not chunk:
                self.kill()
                raise RuntimeError("query worker exited unexpectedly")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        reply = json.loads(line.decode("utf-8"))
        if reply["seconds"] > self.limit:
            self.missed_rss_kb = max(self.missed_rss_kb, reply.get("rss_kb", 0))
            self.kill()
            return None
        self.peak_rss_kb = max(self.peak_rss_kb, reply.get("rss_kb", 0))
        return reply

    def kill(self) -> None:
        if self.pid is None:
            return
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(self.pid, 0)
        os.close(self._to_child)
        os.close(self._from_child)
        self.pid = None

    def close(self) -> None:
        self.kill()


def _worker_loop(service: Any, down: int, up: int) -> None:
    import resource

    from repro.data import json_io

    reader = os.fdopen(down, "rb")
    for raw in reader:
        request = json.loads(raw.decode("utf-8"))
        profile = request.get("profile")
        if profile:
            outcome_ok, value, error, seconds = _profiled(service, request, profile)
        else:
            start = time.perf_counter()
            outcome = service.execute(request["handle"])
            seconds = time.perf_counter() - start
            outcome_ok, value = outcome.ok, outcome.value
            error = None if outcome.ok else outcome.error.kind
        reply: Dict[str, Any] = {
            "ok": outcome_ok,
            "seconds": seconds,
            "error": error,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if outcome_ok:
            reply["rows"] = json_io.to_jsonable(value)
        os.write(up, json.dumps(reply).encode("utf-8") + b"\n")


def _profiled(service: Any, request: Dict[str, Any], path: str) -> Tuple[bool, Any, Any, float]:
    """Run the prepared plan on this thread under cProfile.

    ``cProfile`` only sees the thread it is enabled on, so the profiled
    run calls ``CompiledPlan.execute`` directly instead of going through
    the executor's thread hop.  A timer dumps the profile just before the
    limit, so a query that will be killed still leaves its profile.
    """
    import cProfile

    profiler = cProfile.Profile()

    def dump(*_: Any) -> None:
        profiler.disable()
        profiler.dump_stats(path)

    signal.signal(signal.SIGALRM, dump)
    signal.setitimer(signal.ITIMER_REAL, max(0.05, request["limit"] - 0.1))
    prepared = service.prepared(request["handle"])
    constants = service.catalog.constants()
    start = time.perf_counter()
    profiler.enable()
    try:
        value = prepared.plan.execute(constants, None)
        ok, error = True, None
    except Exception as exc:  # noqa: BLE001 - reported as a failed op
        value, ok, error = None, False, type(exc).__name__
    profiler.disable()
    seconds = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    profiler.dump_stats(path)
    return ok, value, error, seconds


class SuiteStats:
    """Per-query visit latencies and outcome counts over a run's passes."""

    def __init__(self) -> None:
        self.visits: Dict[str, List[float]] = {}
        self.completed: Dict[str, List[float]] = {}
        self.attempted = 0
        self.ok = 0
        self.over_limit = 0
        self.failed = 0
        self.wrong = 0
        self.wrong_queries: List[str] = []
        self.pass_seconds: List[float] = []
        self.executions_ok = 0
        self.busy_seconds = 0.0
        self.measured_seconds = 0.0


def run_passes(
    runner: ForkedRunner,
    handles: Dict[str, str],
    expected: Dict[str, List[Any]],
    seconds: float,
    rng: random.Random,
    recorder: Any = None,
    profile_dir: Optional[str] = None,
    max_passes: Optional[int] = None,
    before_pass: Optional[Callable[[int], None]] = None,
) -> SuiteStats:
    """Visit every query once per pass, in a seeded order, until the
    queries that finished have run for ``seconds`` in total (at least one
    pass, at most ``max_passes``).

    Each visit runs in a fresh fork of the prepared service.  A miss is
    sticky within a run: a query that missed the limit once is charged
    the limit in later passes without running again, so later passes
    spend their time on the queries that finish and their medians average
    over more of the run.  ``before_pass(n)`` runs before every pass after
    the first.
    """
    recorder = recorder or NullRecorder()
    stats = SuiteStats()
    missed: set = set()
    names = sorted(handles)
    passes = 0
    while passes == 0 or (
        stats.measured_seconds < seconds
        and len(missed) < len(names)
        and (max_passes is None or passes < max_passes)
    ):
        if passes and before_pass is not None:
            before_pass(passes)
        order = list(names)
        rng.shuffle(order)
        pass_total = 0.0
        for name in order:
            stats.attempted += 1
            if name in missed:
                stats.over_limit += 1
                stats.visits.setdefault(name, []).append(runner.limit)
                stats.busy_seconds += runner.limit
                pass_total += runner.limit
                continue
            runs: List[float] = []
            outcome = "ok"
            with recorder.span("backend.runtime.served", query=name):
                while True:
                    profile = None
                    if profile_dir is not None and not runs:
                        profile = os.path.join(profile_dir, "%s.prof" % name)
                    reply = runner.run(handles[name], profile=profile)
                    if reply is None:
                        outcome = "over_limit"
                        break
                    if not reply["ok"]:
                        outcome = "failed"
                        break
                    if not multiset_close(reply["rows"], expected[name]):
                        outcome = "wrong"
                        break
                    runs.append(reply["seconds"])
                    stats.busy_seconds += reply["seconds"]
                    stats.measured_seconds += reply["seconds"]
                    stats.executions_ok += 1
                    if sum(runs) >= VISIT_BUDGET_S or len(runs) >= MAX_REPS:
                        break
            if outcome == "ok":
                stats.ok += 1
                latency = sum(runs) / len(runs)
                stats.completed.setdefault(name, []).append(latency)
            elif outcome == "over_limit":
                stats.over_limit += 1
                missed.add(name)
                latency = runner.limit
                stats.busy_seconds += runner.limit
            else:
                latency = runner.limit
                if outcome == "wrong":
                    stats.wrong += 1
                    stats.wrong_queries.append(name)
                stats.failed += 1
            stats.visits.setdefault(name, []).append(latency)
            pass_total += latency
            # The next visit starts from a fresh fork, so a query's time
            # does not depend on which queries ran before it.
            runner.kill()
        stats.pass_seconds.append(pass_total)
        passes += 1
    return stats


def report(stats: SuiteStats, result: Result) -> None:
    """Fill the end-to-end metrics of a tpch-suite run.

    A query's latency is the median of its visits.  The latency
    percentiles cover the queries that finished within the limit, so they
    are read together with ``ok_fraction``: a query that starts to miss
    leaves them (and may lower them) while ``ok_fraction`` drops.  (Taken
    over every finished execution instead, p50 fell between the q22 and q1
    runs and jumped between them from run to run.)
    """
    per_query = {name: median(v) for name, v in stats.visits.items()}
    finished = [median(v) for v in stats.completed.values()] or [LIMIT_S]
    result.attempted += stats.attempted
    result.failed += stats.failed
    result.wrong += stats.wrong
    result.metric("suite_s", median(stats.pass_seconds), "s")
    result.metric("geomean_ms", geomean([v * 1e3 for v in per_query.values()]), "ms")
    result.metric("throughput_qps", stats.executions_ok / max(stats.busy_seconds, 1e-9), "1/s")
    result.metric("latency_p50_ms", percentile(finished, 0.5) * 1e3, "ms")
    result.metric("latency_p99_ms", percentile(finished, 0.99) * 1e3, "ms")
    result.metric("ok_fraction", stats.ok / max(stats.attempted, 1), "ratio")
    result.notes.append(
        "tpch-suite: %d visits, %d ok, %d over the %.1fs limit, %d failed, %d wrong%s"
        % (
            stats.attempted,
            stats.ok,
            stats.over_limit,
            LIMIT_S,
            stats.failed,
            stats.wrong,
            (" (%s)" % ", ".join(stats.wrong_queries)) if stats.wrong_queries else "",
        )
    )
    for name in sorted(per_query, key=lambda n: int(n[1:])):
        result.notes.append("  %-4s %10.2f ms%s" % (name, per_query[name] * 1e3, "" if name in stats.completed else "  (limit)"))


def run(seed: int, seconds: float, result: Result) -> None:
    """The untraced tpch-suite run.

    Each of the first ``SETUP_REPEATS`` passes runs on a freshly built
    service (later passes keep the last one), and ``setup_s`` is the
    median of those builds.  A query's served time differs between two
    builds of the same service in one process (q19: 65 ms on one build,
    106 ms on the next), so a run that used one build would carry that
    build's luck in every figure.
    """
    setup_times: List[float] = []

    def build() -> Tuple[Any, Any, Dict[str, str]]:
        start = time.perf_counter()
        built = build_service()
        setup_times.append(time.perf_counter() - start)
        return built

    db, service, handles = build()
    expected = expected_answers(db)
    runner = ForkedRunner(service)

    def rebuild(passes: int) -> None:
        if passes >= SETUP_REPEATS:
            return
        runner.service.close()
        gc.unfreeze()
        _, runner.service, fresh = build()
        if fresh != handles:
            raise RuntimeError("a rebuilt service handed out different handles")

    try:
        stats = run_passes(
            runner, handles, expected, seconds, random.Random("tpch-suite:%d" % seed), before_pass=rebuild
        )
    finally:
        runner.close()
        runner.service.close()
    result.metric("setup_s", median(setup_times), "s")
    report(stats, result)
    result.metric("rss_mb", runner.peak_rss_kb / 1024.0, "MB")
    result.notes.append("tpch-suite: %d worker forks" % runner.forks)
