"""The program under test for the served workloads: ``repro serve --http 0
--workers 2`` as a child process, plus a keep-alive HTTP client.

The server runs in its own session so that, whatever happens, stopping
it also reaches its worker processes; :meth:`Server.stop` asks for a
graceful shutdown, then escalates, and always waits.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from harness import peak_rss_kb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STARTUP_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve --http 0 --workers 2`` process."""

    def __init__(self, trace_sample: Optional[float] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        argv = [sys.executable, "-m", "repro", "serve", "--http", "0", "--workers", "2"]
        if trace_sample is not None:
            argv += ["--trace-sample", repr(trace_sample)]
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
            start_new_session=True,
        )
        self.host = "127.0.0.1"
        self.port: Optional[int] = None
        self._drainer: Optional[threading.Thread] = None
        self._stderr_tail: List[str] = []
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        assert self.proc.stderr is not None
        try:
            for line in self.proc.stderr:
                self._stderr_tail = (self._stderr_tail + [line])[-20:]
                match = re.search(r"http endpoint on http://([\d.]+):(\d+)", line)
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
                    break
                if time.monotonic() > deadline:
                    break
            if self.port is None:
                raise RuntimeError(
                    "server did not announce an http endpoint:\n" + "".join(self._stderr_tail)
                )
        except BaseException:
            self.stop()
            raise
        # Keep draining stderr so the server never blocks on a full pipe.
        self._drainer = threading.Thread(target=self._drain_stderr)
        self._drainer.start()

    def _drain_stderr(self) -> None:
        assert self.proc.stderr is not None
        for _ in self.proc.stderr:
            pass

    def connect(self, timeout: float = 60.0) -> "Client":
        return Client(self.host, self.port, timeout)

    def wait_healthy(self, timeout: float = STARTUP_TIMEOUT_S) -> None:
        """Block until ``/healthz`` answers and ``/workers`` lists every
        worker as live (workers warm up from a snapshot after start)."""
        deadline = time.monotonic() + timeout
        with self.connect() as client:
            while True:
                status, _ = client.get("/healthz")
                workers = client.get_json("/workers")
                live = [w for w in workers.get("workers", []) if w.get("alive")]
                if status == 200 and len(live) >= workers.get("count", 0):
                    return
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.05)

    def peak_rss_kb(self) -> int:
        """The leader's peak RSS."""
        return peak_rss_kb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None and self.port is not None:
            try:
                with Client(self.host, self.port, timeout=10.0) as client:
                    client.post({"op": "shutdown"})
            except (OSError, http.client.HTTPException, ValueError):
                pass
        try:
            self.proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self._signal_group(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self._signal_group(signal.SIGKILL)
                self.proc.wait(timeout=10.0)
        # Workers share the leader's process group; kill any straggler.
        self._signal_group(signal.SIGKILL)
        # The drainer ends at EOF, once every holder of the pipe is gone.
        if self._drainer is not None:
            self._drainer.join(timeout=10.0)
        if self.proc.stderr is not None and (self._drainer is None or not self._drainer.is_alive()):
            self.proc.stderr.close()

    def _signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.proc.pid, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


class Client:
    """One keep-alive HTTP connection (a closed-loop caller)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def post_raw(self, body: bytes) -> Tuple[int, bytes, float]:
        """Send one wire request; (status, body, seconds until the body was read)."""
        start = time.perf_counter()
        self.conn.request("POST", "/", body=body, headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start

    def post(self, request: Dict[str, Any]) -> Dict[str, Any]:
        _, data, _ = self.post_raw(json.dumps(request).encode("utf-8"))
        return json.loads(data.decode("utf-8"))

    def get(self, path: str) -> Tuple[int, bytes]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def get_json(self, path: str) -> Dict[str, Any]:
        status, data = self.get(path)
        return json.loads(data.decode("utf-8")) if status == 200 else {}

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

