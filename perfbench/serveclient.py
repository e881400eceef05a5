"""A ``repro-sky serve`` subprocess and a one-connection HTTP client.

The server runs with its defaults (one engine thread, ``workers=1``, no
pool).  Its output goes to a log file, not a pipe, so a chatty server
can never block on a full pipe nobody reads.
"""

from __future__ import annotations

import http.client
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from procs import die_with_parent

_ANNOUNCE = re.compile(r"serving on http://127\.0\.0\.1:(\d+)")


class ServerProcess:
    """One server hosting ``specs`` (``alias=path`` strings)."""

    def __init__(self, root: Path, specs, log_path: Path):
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1", "--port", "0"]
        for spec in specs:
            cmd += ["--graph", spec]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=root,
            preexec_fn=die_with_parent,
        )
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until ``GET /health`` answers 200."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + self.log_path.read_text()[-2000:]
                )
            if not self.port:
                match = _ANNOUNCE.search(self.log_path.read_text())
                if match:
                    self.port = int(match.group(1))
            if self.port:
                try:
                    if self.request("GET", "/health")[0] == 200:
                        return
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not become healthy in time")

    def request(self, method: str, path: str, body: bytes = None):
        """``(status, body bytes)`` over a fresh connection."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kib / 1024.0

    def stop(self) -> None:
        """SIGTERM (the server drains and exits 0), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
