"""The program under test, as a subprocess: ``python -m repro.cli serve --http``.

The serve workloads talk to the real front door over real sockets.  This
file starts the server with an on-disk job store and stage cache, waits
until ``/healthz`` answers, reads what the operating system knows about
the process (peak RSS, CPU seconds) and stops it with SIGINT — the
server's own graceful-drain path.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, Optional

from bench import loadgen

HOST = "127.0.0.1"

#: admission stays enabled but must never bind: any 429 is a failure
ADMISSION_FLAGS = ("--rate", "100000", "--burst", "100000",
                   "--max-queue-depth", "100000")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text -> ``{'name{labels}': value}``."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out


class ServerProcess:
    """One ``repro serve --http`` subprocess bound to a work directory."""

    def __init__(self, src_dir: str, workdir: str, workers: int = 2) -> None:
        self.src_dir = src_dir
        self.workdir = workdir
        self.workers = workers
        self.port = 0
        self._proc: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> None:
        self.port = free_port()
        os.makedirs(self.workdir, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=self.src_dir)
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--http", str(self.port), "--host", HOST,
             "--workers", str(self.workers),
             "--store", os.path.join(self.workdir, "store"),
             "--cache-dir", os.path.join(self.workdir, "cache"),
             *ADMISSION_FLAGS, "--quiet"],
            env=env, cwd=self.workdir,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.perf_counter() + timeout
        probe = loadgen.Request("GET", "/healthz")
        while time.perf_counter() < deadline:
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self._proc.returncode}"
                )
            if loadgen.fresh_request(HOST, self.port, probe).status == 200:
                return
            time.sleep(0.02)
        self.stop()
        raise RuntimeError("server did not become ready")

    def get(self, path: str) -> loadgen.Outcome:
        return loadgen.fresh_request(
            HOST, self.port, loadgen.Request("GET", path)
        )

    def metrics(self) -> Dict[str, float]:
        outcome = self.get("/metrics")
        if outcome.status != 200:
            raise RuntimeError(f"/metrics answered {outcome.status}")
        return parse_metrics(outcome.body.decode())

    def _proc_field(self, name: str) -> float:
        with open(f"/proc/{self._proc.pid}/status") as fh:
            for line in fh:
                if line.startswith(name + ":"):
                    return float(line.split()[1])
        raise KeyError(name)

    def peak_rss_mb(self) -> float:
        """The server's high-water RSS (``VmHWM``); read before stop."""
        return self._proc_field("VmHWM") / 1024.0

    def cpu_seconds(self) -> float:
        """User + system CPU the server has burned so far."""
        with open(f"/proc/{self._proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGINT (the server drains and exits), then wait for the end."""
        if self._proc is None:
            return
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGINT)
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc = None
