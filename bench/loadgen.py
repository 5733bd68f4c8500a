"""HTTP load generator: one process, at most ``nproc`` connections.

Hygiene rules this file exists to keep:

* persistent HTTP/1.1 connections (keep-alive), one per worker thread;
* each request leaves in a single ``sendall`` with ``TCP_NODELAY`` set,
  so a stall that remains on the wire is the server's, not ours;
* open-loop arrivals follow a seeded Poisson schedule and each latency
  is measured **from the instant the request was due**, so the wait a
  stall imposes on later requests is counted;
* how late the generator itself ran is reported (``lag``);
* phases last a fixed time, so a run is as long on every commit.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple


def poisson_schedule(rate: float, duration: float, rng) -> List[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process of
    ``rate`` per second over ``duration`` seconds; ``rng`` is a seeded
    ``random.Random``."""
    due: List[float] = []
    now = rng.expovariate(rate)
    while now < duration:
        due.append(now)
        now += rng.expovariate(rate)
    return due


def zipf_indices(keys: int, count: int, rng,
                 exponent: float = 1.1) -> List[int]:
    """``count`` draws from a Zipf popularity law over ``keys`` items
    (item 0 the hottest)."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(keys)]
    return rng.choices(range(keys), weights=weights, k=count)


@dataclass(frozen=True)
class Request:
    """One HTTP request, ready to send."""

    method: str
    path: str
    body: bytes = b""
    tenant: str = "bench"
    #: the caller's handle (key index, case id) carried to the outcome
    ref: object = None

    def encode(self, host: str) -> bytes:
        head = (
            f"{self.method} {self.path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"X-Tenant: {self.tenant}\r\n"
            f"Content-Length: {len(self.body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        )
        return head.encode("ascii") + self.body


@dataclass
class Outcome:
    """What happened to one request (times are ``perf_counter`` seconds)."""

    request: Request
    due: float
    sent: float
    done: float
    #: ``None`` on a transport error
    status: Optional[int]
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to the last byte."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent it after it was due."""
        return self.sent - self.due


class Connection:
    """One persistent HTTP/1.1 client connection over a raw socket."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        return sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def request(self, request: Request) -> Tuple[int, bytes]:
        """Send one request, read one response; raises ``OSError`` (and
        drops the connection) on any transport problem."""
        if self._sock is None:
            self._sock = self._connect()
        try:
            self._sock.sendall(request.encode(f"{self.host}:{self.port}"))
            return self._read_response()
        except (OSError, ValueError):
            self.close()
            raise

    def _fill(self) -> None:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def _read_response(self) -> Tuple[int, bytes]:
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        self._buffer = rest
        while len(self._buffer) < length:
            self._fill()
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, body


def _send(conn: Connection, request: Request, due: float) -> Outcome:
    sent = time.perf_counter()
    try:
        status, body = conn.request(request)
    except (OSError, ValueError) as exc:
        status, body = None, repr(exc).encode()
    return Outcome(request, due, sent, time.perf_counter(), status, body)


def _run_workers(count: int, target: Callable[[int], None]) -> None:
    threads = [
        threading.Thread(target=target, args=(i,), name=f"loadgen-{i}")
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(
    host: str, port: int, requests: Sequence[Request],
    schedule: Sequence[float], connections: int,
) -> List[Outcome]:
    """Send ``requests[i]`` at ``schedule[i]`` seconds after the start,
    whatever the server does; ``connections`` worker threads each own
    one persistent connection and take the next due request when free."""
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def worker(_index: int) -> None:
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(requests):
                    return
                due = start + schedule[i]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                outcomes[i] = _send(conn, requests[i], due)
        finally:
            conn.close()

    _run_workers(connections, worker)
    return [o for o in outcomes if o is not None]


@dataclass
class ClosedPhase:
    """A closed-loop phase: every request sent, and the window."""

    outcomes: List[Outcome]
    start: float
    end: float

    def answered(self) -> List[Outcome]:
        """The requests answered inside the window (one still in flight
        when the window closed counts for neither side)."""
        return [o for o in self.outcomes if o.done <= self.end]

    def window_rates(self, accept: Callable[[Outcome], bool],
                     windows: int) -> List[float]:
        """Accepted answers per second in each of ``windows`` equal
        slices of the phase, each measured between its first and last
        answer (so the rate is not quantised by the slice width)."""
        width = (self.end - self.start) / windows
        slots: List[List[float]] = [[] for _ in range(windows)]
        for outcome in self.answered():
            if accept(outcome):
                slot = min(windows - 1,
                           int((outcome.done - self.start) / width))
                slots[slot].append(outcome.done)
        rates = []
        for done in slots:
            if len(done) > 1 and max(done) > min(done):
                rates.append((len(done) - 1) / (max(done) - min(done)))
            else:
                rates.append(len(done) / width)
        return rates


def closed_loop(
    host: str, port: int, next_request: Callable[[int], Optional[Request]],
    duration: float, connections: int,
) -> ClosedPhase:
    """``connections`` clients each send their next request as soon as
    the previous answer arrived, for ``duration`` seconds.

    ``next_request(n)`` supplies the ``n``-th request overall (``None``
    ends that client early).
    """
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()
    deadline = start + duration

    def worker(_index: int) -> None:
        conn = Connection(host, port)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    n = cursor[0]
                    cursor[0] += 1
                request = next_request(n)
                if request is None:
                    return
                outcome = _send(conn, request, time.perf_counter())
                with lock:
                    outcomes.append(outcome)
        finally:
            conn.close()

    _run_workers(connections, worker)
    return ClosedPhase(outcomes, start, deadline)


def fresh_request(host: str, port: int, request: Request) -> Outcome:
    """One request over a connection opened for it and closed after."""
    conn = Connection(host, port)
    try:
        return _send(conn, request, time.perf_counter())
    finally:
        conn.close()
