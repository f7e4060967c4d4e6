"""The online path: ``repro serve`` under open- and closed-loop load.

All load comes from this one process and thread, over at most two
keep-alive connections: the target host has two cores, and more
clients would mostly measure the scheduler.  The server runs with its
defaults (``--workers 0``), scoring in its own executor threads.  One
request in 21 is an ``/accept`` carrying the last password its
connection checked, so grammar updates, and the frozen-grammar rebuild
each one triggers on the next ``/check``, sit beside the reads.

An ``/accept`` is never in flight together with a ``/check``.  The
server applies an update on its event loop while executor threads may
be building a frozen grammar from the same tables; at this benchmark's
parent commit that build then fails with "dictionary changed size
during iteration" and the ``/check`` gets HTTP 500, in about half of
the ``tail`` runs.  The first ``/check`` after an ``/accept`` also runs
alone: it rebuilds the frozen grammar, and two batches sent together
would each rebuild it or not at random, which moved the closed-loop
rate between two levels from run to run.  Other checks overlap.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import itertools
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from corpora import ACCEPT, ACCEPT_EVERY, CHECK

#: Client connections per phase.
CONNECTIONS = 2
#: Seconds a phase may overrun before its unanswered requests are
#: abandoned; they count as failed.
GRACE = 20.0
#: Seconds ``repro serve`` gets to print its start-up banner.
START_TIMEOUT = 60.0
#: Closed-loop requests per timed segment: two accepts and 40 checks.
SEGMENT = 2 * ACCEPT_EVERY

_BANNER = re.compile(r"serving \d+ worker\(s\) on http://[\d.]+:(\d+)")


class Record:
    """One request: what was sent, when, and the raw answer."""

    __slots__ = ("kind", "password", "due", "sent", "done", "status",
                 "body", "late")

    def __init__(self, kind: str, password: str) -> None:
        self.kind = kind
        self.password = password
        self.due: Optional[float] = None
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.status = 0
        self.body = b""
        #: Open loop only: how late the generator queued the request.
        self.late: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status == 200


def program_env(root: str) -> Dict[str, str]:
    """Environment for the program's processes: its source on the
    path, and its telemetry switch removed so probes stay off unless
    the benchmark opens a session itself."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("REPRO_TELEMETRY", None)
    return env


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, model_path: str, log) -> None:
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", model_path,
             "--port", "0"],
            cwd=root, env=program_env(root), stdout=subprocess.PIPE,
            stderr=log, text=True,
        )
        ready, _, _ = select.select(
            [self.process.stdout], [], [], START_TIMEOUT
        )
        banner = self.process.stdout.readline() if ready else ""
        self.ready = time.perf_counter()
        match = _BANNER.search(banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.port = int(match.group(1))

    def peak_rss_mib(self) -> float:
        """The server's high-water resident set size."""
        path = f"/proc/{self.process.pid}/status"
        with open(path, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("the server's status has no VmHWM line")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def first_check(port: int, record: Record) -> None:
    """The set-up probe: one blocking ``/check`` on a fresh server."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=START_TIMEOUT
    )
    record.due = record.sent = time.perf_counter()
    try:
        connection.request(
            "POST", "/check", body=json.dumps({"password": record.password}),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        record.status, record.body = response.status, response.read()
    except (OSError, http.client.HTTPException):
        record.status = 0
    finally:
        connection.close()
    record.done = time.perf_counter()


class Gate:
    """Runs every ``/accept``, and the ``/check`` after it, alone.

    A request waiting to run alone holds back new checks, so it cannot
    starve.
    """

    def __init__(self) -> None:
        self.changed = asyncio.Condition()
        self.checks = 0
        #: A request that runs alone waits or is in flight.
        self.exclusive = False
        #: An accept has run and no check has followed it yet.
        self.rebuild_due = False

    @contextlib.asynccontextmanager
    async def enter(self, kind: str):
        async with self.changed:
            await self.changed.wait_for(lambda: not self.exclusive)
            alone = kind == ACCEPT or self.rebuild_due
            if alone:
                self.exclusive = True
                await self.changed.wait_for(lambda: self.checks == 0)
            if kind == CHECK:
                self.rebuild_due = False
                self.checks += 1
        try:
            yield
        finally:
            async with self.changed:
                if kind == CHECK:
                    self.checks -= 1
                else:
                    self.rebuild_due = True
                if alone:
                    self.exclusive = False
                self.changed.notify_all()


class Connection:
    """A keep-alive client connection that reconnects after an error."""

    def __init__(self, port: int, gate: Gate) -> None:
        self.port = port
        self.gate = gate
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.last_checked: Optional[str] = None

    async def exchange(self, head: bytes,
                       body: bytes = b"") -> Tuple[int, bytes]:
        if self.reader is None or self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
        self.writer.write(head + body)
        reply = await self.reader.readuntil(b"\r\n\r\n")
        at = reply.index(b"Content-Length:") + len(b"Content-Length:")
        length = int(reply[at:reply.index(b"\r\n", at)])
        return int(reply[9:12]), await self.reader.readexactly(length)

    async def send(self, record: Record) -> None:
        if record.kind == ACCEPT and self.last_checked is not None:
            record.password = self.last_checked
        body = json.dumps({"password": record.password}).encode()
        head = (
            b"POST /%s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
            % (record.kind.encode(), len(body))
        )
        async with self.gate.enter(record.kind):
            record.sent = time.perf_counter()
            try:
                record.status, record.body = await self.exchange(head, body)
            except (OSError, EOFError, ValueError,
                    asyncio.LimitOverrunError):
                record.status = 0
                self.close()
            record.done = time.perf_counter()
        if record.kind == CHECK:
            self.last_checked = record.password

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


async def _bounded(coroutines, timeout: float,
                   connections: Sequence[Connection]) -> None:
    """Run one phase; past ``timeout`` its unanswered requests drop."""
    try:
        await asyncio.wait_for(asyncio.gather(*coroutines), timeout)
    except asyncio.TimeoutError:
        pass  # unanswered records keep status 0 and count as failed
    finally:
        for connection in connections:
            connection.close()


async def open_loop(port: int, plan, duration: float) -> List[Record]:
    """Send ``plan`` on its Poisson schedule over two connections.

    A due request waits for a free connection and for the gate, and its
    latency counts from when it fell due, which charges a stall to the
    requests queued behind it.
    """
    records = [Record(kind, text) for _offset, kind, text in plan]
    queue: "asyncio.Queue[Optional[Record]]" = asyncio.Queue()
    gate = Gate()
    connections = [Connection(port, gate) for _ in range(CONNECTIONS)]

    async def worker(connection: Connection) -> None:
        while True:
            record = await queue.get()
            if record is None:
                return
            await connection.send(record)

    async def producer(start: float) -> None:
        for record, (offset, _kind, _text) in zip(records, plan):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record.due = due
            record.late = time.perf_counter() - due
            queue.put_nowait(record)
        for _connection in connections:
            queue.put_nowait(None)

    await _bounded(
        [producer(time.perf_counter())]
        + [worker(connection) for connection in connections],
        duration + GRACE, connections,
    )
    return records


async def closed_loop(port: int, plan,
                      duration: float) -> Tuple[List[Record], List[float]]:
    """Two connections, each sending its next request on an answer.

    The plan goes out in segments of ``SEGMENT`` requests while
    ``duration`` lasts.  Returns the records and each segment's
    seconds, from its first request sent to its last answered.
    """
    records: List[Record] = []
    segments: List[float] = []
    feed = iter(plan)
    gate = Gate()
    connections = [Connection(port, gate) for _ in range(CONNECTIONS)]
    end = time.perf_counter() + duration

    async def worker(connection: Connection, part) -> None:
        for kind, text in part:
            record = Record(kind, text)
            record.due = time.perf_counter()
            records.append(record)
            await connection.send(record)

    async def segments_until_end() -> None:
        while time.perf_counter() < end:
            part = list(itertools.islice(feed, SEGMENT))
            if len(part) < SEGMENT:
                return
            began = time.perf_counter()
            shared = iter(part)
            await asyncio.gather(
                *(worker(connection, shared) for connection in connections)
            )
            segments.append(time.perf_counter() - began)

    await _bounded([segments_until_end()], duration + GRACE, connections)
    return records, segments


async def fetch_metrics(port: int) -> Dict:
    connection = Connection(port, Gate())
    try:
        status, body = await connection.exchange(
            b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
        )
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)


async def _drive(port: int, inputs: Dict, open_seconds: float,
                 closed_seconds: float):
    opened = await open_loop(port, inputs["open_plan"], open_seconds)
    after_open = await fetch_metrics(port)
    closed, segments = await closed_loop(
        port, inputs["closed_plan"], closed_seconds
    )
    return {"open": opened, "metrics_open": after_open,
            "closed": closed, "segments": segments,
            "metrics_end": await fetch_metrics(port)}


def launch(root: str, model_path: str, inputs: Dict, open_seconds: float,
           closed_seconds: float, log) -> Dict:
    """Launch ``repro serve`` once and drive it through both phases.

    The launch is timed until its first ``/check`` answer (set-up);
    then come the open-loop phase, a ``/metrics`` read, the closed-loop
    phase and a final ``/metrics`` read.  Every launch of a run sends
    the same plans to a fresh server, so a request has one counterpart
    in each launch.
    """
    server = Server(root, model_path, log)
    try:
        first = Record(CHECK, inputs["first_password"])
        first_check(server.port, first)
        driven = asyncio.run(
            _drive(server.port, inputs, open_seconds, closed_seconds)
        )
        driven["rss_mib"] = server.peak_rss_mib()
    finally:
        server.stop()
    driven["records"] = [first] + driven["open"] + driven["closed"]
    driven["setup"] = (server.ready - server.launched,
                       first.done - server.ready)
    return driven
