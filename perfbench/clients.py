"""Request transports and the open-loop load generator.

Both clients expose ``await client.request(method, path, body) ->
(status, payload)``: :class:`InProcessClient` calls ``ServiceApp.dispatch``
directly, :class:`HttpClient` speaks HTTP/1.1 over keep-alive loopback
connections to a ``python -m repro.service`` child.
"""

from __future__ import annotations

import asyncio
import json
import time

_now = time.perf_counter


class InProcessClient:
    def __init__(self, app):
        self.app = app

    async def request(self, method: str, path: str, body: "dict | None" = None):
        return await self.app.dispatch(method, path, body)


class _Connection:
    def __init__(self, reader, writer, host: str):
        self.reader, self.writer, self.host = reader, writer, host

    async def request(self, method: str, path: str, body: "dict | None"):
        payload = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + payload)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self.reader.readexactly(length) if length else b"{}"
        return status, json.loads(raw)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


class HttpClient:
    """A pool of keep-alive connections; each request takes a free one."""

    def __init__(self, host: str, port: int, connections: int, recorder=None):
        self.host, self.port, self.size = host, port, connections
        #: Traced runs record an ``http.request`` span per request, from the
        #: moment it holds a connection, tagged with the body's ``rid``.
        self.recorder = recorder
        self._free: "asyncio.Queue[_Connection]" = asyncio.Queue()
        self._all: list = []

    async def connect(self) -> None:
        for _ in range(self.size):
            reader, writer = await asyncio.open_connection(self.host, self.port)
            connection = _Connection(reader, writer, f"{self.host}:{self.port}")
            self._all.append(connection)
            self._free.put_nowait(connection)

    async def request(self, method: str, path: str, body: "dict | None" = None):
        connection = await self._free.get()
        span = None
        if self.recorder is not None and body is not None and "rid" in body:
            span = self.recorder.open("http.request", {"rid": body["rid"]})
        try:
            return await connection.request(method, path, body)
        finally:
            if span is not None:
                span[3] = time.perf_counter_ns()
            self._free.put_nowait(connection)

    async def close(self) -> None:
        for connection in self._all:
            await connection.close()
        self._all.clear()


class Sample:
    """One open-loop request: when it was due, sent and done, and its reply."""

    __slots__ = ("kind", "due", "sent", "done", "status", "payload", "spec", "error")

    def __init__(self, kind: str, due: float, spec):
        self.kind, self.due, self.spec = kind, due, spec
        self.sent = self.done = 0.0
        self.status = 0
        self.payload = None
        self.error = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


async def open_loop(schedule, send, on_reply=None, timeout: float = 30.0) -> "tuple[list, float]":
    """Send ``schedule`` — ``(offset_s, kind, spec)`` sorted by offset — on time.

    Every request starts as its own task at its due time, whatever is still
    outstanding (open loop).  *send(sample)* performs the request and fills
    ``status``/``payload``; an exception or a timeout counts as failed.
    Returns the samples and the window start (``perf_counter`` seconds).
    """
    loop_start = _now() + 0.05
    samples = []
    tasks = []

    async def run(sample: Sample) -> None:
        sample.sent = _now()
        try:
            await asyncio.wait_for(send(sample), timeout)
        except asyncio.TimeoutError:
            sample.error = "timeout"
        except Exception as error:  # noqa: BLE001 — a failed request is counted, not fatal
            sample.error = f"{type(error).__name__}: {error}"
        sample.done = _now()
        if on_reply is not None:
            on_reply(sample)

    index = 0
    while index < len(schedule):
        now = _now()
        while index < len(schedule) and loop_start + schedule[index][0] <= now:
            offset, kind, spec = schedule[index]
            sample = Sample(kind, loop_start + offset, spec)
            samples.append(sample)
            tasks.append(asyncio.ensure_future(run(sample)))
            index += 1
        if index < len(schedule):
            await asyncio.sleep(max(0.0, loop_start + schedule[index][0] - _now()))
    await asyncio.gather(*tasks)
    return samples, loop_start
