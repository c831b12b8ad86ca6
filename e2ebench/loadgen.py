"""Open-loop HTTP load: one asyncio thread, a few keep-alive
connections, requests sent on a fixed schedule whether or not earlier
ones have been answered.

Each latency is timed from when its request was *due*, so a server
stall also charges the wait it imposes on the requests behind it.  How
late the generator itself woke up for each request is recorded apart,
so a run where the generator, not the server, fell behind can be told
apart and marked invalid.
"""

import asyncio
import hashlib
from dataclasses import dataclass
from typing import List, Optional

#: Status recorded for a timeout or a broken connection.
NO_ANSWER = -1

_HEAD = (
    "POST /predict HTTP/1.1\r\n"
    "Host: 127.0.0.1\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: {}\r\n"
    "\r\n"
)


@dataclass
class Sample:
    index: int
    latency_s: float
    late_s: float
    status: int
    nbytes: int
    body_digest: Optional[bytes]


@dataclass
class Window:
    samples: List[Sample]
    #: From the last request's due time to the last answer.
    drain_s: float


async def _read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    payload = await reader.readexactly(length)
    return status, payload


async def _open_loop(port, offsets, bodies, connections, timeout_s):
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    n = len(offsets)
    samples: List[Optional[Sample]] = [None] * n
    late = [0.0] * n
    links = [await asyncio.open_connection("127.0.0.1", port) for _ in range(connections)]
    t0 = loop.time() + 0.05

    async def generate():
        for i, offset in enumerate(offsets):
            due = t0 + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late[i] = loop.time() - due
            queue.put_nowait(i)
        for _ in links:
            queue.put_nowait(None)

    async def send(slot):
        reader, writer = links[slot]
        while True:
            i = await queue.get()
            if i is None:
                break
            body = bodies[i]
            status, nbytes, body_digest = NO_ANSWER, 0, None
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(_HEAD.format(len(body)).encode("latin-1") + body)
                status, payload = await asyncio.wait_for(
                    _read_response(reader), timeout_s
                )
                nbytes = len(payload)
                body_digest = hashlib.blake2b(payload, digest_size=16).digest()
            except (OSError, EOFError, ValueError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                # A refused, timed-out or broken request: reconnect.
                if writer is not None:
                    writer.close()
                reader = writer = None
            samples[i] = Sample(
                i, loop.time() - (t0 + offsets[i]), late[i], status, nbytes, body_digest
            )
        links[slot] = (reader, writer)

    await asyncio.gather(generate(), *(send(k) for k in range(connections)))
    last_done = loop.time()
    for _, writer in links:
        if writer is not None:
            writer.close()
    drain_s = last_done - (t0 + offsets[-1]) if offsets else 0.0
    return Window(samples, drain_s)


def run_window(port, offsets, bodies, connections=2, timeout_s=5.0):
    """Send ``bodies[i]`` at ``offsets[i]`` seconds after the start."""
    return asyncio.run(_open_loop(port, offsets, bodies, connections, timeout_s))
