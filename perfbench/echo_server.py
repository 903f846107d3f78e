"""A bare asyncio TCP echo server: the reference gateway-echo's bursts
are measured against.

It reads the same length-prefixed frames as the gateway and writes each
one back as it is, one write per frame like the gateway's replies: the
same event loop and socket work with none of the gateway's own (wire
codec, shim, engine, echo application).  Prints ``ready PORT``, serves
until its standard input closes.
"""

from __future__ import annotations

import asyncio
import os
import struct
import sys

PREFIX = struct.Struct(">I")


class Echo(asyncio.Protocol):
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.buf = bytearray()

    def data_received(self, data: bytes) -> None:
        buf = self.buf
        buf += data
        pos = 0
        while len(buf) - pos >= PREFIX.size:
            (length,) = PREFIX.unpack_from(buf, pos)
            end = pos + PREFIX.size + length
            if end > len(buf):
                break
            self.transport.write(bytes(buf[pos:end]))
            pos = end
        del buf[:pos]


async def main() -> None:
    loop = asyncio.get_running_loop()
    server = await loop.create_server(Echo, "127.0.0.1", 0)
    print(f"ready {server.sockets[0].getsockname()[1]}", flush=True)
    closed = asyncio.Event()
    fd = sys.stdin.fileno()

    def on_input() -> None:
        if not os.read(fd, 4096):
            closed.set()

    loop.add_reader(fd, on_input)
    await closed.wait()
    server.close()
    await server.wait_closed()


if __name__ == "__main__":
    asyncio.run(main())
