"""Raw-socket echo server: the floor a plan round trip is compared against.

Reads 4-byte big-endian length-prefixed frames on one connection and sends
each frame back unchanged, with plain ``socket`` calls, no ``repro`` code
and the plan server's default socket options.  Prints ``listening <port>``
once bound; exits when the client disconnects or on SIGTERM.

    python3 perfbench/echo_server.py
"""

from __future__ import annotations

import signal
import socket
import struct
import sys


def recv_exact(conn: socket.socket, count: int) -> bytes:
    buf = bytearray()
    while len(buf) < count:
        chunk = conn.recv(count - len(buf))
        if not chunk:
            return b""
        buf += chunk
    return bytes(buf)


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        print(f"listening {listener.getsockname()[1]}", flush=True)
        conn, _ = listener.accept()
        with conn:
            while True:
                header = recv_exact(conn, 4)
                if not header:
                    return 0
                (length,) = struct.unpack(">I", header)
                payload = recv_exact(conn, length)
                conn.sendall(header + payload)


if __name__ == "__main__":
    sys.exit(main())
