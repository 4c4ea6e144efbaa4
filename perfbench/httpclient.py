"""A minimal HTTP/1.1 keep-alive client for the load generator.

The server always frames responses with ``Content-Length``, so the
client needs no chunked decoding.  Keeping the client this small keeps
its own CPU cost out of the measured latencies (``http.client`` parses
every header block through ``email.parser``).
"""

from __future__ import annotations

import socket
from time import perf_counter

__all__ = ["Connection", "Reply"]


class Reply:
    """One response: status, lower-cased headers, body bytes."""

    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: dict[str, str],
                 body: bytes) -> None:
        self.status = status
        self.headers = headers
        self.body = body


class Connection:
    """One persistent connection; ``connect()`` is timed on its own."""

    def __init__(self, host: str, port: int, *,
                 timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._buf = bytearray()
        self._host_header = f"Host: {host}:{port}\r\n".encode("ascii")

    def connect(self) -> float:
        """Open the connection; returns the connect time in seconds."""
        self.close()
        start = perf_counter()
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout_s)
        elapsed = perf_counter() - start
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._buf.clear()
        return elapsed

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def request(self, method: str, path: str, *, body: bytes = b"",
                headers: tuple[tuple[str, str], ...] = ()) -> Reply:
        """Send one request and read its whole response."""
        if self._sock is None:
            raise ConnectionError("connection is not open")
        head = bytearray(f"{method} {path} HTTP/1.1\r\n".encode("ascii"))
        head += self._host_header
        for name, value in headers:
            head += f"{name}: {value}\r\n".encode("latin-1")
        if body or method in ("PUT", "POST"):
            head += f"Content-Length: {len(body)}\r\n".encode("ascii")
        head += b"\r\n"
        self._sock.sendall(bytes(head) + body if body else bytes(head))
        return self._read_reply()

    def _recv(self) -> None:
        chunk = self._sock.recv(262144)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def _read_reply(self) -> Reply:
        buf = self._buf
        end = buf.find(b"\r\n\r\n")
        while end < 0:
            self._recv()
            end = buf.find(b"\r\n\r\n")
        lines = bytes(buf[:end]).decode("latin-1").split("\r\n")
        del buf[:end + 4]
        status = int(lines[0].split(" ", 2)[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if status == 304:
            length = 0
        while len(buf) < length:
            self._recv()
        body = bytes(buf[:length])
        del buf[:length]
        if headers.get("connection", "").lower() == "close":
            self.close()
        return Reply(status, headers, body)
