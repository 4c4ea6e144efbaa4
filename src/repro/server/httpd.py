"""The socket layer: :class:`ModelRepositoryApp` behind an HTTP/1.1 reader.

Stdlib-only, matching the repo's no-dependency rule.  The paper ran
XSLT "in the server and the HTML is returned to the client browser"
(§6); this module is that server.  :class:`RepositoryHTTPServer` gives
one thread per connection, which is exactly the concurrency model the
site cache is built for: distinct models publish in parallel,
concurrent requests for one stale model coalesce on its build lock.

The handler speaks HTTP/1.1 itself (DESIGN.md §11) instead of going
through the stdlib's ``BaseHTTPRequestHandler``: the request line and
each header line come from the connection's buffered reader, the
headers go into one lower-cased dict that is handed straight to
``app.handle``, and each response leaves in one ``sendmsg`` of its head
and body.  It keeps what the stdlib handler gave: persistent
connections (HTTP/1.1 by default, HTTP/1.0 with ``Connection:
keep-alive``), pipelined requests answered in order, ``100 Continue``
for ``Expect: 100-continue``, HEAD and 304 responses without a body,
and the stdlib's caps of 64 KiB per line and 100 header lines.

The handler is hardened against hostile or broken clients (DESIGN.md
§12): every connection carries a read timeout (stalled body reads get
``408`` and a close instead of a parked thread), request bodies are
bounded (``413`` past :data:`MAX_BODY_BYTES`), a non-numeric
``Content-Length`` is a clean ``400``, and an exception escaping the
application layer is answered with a JSON ``500`` and a closed
connection — never a traceback that kills the handler thread mid-
response.  Framing errors get the same treatment: a malformed request
or header line (400), an over-long request line (414), over-long or
over-many header lines (431), an unknown method or a transfer coding
(501) and HTTP/2 or later (505).  Every rejection carries a JSON body,
a request id and ``Connection: close``; the regression tests in
``tests/server/test_http_errors.py`` and
``tests/server/test_http_transport.py`` pin these behaviours.
``httpd.read`` / ``httpd.write`` fault-injection points simulate slow
and vanishing clients on either side of the application call.

:class:`ModelServer` is the embeddable form (tests, benchmarks: bind
port 0, ``start()``, talk HTTP, ``stop()``); :func:`serve_forever`
is the blocking form behind ``goldcase serve``.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus

from ..faults import FAULTS, FaultError, fault_point
from ..obs.recorder import RECORDER as _REC
from .app import REQUEST_ID_HEADER, ModelRepositoryApp

__all__ = ["ModelServer", "RepositoryHTTPServer", "make_handler",
           "make_server", "serve_forever", "MAX_BODY_BYTES",
           "MAX_HEADERS", "MAX_LINE_BYTES", "READ_TIMEOUT_S"]

#: Largest accepted request body; a PUT beyond this is answered 413.
#: Generous for model documents (the large benchmark model is ~1 MB).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Per-connection socket timeout: how long one blocking read (request
#: line, headers, or body) may stall before the connection is dropped
#: (mid-body stalls are answered 408 first).
READ_TIMEOUT_S = 30.0

#: Longest request line (414 past it) or header line (431), in bytes
#: with the line ending; the stdlib's ``http.client`` cap.
MAX_LINE_BYTES = 65536

#: Most header lines one request may carry (431 past it).
MAX_HEADERS = 100

SERVER_VERSION = "goldcase-repository/1.0"

_READ_FAULT = fault_point(
    "httpd.read", "raise/delay/corrupt around the request-body socket "
                  "read (httpd.py)")
_WRITE_FAULT = fault_point(
    "httpd.write", "raise/delay before the response bytes are written "
                   "(httpd.py)")

_METHODS = frozenset(("GET", "HEAD", "POST", "PUT", "DELETE"))
_STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n"
    for status in HTTPStatus}
_BLANK_LINES = (b"\r\n", b"\n")
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
#: Access-log escapes for control characters in a logged request line.
_CONTROL_CHARS = {code: f"\\x{code:02x}"
                  for code in (*range(0x20), 0x7f)}

#: (second, "Server: …\r\nDate: …\r\n"): the Date value changes once
#: a second, so it is formatted once a second.  Swapped as one tuple,
#: so threads never see a half-updated pair.
_fixed_headers = (0, "")


def _server_and_date() -> str:
    global _fixed_headers
    now = int(time.time())
    cached = _fixed_headers
    if cached[0] != now:
        cached = _fixed_headers = (
            now, f"Server: {SERVER_VERSION}\r\n"
                 f"Date: {formatdate(now, usegmt=True)}\r\n")
    return cached[1]


class _Reject(Exception):
    """A request the reader refuses; answered by ``_fail``, then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _http_version(version: str) -> tuple[int, int]:
    """``HTTP/<major>.<minor>`` as two ints; 400 for anything else."""
    major, dot, minor = version[5:].partition(".")
    if (version[:5] != "HTTP/" or not dot
            or not (major.isascii() and major.isdigit())
            or not (minor.isascii() and minor.isdigit())
            or len(major) > 10 or len(minor) > 10):
        raise _Reject(400, f"bad request version {version!r}")
    return int(major), int(minor)


class _RepositoryHandler(socketserver.StreamRequestHandler):
    """Reads HTTP/1.1 requests off one connection into ``app.handle``."""

    # Small responses + keep-alive hit the Nagle/delayed-ACK interaction
    # (~40 ms per request) unless the socket writes immediately.
    disable_nagle_algorithm = True
    #: socketserver applies this to the connection in setup(); stalls
    #: anywhere in the exchange then raise TimeoutError instead of
    #: parking the handler thread forever.
    timeout = READ_TIMEOUT_S

    # Set by make_server on the handler subclass.
    app: ModelRepositoryApp = None  # type: ignore[assignment]
    quiet = True
    max_body_bytes = MAX_BODY_BYTES

    def handle(self) -> None:
        """Serve requests off the connection until one closes it."""
        self.close_connection = False
        while not self.close_connection:
            self.command = self.path = None
            self.requestline = "-"
            try:
                request = self._read_request()
            except _Reject as reject:
                self._fail(reject.status, reject.message)
                return
            except OSError as exc:  # idle keep-alive timeout, reset
                if not self.quiet:
                    self._log(f"connection dropped reading a request: "
                              f"{exc!r}")
                return
            if request is None:  # the peer closed between requests
                return
            self._dispatch(*request)

    def _read_request(self) -> tuple | None:
        """``(method, path, headers, keep_alive, expect_continue)``.

        None at the end of the stream; raises :class:`_Reject` for a
        request that must be refused.
        """
        readline = self.rfile.readline
        line = readline(MAX_LINE_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_LINE_BYTES:
            raise _Reject(414, "request line too long")
        self.requestline = str(line, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3:
            raise _Reject(400, f"bad request line {self.requestline!r}")
        method, path, version = words
        self.command, self.path = method, path
        if version == "HTTP/1.1":
            keep_alive = http11 = True
        else:
            number = _http_version(version)
            if number[0] != 1:
                raise _Reject(505, f"HTTP version {version[5:]} is not "
                                   f"supported")
            keep_alive = http11 = number >= (1, 1)
        if path.startswith("//"):  # not a scheme-relative URL
            self.path = path = "/" + path.lstrip("/")

        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise _Reject(431, "header line too long")
            if not line or line in _BLANK_LINES:
                break
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                raise _Reject(400, f"malformed header line "
                                   f"{line[:80]!r}")
            headers[name.lower()] = value.strip()
        else:
            raise _Reject(431, f"more than {MAX_HEADERS} header lines")

        connection = headers.get("connection")
        if connection is not None:
            connection = connection.lower()
            if connection == "close":
                keep_alive = False
            elif connection == "keep-alive":
                keep_alive = True
        if method not in _METHODS:
            raise _Reject(501, f"unsupported method {method!r}")
        if "transfer-encoding" in headers:
            raise _Reject(501, "Transfer-Encoding is not supported; "
                               "send a Content-Length")
        expect = http11 and \
            headers.get("expect", "").lower() == "100-continue"
        return method, path, headers, keep_alive, expect

    def _read_body(self, headers: dict[str, str],
                   expect_continue: bool) -> bytes | None:
        """The request body, or None after an error response was sent."""
        raw_length = headers.get("content-length")
        if raw_length is None:
            return b""
        if not (raw_length.isascii() and raw_length.isdigit()):
            self._fail(400, f"invalid Content-Length {raw_length!r}")
            return None
        length = int(raw_length)
        if length > self.max_body_bytes:
            self._fail(413, f"request body of {length} bytes exceeds the "
                            f"{self.max_body_bytes}-byte limit")
            return None
        if not length:
            return b""
        try:
            if expect_continue:
                self.connection.sendall(_CONTINUE)
            body = self.rfile.read(length)
        except TimeoutError:
            self._fail(408, "timed out reading the request body")
            return None
        except OSError:
            self.close_connection = True  # the peer is gone
            return None
        if len(body) < length:
            self._fail(400, f"request body truncated at {len(body)} of "
                            f"{length} bytes")
            return None
        return body

    def _dispatch(self, method: str, path: str, headers: dict[str, str],
                  keep_alive: bool, expect_continue: bool) -> None:
        self.close_connection = not keep_alive
        body = self._read_body(headers, expect_continue)
        if body is None:
            return
        if FAULTS.enabled:
            try:
                body = FAULTS.hit(_READ_FAULT, body)
            except FaultError:
                # A vanished client: drop the exchange without a
                # response, exactly what a reset mid-read looks like.
                self.close_connection = True
                return
        try:
            response = self.app.handle(method, path, headers, body)
        except Exception as exc:  # the app must never kill the thread
            if _REC.enabled:
                _REC.count("server.http.app_error")
            if not self.quiet:
                self._log(f"application error on {method} {path}: "
                          f"{exc!r}")
            self._fail(500, "internal server error")
            return
        if FAULTS.enabled:
            try:
                FAULTS.hit(_WRITE_FAULT)
            except FaultError:
                self.close_connection = True  # drop before the write
                return
        self._respond(method, response.status, response.headers,
                      response.body)

    def _fail(self, status: int, message: str) -> None:
        """A JSON error response that always closes the connection.

        Used for transport-level failures (bad framing, timeouts,
        crashed application) where the connection state is no longer
        trustworthy enough for keep-alive.
        """
        body = (json.dumps({"error": message, "kind": "transport"},
                           sort_keys=True) + "\n").encode("utf-8")
        headers = [("Content-Type", "application/json; charset=utf-8")]
        if self.app is not None:
            # The app never saw this exchange; record it in telemetry
            # directly so transport rejections still get ids + counters.
            request_id = self.app.telemetry.transport_event(
                self.command or "-", self.path or "-", status, message)
            if request_id is not None:
                headers.append((REQUEST_ID_HEADER, request_id))
        self.close_connection = True
        self._respond(self.command, status, headers, body)

    def _respond(self, method: str | None, status: int,
                 headers: list[tuple[str, str]], body: bytes) -> None:
        """Send one response: its head and body in a single write."""
        lines = [_STATUS_LINES.get(status) or f"HTTP/1.1 {status} \r\n",
                 _server_and_date()]
        for name, value in headers:
            lines.append(f"{name}: {value}\r\n")
        if status != 304:  # RFC 9110 §8.6: a 304 has no Content-Length
            lines.append(f"Content-Length: {len(body)}\r\n")
        if self.close_connection:
            lines.append("Connection: close\r\n")
        lines.append("\r\n")
        head = "".join(lines).encode("iso-8859-1")
        if method == "HEAD" or status == 304:
            body = b""
        try:
            self._send(head, body)
        except OSError:
            self.close_connection = True  # peer vanished mid-write
        if not self.quiet:
            self._log(f'"{self.requestline.translate(_CONTROL_CHARS)}" '
                      f"{status} {len(body)}")
        if _REC.enabled:
            _REC.count("server.http.request_line")

    def _send(self, head: bytes, body: bytes) -> None:
        """Write *head* then *body* with one ``sendmsg`` when it fits.

        The two buffers go to the kernel side by side, so a page is
        never copied into a joined bytes object; a partial send (a full
        socket buffer) finishes with ``sendall`` on what is left.
        """
        sock = self.connection
        sent = sock.sendmsg((head, body))
        if sent < len(head):
            sock.sendall(head[sent:])
            sent = len(head)
        if sent - len(head) < len(body):
            sock.sendall(memoryview(body)[sent - len(head):])

    def _log(self, message: str) -> None:
        """One stderr line in the common log format's leading fields."""
        sys.stderr.write(
            f"{self.client_address[0]} - - "
            f"[{time.strftime('%d/%b/%Y %H:%M:%S')}] {message}\n")


def make_handler(app: ModelRepositoryApp, *, quiet: bool = True,
                 read_timeout_s: float = READ_TIMEOUT_S,
                 max_body_bytes: int = MAX_BODY_BYTES) -> type:
    """The request-handler class bound to *app*.

    Factored out of :func:`make_server` so alternate socket layers (the
    pre-fork worker servers in :mod:`repro.server.workers`) serve the
    exact same hardened handler.
    """
    return type("_BoundHandler", (_RepositoryHandler,),
                {"app": app, "quiet": quiet, "timeout": read_timeout_s,
                 "max_body_bytes": max_body_bytes})


class RepositoryHTTPServer(socketserver.ThreadingTCPServer):
    """The threaded server under every socket layer of the repository."""

    allow_reuse_address = True
    daemon_threads = True
    #: ``listen()`` backlog.  The stdlib default of 5 overflows under a
    #: burst of concurrent connects; the kernel then drops the SYNs and
    #: the clients retransmit only after about a second.
    request_queue_size = 128


def make_server(app: ModelRepositoryApp | None = None, *,
                host: str = "127.0.0.1", port: int = 0,
                quiet: bool = True,
                read_timeout_s: float = READ_TIMEOUT_S,
                max_body_bytes: int = MAX_BODY_BYTES
                ) -> tuple[RepositoryHTTPServer, ModelRepositoryApp]:
    """A bound (not yet serving) threaded server around *app*."""
    if app is None:
        app = ModelRepositoryApp()
    handler = make_handler(app, quiet=quiet,
                           read_timeout_s=read_timeout_s,
                           max_body_bytes=max_body_bytes)
    return RepositoryHTTPServer((host, port), handler), app


class ModelServer:
    """An embeddable server: ``start()`` in a thread, ``stop()`` cleanly."""

    def __init__(self, app: ModelRepositoryApp | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 quiet: bool = True,
                 read_timeout_s: float = READ_TIMEOUT_S,
                 max_body_bytes: int = MAX_BODY_BYTES) -> None:
        self.httpd, self.app = make_server(
            app, host=host, port=port, quiet=quiet,
            read_timeout_s=read_timeout_s, max_body_bytes=max_body_bytes)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the bound server (no trailing slash)."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ModelServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="goldcase-httpd",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.httpd.server_close()

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_forever(app: ModelRepositoryApp | None = None, *,
                  host: str = "127.0.0.1", port: int = 8040,
                  quiet: bool = False) -> None:
    """Blocking serve loop for the CLI; returns on KeyboardInterrupt."""
    server, _ = make_server(app, host=host, port=port, quiet=quiet)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
