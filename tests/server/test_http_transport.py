"""HTTP/1.1 transport conformance of the repository's request reader.

Three legs:

* a table of raw-socket exchanges, one per row, covering what the
  reader must keep from the stdlib handler it replaced: keep-alive
  rules, pipelining, ``Expect: 100-continue``, HEAD, 304, the line and
  header caps, 501/505, duplicate and mixed-case header names;
* rejection details: every refused request is a JSON error with a
  request id, ``Connection: close`` and a transport-error count, and a
  304 carries no ``Content-Length``;
* a Hypothesis leg: random request sequences (some pipelined) over one
  keep-alive connection, parsed by the stdlib ``http.client`` — code
  that shares nothing with the reader — must match what ``app.handle``
  returns for the same requests on a second, identical app.

A last test pins the write path: a response with a body leaves in one
``sendmsg`` that hands the body object to the kernel uncopied.
"""

from __future__ import annotations

import http.client
import json
import socket
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mdm import model_to_xml, sales_model
from repro.mdm.examples import two_facts_model
from repro.server import ModelRepositoryApp, ModelServer, Response
from repro.server.httpd import make_handler

SALES_XML = model_to_xml(sales_model()).encode("utf-8")
TWO_FACTS_XML = model_to_xml(two_facts_model()).encode("utf-8")
PAGE = "/site/sales/index.html"


@pytest.fixture(scope="module")
def server():
    with ModelServer(read_timeout_s=2.0) as running:
        connection = http.client.HTTPConnection(
            running.host, running.port, timeout=30)
        connection.request("PUT", "/models/sales", body=SALES_XML)
        assert connection.getresponse().read()
        connection.request("GET", PAGE)
        page = connection.getresponse()
        running.page = page.read()
        running.etag = page.getheader("ETag")
        connection.close()
        yield running


@dataclass
class Reply:
    status: int
    headers: list[tuple[str, str]]
    body: bytes

    def header(self, name: str) -> str | None:
        for key, value in self.headers:
            if key.lower() == name.lower():
                return value
        return None


def _read_reply(reader, method: str = "GET") -> Reply:
    """One response off *reader*, framed by status and Content-Length."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1."), status_line[:80]
    status = int(status_line.split(b" ", 2)[1])
    headers = []
    while True:
        line = reader.readline()
        assert line, "connection closed inside a header block"
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers.append((name, value.strip()))
    reply = Reply(status, headers, b"")
    if method != "HEAD" and status != 304 and status >= 200:
        reply.body = reader.read(int(reply.header("Content-Length")))
    return reply


def _connect(server, timeout: float = 10.0):
    sock = socket.create_connection((server.host, server.port),
                                    timeout=timeout)
    return sock, sock.makefile("rb")


def _closed(sock, reader) -> bool:
    """True when the server closes the connection within a second, far
    sooner than the fixture server's 2 s idle timeout would."""
    sock.settimeout(1.0)
    try:
        return reader.read(1) == b""
    except ConnectionResetError:
        return True
    except TimeoutError:
        return False


def _assert_open(sock, reader) -> None:
    """A follow-up request is answered on the same connection, which
    also proves no stray body bytes were left on the wire."""
    sock.sendall(b"GET /models HTTP/1.1\r\nHost: h\r\n\r\n")
    reply = _read_reply(reader)
    assert reply.status == 200
    assert b'"models"' in reply.body


@dataclass(frozen=True)
class Row:
    """One raw exchange: bytes sent, replies expected, connection fate.

    ``@ETAG@`` in *send* becomes the ETag of :data:`PAGE`.  With
    *body*, the request head is sent alone, a ``100 Continue`` must
    come back, and only then is *body* sent.
    """

    name: str
    send: bytes
    methods: tuple[str, ...]
    statuses: tuple[int, ...]
    closes: bool
    body: bytes | None = None


ROWS = [
    Row("http11_persists_by_default",
        b"GET /models HTTP/1.1\r\nHost: h\r\n\r\n",
        ("GET",), (200,), closes=False),
    Row("http11_connection_close_closes",
        b"GET /models HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        ("GET",), (200,), closes=True),
    Row("http10_closes_by_default",
        b"GET /models HTTP/1.0\r\n\r\n",
        ("GET",), (200,), closes=True),
    Row("http10_keep_alive_persists",
        b"GET /models HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        ("GET",), (200,), closes=False),
    Row("pipelined_requests_answered_in_order",
        b"GET /models/sales HTTP/1.1\r\nHost: h\r\n\r\n"
        b"GET /nope HTTP/1.1\r\nHost: h\r\n\r\n"
        b"HEAD /models/sales HTTP/1.1\r\nHost: h\r\n\r\n"
        b"GET /site/sales/index.html HTTP/1.1\r\nHost: h\r\n"
        b"If-None-Match: @ETAG@\r\n\r\n"
        b"PUT /models/piped HTTP/1.1\r\nHost: h\r\n"
        b"Content-Length: 5\r\n\r\nnot-x"
        b"GET /models HTTP/1.1\r\nHost: h\r\n\r\n",
        ("GET", "GET", "HEAD", "GET", "PUT", "GET"),
        (200, 404, 200, 304, 400, 200), closes=False),
    Row("expect_100_continue_before_the_body",
        b"PUT /models/expected HTTP/1.1\r\nHost: h\r\n"
        b"Expect: 100-continue\r\n"
        b"Content-Length: %d\r\n\r\n" % len(SALES_XML),
        ("PUT",), (201,), closes=False, body=SALES_XML),
    Row("head_has_length_but_no_body",
        b"HEAD /site/sales/index.html HTTP/1.1\r\nHost: h\r\n\r\n",
        ("HEAD",), (200,), closes=False),
    Row("conditional_get_is_a_bodiless_304",
        b"GET /site/sales/index.html HTTP/1.1\r\nHost: h\r\n"
        b"If-None-Match: @ETAG@\r\n\r\n",
        ("GET",), (304,), closes=False),
    Row("duplicate_header_last_value_wins",
        b"GET /site/sales/index.html HTTP/1.1\r\nHost: h\r\n"
        b"If-None-Match: \"stale\"\r\nIf-None-Match: @ETAG@\r\n\r\n",
        ("GET",), (304,), closes=False),
    Row("header_names_are_case_insensitive",
        b"GET /site/sales/index.html HTTP/1.1\r\nhOsT: h\r\n"
        b"iF-nOnE-mAtCh: @ETAG@\r\ncOnNeCtIoN: ClOsE\r\n\r\n",
        ("GET",), (304,), closes=True),
    Row("four_word_request_line_is_400",
        b"GET /\x01 oops HTTP/1.1\r\n\r\n",
        ("GET",), (400,), closes=True),
    Row("request_line_over_64k_is_414",
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        ("GET",), (414,), closes=True),
    Row("header_line_over_64k_is_431",
        b"GET / HTTP/1.1\r\nX-Padding: " + b"a" * 70_000 + b"\r\n\r\n",
        ("GET",), (431,), closes=True),
    Row("over_100_header_lines_is_431",
        b"GET / HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % index for index in range(150))
        + b"\r\n",
        ("GET",), (431,), closes=True),
    Row("unknown_method_is_501",
        b"BREW /pot HTTP/1.1\r\nHost: h\r\n\r\n",
        ("BREW",), (501,), closes=True),
    # The stdlib answered the next four rows without a status line.
    Row("one_word_request_line_is_400",
        b"GARBAGE\r\n\r\n", ("GET",), (400,), closes=True),
    Row("two_word_request_line_is_400",
        b"GET /models\r\n\r\n", ("GET",), (400,), closes=True),
    Row("malformed_version_is_400",
        b"GET / HTTP/one\r\n\r\n", ("GET",), (400,), closes=True),
    Row("http2_is_505",
        b"GET / HTTP/2.0\r\n\r\n", ("GET",), (505,), closes=True),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_raw_exchange(server, row: Row):
    sock, reader = _connect(server)
    with sock, reader:
        sock.sendall(row.send.replace(b"@ETAG@", server.etag.encode()))
        if row.body is not None:
            interim = reader.readline()
            assert interim.startswith(b"HTTP/1.1 100 "), interim
            assert reader.readline() == b"\r\n"
            sock.sendall(row.body)
        replies = [_read_reply(reader, method) for method in row.methods]
        assert tuple(reply.status for reply in replies) == row.statuses
        for method, reply in zip(row.methods, replies):
            if reply.status == 304 or method == "HEAD":
                assert reply.body == b""
        if row.name == "head_has_length_but_no_body":
            assert int(replies[0].header("Content-Length")) == \
                len(server.page)
        if row.name == "pipelined_requests_answered_in_order":
            assert replies[0].body == SALES_XML
            assert replies[2].header("Content-Length") == \
                str(len(SALES_XML))
        if row.closes:
            assert _closed(sock, reader)
        else:
            _assert_open(sock, reader)


REJECTIONS = {
    "one_word_request_line": b"GARBAGE\r\n\r\n",
    "two_word_request_line": b"GET /models\r\n\r\n",
    "four_word_request_line": b"GET /\x01 oops HTTP/1.1\r\n\r\n",
    "request_line_over_64k": b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
    "header_line_over_64k":
        b"GET / HTTP/1.1\r\nX-Padding: " + b"a" * 70_000 + b"\r\n\r\n",
    "over_100_header_lines": b"GET / HTTP/1.1\r\n" + b"".join(
        b"X-H%d: v\r\n" % index for index in range(150)) + b"\r\n",
    "unknown_method": b"BREW /pot HTTP/1.1\r\nHost: h\r\n\r\n",
    "http2": b"GET / HTTP/2.0\r\n\r\n",
    "bad_content_length":
        b"PUT /models/x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    "oversized_body":
        b"PUT /models/x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
    # Stricter than the stdlib handler, which read past both.
    "header_line_without_colon":
        b"GET /models HTTP/1.1\r\nHost: h\r\nno colon here\r\n\r\n",
    "chunked_body": b"PUT /models/x HTTP/1.1\r\nHost: h\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
}


@pytest.mark.parametrize("payload", REJECTIONS.values(), ids=REJECTIONS)
def test_every_rejection_is_a_counted_json_error(server, payload):
    counter = server.app.telemetry.window
    before = counter.total("http.transport_error")
    sock, reader = _connect(server)
    with sock, reader:
        sock.sendall(payload)
        reply = _read_reply(reader)
        assert _closed(sock, reader)
    assert 400 <= reply.status < 600
    assert reply.header("Content-Type").startswith("application/json")
    assert json.loads(reply.body)["kind"] == "transport"
    assert reply.header("X-Goldcase-Request-Id")
    assert reply.header("Connection") == "close"
    assert counter.total("http.transport_error") == before + 1


def test_304_carries_no_content_length(server):
    sock, reader = _connect(server)
    with sock, reader:
        sock.sendall(b"GET /site/sales/index.html HTTP/1.1\r\nHost: h\r\n"
                     b"If-None-Match: %s\r\n\r\n" % server.etag.encode())
        reply = _read_reply(reader)
    assert reply.status == 304
    assert reply.header("ETag") == server.etag
    assert reply.header("Content-Length") is None


# -- differential leg: the wire vs app.handle --------------------------------

_BODIES = (SALES_XML, TWO_FACTS_XML, b"<broken")
_READ_PATHS = ("/models", "/models/sales", "/models/alt", PAGE,
               "/site/alt/index.html", "/bundle/sales/model.xml",
               "/nope")
_EXCLUDED = {"date", "server", "content-length", "connection",
             "x-goldcase-request-id"}

_request = st.one_of(
    st.tuples(st.sampled_from(("GET", "HEAD")),
              st.sampled_from(_READ_PATHS), st.booleans(), st.just(0),
              st.booleans()),
    st.tuples(st.just("PUT"), st.sampled_from(("/models/sales",
                                               "/models/alt")),
              st.just(False), st.integers(0, len(_BODIES) - 1),
              st.booleans()),
    st.tuples(st.just("DELETE"), st.sampled_from(("/models/sales",
                                                  "/models/alt")),
              st.just(False), st.just(0), st.booleans()),
)


class _SharedReader:
    """Hands one buffered reader to successive ``HTTPResponse`` objects.

    ``http.client`` reads a response through ``sock.makefile`` and
    closes that file when the body is done; pipelined replies share one
    buffer, so the file given out is never closed.
    """

    def __init__(self, reader) -> None:
        self._reader = reader

    def makefile(self, *_args, **_kwargs):
        return self

    def close(self) -> None:
        pass

    def __getattr__(self, name):
        return getattr(self._reader, name)


@pytest.fixture(scope="module")
def blank_server():
    with ModelServer() as running:
        yield running


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(requests=st.lists(_request, min_size=1, max_size=12))
def test_wire_replies_match_app_handle(blank_server, requests):
    """Random requests over one keep-alive connection; a request drawn
    with ``pipelined`` goes out together with the one before it, and
    one drawn ``conditional`` carries the ETag a GET would get now."""
    # Each example starts both sides from an empty repository: the
    # served app is swapped on the bound handler class.
    blank_server.httpd.RequestHandlerClass.app = ModelRepositoryApp()
    oracle = ModelRepositoryApp()
    batches: list[list[tuple[str, Response, bytes]]] = []
    for method, path, conditional, body_index, pipelined in requests:
        headers = {"Host": "h"}
        body = _BODIES[body_index] if method == "PUT" else b""
        if method == "PUT":
            headers["Content-Length"] = str(len(body))
        if conditional:
            # A GET changes no state that any drawn path serves.
            headers["If-None-Match"] = \
                oracle.handle("GET", path).header("ETag") or '"none"'
        expected = oracle.handle(method, path, headers, body)
        wire = f"{method} {path} HTTP/1.1\r\n".encode() + b"".join(
            f"{name}: {value}\r\n".encode() for name, value in
            headers.items()) + b"\r\n" + body
        if pipelined and batches:
            batches[-1].append((method, expected, wire))
        else:
            batches.append([(method, expected, wire)])

    with socket.create_connection(
            (blank_server.host, blank_server.port), timeout=30) as sock:
        shared = _SharedReader(sock.makefile("rb"))
        for batch in batches:
            sock.sendall(b"".join(wire for _, _, wire in batch))
            for method, expected, _ in batch:
                reply = http.client.HTTPResponse(shared, method=method)
                reply.begin()
                body = reply.read()
                assert reply.status == expected.status
                assert not reply.will_close
                got = [(name, value) for name, value in reply.getheaders()
                       if name.lower() not in _EXCLUDED]
                want = [(name, value) for name, value in expected.headers
                        if name.lower() not in _EXCLUDED]
                assert got == want
                if method == "HEAD" or expected.status == 304:
                    assert body == b""
                else:
                    assert body == expected.body
                length = reply.getheader("Content-Length")
                if expected.status == 304:
                    assert length is None
                else:
                    assert length == str(len(expected.body))


# -- the write path -----------------------------------------------------------

class _CountingSocket:
    """A socket wrapper that records every write the handler makes."""

    def __init__(self, sock: socket.socket,
                 sendmsg_limit: int | None = None) -> None:
        self._sock = sock
        #: When set, ``sendmsg`` sends at most this many bytes, as a
        #: kernel with a nearly full socket buffer would.
        self.sendmsg_limit = sendmsg_limit
        self.writes: list[tuple[str, object]] = []

    def sendmsg(self, buffers, *args):
        buffers = list(buffers)
        self.writes.append(("sendmsg", buffers))
        if self.sendmsg_limit is not None:
            return self._sock.send(b"".join(buffers)[:self.sendmsg_limit])
        return self._sock.sendmsg(buffers, *args)

    def sendall(self, data, *args):
        self.writes.append(("sendall", data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self.writes.append(("send", data))
        return self._sock.send(data, *args)

    def setsockopt(self, *_args) -> None:
        pass  # TCP_NODELAY has no meaning on a Unix-domain pair

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _StubApp:
    """Answers every request with one fixed 200 body."""

    def __init__(self, body: bytes) -> None:
        self.body = body
        self.telemetry = None

    def handle(self, method, path, headers, body) -> Response:
        return Response(200, self.body, [("Content-Type", "text/plain")])


def _serve_one(counting: _CountingSocket, client_side: socket.socket,
               body: bytes) -> Reply:
    """Run the bound handler over *counting* for one GET; the reply."""
    client_side.settimeout(10)
    client_side.sendall(b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n")
    client_side.shutdown(socket.SHUT_WR)  # the next read is EOF
    make_handler(_StubApp(body))(counting, ("local", 0), None)
    counting.close()  # what the server does once the handler returns
    with client_side.makefile("rb") as reader:
        return _read_reply(reader)


def test_a_200_with_a_body_is_one_sendmsg_of_the_uncopied_body():
    body = b"page bytes " * 500
    server_side, client_side = socket.socketpair()
    with server_side, client_side:
        counting = _CountingSocket(server_side)
        reply = _serve_one(counting, client_side, body)
    assert reply.status == 200 and reply.body == body
    assert [kind for kind, _ in counting.writes] == ["sendmsg"]
    head, sent = counting.writes[0][1]
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    assert sent is body


@pytest.mark.parametrize("limit", [10, 1000], ids=["in_head", "in_body"])
def test_a_partial_sendmsg_is_finished_by_sendall(limit):
    body = b"page bytes " * 500
    server_side, client_side = socket.socketpair()
    with server_side, client_side:
        counting = _CountingSocket(server_side, sendmsg_limit=limit)
        reply = _serve_one(counting, client_side, body)
    assert reply.status == 200 and reply.body == body
    assert counting.writes[0][0] == "sendmsg"
    assert {kind for kind, _ in counting.writes[1:]} == {"sendall"}
