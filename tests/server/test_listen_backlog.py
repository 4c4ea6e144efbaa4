"""The listen backlog: a burst of concurrent connects must not stall.

With the stdlib backlog of 5 the kernel drops the SYNs past the sixth
pending connection, and each dropped client waits about a second for
its retransmit.  Every socket layer of the repository builds on
:class:`RepositoryHTTPServer`, so pinning its backlog covers them all.
"""

from __future__ import annotations

import socket

from repro.server.httpd import RepositoryHTTPServer, make_server
from repro.server.workers import _InheritedSocketServer, _ReusePortServer

BURST = 32


def test_every_socket_layer_shares_the_backlog():
    assert RepositoryHTTPServer.request_queue_size == 128
    assert issubclass(_ReusePortServer, RepositoryHTTPServer)
    assert issubclass(_InheritedSocketServer, RepositoryHTTPServer)


def test_connect_burst_is_queued_without_accepting():
    # The server listens but never accepts: every connect must still
    # complete from the kernel's queue well inside the SYN retransmit.
    server, _app = make_server()
    clients: list[socket.socket] = []
    try:
        for _ in range(BURST):
            clients.append(socket.create_connection(
                server.server_address, timeout=0.5))
    finally:
        for client in clients:
            client.close()
        server.server_close()
    assert len(clients) == BURST
