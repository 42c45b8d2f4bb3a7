"""Loopback network stack for the simulated kernel.

Supports two kinds of peers:

* **in-simulation servers** (the Golite HTTP servers): they ``bind`` /
  ``listen`` / ``accept`` / ``recvfrom`` / ``sendto`` through system
  calls, and blocking operations park the calling goroutine until the
  network wakes it;
* **host-level services** (the simulated Postgres, the attacker's
  "remote" exfiltration collector): Python objects registered on a port
  whose ``on_data`` callback runs synchronously when bytes arrive.

Addresses are ``(ip: int, port: int)`` pairs; ``ip`` is an IPv4 address
packed into an int (see :func:`ip_of`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.errors import ConfigError
from repro.os import errno


def ip_of(dotted: str) -> int:
    """Pack ``"127.0.0.1"`` into an integer address."""
    octets = dotted.split(".")
    # Validate before int(): a non-numeric octet like "1.2.x.4" must
    # raise ConfigError, not leak the bare ValueError from int().
    if len(octets) != 4 or not all(p.isdigit() for p in octets):
        raise ConfigError(f"bad IPv4 address {dotted!r}")
    parts = [int(p) for p in octets]
    if any(not 0 <= p < 256 for p in parts):
        raise ConfigError(f"bad IPv4 address {dotted!r}")
    value = 0
    for part in parts:
        value = (value << 8) | part
    return value


def ip_str(ip: int) -> str:
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


LOCALHOST = ip_of("127.0.0.1")


class Service(Protocol):
    """A host-level network service attached to a port."""

    def on_connect(self, endpoint: "Endpoint") -> None: ...

    def on_data(self, endpoint: "Endpoint") -> None: ...


@dataclass
class Endpoint:
    """One side of a connection: a receive buffer plus a peer link."""

    conn: "Connection"
    side: int  # 0 or 1
    rx: bytearray = field(default_factory=bytearray)
    closed: bool = False
    #: Poll wait keys watching this endpoint for readiness (``SYS_POLL``
    #: parks here when nothing is ready); woken and cleared on delivery.
    watchers: set = field(default_factory=set)

    @property
    def peer(self) -> "Endpoint":
        return self.conn.endpoints[1 - self.side]

    @property
    def wait_key(self) -> tuple:
        return ("net_rx", id(self))

    def send(self, data: bytes) -> int:
        """Deliver bytes to the peer's receive buffer.

        Writing on a locally-closed stream is ``EPIPE``; writing after
        the peer went away is ``ECONNRESET`` — distinct from the
        ``ECONNREFUSED`` a connection *attempt* gets, so load generators
        can tell resets from capacity exhaustion.
        """
        if self.closed:
            return -errno.EPIPE
        if self.peer.closed:
            return -errno.ECONNRESET
        self.peer.rx.extend(data)
        network = self.conn.network
        if network.obs is not None:
            # Before delivery, which may run a host-side recorder
            # synchronously.
            network.obs.on_wire_send(self)
        network._delivered(self.peer)
        return len(data)

    def recv(self, count: int) -> bytes | int | None:
        """Take up to ``count`` buffered bytes.

        Returns ``b""`` at orderly EOF (peer closed, buffer drained),
        a negative errno after a *local* close (a dead socket must
        error, not fake EOF), and ``None`` when the caller should block.
        """
        if self.closed:
            return -errno.EBADF
        if self.rx:
            data = bytes(self.rx[:count])
            del self.rx[:count]
            return data
        if self.peer.closed:
            return b""
        return None

    def close(self) -> None:
        self.closed = True
        network = self.conn.network
        network._delivered(self.peer)  # wake peer (sees EOF)
        # A poller watching *this* side must also re-check: readiness now
        # reports "ready" (its next op will error rather than hang).
        network._wake_watchers(self.watchers)


@dataclass
class Connection:
    """A bidirectional byte stream between two endpoints."""

    network: "Network"
    remote_ip: int
    remote_port: int
    endpoints: list[Endpoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.endpoints = [Endpoint(self, 0), Endpoint(self, 1)]

    @property
    def client(self) -> Endpoint:
        return self.endpoints[0]

    @property
    def server(self) -> Endpoint:
        return self.endpoints[1]


@dataclass
class Listener:
    """An in-simulation listening socket's accept queue.

    ``pending`` is a deque: open-loop load builds deep accept queues and
    a list consumed with ``pop(0)`` is O(n) per accept — quadratic over
    a burst.
    """

    port: int
    backlog: int
    pending: deque = field(default_factory=deque)
    #: Poll wait keys watching this listener (see ``Endpoint.watchers``).
    watchers: set = field(default_factory=set)

    @property
    def wait_key(self) -> tuple:
        return ("net_accept", self.port)


class Network:
    """The loopback network fabric."""

    def __init__(self) -> None:
        self._listeners: dict[int, Listener] = {}
        self._services: dict[tuple[int, int], Service] = {}
        self._service_endpoints: dict[int, Service] = {}
        self.waker: Callable[[tuple], None] | None = None
        self.connections_log: list[tuple[int, int]] = []
        #: Observer bus (repro.obs), wired by the machine: wire sends,
        #: accept-queue depth changes and refusals.
        self.obs = None

    # -- host-side wiring -------------------------------------------------

    def register_service(self, ip: int, port: int, service: Service) -> None:
        """Attach a Python-level service to ``(ip, port)``."""
        self._services[(ip, port)] = service

    def _wake(self, key: tuple) -> None:
        if self.waker is not None:
            self.waker(key)

    def _wake_watchers(self, watchers: set) -> None:
        """Wake every parked poller watching a socket, then forget them
        (a poller that blocks again re-registers its key)."""
        if watchers:
            for key in watchers:
                self._wake(key)
            watchers.clear()

    def _delivered(self, endpoint: Endpoint) -> None:
        """Bytes arrived at ``endpoint``: wake sim waiters / run services."""
        service = self._service_endpoints.get(id(endpoint))
        if service is not None:
            service.on_data(endpoint)
        else:
            self._wake(endpoint.wait_key)
            self._wake_watchers(endpoint.watchers)

    def _backlog_changed(self, listener: Listener) -> None:
        if self.obs is not None:
            self.obs.on_accept_queue(listener.port, len(listener.pending))

    # -- kernel-facing operations ------------------------------------------

    def bind_listen(self, port: int, backlog: int) -> Listener | int:
        if port in self._listeners or (LOCALHOST, port) in self._services:
            return -errno.EADDRINUSE
        listener = Listener(port, backlog)
        self._listeners[port] = listener
        return listener

    def unbind(self, port: int) -> None:
        """Tear down a listener, draining its accept queue.

        Queued connections were never accepted: close their server
        endpoints so the clients parked in recv observe EOF/reset
        instead of hanging forever on a listener that no longer exists.
        """
        listener = self._listeners.pop(port, None)
        if listener is None:
            return
        while listener.pending:
            conn = listener.pending.popleft()
            conn.server.close()
        self._wake_watchers(listener.watchers)
        self._backlog_changed(listener)

    def connect(self, ip: int, port: int) -> Connection | int:
        """Open a connection from inside the simulation (or from a host
        load generator) to ``(ip, port)``."""
        self.connections_log.append((ip, port))
        service = self._services.get((ip, port))
        if service is not None:
            conn = Connection(self, ip, port)
            self._service_endpoints[id(conn.server)] = service
            service.on_connect(conn.server)
            return conn
        listener = self._listeners.get(port)
        if listener is not None and ip == LOCALHOST:
            if len(listener.pending) >= listener.backlog:
                if self.obs is not None:
                    self.obs.on_refused(port)
                return -errno.ECONNREFUSED
            conn = Connection(self, ip, port)
            listener.pending.append(conn)
            self._backlog_changed(listener)
            self._wake(listener.wait_key)
            self._wake_watchers(listener.watchers)
            return conn
        return -errno.ECONNREFUSED

    def accept(self, listener: Listener) -> Connection | None:
        """Dequeue a pending connection; ``None`` if the caller should block."""
        if listener.pending:
            conn = listener.pending.popleft()
            self._backlog_changed(listener)
            return conn
        return None

    def shed_excess(self, listener: Listener) -> int:
        """Refuse the newest pending connections above the backlog.

        Called when ``listen()`` shrinks the backlog below the current
        queue depth: the excess is reset (server endpoint closed) rather
        than letting the queue silently exceed its bound.  Returns the
        number shed.
        """
        shed = 0
        while len(listener.pending) > listener.backlog:
            conn = listener.pending.pop()
            conn.server.close()
            shed += 1
            if self.obs is not None:
                self.obs.on_refused(listener.port)
        if shed:
            self._backlog_changed(listener)
        return shed


class CollectorService:
    """A generic host service that records everything it receives.

    Used as the attacker-controlled "remote server" in the §6.5 study and
    as a simple echo peer in tests.
    """

    def __init__(self, reply: bytes = b"") -> None:
        self.received = bytearray()
        self.connections = 0
        self.reply = reply

    def on_connect(self, endpoint: Endpoint) -> None:
        self.connections += 1

    def on_data(self, endpoint: Endpoint) -> None:
        data = endpoint.recv(1 << 20)
        if isinstance(data, bytes) and data:
            self.received.extend(data)
            if self.reply:
                endpoint.send(self.reply)
