"""Thin client for the extraction service (see :mod:`.protocol`).

:class:`ServiceClient` speaks the NDJSON wire format over TCP or an
``AF_UNIX`` socket.  Two usage styles:

- **blocking** — :meth:`apply` / :meth:`learn` / :meth:`stats` /
  :meth:`ping` send one request and wait for *its* response (responses
  for other in-flight requests received meanwhile are buffered, not
  lost);
- **pipelined** — :meth:`submit` returns the request id immediately;
  :meth:`wait` collects a specific response and :meth:`drain` collects
  everything outstanding, in arrival order.  This is how a tenant
  saturates its admission budget.

Failure semantics: every transport problem surfaces as a subclass of
:class:`ServiceError` — :class:`TransportError` for broken/refused/
truncated connections, :class:`RequestTimeout` for a blown socket
timeout or a server-side deadline answer, :class:`ServerDraining` for
a request refused by a generation on its way out — each carrying the
``request_id`` it interrupted where one is known.

With ``retries > 0`` (the default) the client *recovers* instead of
raising: on a broken connection it reconnects with exponential backoff
plus jitter and **replays every unanswered request** (requests carry
ids and the server's operations are idempotent — apply is pure,
learn deduplicates through the registry's single-flight — so a replay
can duplicate work but never a result).  A ``draining`` refusal is
treated the same way: the request is held as unanswered and replayed
against the next generation to bind the address.  Acknowledged
responses are never replayed, so results are exactly-once at the
client boundary.

One client is one tenant: the server's per-client fairness budget
applies per connection.  Not thread-safe — use one client per thread
(cheap) or serialize externally.
"""

from __future__ import annotations

import random
import socket
import time
from collections import OrderedDict

from repro.service import protocol

__all__ = [
    "RequestTimeout",
    "ServerDraining",
    "ServiceClient",
    "ServiceError",
    "TransportError",
]


class ServiceError(RuntimeError):
    """A failed request (``ok: false``) or a broken connection."""

    def __init__(
        self,
        message: str,
        response: dict | None = None,
        request_id: int | None = None,
    ) -> None:
        super().__init__(message)
        self.response = response
        self.request_id = request_id


class TransportError(ServiceError):
    """The connection broke: refused, reset, closed, or a frame was
    truncated mid-wire.  Raised only once reconnect attempts (if any)
    are exhausted."""


class RequestTimeout(ServiceError):
    """No answer in time: a blown socket timeout, or the server's own
    per-request deadline answered with ``code: "deadline"``."""


class ServerDraining(ServiceError):
    """The server refused the request because it is draining for
    restart (``code: "draining"``).  Only surfaces with retries
    disabled — a retrying client replays against the next
    generation transparently."""


class ServiceClient:
    """Blocking/pipelined NDJSON client for one server connection.

    Args:
        address: ``(host, port)`` tuple, or a filesystem path string
            for an ``AF_UNIX`` socket (matches
            :attr:`ExtractionServer.address`).
        timeout: socket timeout in seconds for connect and reads.
        retries: reconnect attempts per recovery episode before the
            underlying :class:`TransportError` propagates.  ``0``
            disables recovery entirely (every transport failure and
            draining refusal raises immediately).
        backoff: initial reconnect delay in seconds; doubles per
            attempt up to ``backoff_max``, with up to ``jitter``
            (fraction of the delay) of random spread so a thundering
            herd of clients does not reconnect in lockstep.
        jitter_seed: seed for the backoff jitter stream (tests).
    """

    def __init__(
        self,
        address: tuple[str, int] | str,
        timeout: float = 60.0,
        retries: int = 5,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        jitter: float = 0.5,
        jitter_seed: int | None = None,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        self.jitter = jitter
        self._rng = random.Random(jitter_seed)
        self._pending: dict[object, dict] = {}
        #: Unanswered requests by id, in send order — the replay log.
        self._sent: "OrderedDict[int, dict]" = OrderedDict()
        self._next_id = 0
        self._closed = False
        #: Recovery telemetry: completed reconnect episodes.
        self.reconnects = 0
        #: Requests replayed across all recoveries.
        self.replays = 0
        self._sock: socket.socket | None = None
        self._frames = None
        try:
            self._connect()
        except OSError as error:
            raise TransportError(
                f"cannot connect to extraction service at {address!r}: {error}"
            ) from error

    def _connect(self) -> None:
        address = self.address
        if isinstance(address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            # Pipelined requests are small frames: send each at once
            # instead of holding it for the previous one's ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.timeout)
        try:
            sock.connect(address if isinstance(address, str) else tuple(address))
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._frames = protocol.read_frames(sock)

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._frames = None

    def _recover(self, cause: Exception, request_id: int | None = None) -> None:
        """Reconnect with backoff + jitter, then replay the send log.

        Raises :class:`TransportError` (chained to ``cause``) once
        ``retries`` attempts are spent.  Replayed frames keep their
        original request ids, so responses pair up exactly as if the
        connection had never broken.
        """
        if self.retries <= 0 or self._closed:
            if isinstance(cause, ServiceError):
                raise cause
            raise TransportError(
                f"connection lost: {cause}", request_id=request_id
            ) from cause
        self._drop_connection()
        attempt = 0
        while True:
            attempt += 1
            delay = min(self.backoff * (2 ** (attempt - 1)), self.backoff_max)
            time.sleep(delay * (1.0 + self.jitter * self._rng.random()))
            try:
                self._connect()
                for record in self._sent.values():
                    self._sock.sendall(protocol.encode_frame(record))
            except OSError as error:
                self._drop_connection()
                if attempt >= self.retries:
                    raise TransportError(
                        f"reconnect to {self.address!r} failed after "
                        f"{attempt} attempts: {error}",
                        request_id=request_id,
                    ) from cause
                continue
            break
        self.reconnects += 1
        self.replays += len(self._sent)

    # -- pipelined API -----------------------------------------------------

    def submit(self, op: str, **fields) -> int:
        """Send one request without waiting; returns its request id."""
        if self._closed:
            raise ServiceError("client is closed")
        self._next_id += 1
        request_id = self._next_id
        record = {"op": op, "id": request_id, **fields}
        protocol.validate_request(record)
        self._sent[request_id] = record
        try:
            self._sock.sendall(protocol.encode_frame(record))
        except OSError as error:
            # The request is in the send log: recovery replays it.
            self._recover(error, request_id)
        return request_id

    def recv(self) -> dict:
        """The next response off the wire (whatever request it answers).

        Raw receive: normalizes errors but does **not** recover — use
        :meth:`wait` / :meth:`drain` for replay-transparent collection.
        An acknowledged response is struck from the replay log here, so
        a later reconnect can never duplicate it.
        """
        try:
            record = next(self._frames)
        except StopIteration:
            raise TransportError("server closed the connection") from None
        except socket.timeout as error:
            raise RequestTimeout(
                f"no response within {self.timeout}s: {error}"
            ) from error
        except OSError as error:
            raise TransportError(f"receive failed: {error}") from error
        except protocol.ProtocolError as error:
            # A peer death mid-frame surfaces as a truncated/partial
            # line; the frame never completed, so the request it would
            # have answered stays in the replay log.
            raise TransportError(f"truncated or corrupt frame: {error}") from error
        if not (record.get("code") == protocol.CODE_DRAINING and self.retries > 0):
            # A draining refusal with retries enabled is not an answer —
            # the request stays queued for the next generation.
            self._sent.pop(record.get("id"), None)
        return record

    def wait(self, request_id: int) -> dict:
        """Block until the response for ``request_id`` arrives.

        Transparently rides out connection loss (reconnect + replay)
        and draining generations while retries remain.
        """
        drain_refusals = 0
        while True:
            response = self._pending.pop(request_id, None)
            if response is not None:
                return response
            try:
                record = self.recv()
            except RequestTimeout as error:
                error.request_id = request_id
                raise
            except TransportError as error:
                self._recover(error, request_id)
                continue
            rid = record.get("id")
            if record.get("code") == protocol.CODE_DRAINING and self.retries > 0:
                # The request was refused, not failed: it is still in
                # the replay log (recv leaves it there) — reconnect and
                # chase the next generation, up to ``retries`` episodes.
                drain_refusals += 1
                if drain_refusals > self.retries:
                    self._sent.pop(rid, None)
                    raise ServerDraining(
                        str(record.get("error", "server is draining")),
                        record,
                        request_id=rid,
                    )
                self._recover(
                    ServerDraining("server is draining", record, request_id=rid),
                    rid,
                )
                continue
            if rid == request_id:
                return record
            self._pending[rid] = record

    def drain(self, count: int) -> list[dict]:
        """Collect ``count`` responses (buffered first, then the wire)."""
        collected: list[dict] = []
        while self._pending and len(collected) < count:
            collected.append(self._pending.pop(next(iter(self._pending))))
        while len(collected) < count:
            try:
                collected.append(self.recv())
            except TransportError as error:
                self._recover(error)
        return collected

    # -- blocking API ------------------------------------------------------

    def request(self, op: str, **fields) -> dict:
        """Send one request, wait for its response, raise on failure.

        Failure responses raise by ``code``: ``deadline`` →
        :class:`RequestTimeout`, ``draining`` →
        :class:`ServerDraining` (retries exhausted/disabled), anything
        else → :class:`ServiceError`.
        """
        request_id = self.submit(op, **fields)
        response = self.wait(request_id)
        if not response.get("ok"):
            message = str(response.get("error", "request failed"))
            code = response.get("code")
            if code == protocol.CODE_DEADLINE:
                raise RequestTimeout(message, response, request_id=request_id)
            if code == protocol.CODE_DRAINING:
                raise ServerDraining(message, response, request_id=request_id)
            raise ServiceError(message, response, request_id=request_id)
        return response

    def apply(self, site: str, pages: list[str], texts: bool = False) -> dict:
        """Extract from ``pages``; the server resolves (or learns) the
        wrapper.  Returns the apply response payload."""
        fields = {"site": site, "pages": list(pages)}
        if texts:
            fields["texts"] = True
        return self.request("apply", **fields)

    def learn(self, site: str, pages: list[str], force: bool = False) -> dict:
        """Ensure a wrapper is registered for ``pages``."""
        fields = {"site": site, "pages": list(pages)}
        if force:
            fields["force"] = True
        return self.request("learn", **fields)

    def stats(self) -> dict:
        return self.request("stats")

    def metrics(self, format: str | None = None):
        """The daemon's telemetry snapshot (or, with
        ``format="prometheus"``, exposition text)."""
        fields = {"format": format} if format else {}
        return self.request("metrics", **fields).get("metrics")

    def ping(self) -> bool:
        return bool(self.request("ping").get("ok"))

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
