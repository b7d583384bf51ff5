"""The extraction daemon: one shared worker pool, many client streams.

:class:`ExtractionServer` is the long-running half of
"extraction-as-a-service": it owns one
:class:`~repro.api.scheduler.WorkerPool` (warm engines, interned
sites), multiplexes every connected client's requests over a single
:class:`~repro.api.ingest.IngestSession`, and resolves wrappers through
a shared :class:`~repro.service.registry.WrapperRegistry` — learning on
miss (exactly once per fingerprint) when armed with an extractor and
annotator, and serving every previously learned wrapper straight from
the store after a restart.

Threading model
---------------

- one **accept thread** takes connections and starts a reader per
  client;
- each **reader thread** parses NDJSON frames off its socket into the
  client's bounded admission queue — readers never touch the session
  or the socket's send side, and a full queue blocks the reader (TCP
  backpressure toward that tenant only);
- one **dispatcher thread** owns everything stateful: it drains
  completed pool outcomes, writes responses, and admits queued
  requests **round-robin across clients**, at most
  ``max_inflight_per_client`` pool jobs per tenant.  Admission control
  is the fairness mechanism: a tenant flooding its queue saturates only
  its own budget; other tenants' requests keep flowing through their
  own round-robin turns.

Learn-on-miss runs as a *flight* keyed by fingerprint: the first
missing request submits the learn job; requests for the same
fingerprint arriving mid-learn wait on the flight (still counted
against their tenant's budget) and are served from the one stored
version when it lands — the registry is populated exactly once per
fingerprint however the requests race.

Operating under failure
-----------------------

The daemon assumes its workers die: the owned pool runs with crash
respawn (dead workers are replaced up to the configured width, with
backoff on rapid death loops) and poison-task quarantine (a job that
keeps killing workers is answered as a structured failure,
``code: "quarantined"``).  ``request_deadline`` bounds every apply /
learn request — work that has not answered in time gets a structured
``code: "deadline"`` error instead of a hung client (the job may still
finish server-side and populate the registry).  :meth:`drain` (wired
to SIGHUP by ``repro serve``) stops accepting, refuses queued work
with ``code: "draining"``, finishes in-flight requests, then exits so
a new generation can bind the same address; replaying clients lose
nothing acknowledged.  Startup and a slow periodic tick run
:func:`repro.arena.reap_orphans` so dead owners' shared-memory
segments cannot accumulate across generations.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro import faults
from repro import telemetry
from repro.api.ingest import IngestSession
from repro.api.scheduler import WorkerPool
from repro.service import protocol
from repro.service.registry import WrapperRegistry
from repro.site import sources_fingerprint
from repro.telemetry import names as metric_names
from repro.telemetry.tracing import TraceRecorder, tile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.annotators.base import Annotator
    from repro.api.extractor import Extractor

__all__ = ["ExtractionServer", "ServerError"]

#: Dispatcher idle wait bound, seconds (only reached when no outcome
#: and no admissible request was found on a pass): the longest the
#: dispatcher goes without checking deadlines, reaping and draining.
_IDLE_SLEEP = 0.005

#: How long a ``stats`` snapshot's derived rollups (the arena scan)
#: stay cached; ``repro stats --watch`` polling inside this window is
#: answered from the cache instead of re-walking the filesystem.
_STATS_CACHE_TTL = 1.0


class ServerError(RuntimeError):
    """A server that cannot start (bad address, no registry, ...)."""


@dataclass(slots=True)
class _Ticket:
    """One in-flight pool job (or flight wait) on behalf of a request."""

    client: "_Client"
    request_id: object
    op: str  # the op that will be answered: "apply" | "learn"
    site: str
    pages: list[str]
    fingerprint: str
    texts: bool = False
    source: str = ""
    version: int | None = None
    #: learn jobs triggered by an apply miss answer with an apply.
    respond_apply: bool = False
    #: Monotonic instant past which the request is answered with a
    #: ``code: "deadline"`` error (None: no deadline).
    deadline: float | None = None
    #: The response (success or error) has been sent and the budget
    #: slot released; any further completion for this ticket only
    #: updates server-side state (flight artifact, registry), never
    #: the client.
    answered: bool = False
    #: The tenant's in-flight budget was charged for this ticket.
    counted: bool = False
    #: Trace timeline (``time.monotonic()`` stamps): when the reader
    #: thread pulled the frame off the socket, when the dispatcher
    #: picked it up, and when the wrapper resolve finished; plus the
    #: worker-side stage timings carried back on the outcome.
    recv: float | None = None
    dispatched: float | None = None
    resolved: float | None = None
    timings: dict | None = None


@dataclass(slots=True)
class _Flight:
    """A learn-on-miss in progress for one fingerprint."""

    owner: _Ticket
    waiters: list[_Ticket] = field(default_factory=list)


class _Client:
    """Per-connection state (reader thread + admission queue)."""

    _ids = iter(range(1, 1 << 62))

    def __init__(self, sock: socket.socket, queue_depth: int) -> None:
        self.id = next(self._ids)
        self.sock = sock
        self.queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self.inflight = 0
        self.closed = False
        self.send_lock = threading.Lock()
        self.reader: threading.Thread | None = None

    def send(self, record: dict) -> None:
        if self.closed:
            return
        try:
            data = protocol.encode_frame(record)
        except protocol.ProtocolError:
            data = protocol.encode_frame(
                {
                    "id": record.get("id"),
                    "ok": False,
                    "error": "response exceeded the frame bound",
                }
            )
        context = f"{record.get('op', '')}:{record.get('site', '')}"
        if faults.fire(faults.CONN_DROP, context) is not None:
            # Injected peer loss: the response evaporates and the
            # connection resets — the client must reconnect and replay.
            self.close()
            return
        if faults.fire(faults.CONN_TRUNCATE, context) is not None:
            # Injected mid-frame death: half a frame, then reset.
            try:
                with self.send_lock:
                    self.sock.sendall(data[: max(1, len(data) // 2)])
            except OSError:
                pass
            self.close()
            return
        try:
            with self.send_lock:
                self.sock.sendall(data)
        except OSError:
            self.closed = True

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class ExtractionServer:
    """Persistent multi-tenant extraction daemon.

    Args:
        registry: the shared :class:`WrapperRegistry` (or anything its
            constructor accepts: ``"memory"`` / a directory path).
        extractor: the :class:`~repro.api.extractor.Extractor` used for
            learn ops and learn-on-miss; omit for an apply-only server
            (misses then fail instead of learning).
        annotator: weak annotator paired with ``extractor`` — learn
            jobs annotate worker-side, so the daemon never parses pages
            in the parent just to label them.
        host / port: TCP listen address (default localhost, ephemeral
            port — read :attr:`address` after :meth:`start`).
        socket_path: listen on an ``AF_UNIX`` socket instead of TCP.
        pool: an existing :class:`WorkerPool` to serve on (the caller
            keeps ownership); otherwise the server owns a fresh pool of
            ``max_workers`` workers.
        max_workers: worker count for an owned pool.
        max_inflight_per_client: per-tenant admission budget — pool
            jobs (and flight waits) one connection may have in flight.
        queue_depth: per-tenant admission queue bound; a tenant past it
            stops being read from (socket backpressure).
        request_deadline: seconds an admitted apply/learn request may
            run before being answered with a structured
            ``code: "deadline"`` error; ``None`` disables deadlines.
        reap_interval: seconds between periodic
            :func:`repro.arena.reap_orphans` sweeps (also run once at
            startup); ``0`` disables the tick.
        crash_retry_limit: for an owned pool, how many worker deaths a
            job may cause before quarantine (see
            :class:`~repro.api.scheduler.WorkerPool`).
        trace_log: append one NDJSON trace event per finished request
            (per-stage timing breakdown) to this path; ``None``
            disables the log (latency histograms still record).
        trace_sample: fraction of finished requests written to the
            trace log (seeded by ``trace_seed``); the slowest-N
            capture ignores sampling.
        trace_seed: seed for the trace sampler (reproducible drills).
    """

    def __init__(
        self,
        registry: WrapperRegistry | str | os.PathLike | None = None,
        extractor: "Extractor | None" = None,
        annotator: "Annotator | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | os.PathLike | None = None,
        pool: WorkerPool | None = None,
        max_workers: int | None = None,
        max_inflight_per_client: int = 8,
        queue_depth: int = 64,
        request_deadline: float | None = None,
        reap_interval: float = 60.0,
        crash_retry_limit: int = 3,
        trace_log: str | os.PathLike | None = None,
        trace_sample: float = 1.0,
        trace_seed: int | None = None,
    ) -> None:
        if max_inflight_per_client < 1:
            raise ServerError(
                "max_inflight_per_client must be >= 1; got "
                f"{max_inflight_per_client}"
            )
        if request_deadline is not None and request_deadline <= 0:
            raise ServerError(
                f"request_deadline must be positive; got {request_deadline}"
            )
        self.registry = (
            registry
            if isinstance(registry, WrapperRegistry)
            else WrapperRegistry(registry)
        )
        self.extractor = extractor
        self.annotator = annotator
        self.host = host
        self.port = port
        self.socket_path = os.fspath(socket_path) if socket_path else None
        self.max_inflight_per_client = max_inflight_per_client
        self.queue_depth = queue_depth
        self.request_deadline = request_deadline
        self.reap_interval = reap_interval
        self.crash_retry_limit = crash_retry_limit
        self._owns_pool = pool is None
        self._pool = pool
        self._max_workers = max_workers
        self._session: IngestSession | None = None
        self._listener: socket.socket | None = None
        self._clients: dict[int, _Client] = {}
        self._clients_lock = threading.Lock()
        self._tickets: dict[int, _Ticket] = {}
        self._flights: dict[str, _Flight] = {}
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        #: Set by reader threads on every queued frame and disconnect
        #: (and by close/drain): what an idle dispatcher waits on.
        self._wake = threading.Event()
        self._started = False
        self._draining = False
        self._drained = threading.Event()
        self.requests: Counter = Counter()
        self.responses = 0
        self.errors = 0
        self.deadline_expired = 0
        self.arena_reaped = 0
        #: Reader threads that died on a framing/transport error (the
        #: client was dropped); ``last_read_error`` keeps the most
        #: recent cause for the stats op.
        self.dropped_readers = 0
        self.last_read_error: str | None = None
        self.started_at: float | None = None
        self._started_monotonic: float | None = None
        #: (monotonic stamp, cached arena rollup) — see _server_stats.
        self._derived_stats: tuple[float, dict] | None = None
        self._tracer: TraceRecorder | None = (
            TraceRecorder(
                os.fspath(trace_log),
                sample_rate=trace_sample,
                seed=trace_seed,
            )
            if trace_log
            else None
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int] | str:
        """Where the server listens: ``(host, port)`` or the socket path."""
        if self.socket_path is not None:
            return self.socket_path
        return (self.host, self.port)

    def start(self) -> "ExtractionServer":
        """Bind, start the pool/session and the service threads."""
        if self._started:
            raise ServerError("server already started")
        self._started = True
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        if self.socket_path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            listener.bind(self.socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]
        listener.listen(64)
        self._listener = listener
        # Segments orphaned by a previous generation's crash die here,
        # before this generation starts packing its own.
        try:
            from repro.arena import reap_orphans

            self.arena_reaped += len(reap_orphans())
        except Exception:  # pragma: no cover - best-effort sweep
            pass
        if self._pool is None:
            self._pool = WorkerPool(
                self._max_workers,
                respawn_workers=True,
                crash_retry_limit=self.crash_retry_limit,
            )
        # The session's own in-flight bound is effectively disabled:
        # admission control happens per tenant in the dispatcher, whose
        # budgets bound the pool's total in-flight work.
        self._session = IngestSession(
            extractor=self.extractor,
            annotator=self.annotator,
            pool=self._pool,
            max_inflight=1 << 30,
        )
        for target, name in (
            (self._accept_loop, "repro-serve-accept"),
            (self._dispatch_loop, "repro-serve-dispatch"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def _shutdown_listener(self) -> None:
        """Stop accepting connections (idempotent; any thread).

        A blocked ``accept()`` is not reliably interrupted by closing
        the listener from another thread — wake it with a dummy
        connection first, then close.
        """
        listener, self._listener = self._listener, None
        if listener is None:
            return
        try:
            family = (
                socket.AF_UNIX
                if self.socket_path is not None
                else socket.AF_INET
            )
            wake = socket.socket(family, socket.SOCK_STREAM)
            wake.settimeout(1.0)
            wake.connect(
                self.socket_path
                if self.socket_path is not None
                else (self.host, self.port)
            )
            wake.close()
        except OSError:
            pass
        try:
            listener.close()
        except OSError:
            pass

    def drain(self, timeout: float | None = None) -> bool:
        """Hand this generation off: stop accepting, refuse queued work
        (``code: "draining"``), finish what is in flight, then close.

        The listener is closed *synchronously*, so by the time this
        returns control between its two phases a new generation may
        already bind the same address (an ``AF_UNIX`` successor can
        bind even earlier — it unlinks the stale path itself).  Every
        in-flight request still answers normally; every queued or
        newly-arriving request is refused with a structured
        ``draining`` error that retrying clients chase to the new
        generation.  Returns ``True`` when everything in flight
        settled within ``timeout`` (``None``: wait indefinitely);
        ``False`` means the timeout expired — likely a hung job — and
        the server was closed anyway.
        """
        if not self._started:
            raise ServerError("server not started")
        self._draining = True
        self._wake.set()
        self._shutdown_listener()
        drained = self._drained.wait(timeout)
        self.close()
        return drained

    def close(self) -> None:
        """Stop serving: drop clients, close the session (owned pool too)."""
        if not self._started or self._stop.is_set():
            self._stop.set()
            return
        self._stop.set()
        self._wake.set()
        self._shutdown_listener()
        for thread in self._threads:
            thread.join(timeout=10.0)
        with self._clients_lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()
        if self._session is not None:
            self._session.close()
            self._session = None
        if self._owns_pool:
            self._pool = None
        if self._tracer is not None:
            self._tracer.close()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def serve_forever(self) -> None:
        """Block until :meth:`close` (or KeyboardInterrupt)."""
        if not self._started:
            self.start()
        try:
            while not self._stop.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def __enter__(self) -> "ExtractionServer":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accept + reader threads ------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            listener = self._listener
            if listener is None:
                return  # draining: listener already shut down
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # listener closed
            if self._stop.is_set() or self._draining:
                # The shutdown wake-up connection, or a client racing
                # the drain: either way, no new tenants.
                try:
                    sock.close()
                except OSError:
                    telemetry.counter(
                        metric_names.SERVER_SWALLOWED_ERRORS
                    ).inc(where="accept.close")
                if self._stop.is_set():
                    return
                continue
            if self.socket_path is None:
                # Responses are small frames written back to back; with
                # Nagle on, one written while the previous one is still
                # unacknowledged waits for the peer's delayed ACK.
                try:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                except OSError:
                    telemetry.counter(
                        metric_names.SERVER_SWALLOWED_ERRORS
                    ).inc(where="accept.nodelay")
            client = _Client(sock, self.queue_depth)
            reader = threading.Thread(
                target=self._read_loop,
                args=(client,),
                name=f"repro-serve-read-{client.id}",
                daemon=True,
            )
            client.reader = reader
            with self._clients_lock:
                self._clients[client.id] = client
            reader.start()

    def _read_loop(self, client: _Client) -> None:
        """Parse frames into the client's admission queue (backpressure
        via the bounded queue; malformed frames become error tickets the
        dispatcher answers, so responses stay single-writer)."""
        try:
            for line in protocol.iter_lines(client.sock):
                recv = time.monotonic()
                try:
                    record = protocol.validate_request(
                        protocol.decode_frame(line)
                    )
                except protocol.ProtocolError as error:
                    raw_id = None
                    try:
                        raw_id = protocol.decode_frame(line).get("id")
                    except protocol.ProtocolError:
                        # The line is not even JSON, so there is no id
                        # to recover; the outer handler already answers
                        # this frame with a structured error — but the
                        # swallow itself must stay visible to ops.
                        telemetry.counter(
                            metric_names.SERVER_SWALLOWED_ERRORS
                        ).inc(where="read.unrecoverable_id")
                    record = {
                        "_bad": str(error),
                        "id": (
                            raw_id
                            if not isinstance(raw_id, (dict, list))
                            else None
                        ),
                    }
                client.queue.put((record, recv))
                self._wake.set()
        except (protocol.ProtocolError, OSError) as error:
            # Framing lost or connection reset: the client must be
            # dropped — but never silently.  An operator watching a
            # daemon whose tenants keep vanishing needs the stats op to
            # say so (`repro serve` reports ``dropped_readers``); a bare
            # pass here hid exactly this class of failure before PR 9.
            with self._clients_lock:
                self.dropped_readers += 1
                self.last_read_error = f"{type(error).__name__}: {error}"
            telemetry.counter(metric_names.SERVER_DROPPED_READERS).inc()
        finally:
            client.closed = True
            self._wake.set()

    # -- the dispatcher ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        session = self._session
        last_reap = time.monotonic()
        while not self._stop.is_set():
            # Cleared before the pass looks at any queue: a frame queued
            # from here on sets it again, so the idle wait below cannot
            # sleep through a request.
            self._wake.clear()
            progressed = False
            for outcome in session.advance():
                self._complete(outcome)
                progressed = True
            if self._expire_deadlines():
                progressed = True
            for client in self._round_robin():
                if client.closed and client.queue.empty():
                    if client.inflight == 0:
                        self._drop_client(client)
                    continue
                if client.inflight >= self.max_inflight_per_client:
                    continue
                try:
                    record, recv = client.queue.get_nowait()
                except queue.Empty:
                    continue
                try:
                    self._handle(client, record, recv)
                except Exception as error:
                    # One bad request (corrupt registry chain, injected
                    # store failure...) must not take the dispatcher —
                    # and with it every tenant — down.
                    self._count_response(ok=False)
                    client.send(
                        {
                            "id": record.get("id"),
                            "ok": False,
                            "op": record.get("op"),
                            "site": record.get("site"),
                            "error": f"internal error: {error}",
                            "code": protocol.CODE_INTERNAL,
                        }
                    )
                progressed = True
            if self.reap_interval and (
                time.monotonic() - last_reap >= self.reap_interval
            ):
                last_reap = time.monotonic()
                try:
                    from repro.arena import reap_orphans

                    reaped = len(reap_orphans())
                    self.arena_reaped += reaped
                    if reaped:
                        telemetry.counter(
                            metric_names.SERVER_ARENA_REAPED
                        ).inc(reaped)
                except Exception:  # pragma: no cover - best-effort sweep
                    telemetry.counter(
                        metric_names.SERVER_SWALLOWED_ERRORS
                    ).inc(where="dispatch.reap")
            if self._draining and not self._drained.is_set():
                busy = self._flights or any(
                    not ticket.answered for ticket in self._tickets.values()
                )
                if not busy:
                    self._drained.set()
            if not progressed and session.in_flight:
                # A real timed wait, not a sleep: completions land
                # immediately, and a quiet wait runs worker health
                # checks — crashed workers get reaped, retried or
                # quarantined, and (respawn on) replaced.  A bare
                # sleep here would leave a dead worker's jobs — and
                # their clients — hanging forever.
                session.pump(_IDLE_SLEEP)
            elif not progressed:
                # Nothing in the pool, so nothing can complete: wait for
                # a reader's wake-up instead of spinning.  A bounded
                # wait keeps deadlines, reaping and draining on time.
                self._wake.wait(_IDLE_SLEEP)

    def _expire_deadlines(self) -> bool:
        """Answer every ticket whose deadline has passed.

        A plain apply ticket is dropped outright (its late outcome, if
        any, is ignored).  A flight *owner* stays registered answered:
        the learn must still complete server-side to serve the
        flight's waiters and populate the registry.  Expired waiters
        leave their flight.
        """
        if self.request_deadline is None:
            return False
        now = time.monotonic()
        progressed = False
        for index, ticket in list(self._tickets.items()):
            if (
                ticket.answered
                or ticket.deadline is None
                or now < ticket.deadline
            ):
                continue
            progressed = True
            self.deadline_expired += 1
            telemetry.counter(metric_names.SERVER_DEADLINE_EXPIRED).inc()
            self._fail(
                ticket,
                f"request deadline of {self.request_deadline}s exceeded",
                code=protocol.CODE_DEADLINE,
            )
            flight = self._flights.get(ticket.fingerprint)
            if flight is None or flight.owner is not ticket:
                del self._tickets[index]
        for flight in self._flights.values():
            for waiter in list(flight.waiters):
                if (
                    waiter.answered
                    or waiter.deadline is None
                    or now < waiter.deadline
                ):
                    continue
                progressed = True
                self.deadline_expired += 1
                telemetry.counter(metric_names.SERVER_DEADLINE_EXPIRED).inc()
                self._fail(
                    waiter,
                    f"request deadline of {self.request_deadline}s exceeded",
                    code=protocol.CODE_DEADLINE,
                )
                flight.waiters.remove(waiter)
        return progressed

    def _round_robin(self) -> list[_Client]:
        with self._clients_lock:
            return sorted(self._clients.values(), key=lambda c: c.id)

    def _drop_client(self, client: _Client) -> None:
        with self._clients_lock:
            self._clients.pop(client.id, None)
        client.close()

    # -- request handling (dispatcher thread only) -------------------------

    def _handle(
        self, client: _Client, record: dict, recv: float | None = None
    ) -> None:
        if "_bad" in record:
            self._count_response(ok=False)
            client.send(
                {"id": record.get("id"), "ok": False, "error": record["_bad"]}
            )
            return
        op = record["op"]
        self.requests[op] += 1
        telemetry.counter(metric_names.SERVER_REQUESTS).inc(op=op)
        if op == "ping":
            client.send({"id": record["id"], "ok": True, "op": "ping"})
            self._count_response(ok=True)
            return
        if op == "stats":
            client.send(
                {
                    "id": record["id"],
                    "ok": True,
                    "op": "stats",
                    "registry": self.registry.stats(),
                    "server": self._server_stats(),
                }
            )
            self._count_response(ok=True)
            return
        if op == "metrics":
            snapshot = telemetry.get_registry().snapshot()
            payload: object = (
                telemetry.render_prometheus(snapshot)
                if record.get("format") == "prometheus"
                else snapshot
            )
            client.send(
                {
                    "id": record["id"],
                    "ok": True,
                    "op": "metrics",
                    "metrics": payload,
                }
            )
            self._count_response(ok=True)
            return
        if self._draining:
            self._count_response(ok=False)
            client.send(
                {
                    "id": record.get("id"),
                    "ok": False,
                    "op": op,
                    "site": record.get("site"),
                    "error": (
                        "server is draining for restart; retry against "
                        "the next generation"
                    ),
                    "code": protocol.CODE_DRAINING,
                }
            )
            return
        dispatched = time.monotonic()
        site = record["site"]
        pages = [str(page) for page in record["pages"]]
        fingerprint = sources_fingerprint(pages)
        if op == "apply":
            self._handle_apply(
                client, record, site, pages, fingerprint, recv, dispatched
            )
        else:
            self._handle_learn(
                client, record, site, pages, fingerprint, recv, dispatched
            )

    def _handle_apply(
        self,
        client: _Client,
        record: dict,
        site: str,
        pages: list[str],
        fingerprint: str,
        recv: float | None = None,
        dispatched: float | None = None,
    ) -> None:
        texts = bool(record.get("texts"))
        artifact, source = self.registry.resolve(fingerprint, site=site)
        ticket = _Ticket(
            client=client,
            request_id=record["id"],
            op="apply",
            site=site,
            pages=pages,
            fingerprint=fingerprint,
            texts=texts,
            source=source,
            recv=recv,
            dispatched=dispatched,
            resolved=time.monotonic(),
        )
        if artifact is not None:
            owner = fingerprint if source == "fingerprint" else None
            latest = self.registry.latest(owner) if owner else None
            ticket.version = latest.version if latest is not None else None
            self._submit_apply(ticket, artifact)
            return
        if self.extractor is None:
            self._fail(
                ticket,
                "no wrapper registered for this site and the server is "
                "not armed for learning",
            )
            return
        self._enter_flight(ticket)

    def _handle_learn(
        self,
        client: _Client,
        record: dict,
        site: str,
        pages: list[str],
        fingerprint: str,
        recv: float | None = None,
        dispatched: float | None = None,
    ) -> None:
        ticket = _Ticket(
            client=client,
            request_id=record["id"],
            op="learn",
            site=site,
            pages=pages,
            fingerprint=fingerprint,
            recv=recv,
            dispatched=dispatched,
        )
        if self.extractor is None:
            self._fail(ticket, "server is not armed for learning")
            return
        force = bool(record.get("force"))
        existing = self.registry.latest(fingerprint)
        if existing is not None and not force:
            client.send(
                {
                    "id": ticket.request_id,
                    "ok": True,
                    "op": "learn",
                    "site": site,
                    "fingerprint": fingerprint,
                    "version": existing.version,
                    "rule": str(existing.artifact.get("rule", "")),
                    "created": False,
                }
            )
            self._count_response(ok=True)
            return
        self._enter_flight(ticket)

    def _arm_deadline(self, ticket: _Ticket) -> None:
        if self.request_deadline is not None:
            ticket.deadline = time.monotonic() + self.request_deadline

    def _enter_flight(self, ticket: _Ticket) -> None:
        """Join (or open) the fingerprint's learn flight."""
        ticket.client.inflight += 1
        ticket.counted = True
        self._arm_deadline(ticket)
        flight = self._flights.get(ticket.fingerprint)
        if flight is not None:
            flight.waiters.append(ticket)
            return
        if ticket.op == "apply":
            ticket.respond_apply = True
            ticket.op = "learn"
        self._flights[ticket.fingerprint] = _Flight(owner=ticket)
        index = self._session.submit_html(ticket.site, ticket.pages)
        self._tickets[index] = ticket

    def _submit_apply(self, ticket: _Ticket, artifact) -> None:
        ticket.client.inflight += 1
        ticket.counted = True
        self._arm_deadline(ticket)
        index = self._session.submit_html(
            ticket.site,
            ticket.pages,
            artifact=artifact,
            resolve_texts=ticket.texts,
        )
        self._tickets[index] = ticket

    # -- outcome completion (dispatcher thread only) -----------------------

    def _complete(self, outcome) -> None:
        ticket = self._tickets.pop(outcome.index, None)
        if ticket is None:
            return
        timings = getattr(outcome, "timings", None)
        if timings is not None:
            ticket.timings = timings
        try:
            if ticket.op == "learn":
                self._complete_learn(ticket, outcome)
            else:
                self._complete_apply(ticket, outcome)
        except Exception as error:
            # Answer rather than kill the dispatcher; _settle is a
            # no-op for tickets that already went out.
            self._fail(
                ticket,
                f"internal error completing request: {error}",
                code=protocol.CODE_INTERNAL,
            )

    @staticmethod
    def _outcome_code(outcome) -> str | None:
        if outcome.error and outcome.error.startswith("quarantined"):
            return protocol.CODE_QUARANTINED
        return None

    def _complete_learn(self, ticket: _Ticket, outcome) -> None:
        flight = self._flights.pop(ticket.fingerprint, None)
        waiters = flight.waiters if flight is not None else []
        if not outcome.ok or outcome.artifact is None:
            error = outcome.error or "learning produced no artifact"
            code = self._outcome_code(outcome)
            self._fail(ticket, f"learn failed: {error}", code=code)
            for waiter in waiters:
                self._fail(waiter, f"learn failed: {error}", code=code)
            return
        previous = self.registry.latest(ticket.fingerprint)
        try:
            record = self.registry.put(
                ticket.fingerprint,
                outcome.artifact,
                origin="learn",
                parent_version=(
                    previous.version if previous is not None else None
                ),
            )
        except Exception as error:
            # The learn is good but cannot be made durable: answer the
            # whole flight with a structured, retryable failure instead
            # of letting the write error kill the dispatcher thread.
            message = f"wrapper learned but registry store failed: {error}"
            self._fail(ticket, message, code=protocol.CODE_REGISTRY)
            for waiter in waiters:
                self._fail(waiter, message, code=protocol.CODE_REGISTRY)
            return
        self.registry.learned += 1
        artifact = outcome.artifact
        if ticket.respond_apply and not ticket.answered:
            ticket.op = "apply"
            ticket.source = "learned"
            ticket.version = record.version
            # The tenant's budget slot carries over from learn to apply.
            index = self._session.submit_html(
                ticket.site,
                ticket.pages,
                artifact=artifact,
                resolve_texts=ticket.texts,
            )
            self._tickets[index] = ticket
        else:
            self._settle(
                ticket,
                {
                    "id": ticket.request_id,
                    "ok": True,
                    "op": "learn",
                    "site": ticket.site,
                    "fingerprint": ticket.fingerprint,
                    "version": record.version,
                    "rule": artifact.rule,
                    "created": True,
                },
            )
        for waiter in waiters:
            if waiter.answered:
                continue
            if waiter.op == "apply":
                waiter.source = "learned"
                waiter.version = record.version
                index = self._session.submit_html(
                    waiter.site,
                    waiter.pages,
                    artifact=artifact,
                    resolve_texts=waiter.texts,
                )
                self._tickets[index] = waiter
            else:
                self._settle(
                    waiter,
                    {
                        "id": waiter.request_id,
                        "ok": True,
                        "op": "learn",
                        "site": waiter.site,
                        "fingerprint": waiter.fingerprint,
                        "version": record.version,
                        "rule": artifact.rule,
                        "created": False,
                    },
                )

    def _complete_apply(self, ticket: _Ticket, outcome) -> None:
        if not outcome.ok:
            self._fail(
                ticket,
                outcome.error or "extraction failed",
                code=self._outcome_code(outcome),
            )
            return
        node_ids = sorted(outcome.extracted)
        response = {
            "id": ticket.request_id,
            "ok": True,
            "op": "apply",
            "site": ticket.site,
            "fingerprint": ticket.fingerprint,
            "source": ticket.source,
            "version": ticket.version,
            "count": len(node_ids),
            "nodes": [[nid.page, nid.preorder] for nid in node_ids],
        }
        if ticket.texts:
            response["texts"] = outcome.texts
        self._settle(ticket, response)

    def _settle(self, ticket: _Ticket, response: dict) -> None:
        """Answer a ticket exactly once: release its budget slot, count
        it, send.  A ticket already answered (deadline expiry) is a
        no-op — its slot is gone and its client already has a frame."""
        if ticket.answered:
            return
        ticket.answered = True
        if ticket.counted:
            ticket.client.inflight -= 1
        ok = bool(response.get("ok"))
        self._count_response(ok=ok)
        self._finish_trace(ticket, str(response.get("op") or ticket.op), ok)
        ticket.client.send(response)

    def _count_response(self, *, ok: bool) -> None:
        if ok:
            self.responses += 1
            telemetry.counter(metric_names.SERVER_RESPONSES).inc()
        else:
            self.errors += 1
            telemetry.counter(metric_names.SERVER_ERRORS).inc()

    def _finish_trace(self, ticket: _Ticket, op: str, ok: bool) -> None:
        """Close a ticket's timing span: record latency + per-stage
        histograms, and emit the trace event when a recorder is armed.

        The stage timeline *tiles* the request's wall-clock exactly —
        each stage runs from the previous boundary stamp to its own —
        so the stage durations sum to the total by construction:

        ``admission_wait`` (socket read -> dispatcher pickup),
        ``resolve`` (fingerprint + registry resolve),
        ``queue_wait`` (pool submit/ship -> worker job start),
        ``hydrate`` (worker site attach/parse),
        ``extract`` (wrapper application + outcome packing),
        ``result_flush`` (worker flush -> response settle).
        """
        if ticket.recv is None:
            return
        now = time.monotonic()
        total = now - ticket.recv
        latency = (
            metric_names.SERVER_APPLY_LATENCY
            if op == "apply"
            else metric_names.SERVER_LEARN_LATENCY
        )
        telemetry.histogram(latency).observe(total)
        timings = ticket.timings or {}
        worker_start = timings.get("start")
        hydrate_s = timings.get("hydrate_s")
        marks: list[tuple[str, float | None]] = [
            ("admission_wait", ticket.dispatched),
            ("resolve", ticket.resolved),
            ("queue_wait", worker_start),
            (
                "hydrate",
                (
                    worker_start + hydrate_s
                    if worker_start is not None and hydrate_s is not None
                    else None
                ),
            ),
            ("extract", timings.get("end")),
            ("result_flush", now),
        ]
        stages = tile(ticket.recv, marks)
        stage_histogram = telemetry.histogram(metric_names.SERVER_STAGE)
        for name, _, duration in stages:
            stage_histogram.observe(duration, stage=name)
        if self._tracer is not None:
            self._tracer.record(
                request_id=ticket.request_id,
                op=op,
                site=ticket.site,
                ok=ok,
                start=ticket.recv,
                stages=stages,
                total_s=total,
            )

    def _fail(
        self, ticket: _Ticket, error: str, code: str | None = None
    ) -> None:
        """Answer a ticket with a (possibly coded) failure."""
        response = {
            "id": ticket.request_id,
            "ok": False,
            "op": "apply" if ticket.respond_apply else ticket.op,
            "site": ticket.site,
            "error": error,
        }
        if code is not None:
            response["code"] = code
        self._settle(ticket, response)

    def _derived_rollups(self, now: float) -> dict:
        """The expensive snapshot parts (the arena scan walks the
        segment directory), cached for :data:`_STATS_CACHE_TTL` so a
        ``repro stats --watch`` poller cannot perturb the daemon by
        re-deriving them on every tick."""
        cached = self._derived_stats
        if cached is not None and now - cached[0] < _STATS_CACHE_TTL:
            return cached[1]
        from repro.arena import arena_stats

        derived = arena_stats()
        self._derived_stats = (now, derived)
        return derived

    def _server_stats(self) -> dict:
        with self._clients_lock:
            clients = len(self._clients)
            inflight = sum(c.inflight for c in self._clients.values())
        pool = self._pool
        now = time.monotonic()
        uptime_s = (
            now - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        return {
            "clients": clients,
            "inflight": inflight,
            "requests": dict(self.requests),
            "responses": self.responses,
            "errors": self.errors,
            "workers": pool.workers_alive if pool else 0,
            "flights": len(self._flights),
            "uptime": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            # Monotonic uptime plus the wall-clock collection stamp:
            # pollers diff `uptime_s` for rates without trusting the
            # host clock, and `collected_at` dates the snapshot.
            "uptime_s": uptime_s,
            "collected_at": time.time(),
            "can_learn": self.extractor is not None,
            "draining": self._draining,
            "request_deadline": self.request_deadline,
            "deadline_expired": self.deadline_expired,
            "dropped_readers": self.dropped_readers,
            "last_read_error": self.last_read_error,
            # Crash resilience: pool-side death/respawn/quarantine
            # tallies for the shared fleet.
            "worker_deaths": pool.stats.worker_deaths if pool else 0,
            "respawns": pool.stats.respawns if pool else 0,
            "quarantined": pool.stats.quarantined if pool else 0,
            # Shared site memory: daemon-side segment counters plus the
            # pool's handle-shipping tally (worker-side attach hits live
            # in the workers; the daemon reports what it owns and ships).
            "arena": dict(
                self._derived_rollups(now),
                handle_ships=pool.stats.arena_ships if pool else 0,
                orphans_reaped=self.arena_reaped,
            ),
        }
