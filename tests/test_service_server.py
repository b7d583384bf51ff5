"""The extraction daemon end to end: NDJSON protocol, learn-on-miss,
multi-tenant fairness, restart-resume (``repro.service``)."""

import socket
import threading
import time

import pytest

from repro.annotators.dictionary import DictionaryAnnotator
from repro.api import Extractor, ExtractorConfig
from repro.service import (
    ExtractionServer,
    ServerError,
    ServiceClient,
    ServiceError,
    WrapperRegistry,
    protocol,
)
from repro.site import sources_fingerprint

# -- a tiny shop-catalog fleet ------------------------------------------------

NAMES = [f"PRODUCT-{index:02d}" for index in range(40)]


def _page(names):
    rows = "".join(
        f"<tr><td class='item'><u>{name}</u></td></tr>" for name in names
    )
    return (
        "<html><body><p>Welcome to the shop</p>"
        f"<table>{rows}</table>"
        "<p>Call us today</p></body></html>"
    )


def _site_pages(seed: int) -> list[str]:
    """Two pages of a distinct site (content varies with ``seed``)."""
    first = NAMES[seed % 20], NAMES[(seed + 1) % 20]
    second = (NAMES[(seed + 2) % 20],)
    return [_page(first), _page(second)]


def _annotator():
    return DictionaryAnnotator(NAMES)


def _extractor():
    return Extractor(ExtractorConfig(inductor="xpath", method="naive"))


@pytest.fixture()
def server():
    with ExtractionServer(
        "memory",
        extractor=_extractor(),
        annotator=_annotator(),
        max_workers=1,
    ) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServiceClient(server.address) as cli:
        yield cli


# -- protocol unit tests ------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        record = {"op": "ping", "id": 7}
        assert protocol.decode_frame(protocol.encode_frame(record)) == record

    def test_oversized_frame_rejected(self):
        big = {"op": "apply", "pages": "x" * protocol.MAX_FRAME_BYTES}
        with pytest.raises(protocol.ProtocolError, match="MAX_FRAME_BYTES"):
            protocol.encode_frame(big)

    def test_non_object_frame_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="JSON object"):
            protocol.decode_frame(b"[1, 2]\n")
        with pytest.raises(protocol.ProtocolError, match="not valid JSON"):
            protocol.decode_frame(b"{torn\n")

    @pytest.mark.parametrize(
        "record, match",
        [
            ({"op": "evict", "id": 1}, "unknown op"),
            ({"op": "apply", "site": "s", "pages": ["x"]}, "scalar 'id'"),
            ({"op": "apply", "id": {}, "site": "s", "pages": ["x"]}, "scalar"),
            ({"op": "apply", "id": 1, "pages": ["x"]}, "non-empty 'site'"),
            ({"op": "learn", "id": 1, "site": "s", "pages": []}, "'pages'"),
            ({"op": "learn", "id": 1, "site": "s"}, "'pages'"),
        ],
    )
    def test_invalid_requests_rejected(self, record, match):
        with pytest.raises(protocol.ProtocolError, match=match):
            protocol.validate_request(record)

    def test_read_frames_blank_lines_and_eof_tail(self):
        left, right = socket.socketpair()
        left.sendall(b'{"op":"ping","id":1}\n\n\n{"op":"ping","id":2}')
        left.close()  # EOF: the newline-less tail still parses
        frames = list(protocol.read_frames(right))
        right.close()
        assert frames == [
            {"op": "ping", "id": 1},
            {"op": "ping", "id": 2},
        ]


# -- one client, one server ---------------------------------------------------


class TestServeBasics:
    def test_ping_and_stats(self, client):
        assert client.ping()
        stats = client.stats()
        assert stats["server"]["can_learn"] is True
        assert stats["server"]["workers"] == 1
        assert "fingerprints" in stats["registry"]

    def test_apply_learns_on_miss_then_hits(self, server, client):
        pages = _site_pages(0)
        first = client.apply("shop-0", pages)
        assert first["source"] == "learned" and first["version"] == 1
        assert first["count"] == 3 and len(first["nodes"]) == 3
        assert first["fingerprint"] == sources_fingerprint(pages)
        # Same pages again: exact fingerprint hit, no second learn.
        again = client.apply("shop-0", pages)
        assert again["source"] == "fingerprint" and again["version"] == 1
        assert again["nodes"] == first["nodes"]
        assert server.registry.learned == 1
        assert len(server.registry.versions(first["fingerprint"])) == 1

    def test_site_fallback_serves_new_crawl(self, client):
        client.apply("shop-1", _site_pages(1))
        recrawl = [_page((NAMES[9],)), _page((NAMES[10],))]
        response = client.apply("shop-1", recrawl)
        assert response["source"] in ("site", "learned")

    def test_texts_resolved_worker_side(self, client):
        response = client.apply("shop-2", _site_pages(2), texts=True)
        assert sorted(response["texts"]) == sorted(
            [NAMES[2], NAMES[3], NAMES[4]]
        )

    def test_learn_op_idempotent_until_forced(self, client):
        pages = _site_pages(3)
        first = client.learn("shop-3", pages)
        assert first["created"] is True and first["version"] == 1
        second = client.learn("shop-3", pages)
        assert second["created"] is False and second["version"] == 1
        forced = client.learn("shop-3", pages, force=True)
        assert forced["created"] is True and forced["version"] == 2

    def test_malformed_frames_answered_not_fatal(self, server, client):
        client._sock.sendall(b'{"op":"evict","id":44}\n')
        client._sock.sendall(b"not json at all\n")
        responses = client.drain(2)
        by_id = {r.get("id"): r for r in responses}
        assert by_id[44]["ok"] is False and "unknown op" in by_id[44]["error"]
        assert by_id[None]["ok"] is False
        assert client.ping()  # the connection survived both

    def test_unarmed_server_fails_misses(self):
        with ExtractionServer("memory", max_workers=1) as srv:
            with ServiceClient(srv.address) as cli:
                with pytest.raises(ServiceError, match="not armed"):
                    cli.apply("shop-x", _site_pages(5))
                with pytest.raises(ServiceError, match="not armed"):
                    cli.learn("shop-x", _site_pages(5))

    def test_client_side_validation(self, client):
        with pytest.raises(protocol.ProtocolError, match="non-empty 'site'"):
            client.apply("", ["<html></html>"])

    def test_bad_configuration_rejected(self):
        with pytest.raises(ServerError, match="max_inflight_per_client"):
            ExtractionServer("memory", max_inflight_per_client=0)

    def test_unix_socket_transport(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        with ExtractionServer(
            "memory",
            extractor=_extractor(),
            annotator=_annotator(),
            socket_path=path,
            max_workers=1,
        ) as srv:
            assert srv.address == path
            with ServiceClient(path) as cli:
                assert cli.ping()
                assert cli.apply("shop-7", _site_pages(7))["count"] == 3


# -- idle cost and transport options ------------------------------------------


class TestIdleAndTransport:
    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "two-workers"])
    def test_idle_daemon_does_not_spin(self, workers):
        """With nothing queued and nothing in the pool, the dispatcher
        blocks on a wake-up instead of polling an empty session."""
        with ExtractionServer(
            "memory",
            extractor=_extractor(),
            annotator=_annotator(),
            max_workers=workers,
        ) as srv:
            with ServiceClient(srv.address) as cli:
                assert cli.apply("shop-3", _site_pages(3))["count"] == 3
                time.sleep(0.2)
                cpu = time.process_time()
                time.sleep(1.0)
                assert time.process_time() - cpu < 0.2
                started = time.perf_counter()
                assert cli.ping()
                assert time.perf_counter() - started < 0.5
                # Work arriving after the idle spell is still served.
                assert cli.apply("shop-3", _site_pages(3))["count"] == 3

    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "two-workers"])
    def test_frames_wake_an_idle_dispatcher(self, workers, monkeypatch):
        """An idle dispatcher is woken by the frame itself, not by the
        end of its bounded wait: with the bound stretched to 30 s,
        requests and shutdown are still served at once."""
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "_IDLE_SLEEP", 30.0)
        srv = ExtractionServer(
            "memory",
            extractor=_extractor(),
            annotator=_annotator(),
            max_workers=workers,
        ).start()
        try:
            with ServiceClient(srv.address, timeout=10.0) as cli:
                assert cli.apply("shop-3", _site_pages(3))["count"] == 3
                for _ in range(3):
                    time.sleep(0.05)  # let the dispatcher go idle
                    started = time.perf_counter()
                    assert cli.ping()
                    assert time.perf_counter() - started < 2.0
        finally:
            started = time.perf_counter()
            srv.close()
        assert time.perf_counter() - started < 5.0

    def test_concurrent_tenants_wake_an_idle_dispatcher(self):
        """Readers racing the dispatcher's clear/wait never strand a
        frame: more client threads than cores, with a tiny switch
        interval, all get every ping answered."""
        import sys

        answered = []
        errors = []

        def tenant(address):
            try:
                with ServiceClient(address, timeout=10.0) as cli:
                    for _ in range(30):
                        assert cli.ping()
                        answered.append(1)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ExtractionServer("memory", max_workers=1) as srv:
                threads = [
                    threading.Thread(target=tenant, args=(srv.address,))
                    for _ in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert len(answered) == 6 * 30

    def test_tcp_connections_disable_nagle(self, server, client):
        assert client.ping()  # the server has accepted and read from us
        with server._clients_lock:
            (served,) = server._clients.values()
        for sock in (client._sock, served.sock):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_unix_sockets_keep_their_options(self, tmp_path):
        from repro import telemetry
        from repro.telemetry import names as metric_names

        swallowed = telemetry.counter(metric_names.SERVER_SWALLOWED_ERRORS)
        before = swallowed.value(where="accept.nodelay")
        path = str(tmp_path / "repro.sock")
        with ExtractionServer("memory", socket_path=path, max_workers=1) as srv:
            with ServiceClient(path) as cli:
                assert cli.ping()
                with srv._clients_lock:
                    (served,) = srv._clients.values()
                for sock in (cli._sock, served.sock):
                    assert sock.family == socket.AF_UNIX
        assert swallowed.value(where="accept.nodelay") == before


# -- many tenants -------------------------------------------------------------


class TestFairnessAndConcurrency:
    def test_flooding_tenant_cannot_starve_small_tenants(self):
        """Acceptance: >= 4 concurrent client streams; a tenant
        saturating its budget cannot zero another tenant's throughput.
        The flooder pipelines 40 requests; three small tenants run 6
        each and must all finish while the flood is still draining."""
        with ExtractionServer(
            "memory",
            extractor=_extractor(),
            annotator=_annotator(),
            max_workers=1,
            max_inflight_per_client=2,
        ) as srv:
            pages = _site_pages(11)
            with ServiceClient(srv.address) as warm:
                warm.apply("shop-flood", pages)  # pre-learn: pure applies below

            def _distinct(tenant, index):
                """Unique page content per request: every job is real
                work (no engine memo hit), resolved via the site index."""
                return [
                    page.replace(
                        "</body>", f"<p>crawl {tenant}-{index}</p></body>"
                    )
                    for page in pages
                ]

            arrival_log = []
            log_lock = threading.Lock()
            barrier = threading.Barrier(4)
            failures = []

            def flooder():
                try:
                    with ServiceClient(srv.address, timeout=120) as cli:
                        barrier.wait()
                        ids = [
                            cli.submit(
                                "apply",
                                site="shop-flood",
                                pages=_distinct("flood", index),
                            )
                            for index in range(40)
                        ]
                        for request_id in ids:
                            response = cli.wait(request_id)
                            assert response["ok"], response
                            with log_lock:
                                arrival_log.append("flooder")
                except Exception as error:  # pragma: no cover - debug aid
                    failures.append(error)

            def small(name):
                try:
                    with ServiceClient(srv.address, timeout=120) as cli:
                        barrier.wait()
                        for index in range(6):
                            response = cli.apply(
                                "shop-flood", _distinct(name, index)
                            )
                            assert response["count"] == 3
                            with log_lock:
                                arrival_log.append(name)
                except Exception as error:  # pragma: no cover - debug aid
                    failures.append(error)

            threads = [threading.Thread(target=flooder)]
            threads += [
                threading.Thread(target=small, args=(f"small-{index}",))
                for index in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not failures, failures
            assert len(arrival_log) == 40 + 3 * 6
            # Round-robin admission: every small tenant drains while the
            # flood is still in progress — the flooder cannot zero their
            # throughput.
            last_small = max(
                index
                for index, name in enumerate(arrival_log)
                if name != "flooder"
            )
            last_flood = max(
                index
                for index, name in enumerate(arrival_log)
                if name == "flooder"
            )
            assert last_small < last_flood

    def test_racing_cold_applies_learn_exactly_once(self):
        with ExtractionServer(
            "memory",
            extractor=_extractor(),
            annotator=_annotator(),
            max_workers=1,
        ) as srv:
            pages = _site_pages(13)
            fingerprint = sources_fingerprint(pages)
            responses = []

            def racer():
                with ServiceClient(srv.address, timeout=120) as cli:
                    responses.append(cli.apply("shop-race", pages))

            threads = [threading.Thread(target=racer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)

            assert len(responses) == 4
            assert all(r["count"] == 3 for r in responses)
            # The registry was populated exactly once for the fingerprint.
            assert len(srv.registry.versions(fingerprint)) == 1
            assert srv.registry.learned == 1


# -- durability ---------------------------------------------------------------


class TestRestartResume:
    def test_restarted_daemon_serves_without_relearning(self, tmp_path):
        """Acceptance: kill the daemon, start a fresh one on the same
        registry directory — it serves the learned fleet from the file
        store without relearning (it is not even armed to learn)."""
        store = tmp_path / "registry"
        pages = _site_pages(17)
        with ExtractionServer(
            WrapperRegistry(store),
            extractor=_extractor(),
            annotator=_annotator(),
            max_workers=1,
        ) as first:
            with ServiceClient(first.address) as cli:
                learned = cli.apply("shop-durable", pages)
                assert learned["source"] == "learned"

        # A new process would build a fresh registry over the same dir;
        # this server cannot learn at all, so a hit is the only way.
        with ExtractionServer(
            WrapperRegistry(store), max_workers=1
        ) as second:
            with ServiceClient(second.address) as cli:
                served = cli.apply("shop-durable", pages)
                assert served["source"] == "fingerprint"
                assert served["version"] == learned["version"]
                assert served["nodes"] == learned["nodes"]
            assert second.registry.learned == 0


class TestReaderDropAccounting:
    def test_transport_error_drops_reader_with_a_trace(self, server, client):
        """Regression: a reader thread dying on a transport error used
        to drop the client silently; the stats op must now report the
        drop and keep the last error for diagnosis."""
        from repro.service.server import _Client

        class _BrokenSock:
            def recv(self, size):
                raise OSError(104, "connection reset by peer")

            def close(self):
                pass

        before = client.stats()["server"]
        assert before["dropped_readers"] == 0
        assert before["last_read_error"] is None

        broken = _Client(_BrokenSock(), 4)
        server._read_loop(broken)

        assert broken.closed
        after = client.stats()["server"]
        assert after["dropped_readers"] == 1
        assert "ConnectionResetError" in after["last_read_error"]
        assert "connection reset" in after["last_read_error"]

    def test_clean_eof_is_not_a_dropped_reader(self, server, client):
        """A client that disconnects normally must not count as
        dropped: the counter means failures, not goodbyes."""
        with ServiceClient(server.address) as extra:
            extra.ping()
        assert client.stats()["server"]["dropped_readers"] == 0
