"""The network serving edge, end to end over real sockets.

Everything runs against stub services (no training, no flow) through
:func:`start_net_server`'s background event loop and the blocking
:class:`NetClient`.  The trained-model network path is covered by the
``serve_net`` workload of ``perfbench/run.py`` and the CI net smoke;
here each edge behavior is isolated, and the tests wait on events
instead of polling counters.
"""

import socket
import threading
import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ServeError,
    ServerClosedError,
)
from repro.serve import (
    NetClient,
    NetServerConfig,
    PredictRequest,
    PredictResponse,
    ResilientCongestionServer,
    ServerConfig,
    start_net_server,
)
from repro.serve.net import request_from_wire, response_to_wire
from repro.serve.protocol import recv_frame_sync, send_frame_sync
from repro.serve.server import RegistryWatcher
from repro.util.faults import FaultSpec, injected_faults


class StubService:
    """Duck-typed CongestionService with hot-swap support."""

    def __init__(self):
        self.resilience = None
        self.registry = None
        self.model_generation = 0
        self.lock = threading.Lock()
        self.batches = []

    def warm(self):
        self.model_generation = max(self.model_generation, 1)
        return "trained"

    def adopt_predictor(self, predictor, *, source="registry"):
        self.model_generation += 1
        return self.model_generation

    def predict_batch(self, requests, *, deadline=None):
        with self.lock:
            self.batches.append(list(requests))
            generation = self.model_generation
        return [
            PredictResponse(request=r, model_source="stub",
                            model_generation=generation)
            for r in requests
        ]

    def stats(self):
        return {"model_generation": self.model_generation}


class BlockingService(StubService):
    """Holds every batch until released."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.started = threading.Event()

    def predict_batch(self, requests, *, deadline=None):
        self.started.set()
        assert self.release.wait(timeout=10.0)
        return super().predict_batch(requests, deadline=deadline)


class SlowService(StubService):
    def __init__(self, delay_s=0.05):
        super().__init__()
        self.delay_s = delay_s

    def predict_batch(self, requests, *, deadline=None):
        time.sleep(self.delay_s)
        return super().predict_batch(requests, deadline=deadline)


class FakeRegistry:
    """Registry double for the hot-swap watcher: a version token the
    test bumps, and a loadable sentinel predictor."""

    def __init__(self):
        self.version = 1
        self.load_error = None

    def artifact_version(self, family, fingerprint, device=None):
        return ("tok", self.version)

    def load(self, family, fingerprint, *, device=None):
        if self.load_error is not None:
            raise self.load_error
        return f"predictor-v{self.version}"


def fake_registry_service():
    service = StubService()
    service.registry = FakeRegistry()
    service.model_name = "stub"
    service.dataset_fingerprint = "fp"
    service.device = None
    return service


def served(service=None, config=None, net_config=None):
    server = ResilientCongestionServer(
        service or StubService(), config or ServerConfig()
    )
    return start_net_server(
        server, net_config or NetServerConfig(watch_registry=False)
    )


def record_admissions(server, n):
    """Wrap ``server.submit``: ``admitted`` maps each admitted design to
    the monotonic time its submit returned, and ``all_in`` is set at
    the ``n``-th admission."""
    admit = server.submit
    admitted = {}
    all_in = threading.Event()
    lock = threading.Lock()

    def submit(request, **kwargs):
        future = admit(request, **kwargs)
        with lock:
            admitted[request.design] = time.monotonic()
            if len(admitted) == n:
                all_in.set()
        return future

    server.submit = submit
    return admitted, all_in


def signal_polls(watcher):
    """Replace the watcher's ``poll_once`` with a wrapper that sets
    ``swapped`` after a tick once a swap has happened and ``failed``
    once a failure has been counted.  Both counters are updated before
    ``poll_once`` returns, and the watcher thread keeps running."""
    poll_once = watcher.poll_once
    swapped, failed = threading.Event(), threading.Event()

    def poll():
        result = poll_once()
        if watcher.swaps:
            swapped.set()
        if watcher.failures:
            failed.set()
        return result

    watcher.poll_once = poll
    return swapped, failed


# ----------------------------------------------------------------------
# wire mapping
# ----------------------------------------------------------------------
def test_request_from_wire_validation():
    key = ("directives", (("f",),), (("e", "l2", 2), ("f", "loop", 4)),
           (), ())
    # JSON carries the key as nested lists, here out of canonical order
    wire_key = ["directives", [["f"]], [["f", "loop", 4], ["e", "l2", 2]],
                [], []]
    request, timeout_s = request_from_wire(
        {"design": "fd", "variant": "v2", "top": 3, "timeout_ms": 1500,
         "directives": wire_key}
    )
    assert request == PredictRequest("fd", variant="v2", top=3,
                                     directives=key)
    assert hash(request.group_key) == hash(("fd", "v2", key))
    assert timeout_s == 1.5
    for bad in ({}, {"design": ""}, {"design": 7},
                {"design": "fd", "top": 0},
                {"design": "fd", "top": True},
                {"design": "fd", "timeout_ms": 0},
                {"design": "fd", "timeout_ms": "soon"},
                {"design": "fd", "directives": "inline"},
                {"design": "fd", "directives": [["loop", 1, 4], "x"]},
                {"design": "fd", "directives": ["directives", [[["f"]]],
                                                [], [], []]},
                {"design": "fd", "variant": ""}):
        with pytest.raises(ServeError):
            request_from_wire(bad)


def test_response_to_wire_is_json_ready():
    import json

    response = PredictResponse(
        request=PredictRequest("fd"), model_source="stub",
        model_generation=2, latency_seconds=0.0123,
        resources={"DSP": 3},
    )
    wire = response_to_wire(response)
    assert json.loads(json.dumps(wire)) == wire
    assert wire["design"] == "fd"
    assert wire["model_generation"] == 2
    assert wire["latency_ms"] == 12.3


# ----------------------------------------------------------------------
# the edge itself
# ----------------------------------------------------------------------
def test_predict_health_ready_stats_roundtrip():
    with served() as handle:
        with NetClient(handle.host, handle.port) as client:
            assert client.health()["status"] == "ok"
            assert client.ready() is True
            result = client.predict("face_detection", timeout_ms=5000)
            assert result["model_source"] == "stub"
            assert result["model_generation"] == 1
            stats = client.stats()
            assert stats["completed"] == 1
            assert stats["net"]["requests"]["predict"] == 1
            assert stats["net"]["open_connections"] == 1


def test_unknown_type_is_bad_request_and_connection_survives():
    with served() as handle:
        with NetClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError, match="unknown request type"):
                client.request("explode")
            with pytest.raises(ServeError, match="non-empty string"):
                client.request("predict", design="")
            # same connection keeps working after both rejections
            assert client.health()["status"] == "ok"
            assert client.reconnects == 1


def test_garbage_frame_kills_connection_never_the_server():
    with served() as handle:
        raw = socket.create_connection((handle.host, handle.port),
                                       timeout=5)
        raw.settimeout(5)
        raw.sendall(b"GARBAGE-NOT-A-FRAME" * 4)
        goodbye = recv_frame_sync(raw)
        assert goodbye["ok"] is False
        assert goodbye["error"]["code"] == "protocol"
        assert raw.recv(1) == b""  # server hung up on this connection
        raw.close()
        # ... but the server itself is fine for everyone else
        with NetClient(handle.host, handle.port) as client:
            assert client.predict("fd")["model_source"] == "stub"
            assert client.stats()["net"]["protocol_errors"] == 1


def test_timeout_ms_becomes_pipeline_deadline():
    service = BlockingService()
    config = ServerConfig(batch_max=1, workers=1)
    with served(service, config) as handle:
        admitted, both_in = record_admissions(handle.net.server, 2)
        outcome = {}

        def deadlined():
            with NetClient(handle.host, handle.port) as client:
                try:
                    outcome["result"] = client.predict("b", timeout_ms=80)
                except Exception as exc:  # noqa: BLE001
                    outcome["error"] = exc

        # occupy the single worker, let "b" expire in the queue behind
        # it, then release: the worker must fail "b" typed on pickup
        with NetClient(handle.host, handle.port) as other:
            blocked = threading.Thread(target=other.predict, args=("a",),
                                       kwargs={"timeout_ms": 30_000},
                                       daemon=True)
            blocked.start()
            assert service.started.wait(timeout=5)
            worker = threading.Thread(target=deadlined)
            worker.start()
            assert both_in.wait(timeout=5)
            # b's deadline was set inside its submit, so it has passed
            # once 80ms have gone by since that submit returned
            time.sleep(max(0.0, admitted["b"] + 0.08 - time.monotonic()))
            service.release.set()
            worker.join(timeout=10)
            blocked.join(timeout=10)
        assert isinstance(outcome.get("error"), DeadlineExceededError)
        assert "expired" in str(outcome["error"])


def test_per_connection_inflight_cap_is_typed_backpressure():
    service = BlockingService()
    config = ServerConfig(batch_max=1, workers=1)
    net_config = NetServerConfig(watch_registry=False, max_conn_inflight=1)
    with served(service, config, net_config) as handle:
        sock = socket.create_connection((handle.host, handle.port),
                                        timeout=5)
        sock.settimeout(5)
        # pipeline two predicts without reading: the second exceeds the
        # connection's in-flight cap and is rejected immediately
        send_frame_sync(sock, {"id": "p1", "type": "predict",
                               "design": "a"})
        assert service.started.wait(timeout=5)
        send_frame_sync(sock, {"id": "p2", "type": "predict",
                               "design": "b"})
        first = recv_frame_sync(sock)
        assert first["id"] == "p2"
        assert first["error"]["code"] == "overloaded"
        service.release.set()
        second = recv_frame_sync(sock)
        assert second["id"] == "p1" and second["ok"] is True
        sock.close()


def test_admission_overload_reaches_the_wire_typed():
    service = BlockingService()
    config = ServerConfig(max_queue=1, batch_max=1, workers=1)
    with served(service, config) as handle:
        _, queued = record_admissions(handle.net.server, 2)
        outcomes = {}

        def call(client, design):
            try:
                outcomes[design] = client.predict(design)
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                outcomes[design] = exc

        with NetClient(handle.host, handle.port) as holder, \
                NetClient(handle.host, handle.port) as filler, \
                NetClient(handle.host, handle.port) as client:
            held = threading.Thread(target=call, args=(holder, "a"))
            held.start()
            assert service.started.wait(timeout=5)
            waiting = threading.Thread(target=call, args=(filler, "b"))
            waiting.start()
            assert queued.wait(timeout=5)
            # the worker holds a and the one queue slot holds b
            with pytest.raises(OverloadedError):
                client.predict("c")
            service.release.set()
            held.join(timeout=10)
            waiting.join(timeout=10)
    assert not held.is_alive() and not waiting.is_alive()
    assert outcomes["a"]["model_source"] == "stub"
    assert outcomes["b"]["model_source"] == "stub"


def test_graceful_drain_answers_every_admitted_request():
    service = SlowService(delay_s=0.05)
    config = ServerConfig(batch_max=1, workers=1)
    with served(service, config) as handle:
        _, all_in = record_admissions(handle.net.server, 6)
        results, failures = [], []

        def call(i):
            try:
                results.append(NetClient(handle.host, handle.port)
                               .predict(f"d{i}", timeout_ms=30_000))
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                failures.append(exc)

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        # drain only once every request is admitted (queued or in flight)
        assert all_in.wait(timeout=10), "requests never admitted"
        handle.shutdown(drain=True)
        for t in threads:
            t.join(timeout=30)
        assert not failures
        assert len(results) == 6  # drained, not dropped
    stats = handle.net.server.stats()
    assert stats["completed"] == 6
    assert stats["failed"] == 0


def test_wire_faults_are_survived_by_client_retry():
    with served() as handle:
        plan = [
            FaultSpec("net.garbage", "corrupt", max_fires=1),
            FaultSpec("net.stall", "delay", delay_seconds=0.02,
                      probability=0.5, max_fires=4),
            # a worker crashing while it holds a claimed batch
            FaultSpec("server.worker", "error", max_fires=2),
        ]
        with injected_faults(plan, seed=7) as injector:
            with NetClient(handle.host, handle.port,
                           request_timeout_s=5.0) as client:
                for i in range(6):
                    result = client.predict(f"d{i}")
                    assert result["model_source"] == "stub"
            fired = injector.stats()["by_site"]
        assert fired.get("net.garbage") == 1
        assert fired.get("server.worker") == 2
        # a corrupted frame cost a reconnect, never a failed request
        assert client.transport_retries >= 1


def test_registry_watcher_hot_swaps_between_batches():
    service = fake_registry_service()
    config = ServerConfig(batch_max=4)
    net_config = NetServerConfig(watch_registry=True,
                                 registry_poll_s=0.01)
    with served(service, config, net_config) as handle:
        watcher = handle.net.watcher
        assert watcher is not None
        swapped, _ = signal_polls(watcher)
        with NetClient(handle.host, handle.port) as client:
            before = client.predict("a")["model_generation"]
            service.registry.version += 1  # "trainer republished"
            assert swapped.wait(timeout=5), "watcher never swapped"
            after = client.predict("a")["model_generation"]
            assert after == before + 1
            stats = client.stats()
            assert stats["swaps"] == 1
            assert stats["net"]["watcher"]["swaps"] == 1
            assert stats["service"]["model_generation"] == after
            # a swap fails nothing and restarts no worker
            assert stats["failed"] == 0
            assert stats["worker_restarts"] == 0


def test_registry_watcher_survives_bad_publish():
    service = fake_registry_service()
    server = ResilientCongestionServer(service, ServerConfig())
    watcher = RegistryWatcher(server, poll_s=0.01)
    swapped, failed = signal_polls(watcher)
    try:
        watcher.start()
        service.registry.load_error = OSError("half-written artifact")
        service.registry.version += 1
        assert failed.wait(timeout=5), "failure never recorded"
        assert watcher.swaps == 0
        assert "half-written" in watcher.last_error
        # the next good publish still lands
        service.registry.load_error = None
        service.registry.version += 1
        assert swapped.wait(timeout=5), "recovery swap never came"
    finally:
        watcher.stop()
        server.close(drain=False)


def test_watcher_requires_a_registry():
    server = ResilientCongestionServer(StubService(), ServerConfig())
    try:
        with pytest.raises(ServeError, match="registry"):
            RegistryWatcher(server)
    finally:
        server.close(drain=False)


def test_shutdown_is_idempotent_and_refuses_after_close():
    handle = served()
    with NetClient(handle.host, handle.port) as client:
        assert client.predict("a")["model_source"] == "stub"
    handle.shutdown(drain=True)
    handle.shutdown(drain=True)  # second call is a no-op
    with pytest.raises((ServerClosedError, OSError, ProtocolError)):
        NetClient(handle.host, handle.port, retries=0,
                  connect_timeout_s=1.0).predict("a")
