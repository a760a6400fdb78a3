"""The fault-tolerant serving front-end.

Server *mechanics* (admission, micro-batching, deadlines, supervision,
shutdown) are exercised against a stub service so each behavior is
deterministic and cheap; the end-to-end degraded-serving path against a
real trained model lives in ``test_serve.py`` and the chaos/crash-safety
suite in ``test_crash_safety.py``.
"""

import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServeError,
    ServerClosedError,
)
from repro.serve import (
    PredictRequest,
    PredictResponse,
    ResilientCongestionServer,
    ServerConfig,
)
from repro.serve.server import _AdmissionQueue, _Item
from repro.util.faults import FaultSpec, injected_faults


class StubService:
    """Duck-typed CongestionService: instant, inspectable answers."""

    def __init__(self):
        self.resilience = None
        self.batches = []  # (requests, deadline) per predict_batch call
        self.lock = threading.Lock()

    def warm(self):
        return "trained"

    def predict_batch(self, requests, *, deadline=None):
        with self.lock:
            self.batches.append((list(requests), deadline))
        return [
            PredictResponse(request=r, model_source="stub")
            for r in requests
        ]

    def stats(self):
        return {}


class BlockingService(StubService):
    """Holds every batch until ``release`` is set (queue-pressure tests)."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.started = threading.Event()

    def predict_batch(self, requests, *, deadline=None):
        self.started.set()
        assert self.release.wait(timeout=10.0)
        return super().predict_batch(requests, deadline=deadline)


def _designs(batches):
    """The design names of each recorded ``predict_batch`` call."""
    return [[r.design for r in requests] for requests, _ in batches]


def _item(design):
    return _Item(request=PredictRequest(design), future=Future(),
                 deadline=None)


def test_config_validation():
    with pytest.raises(ServeError, match="max_queue"):
        ServerConfig(max_queue=0)
    with pytest.raises(ServeError, match="workers"):
        ServerConfig(workers=0)
    with pytest.raises(ServeError, match="batch_max"):
        ServerConfig(batch_max=0)
    with pytest.raises(ServeError, match="supervisor_poll_s"):
        ServerConfig(supervisor_poll_s=0)
    with pytest.raises(ServeError, match="supervisor_poll_s"):
        ServerConfig(supervisor_poll_s=-0.01)
    with pytest.raises(ServeError, match="restart_window_s"):
        ServerConfig(restart_window_s=0)
    with pytest.raises(ServeError, match="restart_backoff_s"):
        ServerConfig(restart_backoff_s=-0.01)
    ServerConfig(restart_backoff_s=0)  # no backoff is a valid choice


def test_take_batch_returns_what_is_queued_at_once():
    queue = _AdmissionQueue(capacity=8)
    stop = threading.Event()
    items = [_item(f"r{i}") for i in range(5)]
    for item in items:
        queue.put(item)
    # oldest first, capped, and the rest without waiting for company
    assert queue.take_batch(3, stop) == items[:3]
    assert queue.take_batch(3, stop) == items[3:]
    assert len(queue) == 0
    assert queue.inflight == 5
    stop.set()
    assert queue.take_batch(3, stop) == []


def test_taken_batch_is_in_flight_until_finished():
    queue = _AdmissionQueue(capacity=8)
    stop = threading.Event()
    first, second = _item("a"), _item("b")
    queue.put(first)
    queue.put(second)
    assert queue.take_batch(4, stop) == [first, second]
    # the queue is empty, but a worker holds the batch: not idle
    assert not queue.wait_idle(0, give_up=lambda: False)
    # a give-up ends the wait at once, idle or not
    assert not queue.wait_idle(60, give_up=lambda: True)
    # a crash settles the batch and puts its unresolved part back
    queue.finish(2, requeue=[second])
    assert queue.inflight == 0
    assert not queue.wait_idle(0, give_up=lambda: False)
    assert queue.take_batch(4, stop) == [second]
    queue.finish(1)
    assert queue.wait_idle(0, give_up=lambda: False)


def test_submit_and_predict_roundtrip():
    service = StubService()
    with ResilientCongestionServer(service, ServerConfig()) as server:
        assert server.warm() == "trained"
        response = server.predict(PredictRequest("face_detection"))
        assert response.model_source == "stub"
        stats = server.stats()
        assert stats["submitted"] == 1
        assert stats["completed"] == 1
        assert stats["failed"] == 0


def _serve_behind_held_batch(config, n_requests):
    """Submit r0 and hold the worker on it while r1.. queue up, then
    release; returns the design names of each served batch."""
    service = BlockingService()
    with ResilientCongestionServer(service, config) as server:
        futures = [server.submit(PredictRequest("r0"))]
        assert service.started.wait(timeout=5)  # the worker holds [r0]
        futures += [server.submit(PredictRequest(f"r{i}"))
                    for i in range(1, n_requests)]
        service.release.set()
        responses = [f.result(timeout=10) for f in futures]
    assert all(r.model_source == "stub" for r in responses)
    return _designs(service.batches)


def test_micro_batching_coalesces_concurrent_requests():
    # a lone request is served at once; everything that queued while it
    # was served goes out as the next batch
    assert _serve_behind_held_batch(ServerConfig(batch_max=16), 6) == [
        ["r0"], ["r1", "r2", "r3", "r4", "r5"],
    ]


def test_batch_max_caps_coalescing():
    assert _serve_behind_held_batch(ServerConfig(batch_max=2), 6) == [
        ["r0"], ["r1", "r2"], ["r3", "r4"], ["r5"],
    ]


def test_overload_is_rejected_typed_never_buffered():
    service = BlockingService()
    config = ServerConfig(max_queue=2, batch_max=1)
    with ResilientCongestionServer(service, config) as server:
        first = server.submit(PredictRequest("a"))
        assert service.started.wait(timeout=5)  # worker holds request 1
        queued = [server.submit(PredictRequest("b")) for _ in range(2)]
        with pytest.raises(OverloadedError, match="admission queue full"):
            server.submit(PredictRequest("c"))
        assert server.stats()["rejected_overload"] == 1
        service.release.set()
        for future in (first, *queued):
            future.result(timeout=10)  # admitted work all completes
    assert server.stats()["completed"] == 3


def test_expired_request_fails_typed_before_service_work():
    service = StubService()
    with ResilientCongestionServer(service, ServerConfig()) as server:
        future = server.submit(PredictRequest("a"), timeout_s=0.0)
        with pytest.raises(DeadlineExceededError, match="expired"):
            future.result(timeout=10)
        stats = server.stats()
        assert stats["deadline_misses"] == 1
        assert stats["failed"] == 1
    assert service.batches == []  # never reached the service


def _batch_deadline(b_timeout_s):
    """Serve ``a`` (5s deadline) and ``b`` as one batch queued behind a
    held request; returns the deadline that batch ran under."""
    service = BlockingService()
    with ResilientCongestionServer(service, ServerConfig()) as server:
        held = server.submit(PredictRequest("held"))
        assert service.started.wait(timeout=5)
        f1 = server.submit(PredictRequest("a"), timeout_s=5.0)
        f2 = server.submit(PredictRequest("b"), timeout_s=b_timeout_s)
        service.release.set()
        for future in (held, f1, f2):
            future.result(timeout=10)
    assert _designs(service.batches) == [["held"], ["a", "b"]]
    return service.batches[1][1]


def test_batch_deadline_is_loosest_member():
    deadline = _batch_deadline(60.0)
    assert deadline is not None
    # the propagated deadline is the LOOSEST member's (about 60s out)
    assert deadline - time.monotonic() > 10.0


def test_mixed_deadlines_propagate_none():
    """One member without a deadline means the shared extraction has no
    budget to enforce — per-request expiry is still handled per item."""
    assert _batch_deadline(None) is None


def test_worker_crash_restarts_without_dropping_requests():
    service = StubService()
    config = ServerConfig(supervisor_poll_s=0.01)
    with ResilientCongestionServer(service, config) as server:
        with injected_faults(
            [FaultSpec("server.worker", "error", max_fires=1)]
        ):
            # first claim crashes the worker; the request is re-queued,
            # the supervisor restarts the worker, the retry answers
            response = server.predict(PredictRequest("face_detection"))
        assert response.model_source == "stub"
        # one worker: only the replacement can have answered, and the
        # supervisor counts a restart before it spawns the replacement
        stats = server.stats()
        assert stats["worker_restarts"] == 1
        assert stats["worker_crashes"] == 1
        assert "InjectedFault" in stats["last_worker_crash"]
        assert stats["completed"] == 1
        assert stats["failed"] == 0


def test_repeated_crashes_still_serve_everything():
    service = StubService()
    config = ServerConfig(workers=2, supervisor_poll_s=0.01)
    with ResilientCongestionServer(service, config) as server:
        with injected_faults(
            [FaultSpec("server.worker", "error", probability=0.5,
                       max_fires=4)], seed=3,
        ):
            futures = [
                server.submit(PredictRequest("face_detection"))
                for _ in range(10)
            ]
            responses = [f.result(timeout=30) for f in futures]
    assert len(responses) == 10
    assert server.stats()["failed"] == 0


def test_service_error_settles_every_live_future():
    class FailingService(StubService):
        def predict_batch(self, requests, *, deadline=None):
            raise ServeError("unknown design")

    with ResilientCongestionServer(FailingService(),
                                   ServerConfig()) as server:
        futures = [server.submit(PredictRequest("nope")) for _ in range(3)]
        for future in futures:
            with pytest.raises(ServeError, match="unknown design"):
                future.result(timeout=10)
        stats = server.stats()
        assert stats["failed"] == 3
        assert stats["worker_crashes"] == 0  # typed failure, not a crash


def test_close_fails_queued_requests_typed():
    service = BlockingService()
    config = ServerConfig(batch_max=1)
    server = ResilientCongestionServer(service, config)
    held = server.submit(PredictRequest("a"))
    assert service.started.wait(timeout=5)
    queued = server.submit(PredictRequest("b"))
    # non-drain close while the worker is mid-batch: the queued request
    # is failed typed; the in-flight one is NOT abandoned
    server.close(drain=False, timeout_s=0.2)
    with pytest.raises(ServerClosedError):
        queued.result(timeout=10)
    with pytest.raises(ServerClosedError, match="closed"):
        server.submit(PredictRequest("c"))
    service.release.set()
    assert held.result(timeout=10).model_source == "stub"


def test_drain_close_answers_every_admitted_request():
    """Close starts while the first batch is held and seven requests
    wait behind it; the batch is released only once the queue has
    closed, so the drain must answer all eight."""
    service = BlockingService()
    config = ServerConfig(batch_max=1, workers=1)
    server = ResilientCongestionServer(service, config)
    futures = [server.submit(PredictRequest(f"d{i}")) for i in range(8)]
    assert service.started.wait(timeout=5)

    queue_closed = threading.Event()
    close_queue = server._queue.close

    def close_and_signal():
        close_queue()
        queue_closed.set()

    server._queue.close = close_and_signal
    closer = threading.Thread(
        target=server.close, kwargs={"drain": True, "timeout_s": 10.0}
    )
    closer.start()
    assert queue_closed.wait(timeout=5)
    service.release.set()
    closer.join(timeout=15)
    assert not closer.is_alive()
    # every admitted request was served before shutdown, none failed
    assert [f.result(timeout=1).model_source for f in futures] \
        == ["stub"] * 8
    stats = server.stats()
    assert stats["completed"] == 8
    assert stats["failed"] == 0
    with pytest.raises(ServerClosedError):
        server.submit(PredictRequest("late"))


def test_drain_close_under_thread_churn_leaves_nothing_in_flight():
    """More workers than cores and a short switch interval: every worker
    moves the in-flight count under the queue lock, so it must come back
    to zero, and a drain must answer everything admitted."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        server = ResilientCongestionServer(
            StubService(), ServerConfig(max_queue=512, batch_max=3,
                                        workers=6),
        )
        futures = []

        def submit_many():
            for _ in range(100):
                futures.append(server.submit(PredictRequest("x")))

        threads = [threading.Thread(target=submit_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        server.close(drain=True, timeout_s=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert len(futures) == 400
    assert all(f.result(timeout=0).model_source == "stub" for f in futures)
    stats = server.stats()
    assert stats["inflight"] == 0
    assert stats["completed"] == 400
    assert stats["failed"] == 0


def test_concurrent_submit_vs_close_never_loses_a_future():
    """The shutdown race: a submit racing close either enters the queue
    (and is drained/served) or raises typed — no future is ever left
    forever-pending, and none is answered twice."""
    for round_ in range(5):
        service = StubService()
        config = ServerConfig(max_queue=256, workers=2)
        server = ResilientCongestionServer(service, config)
        admitted = []
        admitted_lock = threading.Lock()
        go = threading.Event()
        # close at a different point of the race each round
        close_after = 20 + 40 * round_
        enough = threading.Event()

        def hammer():
            go.wait(timeout=5)
            while True:
                try:
                    future = server.submit(PredictRequest("x"))
                except ServerClosedError:
                    return
                except OverloadedError:
                    continue
                with admitted_lock:
                    admitted.append(future)
                    if len(admitted) >= close_after:
                        enough.set()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        go.set()
        assert enough.wait(timeout=10)
        server.close(drain=True, timeout_s=10.0)
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        resolved = 0
        for future in admitted:
            assert future.done(), "a submitted future was lost by close"
            try:
                assert future.result(timeout=0).model_source == "stub"
                resolved += 1
            except ServerClosedError:
                resolved += 1  # typed, not lost
        assert resolved == len(admitted)
        stats = server.stats()
        assert stats["completed"] + stats["failed"] == len(admitted)


def test_supervisor_gives_up_after_restart_storm():
    service = StubService()
    config = ServerConfig(workers=1, supervisor_poll_s=0.005,
                          restart_budget=3, restart_window_s=30.0,
                          restart_backoff_s=0.001)
    server = ResilientCongestionServer(service, config)
    try:
        with injected_faults(
            [FaultSpec("server.worker", "error")]  # crash on EVERY claim
        ):
            future = server.submit(PredictRequest("doomed"))
            # settled by the supervisor's give-up, which fails queued work
            with pytest.raises(ServerClosedError, match="restart budget"):
                future.result(timeout=10)
        with pytest.raises(ServerClosedError):
            server.submit(PredictRequest("after"))
        stats = server.stats()
        assert stats["supervisor_gave_up"] is True
        assert stats["worker_restarts"] == 3
        assert stats["worker_crashes"] == 4  # initial + 3 restarts
    finally:
        server.close(drain=False)


def test_hot_swap_waits_for_inflight_batch_and_bumps_generation():
    class GenerationService(StubService):
        """Tracks adopt_predictor like the real service; holds its first
        two batches, each until its gate opens, so a swap can race the
        second."""

        def __init__(self):
            super().__init__()
            self.model_generation = 1
            self.gates = [threading.Event(), threading.Event()]
            self.entered = [threading.Event(), threading.Event()]
            self.calls = 0
            self.serving = False
            self.swapped_mid_batch = False

        def adopt_predictor(self, predictor, *, source="registry"):
            self.swapped_mid_batch |= self.serving
            self.model_generation += 1
            return self.model_generation

        def predict_batch(self, requests, *, deadline=None):
            self.serving = True
            generation = self.model_generation
            call, self.calls = self.calls, self.calls + 1
            if call < len(self.gates):
                self.entered[call].set()
                assert self.gates[call].wait(timeout=10.0)
            with self.lock:
                self.batches.append((list(requests), deadline))
            self.serving = False
            return [
                PredictResponse(request=r, model_source="stub",
                                model_generation=generation)
                for r in requests
            ]

    service = GenerationService()
    config = ServerConfig(batch_max=4, workers=1)
    with ResilientCongestionServer(service, config) as server:
        gate = server.submit(PredictRequest("gate"))
        assert service.entered[0].wait(timeout=5)  # the worker holds it
        first = [server.submit(PredictRequest(f"a{i}")) for i in range(3)]
        service.gates[0].set()
        # the three queued requests go out as one batch, held in turn
        assert service.entered[1].wait(timeout=5)

        swapped = threading.Event()

        def swap():
            # blocks on _service_lock until the in-flight batch is done
            server.hot_swap(object())
            swapped.set()

        swapper = threading.Thread(target=swap)
        swapper.start()
        assert not swapped.wait(timeout=0.05)  # swap waits for the batch
        service.gates[1].set()
        swapper.join(timeout=10)
        assert swapped.is_set()

        second = [server.submit(PredictRequest(f"b{i}")) for i in range(3)]
        first_gens = {f.result(timeout=10).model_generation
                      for f in (gate, *first)}
        second_gens = {f.result(timeout=10).model_generation
                       for f in second}
        # each batch is single-generation: the swap landed BETWEEN
        # batches, never inside one
        assert _designs(service.batches[:2]) == [["gate"],
                                                 ["a0", "a1", "a2"]]
        assert not service.swapped_mid_batch
        assert first_gens == {1}
        assert second_gens == {2}
        assert server.stats()["swaps"] == 1
