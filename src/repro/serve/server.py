"""Fault-tolerant concurrent serving front-end.

:class:`ResilientCongestionServer` wraps a
:class:`~repro.serve.service.CongestionService` with the machinery a
production congestion-prediction endpoint needs:

* **bounded admission** — requests enter a fixed-capacity queue;
  when it is full, :meth:`submit` raises a typed
  :class:`~repro.errors.OverloadedError` immediately (backpressure,
  never unbounded buffering);
* **deadline-aware micro-batching** — a worker waits for the first
  queued request, takes every request already queued with it (at most
  ``batch_max``) and answers the whole batch through the service's
  single stacked
  :meth:`~repro.serve.service.CongestionService.predict_batch`
  invocation — the batching seam the throughput numbers come from.
  It never waits for more arrivals: a lone request is served at once,
  and requests that arrive while a batch is served form the next one;
* **deadline propagation** — each request carries a deadline; expired
  requests are failed with
  :class:`~repro.errors.DeadlineExceededError` *before* work starts on
  them, and the loosest deadline of the batch rides into the HLS-prefix
  pipeline, which checks it between stages;
* **worker supervision** — a worker that crashes (an escaped
  exception, e.g. an injected ``server.worker`` fault) re-queues the
  batch it was holding at the *front* of the queue and dies; the
  supervisor thread notices and starts a replacement, so queued
  requests are never dropped by a crash;
* **graceful degradation** — the underlying service is wired with a
  :class:`~repro.serve.resilience.ResiliencePolicy` (unless the caller
  provides their own service wiring): corrupt registry artifacts are
  quarantined and retrained in place, and responses carry
  ``degraded=True`` instead of the server dying.

The server is deliberately thread-based (stdlib only): prediction cost
is NumPy-bound and the batching seam — not thread parallelism — is the
throughput mechanism, so correctness under supervision is the design
driver.  Calls into the shared service are serialized by an internal
lock; multiple workers still matter because a crashed or
deadline-blocked batch must not strand the queue.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ServeError,
    ServerClosedError,
)
from repro.serve.resilience import Deadline, ResiliencePolicy
from repro.serve.service import (
    CongestionService,
    PredictRequest,
    PredictResponse,
)
from repro.util.faults import fault_point


@dataclass
class ServerConfig:
    """Knobs of the resilient serving front-end."""

    #: admission-queue capacity; submits beyond it raise OverloadedError
    max_queue: int = 64
    #: micro-batch size cap
    batch_max: int = 16
    #: worker threads (each serves one micro-batch at a time)
    workers: int = 1
    #: default per-request deadline; None = no deadline
    default_timeout_s: float | None = None
    #: how often the supervisor scans for crashed workers
    supervisor_poll_s: float = 0.02
    #: sliding window over which worker restarts are budgeted
    restart_window_s: float = 10.0
    #: restarts allowed inside the window before the supervisor gives
    #: up: stops respawning, fails queued work typed, rejects new
    #: submits (``supervisor_gave_up`` in stats) — never a hot loop
    restart_budget: int = 32
    #: base backoff before each successive restart in the window
    #: (doubles per recent restart, capped at 0.25s)
    restart_backoff_s: float = 0.01

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.batch_max < 1:
            raise ServeError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")
        if self.restart_budget < 1:
            raise ServeError(
                f"restart_budget must be >= 1, got {self.restart_budget}"
            )
        # a zero poll spins the supervisor on a CPU, and a zero window
        # forgets every restart at once, so a storm never trips the budget
        if self.supervisor_poll_s <= 0:
            raise ServeError(
                f"supervisor_poll_s must be > 0, got {self.supervisor_poll_s}"
            )
        if self.restart_window_s <= 0:
            raise ServeError(
                f"restart_window_s must be > 0, got {self.restart_window_s}"
            )
        if self.restart_backoff_s < 0:
            raise ServeError(
                f"restart_backoff_s must be >= 0, "
                f"got {self.restart_backoff_s}"
            )


@dataclass
class _Item:
    """One admitted request awaiting service."""

    request: PredictRequest
    future: Future
    deadline: float | None  # monotonic timestamp
    submitted_at: float = field(default_factory=time.monotonic)


class _AdmissionQueue:
    """Bounded FIFO with typed overload rejection and in-flight counting.

    ``put`` never blocks and never buffers beyond ``capacity``.  A batch
    counts as in flight from the moment :meth:`take_batch` pops it until
    its worker calls :meth:`finish`, both under the queue lock, so
    :meth:`wait_idle` never sees an empty queue while a worker holds
    work.  ``finish`` may put a crashed batch's unresolved items back at
    the front, past the capacity check: they were already admitted once
    (crash recovery must not drop them).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._items: deque[_Item] = deque()
        self._inflight = 0
        self._cond = threading.Condition()
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def inflight(self) -> int:
        """Requests taken by a worker and not yet finished."""
        with self._cond:
            return self._inflight

    def close(self) -> None:
        """Refuse all further admissions.  Taking this decision under
        the queue lock is what makes submit-vs-close race-free: a
        future either enters the queue before the close (and will be
        drained or served) or its ``put`` raises — it can never be
        admitted into a queue nobody will drain again."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def put(self, item: _Item) -> None:
        with self._cond:
            if self._closed:
                raise ServerClosedError("server is closed")
            if len(self._items) >= self.capacity:
                raise OverloadedError(
                    f"admission queue full ({self.capacity} requests "
                    f"queued); retry later or raise max_queue"
                )
            self._items.append(item)
            # one waiter suffices: wait_idle only runs once the queue is
            # closed, so this wakes a worker
            self._cond.notify()

    def finish(self, batch_size: int,
               requeue: list[_Item] | None = None) -> None:
        """Settle a batch :meth:`take_batch` returned: its
        ``batch_size`` items leave flight, and ``requeue`` (the part a
        crashed worker left unresolved) goes back to the front."""
        with self._cond:
            if requeue:
                self._items.extendleft(reversed(requeue))
            self._inflight -= batch_size
            self._cond.notify_all()

    def wake_all(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def drain(self) -> list[_Item]:
        with self._cond:
            items = list(self._items)
            self._items.clear()
            return items

    def take_batch(self, max_items: int,
                   stop: threading.Event) -> list[_Item]:
        """Block until a request is queued, then take every queued
        request, oldest first and at most ``max_items``, and return at
        once: a lone request never waits for company.  The batch is in
        flight until :meth:`finish`.  Returns ``[]`` when woken by
        shutdown with nothing queued."""
        with self._cond:
            while not self._items:
                if stop.is_set():
                    return []
                self._cond.wait(timeout=0.1)
            batch = [self._items.popleft()
                     for _ in range(min(max_items, len(self._items)))]
            self._inflight += len(batch)
            return batch

    def wait_idle(self, timeout_s: float,
                  give_up: Callable[[], bool]) -> bool:
        """Block until the queue is empty with nothing in flight, or
        ``give_up()`` turns true, or ``timeout_s`` passes.  Returns
        whether the queue went idle."""
        with self._cond:
            self._cond.wait_for(
                lambda: give_up() or (not self._items
                                      and self._inflight == 0),
                timeout=timeout_s,
            )
            return not self._items and self._inflight == 0


class ResilientCongestionServer:
    """Admission control + micro-batching + supervision around a
    :class:`CongestionService`.  Use as a context manager, or call
    :meth:`close` explicitly."""

    def __init__(
        self,
        service: CongestionService,
        config: ServerConfig | None = None,
    ) -> None:
        self.service = service
        self.config = config or ServerConfig()
        if service.resilience is None:
            service.resilience = ResiliencePolicy()
        self._queue = _AdmissionQueue(self.config.max_queue)
        self._stop = threading.Event()
        self._closed = False
        self._service_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._stats = {
            "submitted": 0, "completed": 0, "failed": 0,
            "rejected_overload": 0, "deadline_misses": 0,
            "batches": 0, "batched_requests": 0,
            "worker_crashes": 0, "worker_restarts": 0,
            "late_deliveries": 0, "last_worker_crash": "",
            "swaps": 0, "supervisor_gave_up": False,
        }
        self._workers: list[threading.Thread] = []
        self._workers_lock = threading.Lock()
        for _ in range(self.config.workers):
            self._workers.append(self._spawn_worker())
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-supervisor", daemon=True
        )
        self._supervisor.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> threading.Thread:
        worker = threading.Thread(
            target=self._worker_loop, name="serve-worker", daemon=True
        )
        worker.start()
        return worker

    def _supervise(self) -> None:
        """Restart crashed workers until shutdown, under a sliding-window
        restart budget.  Queued requests survive a crash: the dying
        worker re-queued them at the front, and the replacement picks
        them up.  A *restart storm* — more than ``restart_budget``
        restarts inside ``restart_window_s`` — means the service itself
        is broken, not one unlucky batch: the supervisor stops
        respawning, fails queued work typed, and the server rejects all
        further submits (``supervisor_gave_up`` in stats)."""
        restarts: deque[float] = deque()
        while not self._stop.wait(self.config.supervisor_poll_s):
            with self._workers_lock:
                dead = [i for i, worker in enumerate(self._workers)
                        if not worker.is_alive()]
            if not dead or self._stop.is_set():
                continue
            now = time.monotonic()
            while restarts and now - restarts[0] > self.config.restart_window_s:
                restarts.popleft()
            for i in dead:
                if len(restarts) >= self.config.restart_budget:
                    self._give_up()
                    return
                backoff = min(
                    self.config.restart_backoff_s * (2 ** len(restarts)),
                    0.25,
                )
                if self._stop.wait(backoff):
                    return
                with self._workers_lock:
                    if self._workers[i].is_alive():
                        continue  # already replaced
                    # counted before the spawn: whatever the replacement
                    # answers, stats() already shows its restart
                    restarts.append(time.monotonic())
                    with self._stats_lock:
                        self._stats["worker_restarts"] += 1
                    self._workers[i] = self._spawn_worker()

    def _gave_up(self) -> bool:
        with self._stats_lock:
            return self._stats["supervisor_gave_up"]

    def _give_up(self) -> None:
        """Restart budget exhausted: stop serving, fail queued work."""
        with self._stats_lock:
            self._stats["supervisor_gave_up"] = True
        self._closed = True
        self._queue.close()
        self._queue.wake_all()
        for item in self._queue.drain():
            self._fail(item, ServerClosedError(
                "supervisor gave up: worker restart budget "
                f"({self.config.restart_budget} restarts per "
                f"{self.config.restart_window_s:g}s) exhausted"
            ))

    def close(self, *, drain: bool = True, timeout_s: float = 5.0) -> None:
        """Stop accepting work and shut down.

        With ``drain=True`` (the default) every *already admitted*
        request is served before workers stop: the queue refuses new
        submits immediately, then close waits (bounded by
        ``timeout_s``) for the queue and in-flight batches to empty.
        With ``drain=False`` — or for whatever is still unanswered when
        the drain times out — queued requests are failed with
        :class:`ServerClosedError`: typed, never silently dropped.
        """
        self._closed = True
        self._queue.close()
        if drain:
            # woken by every finished batch, and by the supervisor's
            # give-up, which closes the queue again
            self._queue.wait_idle(timeout_s, self._gave_up)
        self._stop.set()
        self._queue.wake_all()
        for item in self._queue.drain():
            self._fail(item, ServerClosedError(
                "server closed before the request was served"
            ))
        with self._workers_lock:
            workers = list(self._workers)
        for worker in workers:
            worker.join(timeout=timeout_s)
        self._supervisor.join(timeout=timeout_s)
        # after the last worker: a pool-backed service stops its worker
        # processes here (no-op for the plain in-process service;
        # duck-typed test stubs may not define close at all)
        service_close = getattr(self.service, "close", None)
        if service_close is not None:
            service_close()

    def __enter__(self) -> "ResilientCongestionServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the request edge
    # ------------------------------------------------------------------
    def submit(self, request: PredictRequest, *,
               timeout_s: float | None = None) -> Future:
        """Admit one request; returns a ``Future[PredictResponse]``.

        Raises :class:`OverloadedError` when the admission queue is
        full and :class:`ServerClosedError` after :meth:`close`.
        ``timeout_s`` (default ``config.default_timeout_s``) becomes the
        request's deadline.
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        if timeout_s is None:
            timeout_s = self.config.default_timeout_s
        deadline = (
            Deadline.after(timeout_s).at if timeout_s is not None else None
        )
        item = _Item(request=request, future=Future(), deadline=deadline)
        try:
            self._queue.put(item)
        except OverloadedError:
            with self._stats_lock:
                self._stats["rejected_overload"] += 1
            raise
        with self._stats_lock:
            self._stats["submitted"] += 1
        return item.future

    def predict(self, request: PredictRequest, *,
                timeout_s: float | None = None) -> PredictResponse:
        """Synchronous convenience: submit and wait.

        The wait itself is bounded (deadline plus a margin, or 60s
        without one) so a lost future can never hang the caller."""
        future = self.submit(request, timeout_s=timeout_s)
        wait = (timeout_s + 30.0) if timeout_s is not None else 60.0
        return future.result(timeout=wait)

    def warm(self) -> str:
        """Eagerly load-or-train the model (see
        :meth:`CongestionService.warm`); serving also warms lazily."""
        with self._service_lock:
            return self.service.warm()

    def hot_swap(self, predictor, *, source: str = "registry") -> int:
        """Atomically adopt a new predictor between micro-batches.

        Taking ``_service_lock`` — the same lock that serializes
        ``predict_batch`` — is the consistency guarantee: an in-flight
        batch finishes on the model it started with, and every batch is
        answered by exactly one model generation.  Returns the new
        generation id.
        """
        with self._service_lock:
            generation = self.service.adopt_predictor(
                predictor, source=source
            )
        with self._stats_lock:
            self._stats["swaps"] += 1
        return generation

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            batch = self._queue.take_batch(self.config.batch_max,
                                           self._stop)
            if not batch:
                continue
            pending = set(range(len(batch)))
            try:
                # chaos seam: an injected fault here escapes the loop —
                # the worker "crashes" while holding a claimed batch
                fault_point("server.worker")
                self._process_batch(batch, pending)
            except BaseException as exc:
                # worker crash: put the unresolved part of the batch
                # back at the FRONT of the queue (admitted work is
                # never dropped) and die; the supervisor restarts us
                with self._stats_lock:
                    self._stats["worker_crashes"] += 1
                    self._stats["last_worker_crash"] = repr(exc)
                self._queue.finish(
                    len(batch), requeue=[batch[i] for i in sorted(pending)]
                )
                return
            self._queue.finish(len(batch))

    def _fail(self, item: _Item, exc: Exception) -> None:
        with self._stats_lock:
            self._stats["failed"] += 1
            if isinstance(exc, DeadlineExceededError):
                self._stats["deadline_misses"] += 1
        if not item.future.set_running_or_notify_cancel():
            return  # caller cancelled while queued
        item.future.set_exception(exc)

    def _complete(self, item: _Item, response: PredictResponse) -> None:
        with self._stats_lock:
            self._stats["completed"] += 1
        if not item.future.set_running_or_notify_cancel():
            return
        item.future.set_result(response)

    def _process_batch(self, batch: list[_Item],
                       pending: set[int]) -> None:
        """Serve one micro-batch; every item leaves ``pending`` exactly
        when its future is resolved (crash recovery re-queues the
        rest)."""
        now = time.monotonic()
        live: list[tuple[int, _Item]] = []
        for i, item in enumerate(batch):
            if item.deadline is not None and now >= item.deadline:
                pending.discard(i)
                self._fail(item, DeadlineExceededError(
                    f"request {item.request.design!r} expired after "
                    f"{(now - item.submitted_at) * 1e3:.1f}ms in queue"
                ))
            else:
                live.append((i, item))
        if not live:
            return

        # extraction work is shared across the batch, so propagate the
        # *loosest* member deadline; items that individually expire are
        # settled on completion below
        deadlines = [it.deadline for _, it in live if it.deadline is not None]
        batch_deadline = (
            max(deadlines)
            if deadlines and len(deadlines) == len(live) else None
        )
        requests = [item.request for _, item in live]
        try:
            with self._service_lock:
                responses = self.service.predict_batch(
                    requests, deadline=batch_deadline
                )
        except ReproError as exc:
            # typed serving failure (deadline blown mid-pipeline,
            # dataset breaker open, unknown design...): settle every
            # live future with it — callers always get an answer
            for i, item in live:
                pending.discard(i)
                self._fail(item, exc)
            return

        with self._stats_lock:
            self._stats["batches"] += 1
            if len(live) > 1:
                self._stats["batched_requests"] += len(live)
        done = time.monotonic()
        for (i, item), response in zip(live, responses):
            pending.discard(i)
            if item.deadline is not None and done >= item.deadline:
                # the answer exists but arrived late: deliver it (the
                # work is done and correct) and account for the miss
                with self._stats_lock:
                    self._stats["late_deliveries"] += 1
            self._complete(item, response)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Server, service, registry and breaker statistics."""
        with self._stats_lock:
            stats = dict(self._stats)
        stats["queue_depth"] = len(self._queue)
        stats["inflight"] = self._queue.inflight
        stats["service"] = self.service.stats()
        return stats


class RegistryWatcher:
    """Model hot-swap driver: polls the registry for a newer persisted
    model matching the service's (family, dataset, device) key and
    atomically swaps it in via :meth:`ResilientCongestionServer.hot_swap`.

    The deployment story this serves: a trainer process re-``save``\\ s
    an improved model under the same key, and every serving process
    picks it up within ``poll_s`` — no restart, no dropped requests.
    The watcher compares the registry's opaque
    :meth:`~repro.serve.registry.ModelRegistry.artifact_version` token
    (not file contents) per tick, so polling is one ``stat`` call.

    :meth:`start` captures the *current* token as the baseline: the
    model the server warmed with is never re-loaded as a spurious
    "swap".  Load failures (partially written artifacts, stale
    manifests) are counted and retried next tick — a bad publish can
    never take down serving.
    """

    def __init__(self, server: ResilientCongestionServer, *,
                 poll_s: float = 0.2) -> None:
        service = server.service
        if service.registry is None:
            raise ServeError(
                "hot-swap needs a persistent model registry; this "
                "service is memory-only (no REPRO_CACHE_DIR)"
            )
        self.server = server
        self.poll_s = poll_s
        self.swaps = 0
        self.failures = 0
        self.last_error = ""
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._token: tuple | None = None

    def _current_token(self) -> tuple | None:
        service = self.server.service
        return service.registry.artifact_version(
            service.model_name, service.dataset_fingerprint,
            service.device,
        )

    def start(self) -> None:
        if self._thread is not None:
            return
        self._token = self._current_token()
        self._thread = threading.Thread(
            target=self._watch, name="registry-watcher", daemon=True
        )
        self._thread.start()

    def stop(self, timeout_s: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None

    def _watch(self) -> None:
        while not self._stop.wait(self.poll_s):
            try:
                self.poll_once()
            except Exception as exc:  # never kill the watcher thread
                self.failures += 1
                self.last_error = repr(exc)

    def poll_once(self) -> bool:
        """One watch tick; returns True when a swap happened."""
        token = self._current_token()
        if token is None or token == self._token:
            return False
        service = self.server.service
        try:
            predictor = service.registry.load(
                service.model_name, service.dataset_fingerprint,
                device=service.device,
            )
        except Exception as exc:
            # a half-published or stale artifact: keep serving the old
            # model, count the failure, retry next tick
            self.failures += 1
            self.last_error = repr(exc)
            return False
        self._token = token
        self.server.hot_swap(predictor, source="registry")
        self.swaps += 1
        return True

    def stats(self) -> dict:
        return {
            "swaps": self.swaps,
            "failures": self.failures,
            "last_error": self.last_error,
            "poll_s": self.poll_s,
        }
