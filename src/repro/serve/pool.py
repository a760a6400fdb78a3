"""Sharded multi-process serving pool over the parent's model kernels.

:class:`PoolServer` is a :class:`~repro.serve.service.CongestionService`
whose ``predict_batch`` fans micro-batches out across ``N`` worker
*processes* instead of invoking the model in-process:

* each worker runs its own ``CongestionService`` (``registry=None`` —
  workers never train) and adopts the predictor the parent adopted
  last, sent as its kernels packed exactly as the model registry
  persists them (:func:`~repro.ml.compiled.pack_kernels`) and rebuilt
  with :meth:`~repro.predict.CongestionPredictor.from_kernels`; worker
  answers report ``model_source == "export"``.  Workers and the
  parent's inline fallback therefore always answer with one model, for
  every model family;
* requests are **sharded deterministically**: the request's feature
  group (design, variant, directives) plus the device fingerprint hash
  to a fixed worker, so each worker's feature cache holds only its own
  shard — the pool partitions cache memory instead of replicating it,
  and repeated requests for one design always hit the worker that is
  already warm for it;
* the parent is the **supervisor**: a crashed worker (e.g. an injected
  ``pool.worker:crash`` fault) is restarted under a restart budget and
  its shard re-dispatched once; a shard that still cannot be served by
  the pool is answered *inline* by the parent's own predictor with
  ``degraded=True`` — admitted work is never dropped.  An exhausted
  restart budget degrades the whole pool to inline serving;
* because ``PoolServer`` *is a* ``CongestionService``, the existing
  serving edges wrap it unchanged:
  ``ResilientCongestionServer(PoolServer(...))`` keeps admission
  control, deadlines, micro-batching and supervision, and
  :meth:`adopt_predictor` broadcasts hot-swaps to every worker between
  batches.

Fault sites: ``pool.dispatch`` fires in the parent before a batch is
sharded; ``pool.worker`` fires in each worker before it serves a shard
(see :mod:`repro.util.faults`).
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import pickle
import time
from dataclasses import dataclass
from queue import Empty

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServeError,
)
from repro.ml.compiled import pack_kernels, unpack_kernels
from repro.predict.predictor import CongestionPredictor
from repro.serve.resilience import deadline_timestamp
from repro.serve.service import (
    CongestionService,
    PredictRequest,
    PredictResponse,
)
from repro.util.faults import (
    FaultInjector,
    fault_point,
    install,
    parse_fault_plan,
)


@dataclass
class PoolConfig:
    """Knobs of the multi-process serving pool."""

    #: worker processes (each a full serving shard)
    workers: int = 2
    #: seconds allowed for a worker to start and adopt its model
    start_timeout_s: float = 120.0
    #: seconds allowed for one dispatched shard (without a deadline)
    dispatch_timeout_s: float = 120.0
    #: worker restarts allowed over the pool's lifetime before it
    #: degrades to inline serving permanently
    restart_budget: int = 3
    #: REPRO_FAULTS-style plan installed inside every worker process
    #: (chaos tests inject ``pool.worker`` faults in children this way)
    worker_faults: str = ""
    #: seed for the worker-side fault plan
    fault_seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")
        if self.restart_budget < 0:
            raise ServeError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _picklable_error(exc: BaseException) -> Exception:
    """The exception itself when it survives a pickle round-trip, else a
    :class:`ServeError` carrying its repr — the parent must always be
    able to read what a worker sends."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc  # type: ignore[return-value]
    except Exception:
        return ServeError(f"worker error (unpicklable): {exc!r}")


def _pool_worker_main(worker_id: int, req_q, resp_q, spec: dict) -> None:
    """Entry point of one pool worker process (spawn start method)."""
    if spec.get("worker_faults"):
        install(FaultInjector(
            parse_fault_plan(spec["worker_faults"]),
            seed=spec.get("fault_seed", 0),
        ))
    service = CongestionService(
        spec["model"],
        options=spec["options"],
        device=spec["device"],
        combos=spec["combos"],
        registry=None,  # workers never train or touch the registry slot
        prediction_cache=spec["prediction_cache"],
    )
    while True:
        message = req_q.get()
        kind = message[0]
        if kind == "stop":
            return
        seq = message[1]
        try:
            if kind == "adopt":
                predictor = CongestionPredictor.from_kernels(
                    spec["model"], unpack_kernels(message[2]),
                    device=spec["device"],
                )
                service.adopt_predictor(predictor, source="export")
                resp_q.put((worker_id, seq, "ok", service.model_generation))
            elif kind == "predict":
                requests, remaining = message[2], message[3]
                fault_point("pool.worker")
                deadline = (
                    None if remaining is None
                    else time.monotonic() + remaining
                )
                responses = service.predict_batch(
                    requests, deadline=deadline
                )
                resp_q.put((worker_id, seq, "ok", responses))
            else:
                resp_q.put((worker_id, seq, "error",
                            ServeError(f"unknown message kind {kind!r}")))
        except (ReproError, OSError) as exc:
            resp_q.put((worker_id, seq, "error", _picklable_error(exc)))


# ----------------------------------------------------------------------
# parent-side failures (internal control flow, never user-visible)
# ----------------------------------------------------------------------
class _WorkerFailure(Exception):
    """A worker crashed or stopped answering; the shard may be retried."""


class PoolServer(CongestionService):
    """Sharded multi-process congestion serving behind the
    ``CongestionService`` interface.  Use as a context manager or call
    :meth:`close` explicitly — worker processes outlive requests."""

    def __init__(self, model: str = "gbrt", *,
                 pool: PoolConfig | None = None, **kwargs) -> None:
        super().__init__(model, **kwargs)
        self.pool = pool or PoolConfig()
        self._ctx = mp.get_context("spawn")
        self._procs: dict[int, mp.process.BaseProcess] = {}
        self._req_qs: dict[int, object] = {}
        #: response queue per worker — deliberately NOT one shared
        #: queue: a worker killed mid-reply (crash fault, SIGKILL) can
        #: die holding the queue's cross-process write-lock semaphore,
        #: and POSIX semaphores are not robust — every later worker
        #: sharing the queue would wedge forever trying to reply.  A
        #: restart hands the replacement a fresh pair of queues, so a
        #: poisoned lock dies with the incarnation that poisoned it.
        self._resp_qs: dict[int, object] = {}
        self._seq = 0
        self._inbox: dict[tuple[int, int], tuple[str, object]] = {}
        #: (worker_id, seq) pairs a response is still wanted for;
        #: anything else arriving on the response queue is stale noise
        #: from an abandoned dispatch and is dropped
        self._expected: set[tuple[int, int]] = set()
        self._pool_closed = False
        self._pool_degraded = False
        self._pool_degraded_reason = ""
        self._pool_stats = {
            "pool_workers": 0, "dispatches": 0, "dispatched_requests": 0,
            "worker_crashes": 0, "worker_restarts": 0,
            "inline_fallbacks": 0, "adopt_broadcasts": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _worker_spec(self, worker_id: int) -> dict:
        return {
            "worker_id": worker_id,
            "model": self.model_name,
            "options": self.options,
            "device": self.device,
            "combos": self.combos,
            "prediction_cache": self.prediction_cache,
            "worker_faults": self.pool.worker_faults,
            "fault_seed": self.pool.fault_seed,
        }

    def _adopt_payload(self) -> bytes:
        """The model every worker adopts: the parent's current
        predictor's kernels, packed as the registry persists them."""
        return pack_kernels(self._predictor.kernels)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _start_worker(self, worker_id: int) -> None:
        req_q = self._req_qs.get(worker_id)
        if req_q is None:
            req_q = self._ctx.Queue()
            self._req_qs[worker_id] = req_q
        # always a fresh response queue: see the _resp_qs field note
        resp_q = self._ctx.Queue()
        self._resp_qs[worker_id] = resp_q
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(worker_id, req_q, resp_q, self._worker_spec(worker_id)),
            name=f"pool-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        self._procs[worker_id] = proc

    def _adopt_worker(self, worker_id: int, payload: bytes) -> None:
        """Hand the worker its model; raises ``_WorkerFailure`` when it
        cannot adopt it."""
        seq = self._next_seq()
        self._expected.add((worker_id, seq))
        self._req_qs[worker_id].put(("adopt", seq, payload))
        try:
            status, result = self._await(
                worker_id, seq, self.pool.start_timeout_s
            )
        except _WorkerFailure as exc:
            raise _WorkerFailure(
                f"worker {worker_id} died during adopt: {exc}"
            ) from exc
        if status != "ok":
            raise _WorkerFailure(
                f"worker {worker_id} could not adopt the model: {result!r}"
            )

    def _ensure_pool(self) -> bool:
        """Start and arm the pool lazily; returns ``False`` (and flips
        to degraded inline serving) when it cannot come up."""
        if self._pool_degraded or self._pool_closed:
            return False
        if self._procs:
            return True
        self.warm()  # the model the workers adopt must exist first
        payload = self._adopt_payload()
        try:
            for worker_id in range(self.pool.workers):
                self._start_worker(worker_id)
            for worker_id in range(self.pool.workers):
                self._adopt_worker(worker_id, payload)
        except _WorkerFailure as exc:
            self._degrade_pool(f"pool failed to start: {exc}")
            return False
        self._pool_stats["pool_workers"] = len(self._procs)
        return True

    def _degrade_pool(self, reason: str) -> None:
        self._pool_degraded = True
        self._pool_degraded_reason = reason
        self._stop_workers()

    def _stop_workers(self, timeout_s: float = 2.0) -> None:
        for worker_id, proc in self._procs.items():
            if proc.is_alive():
                try:
                    self._req_qs[worker_id].put(("stop",))
                except (OSError, ValueError):
                    pass
        for proc in self._procs.values():
            proc.join(timeout=timeout_s)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout_s)
        self._procs.clear()
        self._pool_stats["pool_workers"] = 0

    def close(self) -> None:
        """Stop every worker process.  Idempotent."""
        if self._pool_closed:
            return
        self._pool_closed = True
        self._stop_workers()

    def __enter__(self) -> "PoolServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def shard_of(self, request: PredictRequest) -> int:
        """Deterministic worker index for a request's feature group."""
        from repro.fpga.device import device_fingerprint

        payload = repr((device_fingerprint(self.device), request.group_key))
        digest = hashlib.sha256(payload.encode()).hexdigest()
        return int(digest, 16) % self.pool.workers

    def _await(self, worker_id: int, seq: int,
               timeout_s: float, deadline: float | None = None
               ) -> tuple[str, object]:
        """Wait for ``(worker_id, seq)`` on the worker's own response
        queue; earlier still-expected responses of the same worker are
        buffered in the inbox, stale responses from abandoned
        dispatches are dropped."""
        key = (worker_id, seq)
        horizon = time.monotonic() + timeout_s
        try:
            while True:
                if key in self._inbox:
                    return self._inbox.pop(key)
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    raise DeadlineExceededError(
                        "deadline exceeded while awaiting a pool worker"
                    )
                if now >= horizon:
                    raise _WorkerFailure(
                        f"worker {worker_id} did not answer within "
                        f"{timeout_s:g}s"
                    )
                try:
                    got_id, got_seq, status, result = \
                        self._resp_qs[worker_id].get(timeout=0.05)
                except Empty:
                    proc = self._procs.get(worker_id)
                    if proc is None or not proc.is_alive():
                        raise _WorkerFailure(
                            f"worker {worker_id} died (exit code "
                            f"{proc.exitcode if proc else 'n/a'})"
                        ) from None
                    continue
                if (got_id, got_seq) == key \
                        or (got_id, got_seq) in self._expected:
                    self._inbox[(got_id, got_seq)] = (status, result)
                # else: stale response nobody waits for anymore — drop
        finally:
            self._expected.discard(key)

    def _restart_worker(self, worker_id: int) -> bool:
        """Restart one crashed/wedged worker under the pool budget."""
        self._pool_stats["worker_crashes"] += 1
        if self._pool_stats["worker_restarts"] >= self.pool.restart_budget:
            return False
        proc = self._procs.get(worker_id)
        if proc is not None and proc.is_alive():
            proc.terminate()
        if proc is not None:
            proc.join(timeout=2.0)
        # the old request queue may hold consumed-but-unanswered noise;
        # a fresh queue gives the replacement a clean inbox
        self._req_qs[worker_id] = self._ctx.Queue()
        self._start_worker(worker_id)
        try:
            self._adopt_worker(worker_id, self._adopt_payload())
        except _WorkerFailure:
            return False
        self._pool_stats["worker_restarts"] += 1
        return True

    def _dispatch(self, worker_id: int, requests: list[PredictRequest],
                  deadline: float | None) -> int:
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceededError(
                    "deadline exceeded before pool dispatch"
                )
        seq = self._next_seq()
        self._expected.add((worker_id, seq))
        self._req_qs[worker_id].put(("predict", seq, requests, remaining))
        return seq

    def _serve_inline(self, requests: list[PredictRequest],
                      deadline: float | None,
                      reason: str) -> list[PredictResponse]:
        """Last-resort shard service by the parent's own predictor."""
        self._pool_stats["inline_fallbacks"] += 1
        responses = CongestionService.predict_batch(
            self, requests, deadline=deadline
        )
        for response in responses:
            response.degraded = True
            response.degraded_reason = reason
        return responses

    def _collect_shard(self, worker_id: int, seq: int,
                       requests: list[PredictRequest],
                       deadline: float | None) -> list[PredictResponse]:
        """Collect one dispatched shard: on a crashed/wedged worker,
        restart it and re-dispatch once, then fall back inline.  Typed
        worker-side errors (unknown design, blown deadline) re-raise
        here exactly as the in-process service would."""
        budget = self.pool.dispatch_timeout_s
        for attempt in (0, 1):
            try:
                status, result = self._await(worker_id, seq, budget, deadline)
            except _WorkerFailure:
                if attempt == 0 and self._restart_worker(worker_id):
                    seq = self._dispatch(worker_id, requests, deadline)
                    continue
                if self._pool_stats["worker_restarts"] \
                        >= self.pool.restart_budget:
                    self._degrade_pool(
                        "pool restart budget "
                        f"({self.pool.restart_budget}) exhausted"
                    )
                return self._serve_inline(
                    requests, deadline,
                    "pool worker unavailable; served inline by the parent",
                )
            if status == "ok":
                return result
            raise result  # typed worker-side error
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # the CongestionService surface
    # ------------------------------------------------------------------
    def predict_batch(
        self, requests: list[PredictRequest], *, deadline=None,
    ) -> list[PredictResponse]:
        if not requests:
            return []
        deadline = deadline_timestamp(deadline)
        if not self._ensure_pool():
            responses = CongestionService.predict_batch(
                self, requests, deadline=deadline
            )
            reason = self._pool_degraded_reason or "serving pool closed"
            for response in responses:
                response.degraded = True
                response.degraded_reason = reason
            return responses
        fault_point("pool.dispatch")

        shards: dict[int, list[int]] = {}
        for i, request in enumerate(requests):
            shards.setdefault(self.shard_of(request), []).append(i)
        # fan out first — every worker computes its shard concurrently —
        # then collect; a crash during collection retries only its shard
        dispatched: dict[int, tuple[int, list[PredictRequest]]] = {}
        for worker_id, idx in shards.items():
            shard_requests = [requests[i] for i in idx]
            dispatched[worker_id] = (
                self._dispatch(worker_id, shard_requests, deadline),
                shard_requests,
            )
        out: list[PredictResponse | None] = [None] * len(requests)
        try:
            for worker_id, idx in shards.items():
                seq, shard_requests = dispatched[worker_id]
                shard_responses = self._collect_shard(
                    worker_id, seq, shard_requests, deadline
                )
                for i, response in zip(idx, shard_responses):
                    # the parent owns generation numbering: a hot-swap
                    # is one generation regardless of how many workers
                    # adopted
                    response.model_generation = self._model_generation
                    response.batch_size = len(requests)
                    out[i] = response
        finally:
            # an aborted batch (typed shard error) must not leave its
            # other shards' responses expected forever
            for worker_id, (seq, _) in dispatched.items():
                self._expected.discard((worker_id, seq))
            self._inbox = {
                k: v for k, v in self._inbox.items() if k in self._expected
            }
        self._pool_stats["dispatches"] += len(shards)
        self._pool_stats["dispatched_requests"] += len(requests)
        self._counters["predictions"] += len(requests)
        if len(requests) > 1:
            self._counters["batches"] += 1
        return out  # type: ignore[return-value]

    def adopt_predictor(self, predictor, *, source: str = "registry") -> int:
        """Hot-swap: adopt in the parent, then broadcast the same model
        to every live worker.  A worker that cannot adopt it is treated
        as crashed and restarted."""
        generation = super().adopt_predictor(predictor, source=source)
        if self._procs:
            payload = self._adopt_payload()
            for worker_id in list(self._procs):
                try:
                    self._adopt_worker(worker_id, payload)
                except _WorkerFailure:
                    if not self._restart_worker(worker_id):
                        self._degrade_pool(
                            "worker lost during hot-swap and restart "
                            "budget exhausted"
                        )
                        break
            self._pool_stats["adopt_broadcasts"] += 1
        return generation

    def stats(self) -> dict:
        stats = super().stats()
        stats["pool"] = {
            **self._pool_stats,
            "workers_configured": self.pool.workers,
            "degraded": self._pool_degraded,
            "degraded_reason": self._pool_degraded_reason,
            "closed": self._pool_closed,
        }
        return stats


__all__ = ["PoolConfig", "PoolServer"]
