"""Serving layer: persistent model registry + prediction service +
fault-tolerant front-end + network edge.

This subsystem is the scaling seam named in the ROADMAP: every future
serving change (sharding, multi-backend, hot-swap) lands here instead
of rewriting the flow or predict layers.  The pieces:

* :class:`ModelRegistry` — crash-safe persistence of trained
  predictors as NumPy kernels (checksummed artifacts, quarantine on
  corruption);
* :class:`CongestionService` — load-or-train once, batched prediction
  over the HLS-prefix pipeline;
* :class:`PoolServer` — the same service surface fanned out across
  sharded worker processes, each serving the parent's model kernels
  (:mod:`repro.ml.compiled`);
* :class:`ResilientCongestionServer` — bounded admission, deadline-
  aware micro-batching, worker supervision, graceful degradation —
  plus :class:`RegistryWatcher`, the model hot-swap driver;
* :class:`NetServer` / :class:`NetClient` — the asyncio TCP edge and
  its reconnecting client (:mod:`repro.serve.protocol` is the frame
  format);
* :mod:`repro.serve.resilience` — retry / circuit-breaker / deadline
  primitives;
* :mod:`repro.serve.loadgen` — open-loop tail-latency measurement
  against the in-process server.
"""

from repro.serve.client import NetClient
from repro.serve.loadgen import LoadReport, run_open_loop
from repro.serve.net import (
    NetServer,
    NetServerConfig,
    NetServerHandle,
    start_net_server,
)
from repro.serve.pool import PoolConfig, PoolServer
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.registry import (
    MANIFEST_FORMAT_VERSION,
    ModelManifest,
    ModelRegistry,
    dataset_spec_fingerprint,
)
from repro.serve.resilience import (
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.serve.server import (
    RegistryWatcher,
    ResilientCongestionServer,
    ServerConfig,
)
from repro.serve.service import (
    CongestionService,
    PredictRequest,
    PredictResponse,
)

__all__ = [
    "MANIFEST_FORMAT_VERSION", "ModelManifest", "ModelRegistry",
    "dataset_spec_fingerprint",
    "CongestionService", "PredictRequest", "PredictResponse",
    "PoolConfig", "PoolServer",
    "ResilientCongestionServer", "ServerConfig", "RegistryWatcher",
    "NetServer", "NetServerConfig", "NetServerHandle", "NetClient",
    "start_net_server", "PROTOCOL_VERSION",
    "CircuitBreaker", "Deadline", "ResiliencePolicy", "RetryPolicy",
    "LoadReport", "run_open_loop",
]
