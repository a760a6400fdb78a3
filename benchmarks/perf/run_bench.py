"""Flow-stage perf harness: times the paper combos, writes BENCH_flow.json.

Runs the complete C-to-FPGA flow cold (no caches) on the paper's three
benchmark combinations and records per-stage wall clock, so every PR has
a perf trajectory to compare against.  Not collected by pytest — run it
directly (or via ``make bench``):

    PYTHONPATH=src python benchmarks/perf/run_bench.py
    PYTHONPATH=src python benchmarks/perf/run_bench.py --scale 0.5 --repeat 3
    PYTHONPATH=src python benchmarks/perf/run_bench.py --with-reference
    PYTHONPATH=src python benchmarks/perf/run_bench.py --serve
    PYTHONPATH=src python benchmarks/perf/run_bench.py --features
    PYTHONPATH=src python benchmarks/perf/run_bench.py --predict

The flow JSON layout records every stage under both initial-placement
modes (``center`` and ``analytic``)::

    {
      "meta":   {"scale": 1.0, "seed": 0, "effort": "fast", ...},
      "combos": {"face_detection": {"center":   {"hls": ..., ...},
                                    "analytic": {"hls": ..., ...}}, ...},
      "totals": {"center": {..., "place+route": ..., "flow": ...},
                 "analytic": {...},
                 "speedup_analytic_vs_center_place": ...}
    }

Stage timings are the best (minimum) of ``--repeat`` runs; the in-memory
flow cache is cleared between runs so every run is cold.

Output policy: only the curated ``BENCH_*.json`` reports are committed.
Everything else written under ``benchmarks/out/`` — in particular the
``*.csv`` files some analysis scripts drop there — is machine-local
scratch and is gitignored; committing them made every bench run dirty
the tree with timing noise.  If a new artifact is worth tracking, give
it a ``BENCH_<topic>.json`` name and a deterministic layout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

COMBOS = ("face_detection", "digit_spam", "bnn_render_flow")
STAGES = ("hls", "rtl", "pack", "place", "route", "sta", "graph", "backtrace")
#: how much worse than the loop reference an analytic-init placement's
#: final cost may be before ``--place`` refuses to write its report
ANALYTIC_REFERENCE_BUDGET = 0.03


def _reference_place_route(scale: float, seed: int, effort: str,
                           repeat: int = 1) -> dict:
    """Time the preserved loop implementations on the same combos
    (minimum of ``repeat`` runs, like the main measurement)."""
    import time as _time

    from repro.fpga import xc7z020
    from repro.hls import synthesize
    from repro.impl import PlacementOptions, pack_netlist
    from repro.impl._reference import ReferenceAnnealer, reference_route
    from repro.kernels.combos import build_combined
    from repro.rtl import generate_netlist

    out: dict[str, dict[str, float]] = {}
    for name in COMBOS:
        design = build_combined(name, scale=scale)
        hls = synthesize(design.module, design.directives)
        netlist = generate_netlist(hls)
        device = xc7z020()
        packing = pack_netlist(netlist, device)
        t_place = t_route = float("inf")
        for _ in range(repeat):
            start = _time.perf_counter()
            placement = ReferenceAnnealer(
                netlist, packing, device,
                PlacementOptions(effort=effort, seed=seed),
            ).place()
            t_place = min(t_place, _time.perf_counter() - start)
            start = _time.perf_counter()
            reference_route(netlist, packing, placement, device)
            t_route = min(t_route, _time.perf_counter() - start)
        out[name] = {"place": round(t_place, 6), "route": round(t_route, 6)}
    out["totals"] = {
        "place": round(sum(c["place"] for n, c in out.items()
                           if n != "totals"), 6),
        "route": round(sum(c["route"] for n, c in out.items()
                           if n != "totals"), 6),
    }
    out["totals"]["place+route"] = round(
        out["totals"]["place"] + out["totals"]["route"], 6
    )
    return out


def bench_place(scale: float, seed: int, effort: str, repeat: int) -> dict:
    """Placement benchmark: cold place time, final cost and post-route
    congestion for the default annealer (``init="center"``), the
    analytic-init annealer (``init="analytic"``) and the pinned loop
    reference, on the paper's three combos.  Writes BENCH_place.json.

    Quality parity is a hard gate, not a printout: the run refuses to
    write the report if either vectorized mode lands a worse final cost
    than the loop reference under the same seed, or if analytic init
    washes out the congestion hotspots the paper's tables are built on
    (face_detection with directives must keep hot tiles).
    """
    from repro.fpga import xc7z020
    from repro.impl import (
        Annealer,
        PlacementOptions,
        pack_netlist,
        route_design,
    )
    from repro.impl._reference import ReferenceAnnealer
    from repro.hls import synthesize
    from repro.kernels.combos import build_combined
    from repro.rtl import generate_netlist

    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")

    combos: dict[str, dict] = {}
    for name in COMBOS:
        design = build_combined(name, scale=scale)
        hls = synthesize(design.module, design.directives)
        netlist = generate_netlist(hls)
        device = xc7z020()
        packing = pack_netlist(netlist, device)

        entry: dict = {"n_clusters": packing.n_clusters()}
        for mode in ("center", "analytic"):
            options = PlacementOptions(effort=effort, seed=seed, init=mode)
            t_best = float("inf")
            placement = None
            for _ in range(repeat):
                start = time.perf_counter()
                placement = Annealer(netlist, packing, device,
                                     options).place()
                t_best = min(t_best, time.perf_counter() - start)
            congestion = route_design(netlist, packing, placement, device)
            entry[mode] = {
                "seconds": round(t_best, 6),
                "cost": round(placement.cost, 1),
                "initial_cost": round(placement.initial_cost, 1),
                "sweeps": options.n_sweeps,
                "congestion": {
                    "mean_vertical": round(congestion.mean_vertical(), 3),
                    "max_vertical": round(congestion.max_vertical(), 3),
                    # hot-area count on the avg(V, H) grid — the same
                    # robust statistic the Table I regime check pins
                    "hot_tiles_gt80": int((congestion.average > 80.0).sum()),
                    "congested_gt100": congestion.n_congested(100.0),
                },
            }

        # the loop reference is minutes-per-combo at scale 1.0: time a
        # single run (its variance is tiny relative to its magnitude)
        start = time.perf_counter()
        ref_placement = ReferenceAnnealer(
            netlist, packing, device,
            PlacementOptions(effort=effort, seed=seed),
        ).place()
        t_ref = time.perf_counter() - start
        entry["reference"] = {
            "seconds": round(t_ref, 6),
            "cost": round(ref_placement.cost, 1),
        }
        for mode in ("center", "analytic"):
            entry[mode]["speedup_vs_reference"] = round(
                t_ref / max(entry[mode]["seconds"], 1e-9), 2
            )
        # parity gates judge the NEW mode only (center is the incumbent
        # and is reported, not gated — it trails the loop reference by
        # a few percent on some combos and always has).  Analytic must
        # beat the placer it replaces outright and stay within
        # ANALYTIC_REFERENCE_BUDGET of the loop reference across scales.
        budget = 1.0 + ANALYTIC_REFERENCE_BUDGET
        if entry["analytic"]["cost"] > entry["center"]["cost"]:
            raise RuntimeError(
                f"{name}: analytic final cost {entry['analytic']['cost']} "
                f"is worse than the default placer "
                f"{entry['center']['cost']} under the same seed — "
                f"refusing to write a quality-regressed BENCH_place.json"
            )
        if entry["analytic"]["cost"] > budget * entry["reference"]["cost"]:
            raise RuntimeError(
                f"{name}: analytic final cost {entry['analytic']['cost']} "
                f"is >{100 * ANALYTIC_REFERENCE_BUDGET:.0f}% worse than the "
                f"loop reference {entry['reference']['cost']} under the "
                f"same seed — refusing to write a quality-regressed "
                f"BENCH_place.json"
            )
        entry["speedup_analytic_vs_center"] = round(
            entry["center"]["seconds"]
            / max(entry["analytic"]["seconds"], 1e-9), 2
        )
        if entry["center"]["congestion"]["hot_tiles_gt80"] > 0 \
                and entry["analytic"]["congestion"]["hot_tiles_gt80"] == 0:
            raise RuntimeError(
                f"{name}: analytic init produced zero hot tiles where "
                f"the default placer has "
                f"{entry['center']['congestion']['hot_tiles_gt80']} — the "
                f"placer washed out the paper's hotspots; refusing to "
                f"write BENCH_place.json"
            )
        combos[name] = entry

    return {
        "combos": combos,
        "totals": {
            "center_seconds": round(sum(
                c["center"]["seconds"] for c in combos.values()), 6),
            "analytic_seconds": round(sum(
                c["analytic"]["seconds"] for c in combos.values()), 6),
            "reference_seconds": round(sum(
                c["reference"]["seconds"] for c in combos.values()), 6),
            "speedup_analytic_vs_center": round(
                sum(c["center"]["seconds"] for c in combos.values())
                / max(sum(c["analytic"]["seconds"]
                          for c in combos.values()), 1e-9), 2),
        },
    }


def bench_serve(scale: float, seed: int, effort: str,
                n_requests: int, model: str) -> dict:
    """Serving-layer benchmark: cold train-and-save vs warm
    registry-load, and single vs batched prediction throughput.

    Runs against a throwaway registry root so results are always cold
    on the first service and always a registry hit on the second.
    """
    import shutil
    import tempfile

    from repro.flow import FlowOptions
    from repro.kernels import KERNEL_BUILDERS
    from repro.serve import CongestionService, ModelRegistry, PredictRequest
    from repro.serve.service import measure_serving

    options = FlowOptions(scale=scale, seed=seed, placement_effort=effort)
    root = tempfile.mkdtemp(prefix="repro-bench-serve-")
    try:
        cold_service = CongestionService(
            model, options=options, registry=ModelRegistry(root)
        )
        start = time.perf_counter()
        cold_source = cold_service.warm()
        cold_seconds = time.perf_counter() - start

        # answers are never reused, so single vs batched times the model
        # invocation over cached features rather than answer-cache hits
        warm_service = CongestionService(
            model, options=options, registry=ModelRegistry(root),
            prediction_cache=False,
        )
        start = time.perf_counter()
        warm_source = warm_service.warm()
        warm_seconds = time.perf_counter() - start

        designs = sorted(KERNEL_BUILDERS)
        requests = [PredictRequest(designs[i % len(designs)])
                    for i in range(n_requests)]
        timing = measure_serving(warm_service, requests)
        single_seconds = timing["single_seconds"]
        batch_seconds = timing["batch_seconds"]
        service_stats = warm_service.stats()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "model": model,
        "n_requests": n_requests,
        "cold_train_and_save": {
            "source": cold_source, "seconds": round(cold_seconds, 6),
        },
        "warm_registry_load": {
            "source": warm_source, "seconds": round(warm_seconds, 6),
            "speedup_vs_cold": round(cold_seconds / max(warm_seconds, 1e-9), 2),
        },
        "prediction_throughput": {
            "single_seconds": round(single_seconds, 6),
            "single_req_per_s": round(n_requests / single_seconds, 2),
            "batched_seconds": round(batch_seconds, 6),
            "batched_req_per_s": round(n_requests / batch_seconds, 2),
            "batch_speedup": round(single_seconds / max(batch_seconds, 1e-9),
                                   2),
        },
        "service_stats": service_stats,
    }


def bench_resilience(scale: float, seed: int, effort: str,
                     n_requests: int, model: str, rate: float) -> dict:
    """Resilient-serving benchmark: open-loop load through
    :class:`ResilientCongestionServer`, once clean and once under a
    deterministic fault plan (worker crashes, slow stages, cache write
    failures).  Publishes p50/p99 latency and success rate for both
    phases — the headline numbers of ``BENCH_resilience.json``.

    The plan's ``cache.write`` failures find no write to fail on the
    serving path: the service keeps its only cache in memory and never
    writes the ``REPRO_CACHE_DIR`` disk cache.  The plan keeps them, so
    it stays the plan of earlier reports.
    """
    import shutil
    import tempfile

    from repro.flow import FlowOptions
    from repro.kernels import KERNEL_BUILDERS
    from repro.serve import (
        CongestionService,
        ModelRegistry,
        PredictRequest,
        ResilientCongestionServer,
        ServerConfig,
        run_open_loop,
    )
    from repro.util import faults

    fault_plan = ("server.worker:error:p=0.3;"
                  "stage.graph:delay:s=0.03,p=0.5;"
                  "cache.write:error:p=0.5")
    options = FlowOptions(scale=scale, seed=seed, placement_effort=effort)
    designs = sorted(KERNEL_BUILDERS)
    requests = [PredictRequest(designs[i % len(designs)])
                for i in range(n_requests)]
    config = ServerConfig(max_queue=max(16, n_requests), workers=2)

    root = tempfile.mkdtemp(prefix="repro-bench-resil-")
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-resil-cache-")
    saved_env = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    phases: dict[str, dict] = {}
    try:
        for phase, plan in (("baseline", None), ("faulted", fault_plan)):
            # both phases start cold so their latencies compare: a fresh
            # service starts with an empty feature cache
            service = CongestionService(
                model, options=options, registry=ModelRegistry(root)
            )
            with ResilientCongestionServer(service, config) as server:
                server.warm()
                # injector installs *after* warm: the measured phase is
                # serving under faults, not training under faults
                if plan is not None:
                    faults.install(faults.FaultInjector(
                        faults.parse_fault_plan(plan), seed=seed
                    ))
                try:
                    report = run_open_loop(server, requests,
                                           rate_per_s=rate)
                finally:
                    injector = faults.active_injector()
                    faults.install(None)
                stats = server.stats()
                phases[phase] = {
                    **report.summary(),
                    "worker_crashes": stats["worker_crashes"],
                    "worker_restarts": stats["worker_restarts"],
                    "batches": stats["batches"],
                    "model_source": stats["service"]["model_source"],
                    **({"faults_fired": injector.stats()}
                       if plan is not None and injector is not None else {}),
                }
    finally:
        faults.install(None)
        if saved_env is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_env
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(cache_dir, ignore_errors=True)

    return {
        "model": model,
        "n_requests": n_requests,
        "rate_per_s": rate,
        "fault_plan": fault_plan,
        "server": {"max_queue": config.max_queue,
                   "workers": config.workers},
        "phases": phases,
    }


def bench_net(scale: float, seed: int, effort: str,
              n_requests: int, model: str, rate: float) -> dict:
    """Network-edge benchmark: open-loop load over real TCP sockets
    through :class:`NetServer`, in four phases — clean, under wire
    faults (stalls, garbage frames, worker crashes), across a mid-run
    model hot-swap, and through a graceful drain.  Hard gates enforce
    the edge's contract before anything is written: >=99% success under
    faults, a zero-failure zero-restart hot-swap, and a drain that
    answers every admitted request.
    """
    import shutil
    import tempfile
    import threading

    from repro.errors import (
        DeadlineExceededError,
        OverloadedError,
        ProtocolError,
        ReproError,
        ServerClosedError,
    )
    from repro.flow import FlowOptions
    from repro.kernels import KERNEL_BUILDERS
    from repro.serve import (
        CongestionService,
        ModelRegistry,
        NetClient,
        NetServerConfig,
        PredictRequest,
        ResilientCongestionServer,
        ServerConfig,
        run_open_loop_net,
        start_net_server,
    )
    from repro.util import faults

    fault_plan = ("net.stall:delay:s=0.01,p=0.2;"
                  "net.garbage:corrupt:p=0.05;"
                  "server.worker:error:p=0.2,max=2")
    options = FlowOptions(scale=scale, seed=seed, placement_effort=effort)
    designs = sorted(KERNEL_BUILDERS)
    requests = [PredictRequest(designs[i % len(designs)])
                for i in range(n_requests)]
    config = ServerConfig(max_queue=max(16, n_requests), workers=2)
    net_config = NetServerConfig(watch_registry=True, registry_poll_s=0.05)

    root = tempfile.mkdtemp(prefix="repro-bench-net-")
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-net-cache-")
    saved_env = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    phases: dict[str, dict] = {}
    handle = None

    def gate(condition: bool, message: str) -> None:
        if not condition:
            raise RuntimeError(f"bench-net gate failed: {message}")

    try:
        service = CongestionService(
            model, options=options, registry=ModelRegistry(root)
        )
        server = ResilientCongestionServer(service, config)
        handle = start_net_server(server, net_config)
        host, port = handle.host, handle.port

        # prime the feature cache over the wire so every phase measures
        # serving + transport, not one-off cold feature extraction
        with NetClient(host, port, request_timeout_s=600.0) as primer:
            for design in designs:
                primer.predict(design, timeout_ms=600_000)

        keys = ("submitted", "completed", "failed", "worker_crashes",
                "worker_restarts", "swaps")

        def snapshot() -> dict:
            stats = server.stats()
            return {k: stats[k] for k in keys}

        def delta(before: dict, after: dict) -> dict:
            return {k: after[k] - before[k] for k in keys}

        # ---- phase 1: clean wire ------------------------------------
        before = snapshot()
        report = run_open_loop_net(host, port, requests, rate_per_s=rate)
        phases["clean"] = {**report.summary(),
                           "server_delta": delta(before, snapshot())}
        gate(report.success_rate >= 0.99,
             f"clean success {report.success_rate:.3f} < 0.99")

        # ---- phase 2: faulted wire ----------------------------------
        before = snapshot()
        faults.install(faults.FaultInjector(
            faults.parse_fault_plan(fault_plan), seed=seed
        ))
        try:
            report = run_open_loop_net(host, port, requests,
                                       rate_per_s=rate)
        finally:
            injector = faults.active_injector()
            faults.install(None)
        phases["faulted"] = {
            **report.summary(),
            "server_delta": delta(before, snapshot()),
            "faults_fired": injector.stats() if injector else {},
        }
        gate(report.success_rate >= 0.99,
             f"faulted success {report.success_rate:.3f} < 0.99 "
             f"(stalls/garbage/crashes must be survived)")

        # ---- phase 3: mid-run hot-swap ------------------------------
        before = snapshot()

        def publish() -> None:
            # a "trainer" republishing the model mid-load: the watcher
            # must swap it in without failing or restarting anything
            time.sleep(max(0.1, 0.4 * n_requests / rate))
            service.registry.save(
                service.predictor,
                dataset_fingerprint=service.dataset_fingerprint,
            )

        publisher = threading.Thread(target=publish)
        publisher.start()
        report = run_open_loop_net(host, port, requests, rate_per_s=rate)
        publisher.join(timeout=30)
        swap_deadline = time.monotonic() + 5.0
        while server.stats()["swaps"] - before["swaps"] < 1 \
                and time.monotonic() < swap_deadline:
            time.sleep(0.02)
        hot_delta = delta(before, snapshot())
        with NetClient(host, port) as checker:
            generation = checker.predict(designs[0])["model_generation"]
        phases["hotswap"] = {**report.summary(),
                             "server_delta": hot_delta,
                             "model_generation_after": generation}
        gate(hot_delta["swaps"] >= 1, "no hot-swap happened mid-run")
        gate(report.succeeded == report.offered,
             f"hot-swap phase failed requests: "
             f"{report.offered - report.succeeded} of {report.offered}")
        gate(hot_delta["worker_restarts"] == 0,
             "hot-swap must not restart workers")

        # ---- phase 4: graceful drain --------------------------------
        outcomes = {"succeeded": 0, "typed_rejected": 0, "transport": 0}
        outcomes_lock = threading.Lock()

        def burst(i: int) -> None:
            try:
                with NetClient(host, port, retries=0) as client:
                    client.predict(requests[i % len(requests)].design)
                kind = "succeeded"
            except (OverloadedError, DeadlineExceededError,
                    ServerClosedError):
                kind = "typed_rejected"
            except ProtocolError:
                kind = "transport"
            except ReproError:
                kind = "typed_rejected"
            except OSError:
                kind = "transport"
            with outcomes_lock:
                outcomes[kind] += 1

        before = snapshot()
        threads = [threading.Thread(target=burst, args=(i,))
                   for i in range(n_requests)]
        # SIGTERM lands mid-burst: half the callers are in, the rest
        # race the drain and must be answered or rejected typed
        shutter = threading.Thread(
            target=lambda: handle.shutdown(drain=True)
        )
        for i, t in enumerate(threads):
            t.start()
            if i == n_requests // 2:
                shutter.start()
            time.sleep(1.0 / rate)
        if not shutter.is_alive() and shutter.ident is None:
            shutter.start()
        for t in threads:
            t.join(timeout=60)
        shutter.join(timeout=60)
        drain_delta = delta(before, snapshot())
        handle = None
        phases["drain"] = {
            "offered": n_requests,
            **outcomes,
            "server_delta": drain_delta,
        }
        # the drain contract: whatever was ADMITTED is ANSWERED —
        # nothing admitted fails, nothing is left pending
        gate(drain_delta["failed"] == 0,
             f"drain failed {drain_delta['failed']} admitted requests")
        gate(drain_delta["completed"] == drain_delta["submitted"],
             f"drain left requests unanswered: "
             f"{drain_delta['submitted'] - drain_delta['completed']}")
    finally:
        faults.install(None)
        if handle is not None:
            handle.shutdown(drain=False)
        if saved_env is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_env
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(cache_dir, ignore_errors=True)

    return {
        "model": model,
        "n_requests": n_requests,
        "rate_per_s": rate,
        "fault_plan": fault_plan,
        "server": {"max_queue": config.max_queue,
                   "workers": config.workers},
        "net": {"max_conn_inflight": net_config.max_conn_inflight,
                "registry_poll_ms": net_config.registry_poll_s * 1e3},
        "phases": phases,
    }


def bench_explore(scale: float, seed: int, effort: str, model: str,
                  max_configs: int, budget: int) -> dict:
    """What-if exploration benchmark: predict-mode sweep throughput vs
    running the full place-and-route flow per configuration, plus the
    autotuner on the paper's three combos.

    Three phases on ``face_detection``:

    * ``full_flow`` — fresh build + complete flow (place-and-route) for
      a few sampled configurations: the cost the paper's approach avoids;
    * ``predict_sweep_cold`` — every unique configuration misses the
      service's feature cache and computes its HLS prefix once;
    * ``predict_sweep_warm`` — same configurations through a fresh
      session, answered from the feature cache (the interactive steady
      state).

    The feature-cache accounting of the cold sweep proves the
    exactly-once property: one miss per unique configuration plus one
    for the baseline.
    """
    import shutil
    import tempfile

    from repro.explore import ExplorationSession, autotune
    from repro.explore.session import build_design_for
    from repro.flow import FlowOptions
    from repro.flow.c_to_fpga import run_flow_on_design
    from repro.serve import CongestionService, ModelRegistry

    options = FlowOptions(scale=scale, seed=seed, placement_effort=effort)
    root = tempfile.mkdtemp(prefix="repro-bench-explore-")
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-explore-cache-")
    saved_env = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    try:
        service = CongestionService(
            model, options=options, registry=ModelRegistry(root)
        )
        start = time.perf_counter()
        source = service.warm()
        warm_seconds = time.perf_counter() - start

        design = "face_detection"
        session = ExplorationSession(design, service=service)
        configs = session.space.sample(max_configs, seed)

        # the avoided cost: full place-and-route per configuration
        n_full = min(3, len(configs))
        start = time.perf_counter()
        for config in configs[:n_full]:
            key = session.space.apply(
                config, session.base_directives
            ).to_key()
            run_flow_on_design(
                build_design_for(design, "baseline", scale, key),
                session.device, options,
            )
        full_flow_seconds = time.perf_counter() - start
        full_per_config = full_flow_seconds / n_full

        # cold: every unique configuration computes hls+graph once
        cold = session.sweep(configs=configs, seed=seed)

        # warm: fresh session (no memo), warm feature cache
        warm_session = ExplorationSession(design, service=service)
        warm = warm_session.sweep(configs=configs, seed=seed)

        cold_rate = len(configs) / max(cold.seconds, 1e-9)
        warm_rate = len(configs) / max(warm.seconds, 1e-9)
        full_rate = 1.0 / max(full_per_config, 1e-9)

        tuner: dict[str, dict] = {}
        for name in COMBOS:
            tune_session = ExplorationSession(name, service=service)
            result = autotune(tune_session, budget=budget, seed=seed)
            tuner[name] = {
                "baseline_peak": round(result.baseline.peak, 3),
                "best_peak": round(result.best.peak, 3),
                "delta_peak": round(result.best.delta_peak, 3),
                "improved": result.improved,
                "evaluated": result.evaluated,
                "budget": result.budget,
                "seconds": round(result.seconds, 4),
                "best_configuration": result.best.label or "(baseline)",
                "trajectory": [s.to_json() for s in result.trajectory],
            }
        service_stats = service.stats()
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_env
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(cache_dir, ignore_errors=True)

    return {
        "model": model,
        "design": design,
        "n_configs": len(configs),
        "space_size": session.space.n_configs,
        "model_warm": {"source": source, "seconds": round(warm_seconds, 6)},
        "full_flow": {
            "n_configs": n_full,
            "seconds": round(full_flow_seconds, 6),
            "seconds_per_config": round(full_per_config, 6),
            "configs_per_s": round(full_rate, 3),
        },
        "predict_sweep_cold": {
            "seconds": round(cold.seconds, 6),
            "configs_per_s": round(cold_rate, 2),
            "speedup_vs_full_flow": round(cold_rate / full_rate, 2),
            "telemetry": cold.telemetry,
        },
        "predict_sweep_warm": {
            "seconds": round(warm.seconds, 6),
            "configs_per_s": round(warm_rate, 2),
            "speedup_vs_full_flow": round(warm_rate / full_rate, 2),
            "speedup_vs_cold_sweep": round(
                cold.seconds / max(warm.seconds, 1e-9), 2
            ),
            "telemetry": warm.telemetry,
        },
        "tuner": tuner,
        "service_stats": service_stats,
    }


def bench_features(scale: float, repeat: int) -> dict:
    """Feature-extraction benchmark: the vectorized whole-graph engine
    vs the pinned per-node reference, on the paper combos (HLS prefix
    only — no place-and-route is needed to extract features).

    ``graph_build`` times ``build_dependency_graph`` — the graph
    layer, which returns the frozen array graph every extractor starts
    from.  ``vectorized_cold`` times the HLS-side snapshot compilation +
    matrix extraction over that graph — the production stage boundary.
    ``reference`` times the per-node extractor, including the networkx
    view it builds from the graph's arrays.  ``warm`` times a repeat
    extraction over the same snapshot (the serving steady state, a memo
    hit).  Equivalence vs the reference is asserted at <= 1e-9, and the
    node order must be identical, before anything is written.
    """
    import numpy as np

    from repro.features import FeatureExtractor, ReferenceFeatureExtractor
    from repro.fpga import xc7z020
    from repro.graph import build_dependency_graph
    from repro.hls import synthesize
    from repro.kernels.combos import build_combined

    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")

    device = xc7z020()
    combos: dict[str, dict] = {}
    for name in COMBOS:
        design = build_combined(name, scale=scale)
        hls = synthesize(design.module, design.directives)

        t_graph = t_ref = t_cold = t_warm = float("inf")
        max_diff = 0.0
        n_ops = n_nodes = n_edges = 0
        for _ in range(repeat):
            start = time.perf_counter()
            graph = build_dependency_graph(hls.module, hls.bindings)
            t_graph = min(t_graph, time.perf_counter() - start)
            n_nodes, n_edges = graph.n_nodes(), graph.n_edges()

            start = time.perf_counter()
            ref_nodes, ref_X = ReferenceFeatureExtractor(
                hls, graph, device
            ).extract_all()
            t_ref = min(t_ref, time.perf_counter() - start)

            # fresh graph: cold = snapshot compile + whole-graph extract
            graph = build_dependency_graph(hls.module, hls.bindings)
            start = time.perf_counter()
            extractor = FeatureExtractor(hls, graph, device)
            vec_nodes, vec_X = extractor.extract_all()
            t_cold = min(t_cold, time.perf_counter() - start)

            start = time.perf_counter()
            extractor.extract_all()
            t_warm = min(t_warm, time.perf_counter() - start)

            if vec_nodes != ref_nodes:
                raise RuntimeError(
                    f"vectorized extraction returned different node "
                    f"ordering than the reference on {name}"
                )
            max_diff = max(max_diff, float(np.abs(vec_X - ref_X).max()))
            n_ops = len(vec_nodes)

        if max_diff > 1e-9:
            raise RuntimeError(
                f"vectorized extraction diverged from the reference on "
                f"{name}: max |diff| = {max_diff:g} > 1e-9"
            )
        combos[name] = {
            "n_nodes": n_nodes,
            "n_edges": n_edges,
            "n_ops": n_ops,
            "graph_build_seconds": round(t_graph, 6),
            "reference_seconds": round(t_ref, 6),
            "vectorized_cold_seconds": round(t_cold, 6),
            "vectorized_warm_seconds": round(t_warm, 6),
            "speedup_cold": round(t_ref / max(t_cold, 1e-9), 2),
            "nodes_per_s_reference": round(n_ops / max(t_ref, 1e-9), 1),
            "nodes_per_s_vectorized": round(n_ops / max(t_cold, 1e-9), 1),
            "max_abs_diff": max_diff,
        }

    total_ref = sum(c["reference_seconds"] for c in combos.values())
    total_cold = sum(c["vectorized_cold_seconds"] for c in combos.values())
    total_ops = sum(c["n_ops"] for c in combos.values())
    return {
        "combos": combos,
        "totals": {
            "n_ops": total_ops,
            "graph_build_seconds": round(
                sum(c["graph_build_seconds"] for c in combos.values()), 6
            ),
            "reference_seconds": round(total_ref, 6),
            "vectorized_cold_seconds": round(total_cold, 6),
            "speedup_cold": round(total_ref / max(total_cold, 1e-9), 2),
            "nodes_per_s_vectorized": round(
                total_ops / max(total_cold, 1e-9), 1
            ),
        },
    }


def bench_predict(scale: float, seed: int, effort: str,
                  n_requests: int, repeat: int, model: str = "gbrt") -> dict:
    """Prediction-path benchmark: the compiled tree-ensemble kernel vs
    the pinned per-sample object walk, and sustained serving throughput
    through the sharded worker pool.  Writes BENCH_predict.json.

    Two hard gates, enforced before anything is written:

    * the compiled batch kernel must be >= 5x the object walk on the
      paper's real feature matrix (and bit-agree with it to 1e-9);
    * the best sustained serving configuration (pool + compiled kernel,
      prediction memoization OFF) must clear 10x the pre-kernel 72 req/s
      batched baseline pinned from BENCH_serve.json (2026-07-29).  The
      anchor is a scale-1.0 measurement, so this gate applies only when
      the bench runs at scale 1.0 — smoke runs at reduced scale predict
      over far smaller designs and their req/s is not comparable.

    The serving protocol matches the baseline's: one micro-batch over
    the six paper designs cycled ``n_requests`` times, prediction memo
    OFF (the model runs on every batch) but extraction memoization ON —
    exactly the steady state the serving tier runs in production, where
    micro-batch coalescing amortizes per-design extraction across the
    requests that share a design.
    """
    import shutil
    import tempfile

    import numpy as np

    from repro.dataset import build_paper_dataset
    from repro.flow import FlowOptions
    from repro.kernels import KERNEL_BUILDERS
    from repro.serve import (
        CongestionService,
        PoolConfig,
        PoolServer,
        PredictRequest,
    )

    #: batched req/s of the object-walk model (scale 1.0, 24 requests,
    #: BENCH_serve.json of 2026-07-29) — the throughput gate's anchor
    BASELINE_BATCHED_REQ_PER_S = 72.0

    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")

    def gate(condition: bool, message: str) -> None:
        if not condition:
            raise RuntimeError(
                f"bench-predict gate failed: {message} — refusing to "
                f"write BENCH_predict.json"
            )

    options = FlowOptions(scale=scale, seed=seed, placement_effort=effort)
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-predict-")
    saved_env = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    try:
        trainer = CongestionService(model, options=options)
        trainer.warm()  # trains once; publishes the kernels + manifest
        designs = sorted(KERNEL_BUILDERS)
        requests = [PredictRequest(designs[i % len(designs)])
                    for i in range(n_requests)]

        # ---- kernel phase: rows/s on the paper's feature matrix ------
        # (cache-warm rebuild: warm() already built this dataset)
        dataset = build_paper_dataset(options=options)
        X = np.ascontiguousarray(dataset.X, dtype=np.float64)
        # tile small-scale matrices up to a fixed batch so rows/s (and
        # the 5x gate) measure the kernel, not per-call overhead on a
        # few dozen rows — the object walk is per-row, so tiling scales
        # both sides fairly
        if X.shape[0] < 1024:
            X = np.tile(X, (-(-1024 // X.shape[0]), 1))
        estimator = trainer.predictor._models["vertical"].estimator
        n_rows = X.shape[0]

        # the object walk is the pre-kernel hot path the ISSUE names:
        # per-sample _Node chasing (_HistogramTreeBuilder.predict), one
        # Python descent per tree per row — NOT the level-synchronous
        # predict_fast used by predict_reference
        from repro.ml.tree import _HistogramTreeBuilder

        n_walk = min(1024, n_rows)
        Xw = X[:n_walk]

        def object_walk(rows: np.ndarray) -> np.ndarray:
            codes = estimator._binner.transform(rows)
            out = np.full(rows.shape[0], estimator.init_)
            for nodes in estimator._trees:
                out += estimator.learning_rate * (
                    _HistogramTreeBuilder.predict(nodes, codes)
                )
            return out

        t_walk = t_batch = float("inf")
        walked = compiled = None
        for _ in range(repeat):
            start = time.perf_counter()
            walked = object_walk(Xw)
            t_walk = min(t_walk, time.perf_counter() - start)
            start = time.perf_counter()
            compiled = estimator.predict(X)
            t_batch = min(t_batch, time.perf_counter() - start)
        max_diff = float(np.max(np.abs(compiled[:n_walk] - walked)))
        gate(max_diff <= 1e-9,
             f"compiled kernel diverged from the object walk: "
             f"max |diff| = {max_diff:g} > 1e-9")

        n_single = min(256, n_rows)
        t_single = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            for i in range(n_single):
                estimator.predict(X[i:i + 1])
            t_single = min(t_single, time.perf_counter() - start)

        walk_rows = n_walk / max(t_walk, 1e-9)
        batch_rows = n_rows / max(t_batch, 1e-9)
        single_rows = n_single / max(t_single, 1e-9)
        kernel_speedup = batch_rows / max(walk_rows, 1e-9)
        gate(kernel_speedup >= 5.0,
             f"compiled batch kernel is only {kernel_speedup:.2f}x the "
             f"object walk (>= 5x required)")

        kernel = {
            "n_rows": n_rows,
            "n_features": int(X.shape[1]),
            "n_trees": estimator.n_estimators,
            "direction": "vertical",
            "max_abs_diff": max_diff,
            "object_walk": {
                "n_rows": n_walk,
                "seconds": round(t_walk, 6),
                "rows_per_s": round(walk_rows, 1),
            },
            "compiled_single": {
                "n_rows": n_single,
                "seconds": round(t_single, 6),
                "rows_per_s": round(single_rows, 1),
                "speedup_vs_object_walk": round(
                    single_rows / max(walk_rows, 1e-9), 2),
            },
            "compiled_batch": {
                "seconds": round(t_batch, 6),
                "rows_per_s": round(batch_rows, 1),
                "speedup_vs_object_walk": round(kernel_speedup, 2),
            },
        }

        # ---- serving phase: sustained req/s, memoization OFF ---------
        def measure(service) -> dict:
            service.warm()  # registry hit — never retrains
            service.predict_batch(requests)  # arms pool workers
            best = float("inf")
            for _ in range(repeat):
                start = time.perf_counter()
                service.predict_batch(requests)
                best = min(best, time.perf_counter() - start)
            stats = service.stats()
            entry = {
                "seconds": round(best, 6),
                "req_per_s": round(n_requests / max(best, 1e-9), 1),
                "model_source": stats["model_source"],
            }
            pool_stats = stats.get("pool")
            if pool_stats is not None:
                gate(not pool_stats["degraded"],
                     f"pool degraded during the measurement "
                     f"({pool_stats['degraded_reason']!r})")
                gate(pool_stats["inline_fallbacks"] == 0,
                     f"{pool_stats['inline_fallbacks']} inline "
                     f"fallbacks during the measurement")
                entry["workers"] = pool_stats["pool_workers"]
            return entry

        in_process = CongestionService(
            model, options=options, prediction_cache=False
        )
        serving: dict = {
            "n_requests": n_requests,
            "repeat": repeat,
            "prediction_cache": False,
            "in_process_compiled": measure(in_process),
            "pool": {},
        }
        for workers in (1, 2, 4):
            pool = PoolServer(
                model, options=options, prediction_cache=False,
                pool=PoolConfig(workers=workers),
            )
            try:
                serving["pool"][str(workers)] = measure(pool)
            finally:
                pool.close()

        best_req = max(
            serving["in_process_compiled"]["req_per_s"],
            *(row["req_per_s"] for row in serving["pool"].values()),
        )
        sustained = best_req / BASELINE_BATCHED_REQ_PER_S
        if scale == 1.0:
            # the 72 req/s anchor was measured at scale 1.0; smaller
            # scales serve far smaller designs and req/s isn't
            # comparable, so reduced-scale smoke runs skip this gate
            gate(sustained >= 10.0,
                 f"best sustained throughput {best_req:.0f} req/s is "
                 f"only {sustained:.1f}x the "
                 f"{BASELINE_BATCHED_REQ_PER_S:.0f} req/s object-walk "
                 f"baseline (>= 10x required)")
        serving["baseline_batched_req_per_s"] = BASELINE_BATCHED_REQ_PER_S
        serving["baseline_scale"] = 1.0
        serving["throughput_gate_applied"] = scale == 1.0
        serving["best_req_per_s"] = best_req
        serving["sustained_speedup_vs_baseline"] = round(sustained, 1)
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_env
        shutil.rmtree(cache_dir, ignore_errors=True)

    return {"model": model, "kernel": kernel, "serving": serving}


#: the flow bench times every stage under both initial-placement modes
INIT_MODES = ("center", "analytic")


def bench(scale: float, seed: int, effort: str, repeat: int,
          with_reference: bool = False) -> dict:
    import shutil
    import tempfile

    from repro.flow import FlowOptions, run_flow
    from repro.util.cache import cached_property_store

    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")

    # The timed flows must be COLD: a bench process inheriting a warm
    # REPRO_CACHE_DIR would record ~0s cache-hit "timings" for every
    # stage (that is exactly how a broken all-zero BENCH_flow.json once
    # got committed).  Point the disk cache at a fresh throwaway
    # directory for the duration and clear the in-memory store per run.
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-flow-")
    saved_env = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    try:
        combos: dict[str, dict[str, dict[str, float]]] = {}
        for name in COMBOS:
            modes: dict[str, dict[str, float]] = {}
            for mode in INIT_MODES:
                best: dict[str, float] = {}
                for _ in range(repeat):
                    cached_property_store("flow_results").clear()
                    options = FlowOptions(
                        scale=scale, seed=seed, placement_effort=effort,
                        placement_init=mode,
                    )
                    result = run_flow(name, "baseline", options=options,
                                      use_cache=False)
                    for stage, seconds in result.stage_seconds.items():
                        if stage not in best or seconds < best[stage]:
                            best[stage] = seconds
                modes[mode] = {s: round(best.get(s, 0.0), 6) for s in STAGES}
            combos[name] = modes
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_env
        shutil.rmtree(cache_dir, ignore_errors=True)

    totals: dict[str, dict[str, float]] = {}
    for mode in INIT_MODES:
        t = {s: round(sum(c[mode][s] for c in combos.values()), 6)
             for s in STAGES}
        t["place+route"] = round(t["place"] + t["route"], 6)
        t["flow"] = round(sum(t[s] for s in STAGES), 6)
        if t["flow"] <= 0.0:
            raise RuntimeError(
                f"flow bench measured 0.0s total for init={mode!r} — "
                f"stages ran cache-warm or never ran; refusing to write "
                f"a meaningless BENCH_flow.json"
            )
        totals[mode] = t
    totals["speedup_analytic_vs_center_place"] = round(
        totals["center"]["place"] / max(totals["analytic"]["place"], 1e-9), 2
    )
    reference = (
        _reference_place_route(scale, seed, effort, repeat)
        if with_reference else None
    )
    if reference is not None:
        ref_pr = reference["totals"]["place+route"]
        if totals["center"]["place+route"] > 0:
            reference["speedup_place+route"] = round(
                ref_pr / totals["center"]["place+route"], 2
            )
    return {
        "meta": {
            "scale": scale,
            "seed": seed,
            "effort": effort,
            "repeat": repeat,
            "placement_init_modes": list(INIT_MODES),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "combos": combos,
        "totals": totals,
        **({"reference_loops": reference} if reference is not None else {}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--effort", default="fast")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per combo; the minimum per stage is kept")
    parser.add_argument("--with-reference", action="store_true",
                        help="also time the preserved loop place/route "
                             "implementations and record the speedup")
    parser.add_argument("--serve", action="store_true",
                        help="benchmark the serving layer instead of the "
                             "flow; writes BENCH_serve.json")
    parser.add_argument("--features", action="store_true",
                        help="benchmark feature extraction (vectorized vs "
                             "reference); writes BENCH_features.json")
    parser.add_argument("--resilience", action="store_true",
                        help="benchmark the fault-tolerant server under "
                             "open-loop load, clean and faulted; writes "
                             "BENCH_resilience.json")
    parser.add_argument("--explore", action="store_true",
                        help="benchmark what-if exploration (predict-mode "
                             "sweep vs full flow, plus the autotuner); "
                             "writes BENCH_explore.json")
    parser.add_argument("--place", action="store_true",
                        help="benchmark the placer (center vs analytic "
                             "init vs loop reference, with post-route "
                             "congestion parity gates); writes "
                             "BENCH_place.json")
    parser.add_argument("--net", action="store_true",
                        help="benchmark the TCP serving edge over real "
                             "sockets: clean, wire-faulted, mid-run "
                             "hot-swap, and graceful-drain phases; "
                             "writes BENCH_net.json")
    parser.add_argument("--predict", action="store_true",
                        help="benchmark the compiled inference kernel vs "
                             "the object walk and pool serving at 1/2/4 "
                             "workers (hard gates: >=5x kernel, >=10x "
                             "sustained); writes BENCH_predict.json")
    parser.add_argument("--flow", action="store_true",
                        help="benchmark the flow stages under both "
                             "placement-init modes (the default when no "
                             "other bench is selected); writes "
                             "BENCH_flow.json")
    parser.add_argument("--max-configs", type=int, default=24,
                        help="sweep size for --explore")
    parser.add_argument("--budget", type=int, default=24,
                        help="tuner evaluation budget for --explore")
    parser.add_argument("--requests", type=int, default=24,
                        help="prediction requests for --serve/--resilience")
    parser.add_argument("--rate", type=float, default=40.0,
                        help="open-loop arrival rate for --resilience")
    parser.add_argument("--model", default="gbrt",
                        choices=("linear", "ann", "gbrt"),
                        help="model family for --serve/--resilience")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    if args.scale <= 0:
        parser.error(f"--scale must be positive, got {args.scale}")
    if sum((args.serve, args.features, args.resilience, args.explore,
            args.place, args.net, args.predict, args.flow)) > 1:
        parser.error("--serve, --features, --resilience, --explore, "
                     "--place, --net, --predict and --flow are mutually "
                     "exclusive")
    if args.out is None:
        name = ("BENCH_serve.json" if args.serve
                else "BENCH_features.json" if args.features
                else "BENCH_resilience.json" if args.resilience
                else "BENCH_explore.json" if args.explore
                else "BENCH_place.json" if args.place
                else "BENCH_net.json" if args.net
                else "BENCH_predict.json" if args.predict
                else "BENCH_flow.json")
        args.out = os.path.join(os.path.dirname(__file__), os.pardir,
                                "out", name)

    if args.place:
        report = {
            "meta": {
                "scale": args.scale,
                "seed": args.seed,
                "effort": args.effort,
                "repeat": args.repeat,
                "python": platform.python_version(),
                "platform": platform.platform(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            **bench_place(args.scale, args.seed, args.effort, args.repeat),
        }
    elif args.explore:
        report = {
            "meta": {
                "scale": args.scale,
                "seed": args.seed,
                "effort": args.effort,
                "python": platform.python_version(),
                "platform": platform.platform(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            **bench_explore(args.scale, args.seed, args.effort,
                            args.model, args.max_configs, args.budget),
        }
    elif args.resilience:
        report = {
            "meta": {
                "scale": args.scale,
                "seed": args.seed,
                "effort": args.effort,
                "python": platform.python_version(),
                "platform": platform.platform(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            **bench_resilience(args.scale, args.seed, args.effort,
                               args.requests, args.model, args.rate),
        }
    elif args.net:
        report = {
            "meta": {
                "scale": args.scale,
                "seed": args.seed,
                "effort": args.effort,
                "python": platform.python_version(),
                "platform": platform.platform(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            **bench_net(args.scale, args.seed, args.effort,
                        args.requests, args.model, args.rate),
        }
    elif args.features:
        report = {
            "meta": {
                "scale": args.scale,
                "repeat": args.repeat,
                "python": platform.python_version(),
                "platform": platform.platform(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            **bench_features(args.scale, args.repeat),
        }
    elif args.predict:
        report = {
            "meta": {
                "scale": args.scale,
                "seed": args.seed,
                "effort": args.effort,
                "repeat": args.repeat,
                "python": platform.python_version(),
                "platform": platform.platform(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            **bench_predict(args.scale, args.seed, args.effort,
                            args.requests, args.repeat, args.model),
        }
    elif args.serve:
        meta = {
            "scale": args.scale,
            "seed": args.seed,
            "effort": args.effort,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        report = {
            "meta": meta,
            **bench_serve(args.scale, args.seed, args.effort,
                          args.requests, args.model),
        }
    else:
        report = bench(args.scale, args.seed, args.effort, args.repeat,
                       with_reference=args.with_reference)
    out = os.path.abspath(args.out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(f"wrote {out}")
    if args.place:
        for name, entry in report["combos"].items():
            center, analytic = entry["center"], entry["analytic"]
            print(f"{name:18s} center={center['seconds']:.3f}s "
                  f"(cost {center['cost']:.0f}, "
                  f"hot {center['congestion']['hot_tiles_gt80']})  "
                  f"analytic={analytic['seconds']:.3f}s "
                  f"(cost {analytic['cost']:.0f}, "
                  f"hot {analytic['congestion']['hot_tiles_gt80']})  "
                  f"{entry['speedup_analytic_vs_center']}x  "
                  f"ref={entry['reference']['seconds']:.3f}s")
        totals = report["totals"]
        print(f"totals: center={totals['center_seconds']:.3f}s "
              f"analytic={totals['analytic_seconds']:.3f}s "
              f"({totals['speedup_analytic_vs_center']}x)  "
              f"reference={totals['reference_seconds']:.3f}s")
        return 0
    if args.explore:
        full = report["full_flow"]
        cold = report["predict_sweep_cold"]
        warm = report["predict_sweep_warm"]
        print(f"full flow: {full['seconds_per_config']:.3f}s/config "
              f"({full['configs_per_s']:.2f} configs/s)")
        print(f"predict sweep cold: {cold['configs_per_s']:.1f} configs/s "
              f"({cold['speedup_vs_full_flow']}x vs full flow)  "
              f"warm: {warm['configs_per_s']:.1f} configs/s "
              f"({warm['speedup_vs_full_flow']}x vs full flow)")
        for name, stats in report["tuner"].items():
            print(f"tuner {name:18s} baseline={stats['baseline_peak']:.2f}% "
                  f"best={stats['best_peak']:.2f}% "
                  f"({stats['delta_peak']:+.2f})  improved="
                  f"{stats['improved']}  "
                  f"[{stats['evaluated']}/{stats['budget']} evals, "
                  f"{stats['seconds']:.2f}s]")
        return 0
    if args.resilience:
        for phase, stats in report["phases"].items():
            latency = stats["latency_ms"]
            print(f"{phase:9s} success={stats['success_rate']*100:.1f}%  "
                  f"p50={latency['p50']:.1f}ms p99={latency['p99']:.1f}ms  "
                  f"overload={stats['rejected_overload']} "
                  f"deadline-miss={stats['deadline_misses']} "
                  f"crashes={stats['worker_crashes']} "
                  f"restarts={stats['worker_restarts']}")
        return 0
    if args.net:
        for phase, stats in report["phases"].items():
            delta = stats["server_delta"]
            if phase == "drain":
                print(f"{phase:9s} offered={stats['offered']} "
                      f"succeeded={stats['succeeded']} "
                      f"typed-rejected={stats['typed_rejected']} "
                      f"transport={stats['transport']}  "
                      f"admitted={delta['submitted']} "
                      f"answered={delta['completed']} "
                      f"failed={delta['failed']}")
                continue
            latency = stats["latency_ms"]
            print(f"{phase:9s} success={stats['success_rate']*100:.1f}%  "
                  f"p50={latency['p50']:.1f}ms p99={latency['p99']:.1f}ms  "
                  f"crashes={delta['worker_crashes']} "
                  f"restarts={delta['worker_restarts']} "
                  f"swaps={delta['swaps']}")
        return 0
    if args.features:
        for name, stats in report["combos"].items():
            print(f"{name:18s} graph={stats['graph_build_seconds']:.4f}s  "
                  f"ref={stats['reference_seconds']:.3f}s  "
                  f"vec={stats['vectorized_cold_seconds']:.4f}s "
                  f"({stats['speedup_cold']}x)  "
                  f"warm={stats['vectorized_warm_seconds']*1e6:.0f}us  "
                  f"maxdiff={stats['max_abs_diff']:.2e}")
        totals = report["totals"]
        print(f"totals: graph={totals['graph_build_seconds']:.3f}s "
              f"ref={totals['reference_seconds']:.3f}s "
              f"vec={totals['vectorized_cold_seconds']:.3f}s "
              f"speedup={totals['speedup_cold']}x "
              f"({totals['nodes_per_s_vectorized']:.0f} nodes/s)")
        return 0
    if args.serve:
        cold = report["cold_train_and_save"]
        warm = report["warm_registry_load"]
        throughput = report["prediction_throughput"]
        print(f"cold train-and-save: {cold['seconds']:.2f}s  "
              f"warm registry load: {warm['seconds']:.3f}s "
              f"({warm['speedup_vs_cold']}x)")
        print(f"throughput: single {throughput['single_req_per_s']} req/s  "
              f"batched {throughput['batched_req_per_s']} req/s "
              f"({throughput['batch_speedup']}x)")
        return 0
    if args.predict:
        kernel = report["kernel"]
        serving = report["serving"]
        print(f"kernel ({kernel['n_rows']} rows x "
              f"{kernel['n_features']} feats, "
              f"{kernel['n_trees']} trees): "
              f"object-walk {kernel['object_walk']['rows_per_s']:.0f} "
              f"rows/s  compiled single "
              f"{kernel['compiled_single']['rows_per_s']:.0f} rows/s  "
              f"batch {kernel['compiled_batch']['rows_per_s']:.0f} rows/s "
              f"({kernel['compiled_batch']['speedup_vs_object_walk']}x, "
              f"maxdiff {kernel['max_abs_diff']:.2e})")
        in_proc = serving["in_process_compiled"]
        pool_line = "  ".join(
            f"pool x{w}={row['req_per_s']:.0f} req/s"
            for w, row in serving["pool"].items()
        )
        print(f"serving ({serving['n_requests']} requests, memo off): "
              f"in-process={in_proc['req_per_s']:.0f} req/s  {pool_line}")
        print(f"best {serving['best_req_per_s']:.0f} req/s = "
              f"{serving['sustained_speedup_vs_baseline']}x the "
              f"{serving['baseline_batched_req_per_s']:.0f} req/s "
              f"object-walk baseline")
        return 0
    for name, modes in report["combos"].items():
        for mode in INIT_MODES:
            stages = modes[mode]
            line = "  ".join(f"{s}={stages[s]:.3f}s" for s in
                             ("hls", "place", "route", "backtrace"))
            print(f"{name:18s} {mode:8s} {line}")
    totals = report["totals"]
    for mode in INIT_MODES:
        print(f"totals[{mode}]: place+route="
              f"{totals[mode]['place+route']:.3f}s "
              f"flow={totals[mode]['flow']:.3f}s")
    print(f"analytic-vs-center place speedup: "
          f"{totals['speedup_analytic_vs_center_place']}x")
    reference = report.get("reference_loops")
    if reference:
        print(f"loop reference place+route="
              f"{reference['totals']['place+route']:.3f}s "
              f"(speedup {reference['speedup_place+route']:.1f}x "
              f"vs center)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
