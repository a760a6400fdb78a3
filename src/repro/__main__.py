"""Command-line interface: ``python -m repro <command>``.

Commands
--------
flow        run one C-to-FPGA flow (optionally ``--until <stage>``)
dataset     build the paper's dataset and print its statistics
train       run the Table IV evaluation protocol
predict     train GBRT and print predicted hotspots for a design variant
serve-demo  train-or-load via the model registry, answer a request
            batch, print latency percentiles and cache statistics
            (``--pool N`` shards across N worker processes serving
            the model's kernels)
explore     what-if directive exploration: sweep a directive space
            (``--mode sweep``) or run the predictor-guided autotuner
            (``--mode tune``) without ever place-and-routing
serve-net   run the asyncio TCP serving edge (length-prefixed JSON
            frames, graceful drain on SIGTERM, model hot-swap)
net-client  talk to a running serve-net: predict / health / ready /
            stats over the wire
publish-model  train-or-load a model and (re)write it to the registry
            — running serve-net instances hot-swap it in

All commands accept ``--cache-dir DIR`` (persist flow results, datasets
and trained models across processes) and ``--jobs N`` (parallel dataset
builds).  Failures exit non-zero with the error on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.dataset import build_paper_dataset
from repro.errors import ReproError
from repro.explore import ExplorationSession, autotune
from repro.flow import (
    STAGE_ORDER,
    FlowOptions,
    FlowPipeline,
    run_flow,
)
from repro.impl.placement import EFFORT_SWEEPS
from repro.kernels import (
    KERNEL_BUILDERS,
    PAPER_COMBINATIONS,
    build_combined,
    build_kernel,
)
from repro.predict import CongestionPredictor, evaluate_models, suggest_resolutions
from repro.serve import (
    PROTOCOL_VERSION,
    CongestionService,
    NetClient,
    NetServer,
    NetServerConfig,
    PoolConfig,
    PoolServer,
    PredictRequest,
    ResilientCongestionServer,
    ServerConfig,
    run_open_loop,
)
from repro.serve.loadgen import percentile
from repro.serve.service import measure_serving
from repro.util import faults
from repro.util.cache import CACHE_DIR_ENV
from repro.util.tabulate import format_table


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="structural scale of the generated designs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--effort", default="fast",
                        choices=tuple(EFFORT_SWEEPS),
                        help="placement effort")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for dataset builds")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help=f"persist artifacts under DIR (sets "
                             f"{CACHE_DIR_ENV})")


def _options(args) -> FlowOptions:
    return FlowOptions(scale=args.scale, seed=args.seed,
                       placement_effort=args.effort)


def cmd_flow(args) -> int:
    combined = args.design in PAPER_COMBINATIONS
    if args.until is not None:
        if combined:
            design = build_combined(args.design, scale=args.scale,
                                    variant=args.variant)
        else:
            design = build_kernel(args.design, scale=args.scale,
                                  variant=args.variant)
        ctx = FlowPipeline().run(design, options=_options(args),
                                 until=args.until)
        rows = [[stage, round(seconds, 4)]
                for stage, seconds in ctx.stage_seconds.items()]
        print(format_table(
            ["stage", "seconds"], rows,
            title=f"{args.design} [{args.variant}] until={args.until}",
        ))
        skipped = [s for s in STAGE_ORDER if s not in ctx.stage_seconds]
        print(f"skipped stages: {', '.join(skipped) or '(none)'}")
        if args.map:
            if ctx.congestion is not None:
                print(ctx.congestion.render_ascii("average"))
            else:
                print("note: --map needs the route stage; add "
                      "--until route (or later)", file=sys.stderr)
        return 0
    result = run_flow(args.design, args.variant, options=_options(args),
                      combined=combined)
    summary = result.summary()
    rows = [[k, v if not isinstance(v, float) else round(v, 3)]
            for k, v in summary.items()]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.design} [{args.variant}]"))
    if args.map:
        print(result.congestion.render_ascii("average"))
    return 0


def cmd_dataset(args) -> int:
    dataset = build_paper_dataset(options=_options(args), n_jobs=args.jobs)
    filtered, stats = dataset.filter_marginal()
    print(f"samples          : {dataset.n_samples}")
    print(f"marginal filtered: {stats['removed']} "
          f"({100 * stats['fraction']:.1f}%)")
    print(f"label stats      : {dataset.label_stats()}")
    return 0


def cmd_train(args) -> int:
    dataset = build_paper_dataset(options=_options(args), n_jobs=args.jobs)
    results = evaluate_models(dataset, preset=args.preset,
                              grid_search=args.grid_search)
    headers = ["Filtering", "Model", "V MAE", "V MedAE", "H MAE",
               "H MedAE", "Avg MAE", "Avg MedAE"]
    rows = [[c if isinstance(c, str) else round(c, 2) for c in row]
            for row in results.rows()]
    print(format_table(headers, rows, title="Table IV protocol"))
    return 0


def cmd_predict(args) -> int:
    options = _options(args)
    dataset = build_paper_dataset(options=options, n_jobs=args.jobs)
    predictor = CongestionPredictor(args.model).fit(dataset)
    design = build_kernel(args.design, scale=args.scale,
                          variant=args.variant)
    prediction = predictor.predict_design(design)
    print(f"inference: {prediction.inference_seconds:.2f}s "
          f"({len(prediction.node_ids)} operations)")
    rows = [
        [f"{r.source_file}:{r.source_line}", round(r.vertical, 1),
         round(r.horizontal, 1), r.n_ops]
        for r in prediction.hottest_regions(args.top)
    ]
    print(format_table(["region", "V(%)", "H(%)", "#ops"], rows,
                       title="predicted congestion hotspots"))
    for action in suggest_resolutions(prediction):
        print(f"  -> {action.describe()}")
    return 0


def _cache_report(service) -> str:
    """One-line cache telemetry: proves prediction reuse at a glance."""
    stats = service.stats()
    registry = stats.get("registry") or {}
    return (f"caches: features {stats['feature_hits']} hit / "
            f"{stats['feature_misses']} miss"
            f"  registry {registry.get('hits', 0)} hit / "
            f"{registry.get('misses', 0)} miss"
            f"  model from '{stats['model_source']}'")


def cmd_explore(args) -> int:
    service = CongestionService(
        args.model, options=_options(args), n_jobs=args.jobs
    )
    start = time.perf_counter()
    source = service.warm()
    if not args.json:
        print(f"model ready from '{source}' in "
              f"{time.perf_counter() - start:.2f}s ({args.model})")
    session = ExplorationSession(
        args.design, variant=args.variant, service=service,
        max_knobs=args.max_knobs,
    )

    if args.mode == "tune":
        result = autotune(
            session, budget=args.budget, seed=args.seed,
            restarts=args.restarts, validate_top_k=args.validate_top_k,
        )
        if args.json:
            print(json.dumps(
                {**result.to_json(), "stats": session.stats()}, indent=2,
            ))
            return 0
        rows = [[s.step, s.restart, s.action, s.label or "(baseline)",
                 round(s.peak, 2), round(s.best_peak, 2)]
                for s in result.trajectory]
        print(format_table(
            ["step", "restart", "action", "configuration", "peak",
             "best"],
            rows,
            title=f"tuner trajectory — {args.design} [{args.variant}]",
        ))
        best = result.best
        print(f"\nbaseline peak {result.baseline.peak:.2f}%  ->  best "
              f"{best.peak:.2f}% ({best.delta_peak:+.2f})  "
              f"improved={result.improved}")
        print(f"best configuration: {best.label or '(baseline)'}")
        print(f"evaluated {result.evaluated}/{result.budget} unique "
              f"configurations in {result.seconds:.2f}s (seed "
              f"{result.seed}, {result.restarts} restarts)")
        for validated in result.validated:
            measured = validated.measured or {}
            print(f"  ground truth {validated.label or '(baseline)'}: "
                  f"peak {measured.get('peak', 0.0):.2f}% "
                  f"(predicted {validated.peak:.2f}%)")
        print(_cache_report(service))
        return 0

    result = session.sweep(max_configs=args.max_configs, seed=args.seed)
    if args.json:
        print(json.dumps(
            {**result.to_json(), "stats": session.stats()}, indent=2,
        ))
        return 0
    pareto = {id(result.evaluations[i]) for i in result.pareto}
    rows = [
        [e.label or "(baseline)", round(e.peak, 2),
         f"{e.delta_peak:+.2f}", e.hot_regions,
         f"{e.delta_latency:+d}", f"{e.delta_lut:+d}",
         "*" if id(e) in pareto else ""]
        for e in result.best(args.top)
    ]
    print(format_table(
        ["configuration", "peak(%)", "dpeak", "hot", "dlat", "dLUT",
         "pareto"],
        rows,
        title=(f"what-if sweep — {args.design} [{args.variant}] "
               f"(baseline peak {result.baseline.peak:.2f}%)"),
    ))
    telemetry = result.telemetry
    print(f"\n{telemetry['n_unique']} unique configurations "
          f"({telemetry['n_configs']} requested) in "
          f"{result.seconds:.2f}s; {len(result.pareto)} on the "
          f"pareto front")
    print(f"sweep telemetry: {telemetry['predictions_issued']} "
          f"predictions, {telemetry['memo_hits']} memo hits, feature "
          f"cache +{telemetry['feature_cache_hits']} hit / "
          f"+{telemetry['feature_cache_misses']} miss, prediction "
          f"cache +{telemetry['prediction_cache_hits']} hit / "
          f"+{telemetry['prediction_cache_misses']} miss")
    print(_cache_report(service))
    return 0


def _cmd_serve_resilient(args, service) -> int:
    """The ``serve-demo --resilient`` path: open-loop load through the
    fault-tolerant front-end, with optional injected faults."""
    if args.faults:
        faults.install(faults.FaultInjector(
            faults.parse_fault_plan(args.faults), seed=args.seed
        ))
    config = ServerConfig(
        max_queue=args.queue,
        workers=args.workers,
        default_timeout_s=(
            args.timeout_ms / 1e3 if args.timeout_ms else None
        ),
    )
    designs = sorted(KERNEL_BUILDERS)
    requests = [PredictRequest(designs[i % len(designs)])
                for i in range(args.requests)]
    try:
        with ResilientCongestionServer(service, config) as server:
            start = time.perf_counter()
            source = server.warm()
            print(f"model ready from '{source}' in "
                  f"{time.perf_counter() - start:.2f}s ({args.model})")
            server.predict(requests[0])  # prime the feature cache
            report = run_open_loop(server, requests,
                                   rate_per_s=args.rate)
            summary = report.summary()
            latency = summary["latency_ms"]
            print(f"\nopen-loop {args.requests} requests @ "
                  f"{args.rate:.0f}/s (queue {args.queue}, "
                  f"{args.workers} worker(s)):")
            print(f"  success {100 * summary['success_rate']:.1f}%  "
                  f"degraded {summary['degraded']}  "
                  f"overload {summary['rejected_overload']}  "
                  f"deadline-miss {summary['deadline_misses']}  "
                  f"failures {summary['other_failures']}")
            print(f"  latency p50 {latency['p50']:.1f}ms  "
                  f"p90 {latency['p90']:.1f}ms  p99 {latency['p99']:.1f}ms  "
                  f"({summary['completed_rate_per_s']:.1f} req/s completed)")
            stats = server.stats()
            print(f"  batches {stats['batches']}  worker restarts "
                  f"{stats['worker_restarts']}  queue depth "
                  f"{stats['queue_depth']}")
            print(f"\n{_cache_report(service)}")
            print(f"stats: {stats}")
    finally:
        if args.faults:
            faults.install(None)
    return 0


def _make_service(args, *,
                  prediction_cache: bool = True) -> CongestionService:
    """``--pool N`` swaps the in-process service for the sharded
    multi-process pool — same surface, workers serve the parent's
    model kernels."""
    if getattr(args, "pool", 0) > 0:
        return PoolServer(
            args.model, options=_options(args), n_jobs=args.jobs,
            prediction_cache=prediction_cache,
            pool=PoolConfig(workers=args.pool),
        )
    return CongestionService(
        args.model, options=_options(args), n_jobs=args.jobs,
        prediction_cache=prediction_cache,
    )


def cmd_serve_demo(args) -> int:
    if args.requests < 1:
        print(f"error: --requests must be >= 1, got {args.requests}",
              file=sys.stderr)
        return 1
    # no answer reuse: the timings must be model invocations, not hits
    service = _make_service(args, prediction_cache=False)
    if args.resilient:
        try:
            return _cmd_serve_resilient(args, service)
        finally:
            service.close()
    if service.registry is None:
        print(f"note: no {CACHE_DIR_ENV}/--cache-dir — model will not "
              f"be persisted", file=sys.stderr)

    try:
        start = time.perf_counter()
        source = service.warm()
        print(f"model ready from '{source}' in "
              f"{time.perf_counter() - start:.2f}s "
              f"({args.model}, dataset "
              f"{service.dataset_fingerprint[:12]}...)")

        designs = sorted(KERNEL_BUILDERS)
        requests = [
            PredictRequest(designs[i % len(designs)])
            for i in range(args.requests)
        ]
        timing = measure_serving(service, requests)

        latencies = timing["latencies"]
        n = len(requests)
        print(f"\n{n} requests over {len(designs)} designs:")
        print(f"  single : {timing['single_seconds']:.3f}s total "
              f"({n / timing['single_seconds']:.1f} req/s)  "
              f"p50 {1e3 * percentile(latencies, 50):.1f}ms  "
              f"p90 {1e3 * percentile(latencies, 90):.1f}ms  "
              f"p99 {1e3 * percentile(latencies, 99):.1f}ms")
        print(f"  batched: {timing['batch_seconds']:.3f}s total "
              f"({n / timing['batch_seconds']:.1f} req/s, "
              f"one model invocation)")

        hottest = service.predict(requests[0])
        print(f"\nhottest regions of {hottest.request.design}:")
        for region in hottest.regions[:3]:
            print(f"  {region.source_file}:{region.source_line}  "
                  f"V {region.vertical:.1f}%  H {region.horizontal:.1f}%")

        print(f"\n{_cache_report(service)}")
        stats = service.stats()
        if "pool" in stats:
            pool = stats["pool"]
            print(f"pool: {pool['pool_workers']} worker(s), "
                  f"{pool['dispatched_requests']} dispatched, "
                  f"{pool['inline_fallbacks']} inline fallbacks")
        print(f"stats: {stats}")
        return 0
    finally:
        service.close()


def cmd_serve_net(args) -> int:
    """Run the asyncio TCP serving edge until SIGTERM/SIGINT, then
    drain gracefully (every admitted request is answered)."""
    import asyncio

    if args.faults:
        faults.install(faults.FaultInjector(
            faults.parse_fault_plan(args.faults), seed=args.seed
        ))
    service = _make_service(args)
    server_config = ServerConfig(
        max_queue=args.queue,
        workers=args.workers,
        default_timeout_s=(
            args.timeout_ms / 1e3 if args.timeout_ms else None
        ),
    )
    net_config = NetServerConfig(
        host=args.host, port=args.port,
        max_conn_inflight=args.max_conn_inflight,
        watch_registry=not args.no_hot_swap,
        registry_poll_s=args.registry_poll_ms / 1e3,
    )
    server = ResilientCongestionServer(service, server_config)
    net = NetServer(server, net_config)

    async def _serve() -> None:
        start = time.perf_counter()
        await net.start()
        swap = "off" if args.no_hot_swap or net.watcher is None else \
            f"every {net_config.registry_poll_s:g}s"
        print(f"model ready in {time.perf_counter() - start:.2f}s "
              f"({args.model}); listening on {net_config.host}:{net.port} "
              f"(protocol v{PROTOCOL_VERSION}, hot-swap watch {swap}); "
              f"SIGTERM drains", flush=True)
        await net.run()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass  # non-loop platforms: treated like SIGINT-drain
    finally:
        service.close()  # idempotent; stops pool workers if --pool
        if args.faults:
            faults.install(None)
    stats = server.stats()
    print(f"drained: {stats['completed']} completed, "
          f"{stats['failed']} failed, {stats['swaps']} hot-swaps, "
          f"{stats['worker_restarts']} worker restarts")
    return 0


def cmd_net_client(args) -> int:
    """One-shot wire client against a running ``serve-net``."""
    with NetClient(args.host, args.port,
                   request_timeout_s=args.wait_s) as client:
        if args.health:
            print(json.dumps(client.health(), indent=2))
            return 0
        if args.ready:
            ready = client.ready()
            print(f"ready: {ready}")
            return 0 if ready else 1
        if args.stats:
            print(json.dumps(client.stats(), indent=2, default=str))
            return 0
        if not args.designs:
            print("error: give design names, or --health/--ready/--stats",
                  file=sys.stderr)
            return 1
        for design in args.designs:
            result = client.predict(
                design, variant=args.variant, top=args.top,
                timeout_ms=args.timeout_ms,
            )
            flags = " degraded" if result["degraded"] else ""
            print(f"{design} [{result['variant']}]  "
                  f"V {result['predicted_max_vertical']:.1f}%  "
                  f"H {result['predicted_max_horizontal']:.1f}%  "
                  f"(model '{result['model_source']}' "
                  f"gen {result['model_generation']}, "
                  f"{result['latency_ms']:.1f}ms{flags})")
            for region in result["regions"]:
                print(f"  {region['source_file']}:{region['source_line']}"
                      f"  V {region['vertical']:.1f}%  "
                      f"H {region['horizontal']:.1f}%  "
                      f"#ops {region['n_ops']}")
    return 0


def cmd_publish_model(args) -> int:
    """Train-or-load a model, then (re)write it to the registry.

    A re-save bumps the registry's artifact version even for an
    identical model, so every running ``serve-net`` watching that
    registry hot-swaps it in — the smallest possible "deploy"."""
    service = CongestionService(
        args.model, options=_options(args), n_jobs=args.jobs
    )
    if service.registry is None:
        print(f"error: publish-model needs --cache-dir or "
              f"${CACHE_DIR_ENV} (a registry to publish into)",
              file=sys.stderr)
        return 1
    start = time.perf_counter()
    source = service.warm()
    manifest = service.registry.save(
        service.predictor, dataset_fingerprint=service.dataset_fingerprint
    )
    print(f"published {args.model} model (from '{source}', "
          f"{manifest.n_training_samples} training samples) for dataset "
          f"{service.dataset_fingerprint[:12]}... in "
          f"{time.perf_counter() - start:.2f}s")
    print(f"registry: {service.registry.root}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'ML Based Routing Congestion "
                    "Prediction in FPGA HLS' (DATE 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="run one C-to-FPGA flow")
    p_flow.add_argument("design",
                        choices=sorted({*PAPER_COMBINATIONS,
                                        *KERNEL_BUILDERS}))
    p_flow.add_argument("--variant", default="baseline")
    p_flow.add_argument("--map", action="store_true",
                        help="print the congestion map")
    p_flow.add_argument("--until", default=None, choices=STAGE_ORDER,
                        help="stop the pipeline after this stage")
    _add_common(p_flow)
    p_flow.set_defaults(func=cmd_flow)

    p_data = sub.add_parser("dataset", help="build the paper dataset")
    _add_common(p_data)
    p_data.set_defaults(func=cmd_dataset)

    p_train = sub.add_parser("train", help="run the Table IV protocol")
    p_train.add_argument("--preset", default="fast",
                         choices=("fast", "paper"))
    p_train.add_argument("--grid-search", action="store_true")
    _add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="predict hotspots for a design")
    p_pred.add_argument("design", choices=sorted(KERNEL_BUILDERS))
    p_pred.add_argument("--variant", default="baseline")
    p_pred.add_argument("--model", default="gbrt",
                        choices=("linear", "ann", "gbrt"))
    p_pred.add_argument("--top", type=int, default=5)
    _add_common(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_serve = sub.add_parser(
        "serve-demo",
        help="train/load a model via the registry and serve a batch",
    )
    p_serve.add_argument("--model", default="gbrt",
                         choices=("linear", "ann", "gbrt"))
    p_serve.add_argument("--requests", type=int, default=12,
                         help="number of prediction requests to answer")
    p_serve.add_argument("--pool", type=int, default=0, metavar="N",
                         help="shard prediction across N worker "
                              "processes serving the model's kernels "
                              "(0 = in-process)")
    p_serve.add_argument("--resilient", action="store_true",
                         help="serve through the fault-tolerant "
                              "front-end (bounded queue, micro-batching,"
                              " supervision) under open-loop load")
    p_serve.add_argument("--rate", type=float, default=50.0,
                         help="open-loop arrival rate for --resilient")
    p_serve.add_argument("--queue", type=int, default=64,
                         help="admission queue capacity (--resilient)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="serving worker threads (--resilient)")
    p_serve.add_argument("--timeout-ms", type=float, default=None,
                         help="per-request deadline (--resilient)")
    p_serve.add_argument("--faults", default=None, metavar="PLAN",
                         help="inject a fault plan, e.g. "
                              "'server.worker:error:max=1;"
                              "stage.graph:delay:s=0.05' "
                              f"(also via ${faults.FAULTS_ENV})")
    _add_common(p_serve)
    p_serve.set_defaults(func=cmd_serve_demo)

    p_net = sub.add_parser(
        "serve-net",
        help="run the asyncio TCP serving edge (drains on SIGTERM)",
    )
    p_net.add_argument("--host", default="127.0.0.1")
    p_net.add_argument("--port", type=int, default=7741,
                       help="TCP port (0 = ephemeral, printed at start)")
    p_net.add_argument("--model", default="gbrt",
                       choices=("linear", "ann", "gbrt"))
    p_net.add_argument("--pool", type=int, default=0, metavar="N",
                       help="shard prediction across N worker processes "
                            "serving the model's kernels "
                            "(0 = in-process)")
    p_net.add_argument("--queue", type=int, default=64,
                       help="admission queue capacity")
    p_net.add_argument("--workers", type=int, default=1)
    p_net.add_argument("--timeout-ms", type=float, default=None,
                       help="default per-request deadline for requests "
                            "that carry no timeout_ms")
    p_net.add_argument("--max-conn-inflight", type=int, default=32,
                       help="per-connection in-flight predict cap")
    p_net.add_argument("--no-hot-swap", action="store_true",
                       help="disable the registry watcher")
    p_net.add_argument("--registry-poll-ms", type=float, default=200.0,
                       help="hot-swap watch interval")
    p_net.add_argument("--faults", default=None, metavar="PLAN",
                       help="inject a wire/server fault plan, e.g. "
                            "'net.stall:delay:s=0.01,p=0.2;"
                            "net.garbage:corrupt:p=0.05' "
                            f"(also via ${faults.FAULTS_ENV})")
    _add_common(p_net)
    p_net.set_defaults(func=cmd_serve_net)

    p_client = sub.add_parser(
        "net-client",
        help="query a running serve-net over the wire",
    )
    p_client.add_argument("designs", nargs="*",
                          help="designs to predict (empty with "
                               "--health/--ready/--stats)")
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=7741)
    p_client.add_argument("--variant", default="baseline")
    p_client.add_argument("--top", type=int, default=5)
    p_client.add_argument("--timeout-ms", type=float, default=30_000.0,
                          help="per-request deadline sent on the wire")
    p_client.add_argument("--wait-s", type=float, default=120.0,
                          help="client-side socket timeout")
    p_client.add_argument("--health", action="store_true")
    p_client.add_argument("--ready", action="store_true")
    p_client.add_argument("--stats", action="store_true")
    _add_common(p_client)
    p_client.set_defaults(func=cmd_net_client)

    p_pub = sub.add_parser(
        "publish-model",
        help="(re)write a trained model to the registry — running "
             "serve-net instances hot-swap it in",
    )
    p_pub.add_argument("--model", default="gbrt",
                       choices=("linear", "ann", "gbrt"))
    _add_common(p_pub)
    p_pub.set_defaults(func=cmd_publish_model)

    p_explore = sub.add_parser(
        "explore",
        help="what-if directive exploration / predictor-guided tuning",
    )
    p_explore.add_argument("design",
                           choices=sorted({*PAPER_COMBINATIONS,
                                           *KERNEL_BUILDERS}))
    p_explore.add_argument("--variant", default="baseline")
    p_explore.add_argument("--model", default="gbrt",
                           choices=("linear", "ann", "gbrt"))
    p_explore.add_argument("--mode", default="sweep",
                           choices=("sweep", "tune"))
    p_explore.add_argument("--max-configs", type=int, default=24,
                           help="configurations per sweep (sampled "
                                "seed-deterministically when the space "
                                "is larger)")
    p_explore.add_argument("--max-knobs", type=int, default=None,
                           help="cap the derived directive space")
    p_explore.add_argument("--top", type=int, default=5,
                           help="rows to print in sweep mode")
    p_explore.add_argument("--budget", type=int, default=48,
                           help="unique evaluations for --mode tune")
    p_explore.add_argument("--restarts", type=int, default=3,
                           help="search starts for --mode tune")
    p_explore.add_argument("--validate-top-k", type=int, default=0,
                           help="place-and-route the top-k tuned "
                                "configurations for ground truth")
    p_explore.add_argument("--json", action="store_true",
                           help="machine-readable output")
    _add_common(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    args = parser.parse_args(argv)
    previous_cache_dir = os.environ.get(CACHE_DIR_ENV)
    if getattr(args, "cache_dir", None):
        os.environ[CACHE_DIR_ENV] = args.cache_dir
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # don't leak --cache-dir into later in-process callers (tests,
        # embedders invoking main() repeatedly)
        if getattr(args, "cache_dir", None):
            if previous_cache_dir is None:
                os.environ.pop(CACHE_DIR_ENV, None)
            else:
                os.environ[CACHE_DIR_ENV] = previous_cache_dir


if __name__ == "__main__":
    sys.exit(main())
