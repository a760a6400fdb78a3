from repro.flow import run_flow


def test_flow_result_summary(facedet_flow):
    summary = facedet_flow.summary()
    assert summary["variant"] == "baseline"
    # the synthesized design, not the pre-HLS source
    assert summary["ops"] == facedet_flow.hls.module.n_ops() == 367
    assert summary["latency_cycles"] > 0
    assert summary["max_v_congestion"] >= 0
    assert summary["n_samples"] > 0
    assert summary["flow_seconds"] > 0


def test_flow_stage_accounting(facedet_flow):
    stages = facedet_flow.stage_seconds
    assert set(stages) >= {
        "hls", "rtl", "pack", "place", "route", "sta", "graph", "backtrace",
    }
    assert all(t >= 0 for t in stages.values())


def test_flow_artifacts_consistent(facedet_flow):
    r = facedet_flow
    # HLS synthesized a copy; the design keeps its pre-HLS source
    assert r.hls.module is not r.design.module
    assert r.congestion.device is r.device
    # labels are on synthesized ops, inlined clones included
    labeled = [r.hls.module.find_op(uid)
               for uid in set(r.labels.op_uid.tolist())]
    assert any("inlined_from" in op.attrs for op in labeled)


def test_flow_cache_returns_same_object(small_flow_options):
    a = run_flow("face_detection", "baseline", options=small_flow_options)
    b = run_flow("face_detection", "baseline", options=small_flow_options)
    assert a is b


def test_flow_cache_key_differs_by_variant(small_flow_options):
    a = run_flow("face_detection", "baseline", options=small_flow_options)
    b = run_flow("face_detection", "no_directives",
                 options=small_flow_options)
    assert a is not b
    assert b.design.variant == "no_directives"


def test_directives_increase_congestion_small_scale(small_flow_options):
    base = run_flow("face_detection", "baseline", options=small_flow_options)
    plain = run_flow("face_detection", "no_directives",
                     options=small_flow_options)
    assert base.hls.latency_cycles < plain.hls.latency_cycles
    assert (
        base.congestion.v_demand.sum() > plain.congestion.v_demand.sum()
    )


def test_backtracer_property(facedet_flow):
    tracer = facedet_flow.backtracer
    hottest = tracer.hottest_tiles(3)
    assert len(hottest) == 3
    # hot tiles hold inlined classifier ops, which only the synthesized
    # module has
    ops = [op for x, y, _ in tracer.hottest_tiles(10)
           for op in tracer.ops_in_tile(x, y)]
    assert any("inlined_from" in op.attrs for op in ops)
