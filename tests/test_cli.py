"""CLI smoke tests (``python -m repro``)."""

import pytest

from repro.__main__ import main


def test_cli_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_flow(capsys):
    code = main(["flow", "face_detection", "--scale", "0.18", "--map"])
    out = capsys.readouterr().out
    assert code == 0
    assert "face_detection [baseline]" in out
    assert "latency_cycles" in out
    assert "congestion map" in out


def test_cli_dataset(capsys):
    code = main(["dataset", "--scale", "0.18"])
    out = capsys.readouterr().out
    assert code == 0
    assert "samples" in out and "marginal filtered" in out


def test_cli_predict(capsys):
    code = main([
        "predict", "face_detection", "--scale", "0.18", "--model", "linear",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "predicted congestion hotspots" in out


def test_cli_rejects_unknown_design():
    with pytest.raises(SystemExit):
        main(["flow", "unknown_design"])


def test_cli_flow_until_skips_physical_stages(capsys):
    code = main(["flow", "face_detection", "--scale", "0.18",
                 "--until", "hls"])
    out = capsys.readouterr().out
    assert code == 0
    assert "until=hls" in out
    assert "skipped stages: rtl, pack, place, route" in out


def test_cli_error_exits_nonzero(capsys):
    code = main(["flow", "face_detection", "--scale", "0.18",
                 "--variant", "bogus"])
    err = capsys.readouterr().err
    assert code == 1
    assert "unknown variant" in err


def test_cli_explore_sweep(capsys):
    code = main(["explore", "face_detection", "--scale", "0.18",
                 "--model", "linear", "--max-configs", "6",
                 "--max-knobs", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "what-if sweep — face_detection [baseline]" in out
    assert "sweep telemetry:" in out
    assert "caches: features" in out and "prediction cache" in out


def test_cli_explore_tune_json(capsys):
    import json

    code = main(["explore", "face_detection", "--scale", "0.18",
                 "--model", "linear", "--mode", "tune",
                 "--budget", "6", "--restarts", "1", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    assert payload["trajectory"][0]["action"] == "identity"
    assert payload["best"]["peak"] <= payload["baseline_peak"] + 1e-9
    assert payload["evaluated"] <= 6


def test_cli_serve_demo_with_registry(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    args = ["serve-demo", "--scale", "0.18", "--requests", "3",
            "--model", "linear", "--cache-dir", str(tmp_path)]
    code = main(args)
    out = capsys.readouterr().out
    assert code == 0
    assert "model ready from 'trained'" in out
    assert "batched:" in out and "p99" in out

    # a second invocation must load the persisted model, not retrain
    code = main(args)
    out = capsys.readouterr().out
    assert code == 0
    assert "model ready from 'memory'" not in out
    assert "model ready from 'registry'" in out
