"""End-to-end and unit coverage for the command line interface."""

import json
from pathlib import Path

import pytest

from pubgame.cli import HEURISTICS, load_manifest, main, read_config, write_manifest
from pubgame.engine import read_ledger_csv
from pubgame.errors import ConfigError

GEN_ARGS = [
    "--weeks", "10", "--per-week", "12", "--rho", "0.3",
    "--topic-effect", "2.0", "--seed", "3",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generate -> simulate -> full-info chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "questions.jsonl"
    assert main(["generate", "--out", str(data), *GEN_ARGS]) == 0

    asym = root / "asym"
    rc = main([
        "simulate", "--data", str(data), "--out-dir", str(asym),
        "--pretrain-weeks", "4", "--rounds", "5", "--m-cap", "6",
        "--k-cap", "3", "--retrain-period", "3", "--seed", "3",
    ])
    assert rc == 0

    full = root / "full"
    rc = main([
        "full-info", "--data", str(data), "--out-dir", str(full),
        "--pretrain-weeks", "4", "--rounds", "5", "--k", "3", "--seed", "3",
    ])
    assert rc == 0
    return root, data, asym, full


def test_generate_is_deterministic_and_validates(pipeline, tmp_path, capsys):
    _, data, _, _ = pipeline
    again = tmp_path / "again.jsonl"
    assert main(["generate", "--out", str(again), *GEN_ARGS]) == 0
    assert again.read_bytes() == data.read_bytes()

    assert main(["validate", "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("wrote") or "ok:" in out
    assert "120 questions" in out
    assert "10 weeks" in out


def test_simulate_outputs(pipeline):
    _, _, asym, _ = pipeline
    manifest = json.loads((asym / "manifest.json").read_text())
    assert manifest["format"] == "pubgame-manifest"
    assert manifest["version"] == 1
    assert manifest["command"] == "simulate"
    assert manifest["args"]["rounds"] == 5

    summary = json.loads((asym / "summary.json").read_text())
    assert summary["rounds"] == 5
    assert summary["manifest_hash"] == manifest["manifest_hash"]
    assert summary["realized_u_g"] > 0.0

    first = (asym / "ledger.csv").read_text().splitlines()[0]
    assert first == f"# manifest {manifest['manifest_hash']}"
    ledger = read_ledger_csv(asym / "ledger.csv")
    assert len(ledger) == 5
    assert (asym / "forum_scorer_model.json").exists()


def test_simulate_manifest_rerun_is_byte_identical(pipeline, tmp_path):
    _, _, asym, _ = pipeline
    rerun = tmp_path / "rerun"
    rc = main([
        "simulate", "--manifest", str(asym / "manifest.json"),
        "--out-dir", str(rerun),
    ])
    assert rc == 0
    names = sorted(p.name for p in asym.iterdir())
    assert names == sorted(p.name for p in rerun.iterdir())
    for name in names:
        assert (rerun / name).read_bytes() == (asym / name).read_bytes()


def test_full_info_outputs(pipeline):
    _, _, _, full = pipeline
    summary = json.loads((full / "summary.json").read_text())
    assert sorted(summary["totals"]) == sorted(HEURISTICS)
    for name in HEURISTICS:
        ledger = read_ledger_csv(full / f"ledger_{name}.csv")
        assert len(ledger) == 5
        assert ledger.total_u_g == pytest.approx(summary["totals"][name]["cum_u_g"])


def test_eurr_prints_ratios_and_writes_json(pipeline, tmp_path, capsys):
    _, _, asym, full = pipeline
    out = tmp_path / "eurr"
    rc = main([
        "eurr", "--asym-dir", str(asym), "--full-dir", str(full),
        "--out-dir", str(out),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("eurr_g ")
    assert lines[1].startswith("eurr_f ")

    payload = json.loads((out / "eurr.json").read_text())
    assert payload["best_heuristic_g"] in HEURISTICS
    assert payload["best_heuristic_f"] in HEURISTICS
    assert payload["eurr_g"] == pytest.approx(
        payload["realized_u_g"] / payload["tilde_u_g"]
    )


def test_analyze_outputs(pipeline, tmp_path):
    _, data, _, _ = pipeline
    out = tmp_path / "an"
    assert main(["analyze", "--data", str(data), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert -1.0 <= summary["mean_rho"] <= 1.0
    assert summary["rows"]
    assert (out / "correlations.txt").read_text()
    scatter = (out / "scatter.csv").read_text().splitlines()
    assert scatter[0].startswith("# manifest ")
    assert scatter[1] == "domain,week,u_f_norm,u_g"
    assert len(scatter) == 2 + 120


def test_report_outputs(pipeline, tmp_path):
    _, _, asym, full = pipeline
    out = tmp_path / "rep"
    rc = main([
        "report", "--asym-dir", str(asym), "--full-dir", str(full),
        "--out-dir", str(out),
    ])
    assert rc == 0
    text = (out / "tables.txt").read_text()
    for name in HEURISTICS:
        assert name in text
    assert "asym:greedy" in text
    for stem in ("full_info", "asymmetric", "significance_g", "significance_f"):
        body = (out / f"{stem}.csv").read_text()
        assert body.startswith("# manifest ")


def test_oracle_command_parses_mixed_value_types(tmp_path, capsys):
    items = tmp_path / "items.csv"
    items.write_text("f,g\n3,1\n1,3\n3/2,2.5\n")
    assert main(["oracle", "--items", str(items), "--k", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "indices: 0 1"
    assert out[1] == "value: 16.0"


def test_oracle_command_rejects_bad_header_and_budget(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("left,right\n1,2\n")
    assert main(["oracle", "--items", str(bad), "--k", "1"]) == 1
    assert "expected CSV columns f, g" in capsys.readouterr().err

    items = tmp_path / "items.csv"
    items.write_text("f,g\n" + "\n".join("1,1" for _ in range(12)) + "\n")
    rc = main(["oracle", "--items", str(items), "--k", "6", "--budget", "10"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_values_and_flag_precedence(pipeline, tmp_path):
    _, data, _, _ = pipeline
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# simulation knobs\n"
        "rounds = 3\n"
        "m_cap = 5  # per-week proposer cap\n"
        "pretrain_weeks = 4\n"
        "seed = 3\n"
    )
    out_a = tmp_path / "a"
    rc = main([
        "simulate", "--data", str(data), "--config", str(cfg),
        "--out-dir", str(out_a), "--k-cap", "3",
    ])
    assert rc == 0
    assert json.loads((out_a / "summary.json").read_text())["rounds"] == 3

    out_b = tmp_path / "b"
    rc = main([
        "simulate", "--data", str(data), "--config", str(cfg),
        "--out-dir", str(out_b), "--k-cap", "3", "--rounds", "4",
    ])
    assert rc == 0
    assert json.loads((out_b / "summary.json").read_text())["rounds"] == 4


def test_read_config_parses_each_coercer(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(
        "\n"
        "theta = 0.25\n"
        "learn_acceptance = no\n"
        "strategy_g = random\n"
        "k = 7\n"
    )
    values = read_config(cfg)
    assert values == {
        "theta": 0.25,
        "learn_acceptance": False,
        "strategy_g": "random",
        "k": 7,
    }


def test_read_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'frobnicate'; known keys"):
        read_config(cfg)


def test_read_config_rejects_bad_value_and_missing_equals(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m_cap = many\n")
    with pytest.raises(ConfigError, match="line 1: bad value for m_cap"):
        read_config(cfg)
    cfg.write_text("rounds\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        read_config(cfg)


def test_load_manifest_validation_paths(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    write_manifest(out, "simulate", {"rounds": 2}, None)
    path = out / "manifest.json"
    assert load_manifest(path, "simulate")["args"] == {"rounds": 2}

    with pytest.raises(ConfigError, match="records a 'simulate' run, not 'eurr'"):
        load_manifest(path, "eurr")

    payload = json.loads(path.read_text())
    payload["args"]["rounds"] = 3
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="hash does not match"):
        load_manifest(path, "simulate")

    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="version 99 unsupported"):
        load_manifest(path, "simulate")

    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ConfigError, match="not a run manifest"):
        load_manifest(path, "simulate")

    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_manifest(path, "simulate")


def test_load_manifest_detects_changed_data_file(tmp_path):
    data = tmp_path / "data.jsonl"
    data.write_text("{}\n")
    out = tmp_path / "run"
    out.mkdir()
    write_manifest(out, "simulate", {"data": str(data)}, str(data))
    with data.open("a") as fh:
        fh.write("\n")
    with pytest.raises(ConfigError, match="changed since the recorded run"):
        load_manifest(out / "manifest.json", "simulate")

    data.unlink()
    with pytest.raises(ConfigError, match="is missing"):
        load_manifest(out / "manifest.json", "simulate")


def test_main_maps_errors_to_exit_code_one(tmp_path, capsys):
    rc = main(["validate", "--data", str(tmp_path / "absent.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"}\n')
    rc = main(["validate", "--data", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 1" in err


CSV_HEADER = "id,timestamp,domain,title,body,view_count,u_g,forum_score\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("c2,2024-01-02T00:00:00,dba,t,b,7,nan,0.5", "u_g 'nan' is not a finite"),
        ("c2,2024-01-02T00:00:00,dba,t,b,7,inf,0.5", "u_g 'inf' is not a finite"),
        ("c2,2024-01-02T00:00:00,dba,t,b,7,2.5,inf", "forum_score 'inf' is not a finite"),
        ("c2,2024-01-02T00:00:00+01:00,dba,t,b,7,2.5,", "timestamp is offset-aware"),
    ],
)
def test_validate_rejects_bad_csv_values(tmp_path, capsys, row, message):
    path = tmp_path / "data.csv"
    path.write_text(CSV_HEADER + "c1,2024-01-01T00:00:00,dba,t,b,5,1.5,0.25\n" + row + "\n")
    assert main(["validate", "--data", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: data.csv line 3: ")
    assert message in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("view_count", "3.7", "view_count 3.7 is not an integer"),
        ("view_count", "Infinity", "view_count inf is not an integer"),
        ("u_g", "NaN", "u_g nan is not a finite"),
        ("forum_score", "-Infinity", "forum_score -inf is not a finite"),
    ],
)
def test_validate_rejects_bad_jsonl_numbers(tmp_path, capsys, field, value, message):
    good = {
        "id": "a", "timestamp": "2024-01-01T00:00:00", "domain": "d",
        "title": "t", "body": "b", "view_count": 4, "u_g": 1.0,
    }
    # the raw JSON token, so 3.7 and the non-standard NaN/Infinity reach ingest
    bad = json.dumps(dict(good, id="b", **{field: "RAW"})).replace('"RAW"', value)
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(good) + "\n" + bad + "\n")
    assert main(["validate", "--data", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: data.jsonl line 2: ")
    assert message in err


def test_validate_accepts_integral_jsonl_float_view_count(tmp_path, capsys):
    rec = {
        "id": "a", "timestamp": "2024-01-01T00:00:00", "domain": "d",
        "title": "t", "body": "b", "view_count": 3.0, "u_g": 1.0,
    }
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    assert main(["validate", "--data", str(path)]) == 0
    assert capsys.readouterr().out.startswith("ok: 1 questions")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_oracle_command_rejects_non_finite_values(tmp_path, capsys, value):
    items = tmp_path / "items.csv"
    items.write_text(f"f,g\n3,1\n1,{value}\n")
    assert main(["oracle", "--items", str(items), "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert "items.csv line 3: value" in err
    assert "is not finite" in err


def test_main_requires_data_flags_without_manifest(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out-dir", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eurr", "--full-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_full_info_rejects_unknown_heuristic(pipeline, tmp_path, capsys):
    _, data, _, _ = pipeline
    rc = main([
        "full-info", "--data", str(data), "--out-dir", str(tmp_path / "x"),
        "--heuristics", "greedy_np,frobnicate",
    ])
    assert rc == 1
    assert "unknown heuristic 'frobnicate'" in capsys.readouterr().err


def test_eurr_rejects_non_run_directories(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["eurr", "--asym-dir", str(empty), "--full-dir", str(empty)])
    assert rc == 1
    assert "no ledger.csv" in capsys.readouterr().err
