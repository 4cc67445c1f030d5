"""End-to-end and unit coverage for the command line interface."""

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pubgame
from pubgame.cli import (
    HEURISTICS,
    RUN_COMMANDS,
    RUN_VALUES,
    build_parser,
    load_manifest,
    main,
    _manifest,
    _write_json,
    read_config,
)
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


def test_generate_output_is_pinned(tmp_path):
    # the sha256 of the file the per-token generator wrote
    out = tmp_path / "gen.jsonl"
    args = ["--weeks", "30", "--per-week", "200", "--rho", "-0.5", "--topic-effect", "2"]
    assert main(["generate", "--out", str(out), *args, "--seed", "1"]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "e8baa2efe2878e596ae99d51ee137d8da3b82461e9c53b10a183473c3c796370"


@pytest.mark.parametrize(
    "effect, message",
    [
        ("inf", "topic_effect must be finite and >= 0, got inf"),
        ("nan", "topic_effect must be finite and >= 0, got nan"),
        ("70", "topic_effect 70.0 is too large: week 0 draws a view count >= 2**63, past int64"),
    ],
)
def test_generate_refuses_a_topic_effect_it_cannot_draw(tmp_path, capsys, effect, message):
    out = tmp_path / "gen.jsonl"
    args = ["--weeks", "3", "--per-week", "5", "--topic-effect", effect]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["generate", "--out", str(out), *args]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_outputs(pipeline, tmp_path):
    _, data, asym, full = pipeline
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
    # the sha256 of the file written while the text recipe was a set of
    # parameters (FeaturizerConfig and alpha)
    model = (asym / "forum_scorer_model.json").read_bytes()
    digest = hashlib.sha256(model).hexdigest()
    assert digest == "ec92af05b2a8f773ce29a759b5adce623ce99f01774a228aba4c19f83ce75a4e"

    # every summary carries its run's manifest hash and command
    analyze = tmp_path / "analyze"
    assert main(["analyze", "--data", str(data), "--out-dir", str(analyze)]) == 0
    for command, run in (("simulate", asym), ("full-info", full), ("analyze", analyze)):
        manifest = json.loads((run / "manifest.json").read_text())
        summary = json.loads((run / "summary.json").read_text())
        assert manifest["command"] == summary["command"] == command
        assert summary["manifest_hash"] == manifest["manifest_hash"]


@pytest.mark.parametrize("command", ["simulate", "full-info", "eurr", "analyze", "report"])
def test_manifest_rerun_is_byte_identical(pipeline, tmp_path, command):
    _, data, asym, full = pipeline
    first = {"simulate": asym, "full-info": full}.get(command)
    if first is None:
        first = tmp_path / "first"
        dirs = ["--asym-dir", str(asym), "--full-dir", str(full)]
        flags = {
            "eurr": dirs,
            "analyze": ["--data", str(data)],
            "report": [*dirs, "--welch", "--alpha", "0.05"],
        }[command]
        assert main([command, *flags, "--out-dir", str(first)]) == 0
    rerun = tmp_path / "rerun"
    rc = main([
        command, "--manifest", str(first / "manifest.json"),
        "--out-dir", str(rerun),
    ])
    assert rc == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in rerun.iterdir())
    for name in names:
        assert (rerun / name).read_bytes() == (first / name).read_bytes()


def test_manifest_records_resolved_paths(pipeline, tmp_path, monkeypatch):
    _, data, _, _ = pipeline
    (tmp_path / "d.jsonl").write_bytes(data.read_bytes())
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--data", "d.jsonl", "--out-dir", "run"]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["args"]["data"] == str(tmp_path.resolve() / "d.jsonl")

    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    rc = main(["analyze", "--manifest", "../run/manifest.json", "--out-dir", "rerun"])
    assert rc == 0
    for name in ("summary.json", "scatter.csv"):
        assert (elsewhere / "rerun" / name).read_bytes() == (
            tmp_path / "run" / name
        ).read_bytes()


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


@pytest.mark.parametrize(
    "lo, hi, expected",
    [
        (0, 1000, "indices: 0 6 7 12 18\nvalue: 14440206\n"),
        # past int64: the enumeration runs on Python integers
        (2**40, 2**70, "indices: 0 7 12 13 14\nvalue: 20455737603639022851852952652904093061098560\n"),
    ],
)
def test_oracle_command_output_on_integer_items(tmp_path, capsys, lo, hi, expected):
    # the output the itertools.combinations enumerator printed
    rng = random.Random(6)
    rows = "".join(f"{rng.randint(lo, hi)},{rng.randint(lo, hi)}\n" for _ in range(20))
    items = tmp_path / "items.csv"
    items.write_text("f,g\n" + rows)
    assert main(["oracle", "--items", str(items), "--k", "5"]) == 0
    assert capsys.readouterr().out == expected


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
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "\n"
        "theta = 0.25\n"
        "strategy_g = random\n"
    )
    assert read_config(cfg, "simulate") == {
        "theta": 0.25,
        "strategy_g": "random",
    }
    # a list, as the --heuristics flag parses it
    cfg.write_text("k = 7\nheuristics = mpp, random\n")
    assert read_config(cfg, "full-info") == {"k": 7, "heuristics": ["mpp", "random"]}


def test_read_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'frobnicate'; known keys"):
        read_config(cfg, "simulate")


def test_read_config_rejects_a_repeated_key(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("seed = 1\n# seed = 3\nk_cap = 4\nseed = 2\n")
    with pytest.raises(ConfigError) as err:
        read_config(cfg, "simulate")
    assert str(err.value) == f"{cfg} line 4: seed given again (first on line 1)"


@pytest.mark.parametrize(
    "command, line",
    [
        ("simulate", "k = 5"),
        ("simulate", "heuristics = mpp"),
        ("simulate", "alpha = 0.5"),
        ("simulate", "oracle_budget = 3"),
        ("full-info", "theta = 0.9"),
        ("full-info", "m_cap = 3"),
        ("full-info", "alpha = 0.5"),
    ],
)
def test_config_refuses_keys_of_other_commands(pipeline, tmp_path, capsys, command, line):
    _, data, _, _ = pipeline
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = main([
        command, "--data", str(data), "--config", str(cfg),
        "--out-dir", str(tmp_path / "x"),
    ])
    assert rc == 1
    key = line.split(" = ")[0]
    assert f"run.cfg line 1: unknown key {key!r}" in capsys.readouterr().err


def test_report_has_no_paired_flag():
    # --welch switches the paired value off; nothing switches it on
    args = vars(build_parser().parse_args(["report", "--out-dir", "x", "--welch"]))
    assert args["paired"] is False and "welch" not in args
    with pytest.raises(SystemExit):
        build_parser().parse_args(["report", "--out-dir", "x", "--paired"])


@pytest.mark.parametrize(
    "line, message",
    [
        ("scorer_f = mlp", "unknown curator scorer 'mlp'; expected one of text, precomputed"),
        ("theta = 1.5", "theta must lie in [0, 1], got 1.5"),
        ("theta = nan", "theta must lie in [0, 1], got nan"),
        ("scorer_f = precomputed\ntheta = inf", "theta must be finite, got inf"),
        ("scorer_f = precomputed\ntheta = nan", "theta must be finite, got nan"),
    ],
)
def test_simulate_checks_scorer_and_theta_before_reading_data(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = main([
        "simulate", "--data", str(tmp_path / "absent.jsonl"), "--config", str(cfg),
        "--out-dir", str(tmp_path / "x"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_run_that_fails_after_its_checks_leaves_no_manifest(pipeline, tmp_path, capsys):
    # the synthetic data has no forum_score column for the precomputed scorer
    _, data, _, _ = pipeline
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    args = [
        "simulate", "--data", str(data), "--scorer", "precomputed", "--pretrain-weeks", "4",
        "--rounds", "5", "--m-cap", "6", "--k-cap", "3",
    ]
    rc = main([*args, "--out-dir", str(first)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "has no forum_score" in err
    assert list(first.iterdir()) == []
    # the same values from a manifest fail the same way, and write none
    recorded = tmp_path / "recorded"
    assert main([*args, "--scorer", "text", "--out-dir", str(recorded)]) == 0
    edited = json.loads((recorded / "manifest.json").read_text())["args"]
    edited["scorer_f"] = "precomputed"
    _write_json(recorded / "manifest.json", _manifest("simulate", edited, str(data)))
    capsys.readouterr()
    assert main(["simulate", "--manifest", str(recorded / "manifest.json"), "--out-dir", str(rerun)]) == 1
    assert capsys.readouterr().err == err
    assert list(rerun.iterdir()) == []


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("full-info", ["--rounds", "0"], "rounds must be >= 1"),
        ("simulate", ["--rounds", "0"], "rounds must be >= 1"),
        ("simulate", ["--m-cap", "5", "--k-cap", "10"], "m_cap (5) must be >= k_cap (10)"),
    ],
    ids=["full-info-rounds-0", "simulate-rounds-0", "m-cap-below-k-cap"],
)
def test_values_only_the_library_checks_leave_no_manifest(pipeline, tmp_path, capsys, command, flags, message):
    _, data, _, _ = pipeline
    out = tmp_path / "x"
    rc = main([command, "--data", str(data), "--pretrain-weeks", "4", "--out-dir", str(out), *flags])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_precomputed_scorer_takes_theta_on_its_own_scale(pipeline, tmp_path):
    _, data, _, _ = pipeline
    # scores on the view-count scale, as README allows any finite number
    records = [json.loads(line) for line in data.read_text().splitlines()]
    scored = tmp_path / "scored.jsonl"
    scored.write_text("".join(
        json.dumps(dict(r, forum_score=r["view_count"] + 0.5)) + "\n" for r in records
    ))
    flags = [
        "simulate", "--data", str(scored), "--scorer", "precomputed",
        "--pretrain-weeks", "4", "--rounds", "5", "--m-cap", "6", "--k-cap", "3",
    ]
    assert main([*flags, "--out-dir", str(tmp_path / "calibrated")]) == 0
    summary = json.loads((tmp_path / "calibrated" / "summary.json").read_text())
    assert summary["theta"] > 1.0
    assert main([*flags, "--theta", "50", "--out-dir", str(tmp_path / "fixed")]) == 0
    summary = json.loads((tmp_path / "fixed" / "summary.json").read_text())
    assert summary["theta"] == 50.0


@pytest.mark.parametrize("value", ["1_0", "\u0663", "\uff15", "1_0.5"])
@pytest.mark.parametrize("key", ["rounds", "theta"])
def test_read_config_reads_numbers_in_ascii_alone(tmp_path, key, value):
    # int() and float() read "1_0" as 10 and other scripts' digits as theirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    message = f"line 1: bad value for {key}: '{value}' is not a number$"
    with pytest.raises(ConfigError, match=message):
        read_config(cfg, "simulate")


@pytest.mark.parametrize(
    "command, flag, value, kind",
    [
        ("full-info", "--rounds", "\u0663", "int"),
        ("full-info", "--k", "1_0", "int"),
        ("simulate", "--seed", "\uff15", "int"),
        ("simulate", "--theta", "0.\u0665", "float"),
        ("report", "--alpha", "0.0_5", "float"),
    ],
)
def test_run_flags_read_numbers_in_ascii_alone(tmp_path, capsys, command, flag, value, kind):
    # argparse refuses the flag before any file is read or written
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid {kind} value: {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_read_config_rejects_bad_value_and_missing_equals(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m_cap = many\n")
    with pytest.raises(ConfigError, match="line 1: bad value for m_cap"):
        read_config(cfg, "simulate")
    cfg.write_text("rounds\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        read_config(cfg, "simulate")


def test_load_manifest_validation_paths(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    _write_json(out / "manifest.json", _manifest("simulate", {"rounds": 2}, None))
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


@pytest.mark.parametrize(
    "flag, content",
    [
        ("--manifest", "[1]"),
        ("--manifest", '"x"'),
        ("--manifest", None),
        ("--config", None),
    ],
)
def test_run_commands_reject_a_manifest_or_config_they_cannot_read(tmp_path, capsys, flag, content):
    path = tmp_path / "given"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content + "\n")
    args = ["--data", str(tmp_path / "absent.jsonl")] if flag == "--config" else []
    rc = main(["simulate", *args, flag, str(path), "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize(
    "command, missing",
    [
        (
            "simulate",
            [
                "data", "format", "pretrain_weeks", "m_cap", "k_cap", "rounds",
                "retrain_period", "theta", "seed", "strategy_g", "scorer_f",
            ],
        ),
        ("full-info", ["data", "format", "pretrain_weeks", "k", "rounds", "seed", "heuristics"]),
        ("eurr", ["asym_dir", "full_dir"]),
        ("analyze", ["data", "format"]),
        ("report", ["asym_dir", "full_dir", "paired", "alpha"]),
    ],
)
def test_manifest_without_the_run_keys_is_refused(tmp_path, capsys, command, missing):
    out = tmp_path / "run"
    out.mkdir()
    # a valid hash over arguments another build or a hand edit left short
    _write_json(out / "manifest.json", _manifest(command, {"rounds": 2}, None))
    path = out / "manifest.json"
    rc = main([command, "--manifest", str(path), "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    missing = [key for key in missing if key != "rounds"]
    assert capsys.readouterr().err == (
        f"error: {path}: manifest args lack {', '.join(missing)}\n"
    )


@pytest.mark.parametrize("args", [[1, 2], "rounds", None])
def test_manifest_args_that_are_not_an_object_are_refused(tmp_path, capsys, args):
    out = tmp_path / "run"
    out.mkdir()
    _write_json(out / "manifest.json", _manifest("simulate", args, None))
    path = out / "manifest.json"
    with pytest.raises(ConfigError, match="manifest 'args' is not an object"):
        load_manifest(path, "simulate")
    rc = main(["simulate", "--manifest", str(path), "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: manifest 'args' is not an object\n"


@pytest.mark.parametrize("alpha", ["0", "1", "5", "nan", "-1"])
def test_report_refuses_alpha_outside_the_unit_interval(tmp_path, capsys, alpha):
    # the run directories do not exist: the level is refused before any
    # ledger is read, from the flag and from a manifest alike
    dirs = {"asym_dir": str(tmp_path / "no-asym"), "full_dir": str(tmp_path / "no-full")}
    message = f"error: alpha must lie in (0, 1), got {float(alpha)!r}\n"
    rc = main([
        "report", "--asym-dir", dirs["asym_dir"], "--full-dir", dirs["full_dir"],
        "--alpha", alpha, "--out-dir", str(tmp_path / "flag"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == message

    out = tmp_path / "run"
    out.mkdir()
    args = {**dirs, "paired": True, "alpha": float(alpha)}
    _write_json(out / "manifest.json", _manifest("report", args, None))
    rc = main(["report", "--manifest", str(out / "manifest.json"), "--out-dir", str(tmp_path / "m")])
    assert rc == 1
    assert capsys.readouterr().err == message


def test_load_manifest_detects_changed_data_file(tmp_path):
    data = tmp_path / "data.jsonl"
    data.write_text("{}\n")
    out = tmp_path / "run"
    out.mkdir()
    _write_json(out / "manifest.json", _manifest("simulate", {"data": str(data)}, str(data)))
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
        # float() reads these as 10 and 3
        ("c2,2024-01-02T00:00:00,dba,t,b,7,1_0,0.5", "u_g '1_0' is not a number"),
        ("c2,2024-01-02T00:00:00,dba,t,b,7,\u0663,0.5", "u_g '\u0663' is not a number"),
        ("c2,2024-01-02T00:00:00+01:00,dba,t,b,7,2.5,", "timestamp is offset-aware"),
    ],
)
def test_validate_rejects_bad_csv_values(tmp_path, capsys, row, message):
    path = tmp_path / "data.csv"
    text = CSV_HEADER + "c1,2024-01-01T00:00:00,dba,t,b,5,1.5,0.25\n" + row + "\n"
    path.write_text(text, encoding="utf-8")
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
        ("view_count", "true", "view_count True is not an integer"),
        ("u_g", "true", "u_g True is not a number"),
        ("forum_score", "false", "forum_score False is not a number"),
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


# one "name:count" of validate's domain list: a quoted name is a JSON
# string, a bare one holds no colon or quote
_DOMAIN_ITEM = re.compile(r'("(?:[^"\\]|\\.)*"|[^":]*):([0-9]+)(, |$)')


def read_domain_list(line: str) -> tuple[dict[str, int], set[str]]:
    """The domains and counts of validate's line, read back, and the
    domains that were quoted."""
    match = re.fullmatch(r"ok: [0-9]+ questions, [0-9]+ weeks, domains (.*)\n", line)
    assert match, line
    listed, counts, quoted, pos = match[1], {}, set(), 0
    while True:
        item = _DOMAIN_ITEM.match(listed, pos)
        assert item, listed[pos:]
        name = item[1]
        if name.startswith('"'):
            name = json.loads(name)
            quoted.add(name)
        assert name not in counts
        counts[name], pos = int(item[2]), item.end()
        if not item[3]:
            assert pos == len(listed)
            return counts, quoted


_DOMAIN_CHARS = st.sampled_from(list(',:" \\ab')) | st.characters(codec="utf-8")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.text(_DOMAIN_CHARS, min_size=1, max_size=6).filter(str.isprintable),
        min_size=1, max_size=5, unique=True,
    )
)
@example(["a, b:3", "x"])
@example(["a,b", 'say "hi"', " lead", "trail ", "caf\u00e9", "back\\slash"])
def test_validate_domain_list_reads_back(domains):
    # a domain is quoted where a comma, colon or quote or an end space
    # could misread the list, and only there, so existing lists keep
    # their bytes
    records = [
        {
            "id": f"q{i}-{j}", "timestamp": "2024-01-01T00:00:00", "domain": domain,
            "title": "t", "body": "b", "view_count": j, "u_g": 1.0,
        }
        for i, domain in enumerate(domains)
        for j in range(i + 1)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["validate", "--data", str(path)]) == 0
    counts, quoted = read_domain_list(out.getvalue())
    assert counts == {domain: i + 1 for i, domain in enumerate(domains)}
    assert quoted == {d for d in domains if d != d.strip() or set(d) & set(',:"')}


# int(), float() and Fraction() take an underscore and other scripts'
# digits (Arabic-Indic three, fullwidth five); the oracle does not
NOT_NUMBERS = ("1/0", "abc", "1_0", "\u0663", "\uff15", "1/2_0", "1.5_0")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", *NOT_NUMBERS])
def test_oracle_command_rejects_non_finite_values(tmp_path, capsys, value):
    items = tmp_path / "items.csv"
    items.write_text(f"f,g\n3,1\n1,{value}\n", encoding="utf-8")
    assert main(["oracle", "--items", str(items), "--k", "1"]) == 1
    err = capsys.readouterr().err
    problem = "is not a number" if value in NOT_NUMBERS else "is not finite"
    assert f"items.csv line 3: value {value!r} {problem}" in err


# the line numbers count the blank lines the reader skips
@pytest.mark.parametrize("text, line", [("f,g\n1,2\n3\n", 3), ("f,g\n\n1,2\n\n3\n", 5)])
def test_oracle_command_rejects_a_short_row(tmp_path, capsys, text, line):
    items = tmp_path / "items.csv"
    items.write_text(text)
    assert main(["oracle", "--items", str(items), "--k", "1"]) == 1
    assert capsys.readouterr().err == (
        f"error: {items} line {line}: value '' is not a number\n"
    )


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--heuristics", ","], "--heuristics names no heuristic"),
        (["--heuristics", "mpp,mpp"], "--heuristics names 'mpp' twice"),
        (["--k", "0"], "--k must be at least 1, got 0"),
        (["--k", "-3"], "--k must be at least 1, got -3"),
    ],
)
def test_full_info_refuses_unusable_flags_before_writing(pipeline, tmp_path, capsys, flags, message):
    _, data, _, _ = pipeline
    out = tmp_path / "x"
    rc = main(["full-info", "--data", str(data), "--out-dir", str(out), *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"heuristics": []}, "--heuristics names no heuristic"),
        ({"heuristics": ["mpp", "mpp"]}, "--heuristics names 'mpp' twice"),
        (
            {"heuristics": ["frobnicate"]},
            f"unknown heuristic 'frobnicate'; expected any of {', '.join(HEURISTICS)}",
        ),
        ({"k": 0}, "--k must be at least 1, got 0"),
        ({"k": "3"}, "--k must be at least 1, got '3'"),
    ],
    ids=["no-heuristic", "repeated", "unknown", "k-0", "k-string"],
)
def test_full_info_refuses_unusable_manifest_args_before_writing(pipeline, tmp_path, capsys, edit, message):
    # a valid hash over arguments the flags could not have produced
    _, data, _, full = pipeline
    recorded = json.loads((full / "manifest.json").read_text())["args"]
    run = tmp_path / "run"
    run.mkdir()
    _write_json(run / "manifest.json", _manifest("full-info", {**recorded, **edit}, str(data)))
    out = tmp_path / "x"
    rc = main(["full-info", "--manifest", str(run / "manifest.json"), "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "summary.json").exists()
    assert not (out / "manifest.json").exists()


def test_eurr_rejects_non_run_directories(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["eurr", "--asym-dir", str(empty), "--full-dir", str(empty)])
    assert rc == 1
    assert "no ledger.csv" in capsys.readouterr().err


def test_simulate_that_publishes_nothing_writes_float_zeros(pipeline, tmp_path):
    _, data, _, _ = pipeline
    out = tmp_path / "theta1"
    rc = main([
        "simulate", "--data", str(data), "--out-dir", str(out),
        "--pretrain-weeks", "4", "--rounds", "5", "--m-cap", "6",
        "--k-cap", "3", "--theta", "1.0", "--seed", "3",
    ])
    assert rc == 0
    rows = (out / "ledger.csv").read_text().splitlines()[2:]
    assert rows == [f"{t},6,0,0.0,0.0,0.0,0.0" for t in range(5)]


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("published_count", "x", "published_count 'x' is not an integer >= 0"),
        ("published_count", "-1", "published_count '-1' is not an integer >= 0"),
        ("u_g_realized", "nan", "u_g_realized 'nan' is not a finite number"),
        ("u_g_realized", "inf", "u_g_realized 'inf' is not a finite number"),
    ],
)
def test_eurr_rejects_malformed_ledger_values(pipeline, tmp_path, capsys, column, value, message):
    _, _, asym, full = pipeline
    lines = (asym / "ledger.csv").read_text().splitlines()
    header = lines[1].split(",")
    # the last round, with its running total changed alike, so the
    # cumulative check alone would pass an inf
    last = lines[-1].split(",")
    last[header.index(column)] = value
    if column == "u_g_realized":
        last[header.index("cum_u_g")] = value
    bad = tmp_path / "asym"
    bad.mkdir()
    (bad / "ledger.csv").write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
    rc = main(["eurr", "--asym-dir", str(bad), "--full-dir", str(full)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ledger.csv line {len(lines)}: ")
    assert message in err


@pytest.fixture(scope="module")
def season16(tmp_path_factory):
    """A simulate run directory and a full-info one over the same 16 rounds."""
    root = tmp_path_factory.mktemp("season16")
    data = root / "questions.jsonl"
    gen = ["--weeks", "20", "--per-week", "12", "--rho", "0.3", "--topic-effect", "2", "--seed", "3"]
    assert main(["generate", "--out", str(data), *gen]) == 0
    play = ["--data", str(data), "--pretrain-weeks", "4", "--rounds", "16", "--seed", "3"]
    asym, full = root / "asym", root / "full"
    assert main(["simulate", *play, "--out-dir", str(asym), "--m-cap", "6", "--k-cap", "3"]) == 0
    assert main(["full-info", *play, "--out-dir", str(full), "--k", "3"]) == 0
    return asym, full


@pytest.mark.parametrize("command", ["eurr", "report"])
def test_eurr_and_report_refuse_ledgers_of_other_lengths(season16, tmp_path, capsys, command):
    asym, full = season16
    # the manifest line, the header and the first 2 of 16 rounds
    lines = (asym / "ledger.csv").read_text().splitlines()
    assert len(lines) == 2 + 16
    cut = tmp_path / "asym"
    cut.mkdir()
    (cut / "ledger.csv").write_text("\n".join(lines[:4]) + "\n")
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main([command, "--asym-dir", str(cut), "--full-dir", str(full), "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: full-information ledger {next(iter(HEURISTICS))!r} covers 16 rounds "
        f"but the asymmetric ledger covers 2\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "content, message",
    [
        ("[]", "not a simulate summary"),
        ('{"strategy_g": ["greedy"]}', "not a simulate summary"),
        ("{not json", "not valid JSON"),
    ],
)
def test_report_refuses_an_unreadable_summary(pipeline, tmp_path, capsys, content, message):
    _, _, asym, full = pipeline
    bad = tmp_path / "asym"
    bad.mkdir()
    (bad / "ledger.csv").write_bytes((asym / "ledger.csv").read_bytes())
    (bad / "summary.json").write_text(content)
    rc = main(["report", "--asym-dir", str(bad), "--full-dir", str(full), "--out-dir", str(tmp_path / "rep")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad / 'summary.json'}: {message}")
    assert err.count("\n") == 1


PIN_DATA = [
    "--weeks", "12", "--per-week", "40", "--rho", "-0.5",
    "--topic-effect", "2", "--seed", "1",
]
PIN_PLAY = ["--pretrain-weeks", "4", "--rounds", "8", "--seed", "1"]

# the sha256 of each ledger.csv as the per-question sorts wrote it,
# without its manifest line, which holds the run's absolute paths
LEDGER_PINS = {
    "greedy": "3da5d19d5a44bd17a623ed6c428822354ec6b742ef18b629cb6c26b05b960d39",
    "utility": "e6777d90dfd36e28bfac7b0e7ea72a5f2c566bc977e76d4341c95500f9d837dc",
    "random": "31d0ae8a78c11dc6f9c62ed5d1dd1f40ffa9edb3dbce86b99017d10a7fdd1fd4",
    "mpp": "902e80aa8732947a8c128b2689e40f7affed97990c817ab4fbd4b19be95d3df3",
    "maxsp": "cd99fe10f4cce25d28620b41ce6bc585d5385f55af34e2c264d285d09ae6d5ae",
    "greedy_np": "200c74f0eb9c9502071882d75674ea3de937630e7286aa615f56d96fe2907f7d",
    "random-full": "a228afcad20aceb12505c0556046bf0a08045bba371885ef226af4ecc4052a27",
}


def _ledger_digest(path):
    return hashlib.sha256(path.read_bytes().split(b"\n", 1)[1]).hexdigest()


@pytest.fixture(scope="module")
def pin_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("pin") / "questions.jsonl"
    assert main(["generate", "--out", str(data), *PIN_DATA]) == 0
    return data


@pytest.mark.parametrize("strategy", ["greedy", "utility", "random"])
def test_simulate_ledgers_are_pinned(pin_data, tmp_path, strategy):
    rc = main([
        "simulate", "--data", str(pin_data), "--out-dir", str(tmp_path), *PIN_PLAY,
        "--strategy", strategy, "--m-cap", "12", "--k-cap", "4", "--retrain-period", "3",
    ])
    assert rc == 0
    assert _ledger_digest(tmp_path / "ledger.csv") == LEDGER_PINS[strategy]


def test_full_info_ledgers_are_pinned(pin_data, tmp_path):
    rc = main(["full-info", "--data", str(pin_data), "--out-dir", str(tmp_path), *PIN_PLAY, "--k", "4"])
    assert rc == 0
    digests = {
        name if name != "random" else "random-full": _ledger_digest(tmp_path / f"ledger_{name}.csv")
        for name in HEURISTICS
    }
    assert digests == {name: LEDGER_PINS[name] for name in digests}


# summary.json of simulate runs, without the manifest_hash, which hashes
# the run's absolute paths.  An explicit theta still reports the text
# scorer's sweep, while the precomputed scorer skips it (calibration null).
SUMMARY_PINS = {
    "precomputed": {
        "calibration": {
            "low_confidence": False, "precision": 0.42857142857142855, "recall": 0.1875, "theta": 0.8,
        },
        "command": "simulate", "mean_published": 1.25, "realized_u_f": 0.47228384853900984,
        "realized_u_g": 1502.4059171122408, "rounds": 8, "scorer_f": "precomputed",
        "strategy_g": "greedy", "theta": 0.8,
    },
    "precomputed --theta 0.4": {
        "calibration": None,
        "command": "simulate", "mean_published": 4.0, "realized_u_f": 1.1162201386783035,
        "realized_u_g": 4457.608282325022, "rounds": 8, "scorer_f": "precomputed",
        "strategy_g": "greedy", "theta": 0.4,
    },
    "text --theta 0.5": {
        "calibration": {
            "low_confidence": False, "precision": 0.75, "recall": 0.375, "theta": 0.5938707312069149,
        },
        "command": "simulate", "mean_published": 3.75, "realized_u_f": 1.2852362037683578,
        "realized_u_g": 4592.103838222907, "rounds": 8, "scorer_f": "text",
        "strategy_g": "greedy", "theta": 0.5,
    },
}


@pytest.mark.parametrize("run", list(SUMMARY_PINS))
def test_simulate_summaries_are_pinned(pin_data, tmp_path, run):
    scorer, *flags = run.split()
    data = pin_data
    if scorer == "precomputed":
        # a forum_score column on a 0.1 grid, so the sweep meets ties
        data = tmp_path / "scored.jsonl"
        data.write_text("".join(
            json.dumps(dict(r, forum_score=r["view_count"] % 11 / 10)) + "\n"
            for r in map(json.loads, pin_data.read_text().splitlines())
        ))
    out = tmp_path / "run"
    rc = main([
        "simulate", "--data", str(data), "--out-dir", str(out), *PIN_PLAY,
        "--scorer", scorer, *flags, "--m-cap", "12", "--k-cap", "4", "--retrain-period", "3",
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    del summary["manifest_hash"]
    assert summary == SUMMARY_PINS[run]


def ascii_locale_child(*args, read_as="utf-8", **env):
    """Run python with ``args`` in a child whose locale encoding is ASCII:
    no UTF-8 mode and, with LC_ALL set, no locale coercion.  ``env`` adds
    to the child's environment only; its output is read in ``read_as``."""
    src = str(Path(pubgame.__file__).resolve().parents[1])
    child_env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": src}
    child_env.pop("PYTHONUTF8", None)
    child_env.pop("PYTHONIOENCODING", None)
    child_env.update(env)
    return subprocess.run(
        [sys.executable, "-X", "utf8=0", *args], env=child_env, capture_output=True,
        encoding=read_as, timeout=120,
    )


def test_runs_report_through_their_files_alone(pipeline, tmp_path):
    # a run reports through its files and stdout alone: its stderr stays
    # empty with PUBGAME_LOG set
    _, data, _, _ = pipeline
    src = str(Path(pubgame.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PUBGAME_LOG": "DEBUG"}
    for command, flags in (
        ("simulate", ["--m-cap", "6", "--k-cap", "3"]),
        ("full-info", ["--k", "3"]),
    ):
        child = subprocess.run(
            [sys.executable, "-m", "pubgame.cli", command, "--data", str(data),
             "--pretrain-weeks", "4", "--rounds", "3", *flags,
             "--out-dir", str(tmp_path / command)],
            env=env, capture_output=True, encoding="utf-8", timeout=120,
        )
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout.endswith(f"-> {tmp_path / command}\n")


def write_accented(path, domains=("café", "naïve")):
    """Twelve records over three weeks, taking ``domains`` in turn."""
    records = [
        {
            "id": f"q{i}", "timestamp": f"2024-01-{1 + 7 * (i % 3):02d}T12:00:00",
            "domain": domains[i % len(domains)], "title": "crème brûlée",
            "body": "déjà vu", "view_count": 3 * i, "u_g": 1.0 + i,
        }
        for i in range(12)
    ]
    with path.open("w", encoding="utf-8", newline="") as fh:
        if path.suffix == ".jsonl":
            fh.writelines(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        else:
            writer = csv.DictWriter(fh, fieldnames=list(records[0]))
            writer.writeheader()
            writer.writerows(records)
    return path


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_dataset_files_are_utf8_whatever_the_locale(tmp_path, fmt):
    # the child's stdio stays UTF-8, so what is tested is the dataset
    # read and the analyze files written, where scatter.csv quotes the
    # domains that hold a comma or a quote
    domains = ("café", "naïve", "a,b", 'say "hi"')
    path = write_accented(tmp_path / f"data.{fmt}", domains)
    encoding = ascii_locale_child("-c", "import locale; print(locale.getpreferredencoding(False))")
    assert encoding.stdout.strip() == "ANSI_X3.4-1968"
    validate = ascii_locale_child(
        "-m", "pubgame.cli", "validate", "--data", str(path), PYTHONIOENCODING="utf-8"
    )
    assert validate.stderr == ""
    assert validate.stdout == (
        'ok: 12 questions, 3 weeks, domains "a,b":3, café:3, naïve:3, "say \\"hi\\"":3\n'
    )
    out = tmp_path / "analyze"
    analyze = ascii_locale_child(
        "-m", "pubgame.cli", "analyze", "--data", str(path), "--out-dir", str(out),
        PYTHONIOENCODING="utf-8",
    )
    assert (analyze.returncode, analyze.stderr) == (0, "")
    with (out / "scatter.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[0] == ["domain", "week", "u_f_norm", "u_g"]
    assert all(len(row) == 4 for row in rows[1:])
    assert sorted(row[0] for row in rows[1:]) == sorted(domains * 3)
    assert "café" in (out / "correlations.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "encoding, listed",
    [
        ("ascii", '"caf\\\\xe9":4, "caf\\u00e9":4, "caf\\u00e9, x":4'),
        ("utf-8", 'caf\\xe9:4, caf\u00e9:4, "caf\u00e9, x":4'),
        ("latin-1", '"caf\\\\xe9":4, caf\u00e9:4, "caf\u00e9, x":4'),
    ],
)
def test_validate_domain_list_reads_back_on_any_stdout(tmp_path, encoding, listed):
    # a backslash is a name's own only where the stdout writes no escapes:
    # elsewhere a name holding one, or a character the encoding lacks, is
    # an ASCII JSON string; a name the encoding holds stays as it is
    path = write_accented(tmp_path / "data.jsonl", ("caf\u00e9, x", "caf\u00e9", "caf\\xe9"))
    validate = ascii_locale_child(
        "-m", "pubgame.cli", "validate", "--data", str(path), read_as=encoding,
        PYTHONIOENCODING=encoding,
    )
    assert (validate.returncode, validate.stderr) == (0, "")
    assert validate.stdout == f"ok: 12 questions, 3 weeks, domains {listed}\n"
    counts, _ = read_domain_list(validate.stdout)
    assert counts == {"caf\u00e9, x": 4, "caf\u00e9": 4, "caf\\xe9": 4}


def test_names_from_the_data_print_on_an_ascii_stdout(tmp_path):
    # ASCII stdio too: validate lists a name the encoding lacks as an
    # ASCII JSON string, and other commands print it with escapes
    path = write_accented(tmp_path / "data.jsonl")
    validate = ascii_locale_child("-m", "pubgame.cli", "validate", "--data", str(path))
    assert (validate.returncode, validate.stderr) == (0, "")
    assert validate.stdout == 'ok: 12 questions, 3 weeks, domains "caf\\u00e9":6, "na\\u00efve":6\n'
    out = tmp_path / "analyze"
    analyze = ascii_locale_child(
        "-m", "pubgame.cli", "analyze", "--data", str(path), "--out-dir", str(out)
    )
    assert (analyze.returncode, analyze.stderr) == (0, "")
    assert "caf\\xe9" in analyze.stdout and analyze.stdout.endswith(f"-> {out}\n")
    # the files written are UTF-8 whatever the locale
    rerun = tmp_path / "rerun"
    assert main(["analyze", "--data", str(path), "--out-dir", str(rerun)]) == 0
    for name in ("correlations.txt", "correlations.csv", "scatter.csv"):
        assert (out / name).read_bytes() == (rerun / name).read_bytes()
    # so do paths, once the run's files are written: with ASCII stdio under
    # a UTF-8 locale, which decodes the path's bytes
    ascii_stdio = dict(LC_ALL="C.UTF-8", PYTHONIOENCODING="ascii")
    data = tmp_path / "\xfc" / "data.jsonl"
    generate = ascii_locale_child(
        "-m", "pubgame.cli", "generate", "--out", str(data), "--weeks", "8",
        "--per-week", "20", "--seed", "1", **ascii_stdio,
    )
    assert (generate.returncode, generate.stderr) == (0, "")
    assert generate.stdout.startswith(f"wrote {tmp_path}/\\xfc/data.jsonl: ")
    sim = tmp_path / "\xfc" / "sim"
    simulate = ascii_locale_child(
        "-m", "pubgame.cli", "simulate", "--data", str(data), "--pretrain-weeks", "4",
        "--rounds", "3", "--m-cap", "6", "--k-cap", "3", "--out-dir", str(sim), **ascii_stdio,
    )
    assert (simulate.returncode, simulate.stderr) == (0, "")
    assert simulate.stdout.endswith(f"-> {tmp_path}/\\xfc/sim\n")
    assert json.loads((sim / "summary.json").read_text())["rounds"] == 3


def test_config_files_are_utf8_whatever_the_locale(pipeline, tmp_path):
    _, data, _, full = pipeline
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# café au lait\npretrain_weeks = 4\nrounds = 5\nk = 3\nseed = 3\n", encoding="utf-8"
    )
    out = tmp_path / "full"
    run = ascii_locale_child(
        "-m", "pubgame.cli", "full-info", "--data", str(data), "--config", str(cfg),
        "--out-dir", str(out),
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert (out / "manifest.json").read_bytes() == (full / "manifest.json").read_bytes()


@pytest.fixture(scope="module")
def recorded(pipeline):
    """The manifest.json of one run of each run command."""
    root, data, asym, full = pipeline
    dirs = ["--asym-dir", str(asym), "--full-dir", str(full)]
    for command, flags in (("eurr", dirs), ("analyze", ["--data", str(data)]), ("report", dirs)):
        assert main([command, *flags, "--out-dir", str(root / command)]) == 0
    runs = {"simulate": asym, "full-info": full, "eurr": root / "eurr", "analyze": root / "analyze", "report": root / "report"}
    return {command: run / "manifest.json" for command, run in runs.items()}


def rehashed(recorded_manifest, command, edit, run):
    """A manifest with a valid hash over the recorded args changed by
    ``edit``, as a hand edit or another build could leave one."""
    payload = json.loads(recorded_manifest.read_text())
    run.mkdir()
    data = payload["args"]["data"] if payload["data_sha256"] else None
    _write_json(run / "manifest.json", _manifest(command, {**payload["args"], **edit}, data))
    return run / "manifest.json"


@pytest.mark.parametrize(
    "command, key, value",
    [
        # the six that ended in a TypeError traceback, or ran
        ("simulate", "m_cap", "12"),
        ("simulate", "retrain_period", "x"),
        ("simulate", "theta", "0.5"),
        ("simulate", "pretrain_weeks", 4.0),
        ("simulate", "seed", 1.5),
        ("simulate", "rounds", True),
        ("simulate", "data", 5),
        ("simulate", "format", 5),
        ("simulate", "k_cap", None),
        ("simulate", "strategy_g", 5),
        ("simulate", "scorer_f", ["text"]),
        ("simulate", "theta", True),
        ("full-info", "data", None),
        ("full-info", "format", ["csv"]),
        ("full-info", "pretrain_weeks", "4"),
        ("full-info", "k", 3.0),
        ("full-info", "rounds", False),
        ("full-info", "seed", "3"),
        ("full-info", "heuristics", "mpp"),
        ("eurr", "asym_dir", 1),
        ("eurr", "full_dir", None),
        ("analyze", "data", ["x"]),
        ("analyze", "format", 0),
        ("report", "asym_dir", None),
        ("report", "full_dir", 2),
        ("report", "paired", "yes"),
        ("report", "alpha", "0.05"),
    ],
)
def test_manifest_values_of_the_wrong_type_are_refused(recorded, tmp_path, capsys, command, key, value):
    path = rehashed(recorded[command], command, {key: value}, tmp_path / "run")
    out = tmp_path / "out"
    assert main([command, "--manifest", str(path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        # the one that reran with exit 0, carrying theta into its manifest
        ("full-info", {"theta": 0.9}),
        ("simulate", {"k": 3, "heuristics": ["mpp"]}),
        ("eurr", {"data": "x.jsonl"}),
        ("analyze", {"seed": 1}),
        ("report", {"welch": True}),
    ],
)
def test_manifest_keys_the_command_does_not_read_are_refused(
    recorded, tmp_path, capsys, monkeypatch, command, extra
):
    path = rehashed(recorded[command], command, extra, tmp_path / "run")

    def no_ingest(*args):
        raise AssertionError("ingested")

    monkeypatch.setattr(pubgame.cli, "ingest", no_ingest)
    out = tmp_path / "out"
    assert main([command, "--manifest", str(path), "--out-dir", str(out)]) == 1
    names = ", ".join(map(repr, sorted(extra)))
    assert capsys.readouterr().err == (
        f"error: {path}: {command} takes no {names}\n"
    )
    assert not out.exists()


def test_manifest_value_messages():
    # one for each kind of check, as the error line reads
    cases = [
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("rounds", True, "rounds must be an integer, got True"),
        ("theta", "0.5", "theta must be a float, got '0.5'"),
        ("paired", 1, "paired must be true or false, got 1"),
        ("strategy_g", 5, "strategy_g must be a string, got 5"),
        ("format", 5, "format must be a string or null, got 5"),
        ("heuristics", "mpp", "heuristics must be a list of names, got 'mpp'"),
        ("scorer_f", ["text"], "scorer_f must be a string, got ['text']"),
        ("alpha", "0.05", "alpha must be a float, got '0.05'"),
    ]
    for key, value, message in cases:
        with pytest.raises(ConfigError) as err:
            RUN_VALUES[key].check(key, value, {"scorer_f": "text"})
        assert str(err.value) == message


# one argument list for each run flag of each run command, and --config
RUN_FLAGS = {
    "simulate": [
        ["--data", "d.jsonl"], ["--format", "csv"], ["--pretrain-weeks", "4"], ["--m-cap", "6"],
        ["--k-cap", "3"], ["--rounds", "5"], ["--retrain-period", "3"], ["--theta", "0.5"],
        ["--seed", "7"], ["--strategy", "random"], ["--scorer", "precomputed"],
        ["--config", "run.cfg"],
    ],
    "full-info": [
        ["--data", "d.jsonl"], ["--format", "jsonl"], ["--pretrain-weeks", "4"], ["--k", "3"],
        ["--rounds", "5"], ["--seed", "7"], ["--heuristics", "mpp"], ["--config", "run.cfg"],
    ],
    "eurr": [["--asym-dir", "a"], ["--full-dir", "f"]],
    "analyze": [["--data", "d.jsonl"], ["--format", "csv"]],
    "report": [["--asym-dir", "a"], ["--full-dir", "f"], ["--welch"], ["--alpha", "0.05"]],
}


def test_run_flags_cover_every_run_value():
    for command, flags in RUN_FLAGS.items():
        keys, _ = RUN_COMMANDS[command]
        expected = [RUN_VALUES[key].flag for key in keys]
        if any(RUN_VALUES[key].config for key in keys):
            expected.append("--config")
        assert [args[0] for args in flags] == expected, command


@pytest.mark.parametrize(
    "command, flags, named",
    [
        *(
            pytest.param(command, args, args[0], id=f"{command} {args[0]}")
            for command, flag_list in RUN_FLAGS.items()
            for args in flag_list
        ),
        # named in the order the command declares them
        pytest.param(
            "simulate", ["--seed", "7", "--strategy", "random", "--m-cap", "30"],
            "--m-cap, --seed, --strategy", id="simulate three flags",
        ),
    ],
)
def test_manifest_refuses_run_flags_and_config(recorded, tmp_path, capsys, command, flags, named):
    out = tmp_path / "out"
    rc = main([command, "--manifest", str(recorded[command]), *flags, "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --manifest reruns the recorded values and takes no {named}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, config",
    [
        (
            "simulate",
            [
                "--pretrain-weeks", "4", "--rounds", "5", "--m-cap", "6", "--k-cap", "3",
                "--retrain-period", "3", "--seed", "3", "--theta", "0.5", "--strategy", "utility",
                "--scorer", "text",
            ],
            "pretrain_weeks = 4\nrounds = 5\nm_cap = 6\nk_cap = 3\nretrain_period = 3\n"
            "seed = 3\ntheta = 0.5\nstrategy_g = utility\nscorer_f = text\n",
        ),
        (
            "full-info",
            ["--pretrain-weeks", "4", "--rounds", "5", "--k", "3", "--seed", "3", "--heuristics", "maxsp,mpp"],
            "pretrain_weeks = 4\nrounds = 5\nk = 3\nseed = 3\nheuristics = maxsp, mpp\n",
        ),
    ],
)
def test_flags_config_file_and_manifest_record_the_same_args(pipeline, tmp_path, command, flags, config):
    _, data, _, _ = pipeline
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    by_flags, by_config, by_manifest = tmp_path / "flags", tmp_path / "config", tmp_path / "manifest"
    assert main([command, "--data", str(data), *flags, "--out-dir", str(by_flags)]) == 0
    assert main([command, "--data", str(data), "--config", str(cfg), "--out-dir", str(by_config)]) == 0
    rc = main([command, "--manifest", str(by_flags / "manifest.json"), "--out-dir", str(by_manifest)])
    assert rc == 0
    manifests = [json.loads((run / "manifest.json").read_text()) for run in (by_flags, by_config, by_manifest)]
    assert manifests[0]["args"] == manifests[1]["args"] == manifests[2]["args"]
    assert manifests[0] == manifests[1] == manifests[2]
