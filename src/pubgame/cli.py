"""Command-line front end.

Every run-producing subcommand writes a manifest.json capturing the
fully resolved arguments and a fingerprint of the input data; rerunning
with --manifest reproduces the outputs byte for byte.  Configuration
files are flat ``key = value`` text with ``#`` comments; explicit flags
win over file values.

Set PUBGAME_LOG=INFO (or DEBUG) for progress logging.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .core import STRATEGIES_G, GameConfig
from .data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    ingest,
    split_pretrain,
    write_jsonl,
)
from .engine import (
    compute_eurr,
    read_ledger_csv,
    run_asymmetric,
    run_full_information,
    write_ledger_csv,
)
from .errors import ConfigError, PubgameError
from .nash_opt import (
    DEFAULT_ENUMERATION_BUDGET,
    BilinearInstance,
    HEURISTICS,
    oracle_exact,
)
from .reports import (
    asymmetric_table,
    full_information_table,
    misalignment_report,
    misalignment_table,
    significance_table,
)
from .strategies import SCORER_KINDS, make_precomputed_scorer, train_text_scorer

log = logging.getLogger("pubgame")

MANIFEST_FORMAT = "pubgame-manifest"
MANIFEST_VERSION = 1

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False}


def _parse_bool(raw: str) -> bool:
    value = _BOOL_WORDS.get(raw.lower())
    if value is None:
        raise ValueError(f"expected true/false, got {raw!r}")
    return value


# The config keys of each run command, key -> (coercer, default).  Each
# key is also the dest of a flag of that command whose default is None,
# so a flag wins over the file value, which wins over the default.
SIMULATE_KEYS = {
    "pretrain_weeks": (int, 13),
    "m_cap": (int, GameConfig.m_cap),
    "k_cap": (int, GameConfig.k_cap),
    "rounds": (int, GameConfig.rounds),
    "retrain_period": (int, GameConfig.retrain_period),
    "theta": (float, None),
    "seed": (int, GameConfig.seed),
    "strategy_g": (str, GameConfig.strategy_g),
    "scorer_f": (str, "text"),
    "learn_acceptance": (_parse_bool, GameConfig.learn_acceptance),
}

FULL_INFO_KEYS = {
    "pretrain_weeks": (int, 13),
    "k": (int, GameConfig.k_cap),
    "rounds": (int, GameConfig.rounds),
    "seed": (int, 0),
    "heuristics": (str, ",".join(HEURISTICS)),
}


def read_config(path: str | Path, keys: dict) -> dict:
    """Parse a flat ``key = value`` configuration file, accepting only
    the keys of one command's table (:data:`SIMULATE_KEYS` or
    :data:`FULL_INFO_KEYS`)."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in keys:
            raise ConfigError(
                f"{path} line {lineno}: unknown key {key!r}; known keys: "
                f"{', '.join(sorted(keys))}"
            )
        coerce, _ = keys[key]
        try:
            values[key] = coerce(val)
        except ValueError as e:
            raise ConfigError(f"{path} line {lineno}: bad value for {key}: {e}")
    return values


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_hash(payload: dict) -> str:
    trimmed = {k: v for k, v in payload.items() if k != "manifest_hash"}
    return hashlib.sha256(_canonical_json(trimmed).encode()).hexdigest()[:16]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_manifest(
    out_dir: Path, command: str, run_args: dict, data_path: str | None
) -> str:
    payload = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "command": command,
        "package_version": __version__,
        "args": run_args,
        "data_sha256": _sha256_file(data_path) if data_path else None,
    }
    payload["manifest_hash"] = _manifest_hash(payload)
    _write_json(out_dir / "manifest.json", payload)
    return payload["manifest_hash"]


def _read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e.msg})")


def load_manifest(path: str | Path, command: str) -> dict:
    payload = _read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise ConfigError(f"{path}: not a run manifest")
    if payload.get("version") != MANIFEST_VERSION:
        raise ConfigError(
            f"{path}: manifest version {payload.get('version')!r} unsupported"
        )
    if payload.get("manifest_hash") != _manifest_hash(payload):
        raise ConfigError(f"{path}: manifest hash does not match its content")
    if payload.get("command") != command:
        raise ConfigError(
            f"{path}: manifest records a {payload.get('command')!r} run, "
            f"not {command!r}"
        )
    if not isinstance(payload.get("args"), dict):
        raise ConfigError(f"{path}: manifest 'args' is not an object")
    if payload.get("data_sha256"):
        data = payload["args"].get("data")
        if not data or not Path(data).exists():
            raise ConfigError(f"{path}: recorded data file {data!r} is missing")
        actual = _sha256_file(data)
        if actual != payload["data_sha256"]:
            raise ConfigError(
                f"{path}: data file {data} changed since the recorded run "
                f"(sha256 {actual[:12]} != {payload['data_sha256'][:12]})"
            )
    return payload


def _resolved(path: str) -> str:
    return str(Path(path).resolve())


def _data_args(args: argparse.Namespace) -> dict:
    return {"data": _resolved(args.data), "format": args.format}


def _dir_args(args: argparse.Namespace) -> dict:
    return {"asym_dir": _resolved(args.asym_dir), "full_dir": _resolved(args.full_dir)}


def _config_args(args: argparse.Namespace, keys: dict) -> dict:
    """The data flags, plus each key's flag, else its file value, else
    its default."""
    file_values = read_config(args.config, keys) if args.config else {}
    run_args = _data_args(args)
    for key, (_, default) in keys.items():
        flag = getattr(args, key)
        run_args[key] = flag if flag is not None else file_values.get(key, default)
    return run_args


def _load_split(run_args: dict) -> tuple[Dataset, Dataset, Dataset]:
    dataset = ingest(run_args["data"], run_args.get("format"))
    log.info(
        "ingested %s: %d questions over %d weeks",
        run_args["data"],
        dataset.metadata["n_questions"],
        dataset.n_weeks,
    )
    return split_pretrain(dataset, run_args["pretrain_weeks"])


def _build_scorer(run_args: dict, train: Dataset, val: Dataset):
    kind, theta = run_args["scorer_f"], run_args["theta"]
    if kind == "text":
        scorer = train_text_scorer(train.pools, val.pools, theta=theta)
    else:
        scorer = make_precomputed_scorer(val.pools, theta=theta)
    log.info("curator scorer ready: kind=%s theta=%.4f", kind, scorer.theta)
    return scorer


# ---------------------------------------------------------------- commands


def _cmd_validate(args: argparse.Namespace) -> int:
    dataset = ingest(args.data, args.format)
    meta = dataset.metadata
    domains = ", ".join(f"{d}:{c}" for d, c in sorted(meta["domains"].items()))
    print(
        f"ok: {meta['n_questions']} questions, {meta['n_weeks']} weeks, "
        f"domains {domains}"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        weeks=args.weeks,
        questions_per_week=args.per_week,
        utility_correlation=args.rho,
        topic_effect=args.topic_effect,
        seed=args.seed,
    )
    dataset = generate_synthetic(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(dataset, out)
    print(
        f"wrote {out}: {dataset.metadata['n_questions']} questions over "
        f"{dataset.n_weeks} weeks"
    )
    return 0


def _run_simulate(run_args: dict, out_dir: Path) -> int:
    config = GameConfig(
        **{f.name: run_args[f.name] for f in dataclasses.fields(GameConfig)}
    )
    if run_args["scorer_f"] not in SCORER_KINDS:
        raise ConfigError(
            f"unknown curator scorer {run_args['scorer_f']!r}; "
            f"expected one of {', '.join(SCORER_KINDS)}"
        )
    # the text scorer's scores are probabilities; precomputed ones may be
    # any finite numbers
    theta, text = run_args["theta"], run_args["scorer_f"] == "text"
    if theta is not None and not (0 <= theta <= 1 if text else math.isfinite(theta)):
        bound = "lie in [0, 1]" if text else "be finite"
        raise ConfigError(f"theta must {bound}, got {theta}")
    train, val, sim = _load_split(run_args)
    scorer = _build_scorer(run_args, train, val)
    ledger = run_asymmetric(sim, config, scorer)

    manifest = write_manifest(out_dir, "simulate", run_args, run_args["data"])
    write_ledger_csv(ledger, out_dir / "ledger.csv", manifest_hash=manifest)
    if scorer.model is not None:
        scorer.model.save(out_dir / "forum_scorer_model.json")
    calibration = (
        dataclasses.asdict(scorer.calibration) if scorer.calibration else None
    )
    summary = {
        "manifest_hash": manifest,
        "command": "simulate",
        "strategy_g": config.strategy_g,
        "scorer_f": run_args["scorer_f"],
        "theta": scorer.theta,
        "calibration": calibration,
        "rounds": len(ledger),
        "realized_u_g": ledger.total_u_g,
        "realized_u_f": ledger.total_u_f,
        "mean_published": sum(ledger.published_counts) / len(ledger),
    }
    _write_json(out_dir / "summary.json", summary)
    print(
        f"simulate: {len(ledger)} rounds, strategy {config.strategy_g}, "
        f"u_g {ledger.total_u_g:.3f}, u_f {ledger.total_u_f:.3f} -> {out_dir}"
    )
    return 0


def _full_info_args(args: argparse.Namespace) -> dict:
    run_args = _config_args(args, FULL_INFO_KEYS)
    if run_args["k"] < 1:
        raise ConfigError(f"--k must be at least 1, got {run_args['k']}")
    names = [h.strip() for h in run_args["heuristics"].split(",") if h.strip()]
    if not names:
        raise ConfigError("--heuristics names no heuristic")
    for i, name in enumerate(names):
        if name not in HEURISTICS:
            raise ConfigError(
                f"unknown heuristic {name!r}; expected any of "
                f"{', '.join(HEURISTICS)}"
            )
        if name in names[:i]:
            raise ConfigError(f"--heuristics names {name!r} twice")
    run_args["heuristics"] = names
    return run_args


def _run_full_info(run_args: dict, out_dir: Path) -> int:
    _, _, sim = _load_split(run_args)
    manifest = write_manifest(out_dir, "full-info", run_args, run_args["data"])
    totals = {}
    for name in run_args["heuristics"]:
        ledger = run_full_information(
            sim,
            name,
            run_args["k"],
            seed=run_args["seed"],
            rounds=run_args["rounds"],
        )
        write_ledger_csv(
            ledger, out_dir / f"ledger_{name}.csv", manifest_hash=manifest
        )
        totals[name] = {
            "cum_u_g": ledger.total_u_g,
            "cum_u_f": ledger.total_u_f,
        }
        log.info(
            "full-info %s: u_g %.3f u_f %.3f",
            name,
            ledger.total_u_g,
            ledger.total_u_f,
        )
    summary = {
        "manifest_hash": manifest,
        "command": "full-info",
        "k": run_args["k"],
        "seed": run_args["seed"],
        "rounds": run_args["rounds"],
        "totals": totals,
    }
    _write_json(out_dir / "summary.json", summary)
    print(
        f"full-info: {', '.join(run_args['heuristics'])} over "
        f"{run_args['rounds']} rounds -> {out_dir}"
    )
    return 0


def _read_run_dirs(asym_dir: str, full_dir: str):
    asym_path = Path(asym_dir) / "ledger.csv"
    if not asym_path.exists():
        raise ConfigError(f"{asym_dir}: no ledger.csv; not a simulate run directory")
    asym = read_ledger_csv(asym_path)
    runs = {}
    for name in HEURISTICS:
        path = Path(full_dir) / f"ledger_{name}.csv"
        if path.exists():
            runs[name] = read_ledger_csv(path)
    if not runs:
        raise ConfigError(
            f"{full_dir}: no ledger_<heuristic>.csv files; not a full-info "
            f"run directory"
        )
    return asym, runs


def _run_eurr(run_args: dict, out_dir: Path | None) -> int:
    asym, runs = _read_run_dirs(run_args["asym_dir"], run_args["full_dir"])
    report = compute_eurr(asym, runs)
    print(f"eurr_g {report.eurr_g:.3f} (best {report.best_heuristic_g})")
    print(f"eurr_f {report.eurr_f:.3f} (best {report.best_heuristic_f})")
    if out_dir is not None:
        manifest = write_manifest(out_dir, "eurr", run_args, None)
        payload = dataclasses.asdict(report)
        payload["manifest_hash"] = manifest
        _write_json(out_dir / "eurr.json", payload)
    return 0


def _parse_value(raw: str, where: str):
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        if "/" in raw:
            return Fraction(raw)
        value = float(raw)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{where}: value {raw!r} is not a number")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: value {raw!r} is not finite")
    return value


def _cmd_oracle(args: argparse.Namespace) -> int:
    import csv as _csv

    with open(args.items, newline="") as fh:
        # a short row's missing values read as "", which is not a number
        reader = _csv.DictReader(fh, restval="")
        if reader.fieldnames is None or not {"f", "g"} <= set(reader.fieldnames):
            raise ConfigError(f"{args.items}: expected CSV columns f, g")
        items = tuple(
            (
                _parse_value(row["f"], f"{args.items} line {reader.line_num}"),
                _parse_value(row["g"], f"{args.items} line {reader.line_num}"),
            )
            for row in reader
        )
    if not items:
        raise ConfigError(f"{args.items}: no items")
    instance = BilinearInstance(items=items, k=args.k)
    result = oracle_exact(instance, budget=args.budget)
    print("indices:", " ".join(str(i) for i in result.indices))
    print("value:", result.value)
    return 0


def _run_analyze(run_args: dict, out_dir: Path) -> int:
    dataset = ingest(run_args["data"], run_args.get("format"))
    report = misalignment_report(dataset)
    table = misalignment_table(report)

    manifest = write_manifest(out_dir, "analyze", run_args, run_args["data"])
    (out_dir / "correlations.txt").write_text(table.to_text())
    (out_dir / "correlations.csv").write_text(
        f"# manifest {manifest}\n" + table.to_csv_string()
    )
    scatter_lines = ["# manifest " + manifest, "domain,week,u_f_norm,u_g"]
    for pool in dataset.pools:
        for q in pool.questions:
            scatter_lines.append(
                f"{q.domain},{pool.week},{q.u_f_norm!r},{q.u_g!r}"
            )
    (out_dir / "scatter.csv").write_text("\n".join(scatter_lines) + "\n")
    summary = {
        "manifest_hash": manifest,
        "command": "analyze",
        "mean_rho": report.mean_rho,
        "std_rho": report.std_rho,
        "rows": [
            {
                "utility": row.utility,
                "domain": row.domain,
                "n": row.result.n,
                "rho": row.result.rho,
                "p_value": row.result.p_value,
            }
            for row in report.rows
        ],
        "zero_view_weeks": list(report.zero_view_weeks),
        "skipped": list(report.skipped),
    }
    _write_json(out_dir / "summary.json", summary)
    print(table.to_text(), end="")
    print(f"mean rho {report.mean_rho:.3f} (std {report.std_rho:.3f}) -> {out_dir}")
    return 0


def _run_report(run_args: dict, out_dir: Path) -> int:
    alpha = run_args["alpha"]
    # a manifest may hold any JSON value; nan fails both comparisons
    if not (isinstance(alpha, (int, float)) and 0 < alpha < 1):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha!r}")
    asym, runs = _read_run_dirs(run_args["asym_dir"], run_args["full_dir"])
    summary_path = Path(run_args["asym_dir"]) / "summary.json"
    strategy = "asym"
    if summary_path.exists():
        summary = _read_json(summary_path)
        strategy = summary.get("strategy_g", "asym") if isinstance(summary, dict) else None
        if not isinstance(strategy, str):
            raise ConfigError(f"{summary_path}: not a simulate summary")

    eurr = compute_eurr(asym, runs)
    t_full = full_information_table(runs)
    t_asym = asymmetric_table({strategy: (asym, eurr)})
    series_g = {name: run.weekly_u_g() for name, run in runs.items()}
    series_f = {name: run.weekly_u_f() for name, run in runs.items()}
    series_g[f"asym:{strategy}"] = asym.weekly_u_g()
    series_f[f"asym:{strategy}"] = asym.weekly_u_f()
    t_sig_g = significance_table(
        series_g,
        paired=run_args["paired"],
        alpha=run_args["alpha"],
        caption="weekly proposer utility",
    )
    t_sig_f = significance_table(
        series_f,
        paired=run_args["paired"],
        alpha=run_args["alpha"],
        caption="weekly curator utility",
    )

    manifest = write_manifest(out_dir, "report", run_args, None)
    text = "\n".join(
        t.to_text() for t in (t_full, t_asym, t_sig_g, t_sig_f)
    )
    (out_dir / "tables.txt").write_text(text)
    for stem, table in (
        ("full_info", t_full),
        ("asymmetric", t_asym),
        ("significance_g", t_sig_g),
        ("significance_f", t_sig_f),
    ):
        (out_dir / f"{stem}.csv").write_text(
            f"# manifest {manifest}\n" + table.to_csv_string()
        )
    print(text, end="")
    print(f"-> {out_dir}")
    return 0


# Each run command builds its arguments from flags, or takes them from a
# manifest, and then runs; a manifest's arguments must hold every key the
# run reads: command -> (args_from_flags, run, keys).
_RUNS = {
    "simulate": (
        lambda args: _config_args(args, SIMULATE_KEYS),
        _run_simulate,
        ("data", *SIMULATE_KEYS),
    ),
    "full-info": (_full_info_args, _run_full_info, ("data", *FULL_INFO_KEYS)),
    "eurr": (_dir_args, _run_eurr, ("asym_dir", "full_dir")),
    "analyze": (_data_args, _run_analyze, ("data",)),
    "report": (
        lambda args: {**_dir_args(args), "paired": not args.welch, "alpha": args.alpha},
        _run_report,
        ("asym_dir", "full_dir", "paired", "alpha"),
    ),
}


def _cmd_run(args: argparse.Namespace) -> int:
    args_from_flags, run, keys = _RUNS[args.command]
    if args.manifest:
        run_args = load_manifest(args.manifest, args.command)["args"]
        missing = [key for key in keys if key not in run_args]
        if missing:
            raise ConfigError(
                f"{args.manifest}: manifest args lack {', '.join(missing)}"
            )
    else:
        run_args = args_from_flags(args)
    out_dir = None
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    return run(run_args, out_dir)


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pubgame",
        description="Weekly proposer/curator publication game simulator",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data(p, required=True):
        p.add_argument("--data", required=required, help="dataset file (JSONL or CSV)")
        p.add_argument(
            "--format", choices=("jsonl", "csv"), help="override format inference"
        )

    p = sub.add_parser("validate", help="check a dataset against the schema")
    add_data(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--weeks", type=int, required=True)
    p.add_argument("--per-week", type=int, required=True, dest="per_week")
    p.add_argument(
        "--rho",
        type=float,
        default=0.0,
        help="target Spearman correlation between views and utility",
    )
    p.add_argument(
        "--topic-effect",
        type=float,
        default=0.0,
        dest="topic_effect",
        help="latent view shift between the two topics",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    def add_run_common(p):
        p.add_argument("--out-dir", required=True, dest="out_dir")
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument(
            "--manifest", help="rerun from a recorded manifest.json"
        )
        p.add_argument("--seed", type=int)
        p.add_argument("--pretrain-weeks", type=int, dest="pretrain_weeks")
        p.add_argument("--rounds", type=int)

    p = sub.add_parser("simulate", help="play the asymmetric weekly game")
    add_data(p, required=False)
    add_run_common(p)
    p.add_argument("--strategy", dest="strategy_g", choices=STRATEGIES_G)
    p.add_argument("--scorer", dest="scorer_f", choices=SCORER_KINDS)
    p.add_argument("--m-cap", type=int, dest="m_cap")
    p.add_argument("--k-cap", type=int, dest="k_cap")
    p.add_argument("--retrain-period", type=int, dest="retrain_period")
    p.add_argument("--theta", type=float, help="override the calibrated threshold")
    p.add_argument(
        "--no-learning",
        action="store_const",
        const=False,
        dest="learn_acceptance",
        help="freeze the proposer acceptance model at untrained",
    )
    p.set_defaults(func=_cmd_run, learn_acceptance=None)

    p = sub.add_parser(
        "full-info", help="joint selection heuristics on the simulation window"
    )
    add_data(p, required=False)
    add_run_common(p)
    p.add_argument("--k", type=int, help="selection size per week")
    p.add_argument(
        "--heuristics",
        help=f"comma list from: {', '.join(HEURISTICS)} (default all)",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "eurr", help="estimated utility recovery from recorded runs"
    )
    p.add_argument("--asym-dir", dest="asym_dir", help="simulate run directory")
    p.add_argument("--full-dir", dest="full_dir", help="full-info run directory")
    p.add_argument("--out-dir", dest="out_dir", help="optional output directory")
    p.add_argument("--manifest", help="rerun from a recorded manifest.json")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("oracle", help="exact optimum of a small instance")
    p.add_argument("--items", required=True, help="CSV with columns f, g")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_ENUMERATION_BUDGET,
        help="max subsets to enumerate",
    )
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("analyze", help="view/utility correlation report")
    add_data(p, required=False)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--manifest", help="rerun from a recorded manifest.json")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="result tables and significance tests")
    p.add_argument("--asym-dir", dest="asym_dir", help="simulate run directory")
    p.add_argument("--full-dir", dest="full_dir", help="full-info run directory")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--manifest", help="rerun from a recorded manifest.json")
    p.add_argument(
        "--welch", action="store_true", help="Welch t-tests (default: paired)"
    )
    p.add_argument("--alpha", type=float, default=0.01)
    p.set_defaults(func=_cmd_run)

    return parser


def _setup_logging() -> None:
    level = os.environ.get("PUBGAME_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "manifest", None) is None:
        for name in ("data", "asym_dir", "full_dir"):
            if hasattr(args, name) and getattr(args, name) is None:
                parser.error(f"--{name.replace('_', '-')} is required without --manifest")
    try:
        return args.func(args)
    except (PubgameError, ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
