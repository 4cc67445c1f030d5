"""Command-line front end.

Every run directory holds a manifest.json of the fully resolved
arguments and a fingerprint of the input data, hashed before the
command runs and written only once it has run, and a summary.json, where
the command has one, stamped with the manifest hash and the command's
name.  A run that fails leaves no manifest.
Rerunning with --manifest reproduces the outputs byte for byte.
Configuration files are flat UTF-8 ``key = value`` text with ``#``
comments; explicit flags win over file values.  Each value is declared
once, in :data:`RUN_VALUES`, and a run value is checked by its key
whether it comes from a flag, a configuration file or a manifest.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from . import __version__
from .core import STRATEGIES_G, GameConfig
from .data import (
    Dataset,
    SyntheticSpec,
    _is_number_text,
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
from .strategies import make_precomputed_scorer, train_text_scorer

MANIFEST_FORMAT = "pubgame-manifest"
MANIFEST_VERSION = 1

SCORER_KINDS = ("text", "precomputed")

def _parse_names(raw: str) -> list[str]:
    return [name.strip() for name in raw.split(",") if name.strip()]


def _resolved(path: str) -> str:
    return str(Path(path).resolve())


def _number(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """``parse`` (int or float), for a text that ``_is_number_text`` passes."""
    def read(raw: str):
        if not _is_number_text(raw):
            raise ValueError(f"{raw!r} is not a number")
        return parse(raw)
    read.__name__ = parse.__name__  # argparse names the type by it
    return read


def _typed(kinds: tuple[type, ...], noun: str) -> Callable[[str, Any, dict], None]:
    """The check that a value has a type its parser gives: a JSON
    ``true`` is no integer, and ``4.0`` none either."""
    def check(key: str, value, run_args: dict) -> None:
        if type(value) not in kinds:
            raise ConfigError(f"{key} must be {noun}, got {value!r}")
    return check


_INT = _typed((int,), "an integer")
_FLOAT = _typed((float,), "a float")
_STR = _typed((str,), "a string")
_BOOL = _typed((bool,), "true or false")


def _check_theta(key: str, theta, run_args: dict) -> None:
    if theta is not None:
        _FLOAT(key, theta, run_args)
        # the text scorer's scores are probabilities; precomputed ones may
        # be any finite numbers
        text = run_args["scorer_f"] == "text"
        if not (0 <= theta <= 1 if text else math.isfinite(theta)):
            bound = "lie in [0, 1]" if text else "be finite"
            raise ConfigError(f"theta must {bound}, got {theta}")


def _check_scorer(key: str, kind, run_args: dict) -> None:
    _STR(key, kind, run_args)
    if kind not in SCORER_KINDS:
        kinds = ", ".join(SCORER_KINDS)
        raise ConfigError(f"unknown curator scorer {kind!r}; expected one of {kinds}")


def _check_k(key: str, k, run_args: dict) -> None:
    if type(k) is not int or k < 1:
        raise ConfigError(f"--k must be at least 1, got {k!r}")


def _check_heuristics(key: str, names, run_args: dict) -> None:
    if type(names) is not list:
        raise ConfigError(f"heuristics must be a list of names, got {names!r}")
    if not names:
        raise ConfigError("--heuristics names no heuristic")
    for i, name in enumerate(names):
        if not isinstance(name, str) or name not in HEURISTICS:
            known = ", ".join(HEURISTICS)
            raise ConfigError(f"unknown heuristic {name!r}; expected any of {known}")
        if name in names[:i]:
            raise ConfigError(f"--heuristics names {name!r} twice")


def _check_alpha(key: str, alpha, run_args: dict) -> None:
    _FLOAT(key, alpha, run_args)
    if not 0 < alpha < 1:  # nan fails both comparisons
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha!r}")


_REQUIRED = object()  # the default of a value that has none


@dataclass(frozen=True)
class RunValue:
    """One value of the commands: its flag, the parser of the flag's or
    a config-file line's text, the check every run value passes, from a
    flag, a config file or a manifest, and its default.  A value without
    one is required unless a run's manifest gives it; a ``bool`` value's
    flag switches it from its default and parses no text.  ``config``
    values are config-file keys.  A manifest records every value of its
    command."""

    flag: str
    parse: Callable[[str], Any] | None
    check: Callable[[str, Any, dict], None]
    default: Any = _REQUIRED
    config: bool = True
    choices: tuple[str, ...] | None = None
    help: str | None = None


# Checks the library makes (GameConfig, split_pretrain, ingest, run_*)
# are not repeated here.
RUN_VALUES = {
    "data": RunValue("--data", _resolved, _STR, config=False, help="dataset file (JSONL or CSV)"),
    "format": RunValue(
        "--format", str, _typed((str, type(None)), "a string or null"), None, config=False,
        choices=("jsonl", "csv"), help="override format inference",
    ),
    "asym_dir": RunValue("--asym-dir", _resolved, _STR, config=False, help="simulate run dir"),
    "full_dir": RunValue("--full-dir", _resolved, _STR, config=False, help="full-info run dir"),
    "pretrain_weeks": RunValue("--pretrain-weeks", _number(int), _INT, 13),
    "m_cap": RunValue("--m-cap", _number(int), _INT, GameConfig.m_cap),
    "k_cap": RunValue("--k-cap", _number(int), _INT, GameConfig.k_cap),
    "rounds": RunValue("--rounds", _number(int), _INT, GameConfig.rounds),
    "retrain_period": RunValue("--retrain-period", _number(int), _INT, GameConfig.retrain_period),
    "theta": RunValue(
        "--theta", _number(float), _check_theta, None, help="override the calibrated threshold"
    ),
    "seed": RunValue("--seed", _number(int), _INT, GameConfig.seed),
    "strategy_g": RunValue("--strategy", str, _STR, GameConfig.strategy_g, choices=STRATEGIES_G),
    "scorer_f": RunValue("--scorer", str, _check_scorer, "text", choices=SCORER_KINDS),
    "k": RunValue("--k", _number(int), _check_k, GameConfig.k_cap, help="selection size per week"),
    "heuristics": RunValue(
        "--heuristics", _parse_names, _check_heuristics, list(HEURISTICS),
        help=f"comma list from: {', '.join(HEURISTICS)} (default all)",
    ),
    "paired": RunValue(
        "--welch", None, _BOOL, True, config=False, help="Welch t-tests (default: paired)"
    ),
    "alpha": RunValue("--alpha", _number(float), _check_alpha, 0.01, config=False),
    # generate and oracle only
    "out": RunValue("--out", str, _STR, help="output JSONL path"),
    "weeks": RunValue("--weeks", _number(int), _INT),
    "per_week": RunValue("--per-week", _number(int), _INT),
    "rho": RunValue(
        "--rho", _number(float), _FLOAT, 0.0,
        help="target Spearman correlation between views and utility",
    ),
    "topic_effect": RunValue(
        "--topic-effect", _number(float), _FLOAT, 0.0,
        help="latent view shift between the two topics",
    ),
    "items": RunValue("--items", str, _STR, help="CSV with columns f, g"),
    "budget": RunValue(
        "--budget", _number(int), _INT, DEFAULT_ENUMERATION_BUDGET, help="max subsets to enumerate"
    ),
}


def read_config(path: str | Path, command: str) -> dict:
    """Parse a flat UTF-8 ``key = value`` configuration file, accepting
    only the config keys of one run command, each at most once and parsed
    as its flag's text is."""
    keys = [key for key in RUN_COMMANDS[command][0] if RUN_VALUES[key].config]
    values: dict = {}
    first_line: dict[str, int] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        if key in first_line:
            raise ConfigError(
                f"{path} line {lineno}: {key} given again (first on line {first_line[key]})"
            )
        first_line[key] = lineno
        try:
            values[key] = RUN_VALUES[key].parse(val)
        except ValueError as e:
            raise ConfigError(f"{path} line {lineno}: bad value for {key}: {e}")
    return values


def _sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_hash(payload: dict) -> str:
    trimmed = {k: v for k, v in payload.items() if k != "manifest_hash"}
    canonical = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _print(text: str) -> None:
    # every command prints through here: names from the data and paths
    # print as escapes where the stdout encoding lacks them (an ASCII
    # locale or stdio); an io.StringIO has no encoding and takes any
    encoding = sys.stdout.encoding
    print(text.encode(encoding, "backslashreplace").decode(encoding) if encoding else text)


def _manifest(command: str, run_args: dict, data_path: str | None) -> dict:
    payload = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "command": command,
        "package_version": __version__,
        "args": run_args,
        "data_sha256": _sha256_file(data_path) if data_path else None,
    }
    payload["manifest_hash"] = _manifest_hash(payload)
    return payload


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
        raise ConfigError(f"{path}: manifest version {payload.get('version')!r} unsupported")
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
        if type(data) is not str or not Path(data).is_file():
            raise ConfigError(f"{path}: recorded data file {data!r} is missing")
        actual = _sha256_file(data)
        if actual != payload["data_sha256"]:
            raise ConfigError(
                f"{path}: data file {data} changed since the recorded run "
                f"(sha256 {actual[:12]} != {payload['data_sha256'][:12]})"
            )
    return payload


def _load_split(run_args: dict) -> tuple[Dataset, Dataset, Dataset]:
    dataset = ingest(run_args["data"], run_args["format"])
    return split_pretrain(dataset, run_args["pretrain_weeks"])


# ---------------------------------------------------------------- commands


def _cmd_validate(args: argparse.Namespace) -> None:
    dataset = ingest(args.data, args.format)
    # where stdout's encoding is not Unicode, _print may write escapes: a
    # name holding a backslash or a character the encoding lacks is an
    # ASCII JSON string there
    encoding = sys.stdout.encoding
    escapes = encoding is not None and not codecs.lookup(encoding).name.startswith("utf")
    domains = []
    for name, count in sorted(dataset.metadata["domains"].items()):
        lacks = escapes and name.encode(encoding, "ignore").decode(encoding) != name
        if lacks or (escapes and "\\" in name):
            name = json.dumps(name)
        # a JSON string where a comma, colon, quote or end space could
        # misread the list; bare otherwise
        elif name != name.strip() or set(name) & set(',:"'):
            name = json.dumps(name, ensure_ascii=False)
        domains.append(f"{name}:{count}")
    counts = f"{dataset.metadata['n_questions']} questions, {dataset.n_weeks} weeks"
    _print(f"ok: {counts}, domains {', '.join(domains)}")


def _cmd_generate(args: argparse.Namespace) -> None:
    spec = SyntheticSpec(args.weeks, args.per_week, args.rho, args.topic_effect, args.seed)
    dataset = generate_synthetic(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(dataset, out)
    _print(
        f"wrote {out}: {dataset.metadata['n_questions']} questions over "
        f"{dataset.n_weeks} weeks"
    )


def _run_simulate(run_args: dict, out_dir: Path, manifest: str) -> dict:
    config = GameConfig(**{f.name: run_args[f.name] for f in dataclasses.fields(GameConfig)})
    train, val, sim = _load_split(run_args)
    theta = run_args["theta"]
    if run_args["scorer_f"] == "text":
        scorer = train_text_scorer(train.pools, val.pools, theta=theta)
    else:
        scorer = make_precomputed_scorer(val.pools, theta=theta)
    ledger = run_asymmetric(sim, config, scorer)

    write_ledger_csv(ledger, out_dir / "ledger.csv", manifest_hash=manifest)
    if scorer.model is not None:
        _write_json(out_dir / "forum_scorer_model.json", scorer.model.to_payload())
    calibration = dataclasses.asdict(scorer.calibration) if scorer.calibration else None
    _print(
        f"simulate: {len(ledger)} rounds, strategy {config.strategy_g}, "
        f"u_g {ledger.total_u_g:.3f}, u_f {ledger.total_u_f:.3f} -> {out_dir}"
    )
    return {
        "strategy_g": config.strategy_g,
        "scorer_f": run_args["scorer_f"],
        "theta": scorer.theta,
        "calibration": calibration,
        "rounds": len(ledger),
        "realized_u_g": ledger.total_u_g,
        "realized_u_f": ledger.total_u_f,
        "mean_published": sum(ledger.published_counts) / len(ledger),
    }


def _run_full_info(run_args: dict, out_dir: Path, manifest: str) -> dict:
    _, _, sim = _load_split(run_args)
    totals = {}
    for name in run_args["heuristics"]:
        ledger = run_full_information(
            sim, name, run_args["k"], seed=run_args["seed"], rounds=run_args["rounds"]
        )
        write_ledger_csv(ledger, out_dir / f"ledger_{name}.csv", manifest_hash=manifest)
        totals[name] = {"cum_u_g": ledger.total_u_g, "cum_u_f": ledger.total_u_f}
    _print(
        f"full-info: {', '.join(run_args['heuristics'])} over "
        f"{run_args['rounds']} rounds -> {out_dir}"
    )
    return {"totals": totals, **{key: run_args[key] for key in ("k", "seed", "rounds")}}


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


def _run_eurr(run_args: dict, out_dir: Path | None, manifest: str | None) -> None:
    asym, runs = _read_run_dirs(run_args["asym_dir"], run_args["full_dir"])
    report = compute_eurr(asym, runs)
    _print(f"eurr_g {report.eurr_g:.3f} (best {report.best_heuristic_g})")
    _print(f"eurr_f {report.eurr_f:.3f} (best {report.best_heuristic_f})")
    if out_dir is not None:
        _write_json(out_dir / "eurr.json", dict(dataclasses.asdict(report), manifest_hash=manifest))


def _parse_value(raw: str, where: str):
    if not _is_number_text(raw):
        raise ConfigError(f"{where}: value {raw!r} is not a number")
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


def _cmd_oracle(args: argparse.Namespace) -> None:
    with open(args.items, newline="", encoding="utf-8") as fh:
        # a short row's missing values read as "", which is not a number
        reader = csv.DictReader(fh, restval="")
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
    _print("indices: " + " ".join(str(i) for i in result.indices))
    _print(f"value: {result.value}")


def _run_analyze(run_args: dict, out_dir: Path, manifest: str) -> dict:
    dataset = ingest(run_args["data"], run_args["format"])
    report = misalignment_report(dataset)
    table = misalignment_table(report)

    # domain names come from the data: written as UTF-8, as they were read
    (out_dir / "correlations.txt").write_text(table.to_text(), encoding="utf-8")
    (out_dir / "correlations.csv").write_text(
        f"# manifest {manifest}\n" + table.to_csv_string(), encoding="utf-8"
    )
    with open(out_dir / "scatter.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# manifest {manifest}\n")
        # quoted only where a domain needs it; csv writes floats as repr
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("domain", "week", "u_f_norm", "u_g"))
        for t, pool in enumerate(dataset.pools):
            u_f, u_g = pool.u_f_norm.tolist(), pool.u_g.tolist()
            writer.writerows(zip(pool.domains, [t] * len(pool), u_f, u_g))
    _print(
        table.to_text()
        + f"mean rho {report.mean_rho:.3f} (std {report.std_rho:.3f}) -> {out_dir}"
    )
    return {
        "mean_rho": report.mean_rho,
        "std_rho": report.std_rho,
        "rows": [
            {
                "utility": "u_g",
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


def _run_report(run_args: dict, out_dir: Path, manifest: str) -> None:
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
    significance = []
    for column, player in (("u_g", "proposer"), ("u_f", "curator")):
        series = {name: getattr(run, column) for name, run in runs.items()}
        series[f"asym:{strategy}"] = getattr(asym, column)
        caption = f"weekly {player} utility"
        significance.append(
            significance_table(
                series, paired=run_args["paired"], alpha=run_args["alpha"], caption=caption
            )
        )
    t_sig_g, t_sig_f = significance

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
    _print(text + f"-> {out_dir}")


# Each run command's values, in the order a manifest's missing ones are
# named, and the function that runs it.
RUN_COMMANDS = {
    "simulate": (
        ("data", "format", "pretrain_weeks", "m_cap", "k_cap", "rounds", "retrain_period",
         "theta", "seed", "strategy_g", "scorer_f"),
        _run_simulate,
    ),
    "full-info": (
        ("data", "format", "pretrain_weeks", "k", "rounds", "seed", "heuristics"), _run_full_info,
    ),
    "eurr": (("asym_dir", "full_dir"), _run_eurr),
    "analyze": (("data", "format"), _run_analyze),
    "report": (("asym_dir", "full_dir", "paired", "alpha"), _run_report),
}


def _cmd_run(args: argparse.Namespace) -> None:
    """Take a run's values from its flags, config file and defaults, or
    from a manifest alone; check each by its key; hash the manifest, as
    the run's files carry its hash; run; then write the manifest and the
    summary the command returns."""
    keys, run = RUN_COMMANDS[args.command]
    given = [key for key in keys if hasattr(args, key)]
    config = getattr(args, "config", None)
    if args.manifest:
        extra = [RUN_VALUES[key].flag for key in given] + ["--config"] * bool(config)
        if extra:
            extra = ", ".join(extra)
            raise ConfigError(f"--manifest reruns the recorded values and takes no {extra}")
        run_args = load_manifest(args.manifest, args.command)["args"]
        missing = [key for key in keys if key not in run_args]
        if missing:
            raise ConfigError(f"{args.manifest}: manifest args lack {', '.join(missing)}")
        unknown = ", ".join(map(repr, sorted(set(run_args) - set(keys))))
        if unknown:
            raise ConfigError(f"{args.manifest}: {args.command} takes no {unknown}")
    else:
        for key in keys:
            if RUN_VALUES[key].default is _REQUIRED and key not in given:
                # main reports it as argparse reports a missing flag
                flag = RUN_VALUES[key].flag
                raise argparse.ArgumentError(None, f"{flag} is required without --manifest")
        file_values = read_config(config, args.command) if config else {}
        run_args = {
            key: getattr(args, key, file_values.get(key, RUN_VALUES[key].default)) for key in keys
        }
    for key in keys:
        if key in run_args:
            RUN_VALUES[key].check(key, run_args[key], run_args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is None:
        run(run_args, None, None)
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(args.command, run_args, run_args.get("data"))
    summary = run(run_args, out_dir, manifest["manifest_hash"])
    # only a run that returned has a manifest to rerun
    _write_json(out_dir / "manifest.json", manifest)
    if summary is not None:
        summary.update(manifest_hash=manifest["manifest_hash"], command=args.command)
        _write_json(out_dir / "summary.json", summary)


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

    def add_value(p: argparse.ArgumentParser, key: str, **kw) -> None:
        value = RUN_VALUES[key]
        # outside a run command, a value with no default is a required flag
        kw = {"default": value.default, "required": value.default is _REQUIRED, **kw}
        kw.update(dest=key, help=value.help)
        if type(value.default) is bool:
            p.add_argument(value.flag, action="store_const", const=not value.default, **kw)
        else:
            p.add_argument(value.flag, type=value.parse, choices=value.choices, **kw)

    def add_run(command: str, help: str) -> None:
        p = sub.add_parser(command, help=help)
        keys, _ = RUN_COMMANDS[command]
        for key in keys:
            # a flag not given leaves no attribute, so that the config
            # file's value or the default takes its place
            add_value(p, key, default=argparse.SUPPRESS, required=False)
        # eurr writes its output directory only when given one
        p.add_argument("--out-dir", required=command != "eurr", dest="out_dir")
        if any(RUN_VALUES[key].config for key in keys):
            p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--manifest", help="rerun from a recorded manifest.json")
        p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate", help="check a dataset against the schema")
    add_value(p, "data")
    add_value(p, "format")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    for key in ("out", "weeks", "per_week", "rho", "topic_effect", "seed"):
        add_value(p, key)
    p.set_defaults(func=_cmd_generate)

    add_run("simulate", "play the asymmetric weekly game")
    add_run("full-info", "joint selection heuristics on the simulation window")
    add_run("eurr", "estimated utility recovery from recorded runs")

    p = sub.add_parser("oracle", help="exact optimum of a small instance")
    add_value(p, "items")
    add_value(p, "k", required=True)
    add_value(p, "budget")
    p.set_defaults(func=_cmd_oracle)

    add_run("analyze", "view/utility correlation report")
    add_run("report", "result tables and significance tests")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except argparse.ArgumentError as e:
        parser.error(str(e))
    except (PubgameError, ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
