"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; a test keeps the two in step.
Per-layer times are self times in nominal seconds per iteration (one
set-up unit plus one pass), averaged over the traced iterations of a
run; counts are per iteration as well.
"""

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)

# self-time spans, named as the tracer names them (the "_s" suffix is
# added on output)
LAYER_TIMES = (
    "data.ingest",
    "data.normalize_weekly",
    "data.split_pretrain",
    "data.generate_synthetic",
    "data.write_jsonl",
    "core.set_utility",
    "core.utility_of_set",
    "textmodel.fit",
    "textmodel.transform",
    "textmodel.predict_proba",
    "textmodel.train_acceptance",
    "strategies.label_by_percentile",
    "strategies.calibrate_theta",
    "strategies.train_text_scorer",
    "strategies.strategy_g_utility",
    "strategies.strategy_g_greedy",
    "strategies.forum_select",
    "engine.run_asymmetric",
    "engine.run_full_information",
    "engine.write_ledger_csv",
    "engine.read_ledger_csv",
    "engine.compute_eurr",
    "nash_opt.instance",
    "nash_opt.mpp",
    "nash_opt.maxsp",
    "nash_opt.greedy_np",
    "nash_opt.random",
    "nash_opt.oracle_exact",
    "nash_opt.oracle_dp",
    "stats.spearman",
    "stats.weekly_ttest",
    "reports.misalignment_report",
    "reports.render",
    "cli.analyze",
    "cli.simulate",
    "cli.full_info",
    "cli.eurr",
    "cli.report",
)

# breakdowns of a layer time above by instance family; not added again
# when self times are summed
LAYER_SPLITS = (
    "nash_opt.oracle_exact.pool",
    "nash_opt.oracle_exact.int",
    "nash_opt.oracle_exact.reduction",
)

COUNTS = (
    ("data.records", "count"),
    ("core.utility_of_set_calls", "count"),
    ("textmodel.docs_fit", "count"),
    ("textmodel.docs_scored", "count"),
    ("textmodel.vocab_size", "count"),
    ("strategies.proposed", "count"),
    ("strategies.published", "count"),
    ("engine.rounds", "count"),
    ("engine.retrain_kept", "count"),
    ("engine.retrain_collapsed", "count"),
    ("nash_opt.instances", "count"),
    ("nash_opt.subsets", "count"),
    ("cli.bytes_written", "B"),
)

DERIVED = (
    ("strategies.publish_ratio", "ratio"),
    ("nash_opt.subsets_per_s", "1/s"),
    ("host.ref_s", "s"),
    ("host.pass_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


def per_layer() -> list[tuple[str, str]]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    out = [(f"{name}_s", "s") for name in LAYER_TIMES + LAYER_SPLITS]
    out += list(COUNTS)
    out += list(DERIVED)
    return out
