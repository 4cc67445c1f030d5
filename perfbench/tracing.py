"""Spans around the calls into each ``pubgame`` layer.

The traced mode wraps, from outside the package, the public functions
and methods each module calls into.  A name bound with ``from .x import
f`` is a separate reference in every importing module, so a function is
replaced wherever a ``pubgame`` module holds it (module attributes and
dict values such as ``nash_opt.HEURISTICS``); methods are replaced on
their class.  ``src/`` is never edited, and :meth:`Tracer.uninstall`
puts every original back.

A span records its name, start, end and the span that caused it; spans
gathered between two :meth:`Tracer.take` calls (one set-up unit, or one
pass) share an id.  Spans stay in memory and are written out when the
run ends.  A layer's self
time is its span's duration minus the part its child spans cover, so
the self times of one pass add up to the traced time spent inside
spans.  Counts are taken at the same boundaries by per-target hooks.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.label: str | None = None
        self.spans: list[tuple] = []
        self.pass_id = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, len(self.spans)]
        self.spans.append(None)  # placeholder keeps span ids in call order
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        name, start, child_s, span_id = frame
        self._stack.pop()
        elapsed = end - start
        self.self_s[name] += elapsed - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += elapsed
        self.spans[span_id] = (
            self.pass_id, span_id, parent[3] if parent else None, name, start, end
        )
        return elapsed

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._exit(frame)
            if hook is not None:
                hook(tracer, args, kwargs, result, elapsed)
            return result

        return traced

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def take(self) -> tuple[dict[str, float], dict[str, float]]:
        """Return and reset the self times and counts gathered so far."""
        out = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        self.pass_id += 1
        return out

    # ---------------------------------------------------------- patching

    def install_function(self, module, attr: str, name: str, hook=None) -> None:
        """Replace ``module.attr`` wherever a pubgame module holds it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pubgame" or mod_name.startswith("pubgame.")):
                continue
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if value is original:
                    self._patches.append((mod, key, value, False))
                    setattr(mod, key, traced)
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if dval is original:
                            self._patches.append((value, dkey, dval, True))
                            value[dkey] = traced

    def install_counter(self, module, attr: str, name: str) -> None:
        """Replace the generator ``module.attr`` with one that adds the
        length of every block it yields to the count ``name``.  It opens
        no span: the blocks are made lazily inside the caller's."""
        original = getattr(module, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            for block in original(*args, **kwargs):
                counts[name] += len(block)
                yield block

        self._patches.append((module, attr, original, False))
        setattr(module, attr, counted)

    def install_method(self, cls, attr: str, name: str, hook=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, hook))
        else:
            replacement = self.wrap(name, raw, hook)
        self._patches.append((cls, attr, raw, False))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, key, value, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._patches.clear()

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                if span is None:
                    continue
                pass_id, span_id, parent, name, start, end = span
                fh.write(
                    json.dumps(
                        {
                            "pass": pass_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


# ------------------------------------------------------------ targets


def _ingest_hook(tracer, args, kwargs, result, elapsed):
    tracer.counts["data.records"] += result.metadata["n_questions"]


def _utility_of_set_hook(tracer, args, kwargs, result, elapsed):
    tracer.counts["core.utility_of_set_calls"] += 1


def _fit_hook(tracer, args, kwargs, result, elapsed):
    corpus = args[1] if len(args) > 1 else kwargs["corpus"]
    tracer.counts["textmodel.docs_fit"] += len(corpus)
    # the largest vocabulary fitted in a pass (the curator's, usually)
    tracer.counts["textmodel.vocab_size"] = max(
        tracer.counts.get("textmodel.vocab_size", 0), result.size
    )


def _predict_hook(tracer, args, kwargs, result, elapsed):
    tracer.counts["textmodel.docs_scored"] += len(result)


def _train_acceptance_hook(tracer, args, kwargs, result, elapsed):
    # a retrain inside the game loop either replaces the proposer model
    # or collapses and leaves the previous one in place
    history = args[0] if args else kwargs["history"]
    if history and tracer.parent_name() == "engine.run_asymmetric":
        key = "engine.retrain_kept" if result.trained else "engine.retrain_collapsed"
        tracer.counts[key] += 1


def _forum_select_hook(tracer, args, kwargs, result, elapsed):
    proposal = args[0] if args else kwargs["proposal"]
    tracer.counts["strategies.proposed"] += len(proposal)
    tracer.counts["strategies.published"] += len(result)


def _run_asymmetric_hook(tracer, args, kwargs, result, elapsed):
    tracer.counts["engine.rounds"] += len(result)


def _instance_hook(tracer, args, kwargs, result, elapsed):
    tracer.counts["nash_opt.instances"] += 1


def _oracle_hook(tracer, args, kwargs, result, elapsed):
    if tracer.label is not None:
        # the workload labels each instance family; the labelled time
        # is the oracle span's self time, which has no traced children
        tracer.self_s[f"nash_opt.oracle_exact.{tracer.label}"] += elapsed


def install_all(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from pubgame import core, data, engine, nash_opt, reports, stats, strategies, textmodel

    functions = [
        (data, "ingest", "data.ingest", _ingest_hook),
        (data, "normalize_weekly", "data.normalize_weekly", None),
        (data, "split_pretrain", "data.split_pretrain", None),
        (data, "generate_synthetic", "data.generate_synthetic", None),
        (data, "write_jsonl", "data.write_jsonl", None),
        (core, "set_utility", "core.set_utility", None),
        (core, "utility_of_set", "core.utility_of_set", _utility_of_set_hook),
        (textmodel, "train_acceptance", "textmodel.train_acceptance", _train_acceptance_hook),
        (strategies, "label_by_percentile", "strategies.label_by_percentile", None),
        (strategies, "calibrate_theta", "strategies.calibrate_theta", None),
        (strategies, "train_text_scorer", "strategies.train_text_scorer", None),
        (strategies, "strategy_g_utility", "strategies.strategy_g_utility", None),
        (strategies, "strategy_g_greedy", "strategies.strategy_g_greedy", None),
        (strategies, "forum_select", "strategies.forum_select", _forum_select_hook),
        (engine, "run_asymmetric", "engine.run_asymmetric", _run_asymmetric_hook),
        (engine, "run_full_information", "engine.run_full_information", None),
        (engine, "write_ledger_csv", "engine.write_ledger_csv", None),
        (engine, "read_ledger_csv", "engine.read_ledger_csv", None),
        (engine, "compute_eurr", "engine.compute_eurr", None),
        (nash_opt, "heuristic_mpp", "nash_opt.mpp", None),
        (nash_opt, "heuristic_maxsp", "nash_opt.maxsp", None),
        (nash_opt, "heuristic_greedy_np", "nash_opt.greedy_np", None),
        (nash_opt, "heuristic_random", "nash_opt.random", None),
        (nash_opt, "oracle_exact", "nash_opt.oracle_exact", _oracle_hook),
        (nash_opt, "oracle_dp", "nash_opt.oracle_dp", None),
        (stats, "spearman", "stats.spearman", None),
        (stats, "weekly_ttest", "stats.weekly_ttest", None),
        (reports, "misalignment_report", "reports.misalignment_report", None),
        (reports, "misalignment_table", "reports.render", None),
        (reports, "significance_table", "reports.render", None),
        (reports, "full_information_table", "reports.render", None),
        (reports, "asymmetric_table", "reports.render", None),
    ]
    for module, attr, name, hook in functions:
        tracer.install_function(module, attr, name, hook)

    methods = [
        (textmodel.TextFeaturizer, "fit", "textmodel.fit", _fit_hook),
        (textmodel.TextFeaturizer, "transform", "textmodel.transform", None),
        (textmodel.AcceptanceModel, "predict_proba", "textmodel.predict_proba", _predict_hook),
        (nash_opt.BilinearInstance, "__init__", "nash_opt.instance", _instance_hook),
        (reports.ResultsTable, "to_text", "reports.render", None),
        (reports.ResultsTable, "to_csv_string", "reports.render", None),
    ]
    for cls, attr, name, hook in methods:
        tracer.install_method(cls, attr, name, hook)

    # the subsets the enumeration oracle scores, block by block, so a
    # search that prunes shows as fewer subsets
    tracer.install_counter(nash_opt, "_iter_combo_chunks", "nash_opt.subsets")
