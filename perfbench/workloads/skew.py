"""skew: the criterion-3 full-information runs.

Set-up draws a 52-week x 400-question corpus at rho=-0.5 and normalizes
it.  A pass runs every full-information heuristic (mpp, maxsp,
greedy_np, random) with k=50 over all weeks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from pubgame import data, engine, nash_opt


@dataclass(frozen=True)
class SkewSize:
    weeks: int
    per_week: int
    k: int


FULL = SkewSize(weeks=52, per_week=400, k=50)
SMOKE = SkewSize(weeks=6, per_week=120, k=15)

# maxsp maximizes the sum of per-item products exactly, but it ranks by
# float64 products, so a near-tie may differ from the exact order by
# rounding
PRODUCT_SUM_RTOL = 1e-12


class Skew:
    name = "skew"
    ops_per_pass = ("seed",)

    def __init__(self, smoke: bool = False):
        self.size = SMOKE if smoke else FULL

    def prepare(self, seed: int, passdir: Path) -> dict:
        spec = data.SyntheticSpec(
            weeks=self.size.weeks,
            questions_per_week=self.size.per_week,
            utility_correlation=-0.5,
            topic_effect=0.0,
            seed=seed,
        )
        return {"seed": seed, "dataset": data.normalize_weekly(data.generate_synthetic(spec))}

    def run(self, inputs: dict, tracer=None) -> dict:
        return {
            name: engine.run_full_information(inputs["dataset"], name, self.size.k, seed=inputs["seed"])
            for name in nash_opt.HEURISTICS
        }

    def check(self, inputs: dict, outputs: dict) -> tuple[dict[str, list[str]], None]:
        return {"seed": check_skew(inputs["dataset"], outputs, self.size.k)}, None

    def extra_counts(self, inputs) -> dict:
        return {}

    def finish(self, tallies: list) -> dict:
        return {}


def check_skew(dataset, runs: dict, k: int) -> list[str]:
    failures: list[str] = []
    if set(runs) != {"mpp", "maxsp", "greedy_np", "random"}:
        return [f"heuristics run: {sorted(runs)}"]
    for t, pool in enumerate(dataset.pools):
        qs = pool.questions
        index = {q.id: i for i, q in enumerate(qs)}
        top = max(q.view_count for q in qs)
        u_f = [q.view_count / top if top > 0 else 0.0 for q in qs]
        product_sums = {}
        for name, ledger in runs.items():
            o = ledger.outcomes[t]
            where = f"{name} week {t}"
            if len(o.published) != k or len(set(o.published)) != k or not set(o.published) <= index.keys():
                failures.append(f"{where}: {len(o.published)} picks, expected {k} distinct ids of the week")
                continue
            picked = [index[i] for i in o.published]
            real_g = sum(qs[i].u_g for i in picked)
            real_f = sum(u_f[i] for i in picked)
            if o.u_g_realized != real_g or o.u_f_realized != real_f:
                failures.append(f"{where}: realized ({o.u_g_realized!r}, {o.u_f_realized!r}), recomputed ({real_g!r}, {real_f!r})")
            product_sums[name] = sum(Fraction(qs[i].u_g) * Fraction(u_f[i]) for i in picked)
        if "maxsp" in product_sums:
            best = product_sums["maxsp"]
            for name, value in product_sums.items():
                if best < value * (1 - Fraction(PRODUCT_SUM_RTOL)):
                    failures.append(f"week {t}: {name} has a larger sum of f*g than maxsp")
    for name, ledger in runs.items():
        if len(ledger.outcomes) != len(dataset.pools):
            failures.append(f"{name}: {len(ledger.outcomes)} rounds for {len(dataset.pools)} weeks")
        cum_g = cum_f = 0.0
        for t, o in enumerate(ledger.outcomes):
            cum_g += o.u_g_realized
            cum_f += o.u_f_realized
            if ledger.cum_u_g[t] != cum_g or ledger.cum_u_f[t] != cum_f:
                failures.append(f"{name} week {t}: cumulative utilities are not running sums")
                break
    return failures
