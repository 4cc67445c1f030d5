"""exact: the exact oracles on a fixed mix of instances.

One pass solves, by enumeration, nine instances made from the pass's
seed, and runs the DP oracle on the seven whose f values are integers:

- pool: float instances cut from synthetic weekly pools (the items
  ``exact_urr`` builds), C(30,6) and C(12,4);
- int: integer values in [1, 100] at C(30,6), C(32,7) and C(12,4);
- reduction: planted-yes and parity-no subset-sum instances through
  ``reduce_ccss``, at C(24,6) and C(12,4).  Every k-subset of these has
  the same Nash bound, so a search order that prunes random instances
  cannot prune here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from pubgame import data, nash_opt

# rounding tolerance for comparing float-valued objectives computed in
# different summation orders
FLOAT_RTOL = 1e-12
BRUTE_FORCE_MAX_N = 12


@dataclass(frozen=True)
class Case:
    name: str
    family: str  # pool, int or reduction
    instance: object
    target: int | None = None  # reduction instances: the subset-sum target
    planted: bool | None = None  # reduction instances: yes (True) or no


# (n, k) per family at full and smoke size
FULL = {"pool": [(30, 6), (12, 4)], "int": [(30, 6), (32, 7), (12, 4)], "reduction": [(24, 6), (12, 4)]}
SMOKE = {"pool": [(14, 4), (12, 4)], "int": [(14, 4), (16, 5), (12, 4)], "reduction": [(14, 4), (12, 4)]}


def make_cases(seed: int, sizes: dict) -> list[Case]:
    cases = []
    weeks = data.normalize_weekly(
        data.generate_synthetic(
            data.SyntheticSpec(
                weeks=len(sizes["pool"]),
                questions_per_week=max(n for n, _ in sizes["pool"]),
                utility_correlation=-0.5,
                seed=seed,
            )
        )
    )
    for pool, (n, k) in zip(weeks.pools, sizes["pool"]):
        items = tuple((q.u_g, q.u_f_norm) for q in pool.questions[:n])
        cases.append(Case(f"pool C({n},{k})", "pool", nash_opt.BilinearInstance(items=items, k=k)))
    rng = random.Random(seed)
    for n, k in sizes["int"]:
        items = tuple((rng.randint(1, 100), rng.randint(1, 100)) for _ in range(n))
        cases.append(Case(f"int C({n},{k})", "int", nash_opt.BilinearInstance(items=items, k=k)))
    for j, (n, k) in enumerate(sizes["reduction"]):
        yes = nash_opt.plant_yes_instance(n, k, seed=seed * 7 + j)
        no = nash_opt.perturb_to_no_instance(yes)
        for planted, ccss in ((True, yes), (False, no)):
            cases.append(
                Case(
                    f"{'yes' if planted else 'no'} C({n},{k})",
                    "reduction",
                    nash_opt.reduce_ccss(ccss),
                    target=ccss.target,
                    planted=planted,
                )
            )
    return cases


def case_names(sizes: dict) -> tuple[str, ...]:
    names = [f"{family} C({n},{k})" for family in ("pool", "int") for n, k in sizes[family]]
    names += [f"{kind} C({n},{k})" for n, k in sizes["reduction"] for kind in ("yes", "no")]
    return tuple(names)


def integer_f(instance) -> bool:
    return all(isinstance(f, int) for f, _ in instance.items)


class Exact:
    name = "exact"

    def __init__(self, smoke: bool = False):
        self.sizes = SMOKE if smoke else FULL
        self.ops_per_pass = case_names(self.sizes)

    def prepare(self, seed: int, passdir: Path) -> list[Case]:
        return make_cases(seed, self.sizes)

    def run(self, cases: list[Case], tracer=None) -> list[tuple]:
        results = []
        for case in cases:
            if tracer is not None:
                tracer.label = case.family
            exact = nash_opt.oracle_exact(case.instance)
            dp = nash_opt.oracle_dp(case.instance) if integer_f(case.instance) else None
            results.append((exact, dp))
        if tracer is not None:
            tracer.label = None
        return results

    def check(self, cases: list[Case], results: list[tuple]) -> tuple[dict[str, list[str]], None]:
        return {case.name: check_case(case, exact, dp) for case, (exact, dp) in zip(cases, results)}, None

    def extra_counts(self, inputs) -> dict:
        return {}

    def finish(self, tallies: list) -> dict:
        return {}


def objective(instance, indices) -> Fraction | float:
    """Sum f times sum g, exactly for int and Fraction values; for floats
    in float64, summed in index order as the oracle does."""
    fs = [instance.items[i][0] for i in indices]
    gs = [instance.items[i][1] for i in indices]
    if all(isinstance(v, (int, Fraction)) for v in fs + gs):
        return sum(fs, Fraction(0)) * sum(gs, Fraction(0))
    return sum(fs) * sum(gs)


def close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(Fraction(a) - Fraction(b)) <= Fraction(FLOAT_RTOL) * max(abs(Fraction(a)), abs(Fraction(b)))
    return a == b


def check_case(case: Case, exact, dp) -> list[str]:
    inst = case.instance
    idx = exact.indices
    if len(idx) != inst.k or len(set(idx)) != inst.k or not all(0 <= i < inst.n for i in idx):
        return [f"{case.name}: indices {idx} are not a {inst.k}-subset"]
    failures = []
    value = objective(inst, idx)
    if value != exact.value:
        failures.append(f"{case.name}: value {exact.value!r}, recomputed {value!r}")
    for name, heuristic in nash_opt.HEURISTICS.items():
        picked = heuristic(inst, 0) if name == "random" else heuristic(inst)
        h_value = objective(inst, picked)
        if h_value > exact.value and not close(h_value, exact.value):
            failures.append(f"{case.name}: {name} reaches {h_value!r} > oracle {exact.value!r}")
    if case.family == "reduction":
        square = case.target * case.target
        if case.planted and exact.value != square:
            failures.append(f"{case.name}: planted instance reaches {exact.value!r}, not target^2 {square}")
        if not case.planted and not exact.value < square:
            failures.append(f"{case.name}: parity-no instance reaches target^2 {square}")
    if integer_f(inst):
        if dp is None or dp.value != exact.value:
            failures.append(f"{case.name}: oracle_dp gives {getattr(dp, 'value', None)!r}, enumeration {exact.value!r}")
    if inst.n <= BRUTE_FORCE_MAX_N:
        best = max(
            (objective(inst, combo) for combo in itertools.combinations(range(inst.n), inst.k)),
        )
        if not close(best, exact.value):
            failures.append(f"{case.name}: brute force gives {best!r}, oracle {exact.value!r}")
    return failures
