import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubgame import (
    BilinearInstance,
    CcssInstance,
    EnumerationBudgetError,
    ReductionInfeasibleError,
    decide_ccss,
    heuristic_greedy_np,
    heuristic_maxsp,
    heuristic_mpp,
    heuristic_random,
    nash_objective,
    oracle_dp,
    oracle_exact,
    perturb_to_no_instance,
    plant_yes_instance,
    reduce_ccss,
)
from pubgame.nash_opt import HEURISTICS

TINY = BilinearInstance(items=((3, 1), (1, 3), (2, 2)), k=2)


def brute_force(instance):
    best = None
    for combo in itertools.combinations(range(instance.n), instance.k):
        v = nash_objective(instance, combo)
        if best is None or v > best[1]:
            best = (combo, v)
    return best


def random_instance(rng, n=12, k=None, hi=100):
    items = tuple((rng.randint(1, hi), rng.randint(1, hi)) for _ in range(n))
    return BilinearInstance(items=items, k=k or rng.randint(1, 4))


def test_nash_objective_value():
    assert nash_objective(TINY, [0, 1]) == 16
    assert nash_objective(TINY, [0, 2]) == 15
    assert nash_objective(TINY, [1, 2]) == 15


def test_nash_objective_rejects_bad_selections():
    with pytest.raises(ValueError):
        nash_objective(TINY, [0, 0])
    with pytest.raises(ValueError):
        nash_objective(TINY, [0, 1, 2])
    with pytest.raises(IndexError):
        nash_objective(TINY, [5])


def test_instance_validation():
    with pytest.raises(ValueError):
        BilinearInstance(items=(), k=1)
    with pytest.raises(ValueError):
        BilinearInstance(items=((1, 1),), k=2)
    with pytest.raises(ValueError):
        BilinearInstance(items=((1, -1),), k=1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            BilinearInstance(items=((bad, 1.0), (2.0, 3.0)), k=1)
        with pytest.raises(ValueError, match="item 1: values must be finite"):
            BilinearInstance(items=((2.0, 3.0), (1.0, bad)), k=1)
    # exact values of any size stay accepted
    BilinearInstance(items=((10**400, Fraction(1, 3)), (2, 3.5)), k=1)


def test_oracle_exact_tiny():
    result = oracle_exact(TINY)
    assert result.indices == (0, 1)
    assert result.value == 16


def test_oracle_matches_brute_force_on_random_instances():
    rng = random.Random(11)
    for _ in range(60):
        inst = random_instance(rng, n=9)
        combo, value = brute_force(inst)
        result = oracle_exact(inst)
        assert result.value == value
        assert result.indices == combo


def test_oracle_tie_breaks_to_lowest_indices():
    inst = BilinearInstance(items=((1, 1), (1, 1), (1, 1)), k=2)
    assert oracle_exact(inst).indices == (0, 1)


def test_oracle_budget_guard():
    inst = BilinearInstance(items=tuple((1, 1) for _ in range(30)), k=15)
    with pytest.raises(EnumerationBudgetError) as err:
        oracle_exact(inst, budget=1000)
    assert err.value.count == 155117520
    assert err.value.budget == 1000


def test_oracle_exact_fraction_values():
    inst = BilinearInstance(
        items=((Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 3), Fraction(1, 2)), (1, 0)),
        k=2,
    )
    result = oracle_exact(inst)
    assert result.value == Fraction(1, 1) * Fraction(1, 1) == 1
    assert isinstance(result.value, (int, Fraction))


def test_oracle_exact_huge_integers_stay_exact():
    # beyond int64: forces the object-dtype enumeration path
    big = 2**40
    items = tuple((big + i, big - i) for i in range(8))
    inst = BilinearInstance(items=items, k=3)
    combo, value = brute_force(inst)
    result = oracle_exact(inst)
    assert result.value == value
    assert isinstance(result.value, int)


def test_oracle_float_instances():
    inst = BilinearInstance(items=((0.5, 1.5), (1.5, 0.5), (1.0, 1.0)), k=2)
    result = oracle_exact(inst)
    assert result.value == pytest.approx(4.0)
    assert result.indices == (0, 1) or result.indices == (0, 2) or result.indices == (1, 2)
    assert nash_objective(inst, result.indices) == result.value


def test_oracle_dp_agrees_with_enumeration():
    rng = random.Random(7)
    for _ in range(50):
        inst = random_instance(rng, n=11, hi=30)
        assert oracle_dp(inst).value == oracle_exact(inst).value


def test_oracle_dp_requires_integer_f():
    inst = BilinearInstance(items=((0.5, 1), (1, 1)), k=1)
    with pytest.raises(ValueError):
        oracle_dp(inst)


def test_mpp_alternates_sides_f_first():
    inst = BilinearInstance(items=((5, 1), (1, 5), (4, 2), (2, 4)), k=2)
    assert heuristic_mpp(inst) == (0, 1)
    inst3 = BilinearInstance(items=((5, 1), (1, 5), (4, 2), (2, 4)), k=3)
    # third pick is the f-side again: item 2 has the best remaining f
    assert heuristic_mpp(inst3) == (0, 1, 2)


def test_maxsp_takes_top_products():
    inst = BilinearInstance(items=((5, 1), (4, 10), (3, 2), (2, 2)), k=2)
    # products: 5, 40, 6, 4
    assert heuristic_maxsp(inst) == (1, 2)


def test_greedy_np_hand_trace():
    # first pick has product 40; then {1,0} scores 9*11=99 vs {1,2}'s 7*12=84
    inst = BilinearInstance(items=((5, 1), (4, 10), (3, 2)), k=2)
    chosen = heuristic_greedy_np(inst)
    assert chosen == (0, 1)
    assert nash_objective(inst, chosen) == 99


def test_greedy_np_first_pick_is_best_product():
    rng = random.Random(3)
    for _ in range(30):
        inst = random_instance(rng, n=10, k=1)
        assert heuristic_greedy_np(inst) == heuristic_maxsp(inst)


def test_heuristic_random_is_seed_deterministic():
    inst = BilinearInstance(items=tuple((i + 1, i + 2) for i in range(9)), k=4)
    a = heuristic_random(inst, seed=42)
    assert a == heuristic_random(inst, seed=42)
    assert a != heuristic_random(inst, seed=43) or a != heuristic_random(inst, seed=44)
    assert heuristic_random(inst, seed="s1") == heuristic_random(inst, seed="s1")
    assert len(set(a)) == 4
    assert all(0 <= i < 9 for i in a)


def test_heuristics_return_sorted_valid_subsets():
    rng = random.Random(5)
    inst = random_instance(rng, n=10, k=4)
    for name, heuristic in HEURISTICS.items():
        chosen = heuristic(inst)
        assert chosen == tuple(sorted(chosen)), name
        assert len(set(chosen)) == inst.k, name


def test_oracle_dominates_every_heuristic():
    rng = random.Random(1234)
    for _ in range(100):
        inst = random_instance(rng, n=12)
        opt = oracle_exact(inst).value
        for name, heuristic in HEURISTICS.items():
            assert nash_objective(inst, heuristic(inst)) <= opt, name


@st.composite
def small_instances(draw, values, g_values=None):
    """Instances of at most 10 items drawn from ``values`` (g from
    ``g_values`` when given), any k."""
    n = draw(st.integers(1, 10))
    pair = st.tuples(values, values if g_values is None else g_values)
    items = draw(st.lists(pair, min_size=n, max_size=n))
    return BilinearInstance(items=tuple(items), k=draw(st.integers(1, n)))


_int_values = st.integers(0, 1000)
_float_values = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_instances(_int_values), small_instances(_float_values)))
def test_oracle_dominates_every_heuristic_property(inst):
    opt = oracle_exact(inst).value
    for name, heuristic in HEURISTICS.items():
        value = nash_objective(inst, heuristic(inst))
        # float sums may round differently from the oracle's summation order
        assert value <= opt * (1 + 1e-12), name


@settings(max_examples=150, deadline=None)
@given(small_instances(_int_values))
def test_oracle_dp_equals_enumeration_property(inst):
    assert oracle_dp(inst).value == oracle_exact(inst).value


def test_oracle_dp_walks_back_float_g():
    # g_best - g does not retrace these float additions exactly
    inst = BilinearInstance(
        items=(
            (48, 8.902), (2, 2.589), (32, 4.859), (50, 8.299),
            (30, 3.58), (13, 5.047), (18, 1.397), (6, 6.184),
        ),
        k=7,
    )
    result = oracle_dp(inst)
    assert len(result.indices) == 7
    assert result.value == pytest.approx(oracle_exact(inst).value, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(small_instances(_int_values, _float_values))
def test_oracle_dp_float_g_property(inst):
    result = oracle_dp(inst)
    chosen = result.indices
    assert len(set(chosen)) == inst.k == len(chosen)
    assert all(0 <= i < inst.n for i in chosen)
    exact = oracle_exact(inst).value
    assert result.value == pytest.approx(exact, rel=1e-12)
    assert nash_objective(inst, chosen) == pytest.approx(exact, rel=1e-12)


def test_reduce_ccss_hand_example():
    inst = CcssInstance(values=(1, 2, 3), target=3, k=2)
    reduced = reduce_ccss(inst)
    assert reduced.items == ((1, 2), (2, 1), (3, 0))
    values = {
        combo: nash_objective(reduced, combo)
        for combo in itertools.combinations(range(3), 2)
    }
    assert values == {(0, 1): 9, (0, 2): 8, (1, 2): 5}
    assert oracle_exact(reduced).value == 9 == inst.target**2
    assert decide_ccss(inst)


def test_reduce_ccss_fractional_mirror():
    # 2*target not divisible by k keeps the mirror value exact
    inst = CcssInstance(values=(2, 2, 2), target=4, k=3)
    reduced = reduce_ccss(inst)
    assert reduced.items[0] == (2, Fraction(2, 3))
    # 2+2+2 = 6 != 4, and no other 3-subset exists
    assert not decide_ccss(inst)
    yes = CcssInstance(values=(1, 2, 1), target=4, k=3)
    assert decide_ccss(yes)


def test_reduce_ccss_infeasible_value():
    with pytest.raises(ReductionInfeasibleError):
        reduce_ccss(CcssInstance(values=(10, 1, 1), target=6, k=2))


def test_ccss_validation():
    with pytest.raises(ValueError):
        CcssInstance(values=(), target=3, k=1)
    with pytest.raises(ValueError):
        CcssInstance(values=(1, 2), target=0, k=1)
    with pytest.raises(ValueError):
        CcssInstance(values=(1, -2), target=3, k=1)
    with pytest.raises(ValueError):
        CcssInstance(values=(1, 2), target=3, k=5)


def test_planted_instances_decide_yes_perturbed_decide_no():
    for seed in range(20):
        planted = plant_yes_instance(12, 4, seed)
        assert all(a % 2 == 0 for a in planted.values)
        assert decide_ccss(planted)
        assert not decide_ccss(perturb_to_no_instance(planted))


def test_perturbation_requires_parity():
    with pytest.raises(ValueError):
        perturb_to_no_instance(CcssInstance(values=(3, 2), target=4, k=1))
    with pytest.raises(ValueError):
        perturb_to_no_instance(CcssInstance(values=(2, 4), target=5, k=1))


def test_plant_yes_instance_shapes():
    inst = plant_yes_instance(15, 5, seed=9)
    assert len(inst.values) == 15
    assert inst.k == 5
    assert inst.target % 2 == 0
