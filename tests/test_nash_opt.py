import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubgame import (
    BilinearInstance,
    CcssInstance,
    EnumerationBudgetError,
    OracleResult,
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
from pubgame import nash_opt
from pubgame.nash_opt import HEURISTICS

from helpers import (
    ref_heuristic_greedy_np,
    ref_heuristic_maxsp,
    ref_heuristic_mpp,
    ref_oracle_dp,
    ref_oracle_exact,
)

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


def test_oracle_tie_breaks_to_lowest_indices(monkeypatch):
    inst = BilinearInstance(items=((1, 1), (1, 1), (1, 1)), k=2)
    assert oracle_exact(inst).indices == (0, 1)
    # one subset per block: the first block must keep the tie
    monkeypatch.setattr(nash_opt, "_CHUNK", 1)
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
    assert result.value == 4.0
    assert result.indices == (0, 1)
    assert nash_objective(inst, result.indices) == result.value


@pytest.mark.parametrize("k", [1, 5])
def test_oracle_edge_sizes(k):
    # k = 1 takes the best single item, k = n takes every item
    items = ((2, 9), (7, 7), (1, 3), (4, 6), (3, 1))
    inst = BilinearInstance(items=items, k=k)
    result = oracle_exact(inst)
    assert (result.indices, result.value) == brute_force(inst)
    assert result.indices == ((1,) if k == 1 else (0, 1, 2, 3, 4))


@pytest.mark.parametrize("zero", [0, 0.0, Fraction(0)])
def test_oracle_all_zero_values_take_first_indices(monkeypatch, zero):
    monkeypatch.setattr(nash_opt, "_CHUNK", 4)
    inst = BilinearInstance(items=tuple((zero, zero) for _ in range(7)), k=3)
    assert oracle_exact(inst).indices == (0, 1, 2)
    assert oracle_exact(inst).value == 0


@pytest.mark.parametrize("chunk", [1, 2, 7, 50])
def test_combo_blocks_are_bounded_and_lexicographic(monkeypatch, chunk):
    monkeypatch.setattr(nash_opt, "_CHUNK", chunk)
    for n in range(1, 10):
        for k in range(1, n + 1):
            # f-sums are the subsets' bit masks and every g-sum is k
            fs = np.array([2**i for i in range(n)], dtype=np.int64)
            blocks = list(nash_opt._iter_combo_chunks(fs, np.ones(n, dtype=np.int64), k))
            assert sum(len(b) for b in blocks) == math.comb(n, k)
            assert max(len(b) for b in blocks) <= chunk
            masks = [k * sum(2**i for i in c) for c in itertools.combinations(range(n), k)]
            assert np.concatenate([b.value for b in blocks]).tolist() == masks
            ranks = np.concatenate([b.rank for b in blocks])
            assert ranks.tolist() == list(range(math.comb(n, k)))


def test_pruning_keeps_an_optimum_whose_sums_round_above_the_bound():
    # x is 0.6 of an ulp of 1.0: 1 + x + x rounds up twice to 1 + 2 ulp,
    # while the prefix (0,) plus its top-2 sum, 1 + 1.2 ulp, rounds to
    # 1 + 1 ulp; a bound without slack is below the optimum, which is
    # also the top 3 by f * g that seeds the incumbent
    x = 0.6 * 2.0**-52
    assert (1.0 + x) + x > 1.0 + (x + x)
    inst = BilinearInstance(items=((1.0, 1.0), (x, 0.0), (x, 0.0), (0.0, 0.0), (0.0, 0.0)), k=3)
    result = oracle_exact(inst)
    assert result == ref_oracle_exact(inst)
    assert result == OracleResult((0, 1, 2), 1.0 + 2 * 2.0**-52)


# the instance's own sums overflow, and its last product is inf * 0
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("chunk", [1, 2, 1000])
def test_pruning_never_drops_a_nan_bound(monkeypatch, chunk):
    # the prefix (1,) has f-sum 1e308 and top f after it 1e308, an inf
    # bound sum against a zero g side: its bound is NaN, and its one
    # completion scores inf * 0 = NaN, which an argmax over every
    # subset's product in order takes
    monkeypatch.setattr(nash_opt, "_CHUNK", chunk)
    inst = BilinearInstance(items=((1.0, 1.0), (1e308, 0.0), (1e308, 0.0)), k=2)
    fs, gs = nash_opt._as_float_arrays(inst)
    blocks = list(nash_opt._iter_combo_chunks(fs, gs, inst.k, incumbent=1e308))
    values = np.concatenate([b.value for b in blocks])
    ranks = np.concatenate([b.rank for b in blocks])
    i = int(np.argmax(values))
    unpruned = list(itertools.combinations(range(inst.n), inst.k))[ranks[i]]
    assert unpruned == (1, 2)
    assert float(values[i]).hex() == "nan"
    # (0, 1) is worth 1e308, yet an optimum read from these products would
    # be NaN: the oracle refuses the instance for its overflowing f side
    assert nash_objective(inst, (0, 1)) == 1e308
    with pytest.raises(ValueError, match="2 largest f values can sum to inf"):
        oracle_exact(inst)


def test_pruning_scores_under_one_percent_of_a_random_instance(monkeypatch):
    rng = random.Random(2024)
    inst = random_instance(rng, n=30, k=6)
    scored = []
    enumerate_blocks = nash_opt._iter_combo_chunks

    def counted(*args):
        for block in enumerate_blocks(*args):
            scored.append(len(block))
            yield block

    monkeypatch.setattr(nash_opt, "_iter_combo_chunks", counted)
    result = oracle_exact(inst)
    assert 0 < sum(scored) < math.comb(30, 6) / 100
    assert result == ref_oracle_exact(inst)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_suffix_top_sums_match_sorted_suffixes(dtype):
    rng = random.Random(11)
    for n in range(1, 9):
        values = np.array([rng.randrange(6) for _ in range(n)], dtype=dtype)
        for k in range(1, n + 1):
            top = nash_opt._suffix_top_sums(values, k)
            assert top.shape == (k + 1, n + 1)
            for r in range(k + 1):
                for j in range(n + 1):
                    assert top[r, j] == sum(sorted(values[j:].tolist(), reverse=True)[:r])


def test_oracle_exact_k1_on_a_large_pool_is_the_argmax_of_f_times_g():
    # the bound tables take O(n * k) memory, so C(n, 1) within the
    # default budget runs at any n; small values make ties, which go to
    # the first index
    rng = np.random.default_rng(5)
    f, g = rng.integers(0, 50, size=(2, 200_000))
    inst = BilinearInstance(items=tuple(zip(f.tolist(), g.tolist())), k=1)
    best = int(np.argmax(f * g))
    assert oracle_exact(inst) == OracleResult((best,), int(f[best] * g[best]))


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
    assert HEURISTICS["mpp"](inst) == (0, 1)
    inst3 = BilinearInstance(items=((5, 1), (1, 5), (4, 2), (2, 4)), k=3)
    # third pick is the f-side again: item 2 has the best remaining f
    assert HEURISTICS["mpp"](inst3) == (0, 1, 2)
    f, g = np.array([5.0, 1.0, 4.0, 2.0]), np.array([1.0, 5.0, 2.0, 4.0])
    assert heuristic_mpp(f[None], g[None], 3) == [(0, 1, 2)]


def test_maxsp_takes_top_products():
    inst = BilinearInstance(items=((5, 1), (4, 10), (3, 2), (2, 2)), k=2)
    # products: 5, 40, 6, 4
    assert HEURISTICS["maxsp"](inst) == (1, 2)
    assert heuristic_maxsp(np.array([[5.0, 4.0, 3.0, 2.0]]), np.array([[1.0, 10.0, 2.0, 2.0]]), 2) == [(1, 2)]


def test_greedy_np_hand_trace():
    # first pick has product 40; then {1,0} scores 9*11=99 vs {1,2}'s 7*12=84
    inst = BilinearInstance(items=((5, 1), (4, 10), (3, 2)), k=2)
    chosen = HEURISTICS["greedy_np"](inst)
    assert chosen == (0, 1)
    assert nash_objective(inst, chosen) == 99
    assert heuristic_greedy_np(np.array([[5.0, 4.0, 3.0]]), np.array([[1.0, 10.0, 2.0]]), 2) == [(0, 1)]
    # each row on its own: in the second, the second pick ties,
    # (2 + 1) * 2 == 2 * (2 + 1), and goes to the first index
    f, g = np.array([[5.0, 4.0, 3.0], [2.0, 1.0, 0.0]]), np.array([[1.0, 10.0, 2.0], [2.0, 0.0, 1.0]])
    assert heuristic_greedy_np(f, g, 2) == [(0, 1), (0, 1)]


def test_greedy_np_first_pick_is_best_product():
    rng = random.Random(3)
    for _ in range(30):
        inst = random_instance(rng, n=10, k=1)
        assert HEURISTICS["greedy_np"](inst) == HEURISTICS["maxsp"](inst)


def test_heuristic_random_is_seed_deterministic():
    inst = BilinearInstance(items=tuple((i + 1, i + 2) for i in range(9)), k=4)
    rule = HEURISTICS["random"]
    a = rule(inst, seed=42)
    assert a == rule(inst, seed=42)
    assert a != rule(inst, seed=43) or a != rule(inst, seed=44)
    assert rule(inst, seed="s1") == rule(inst, seed="s1")
    assert len(set(a)) == 4
    assert all(0 <= i < 9 for i in a)
    f, g = nash_opt._as_float_arrays(inst)
    assert heuristic_random(f[None], g[None], 4, [42]) == [a]


def test_heuristic_random_takes_one_seed_per_row():
    f = g = np.ones((2, 5))
    assert heuristic_random(f, g, 3, [1, "x"]) == [
        tuple(sorted(random.Random(s).sample(range(5), 3))) for s in (1, "x")
    ]
    with pytest.raises(ValueError, match="^1 seeds for 2 rows$"):
        heuristic_random(f, g, 3, [1])


def test_column_rules_pick_no_padding():
    # row 0 holds 3 items, below k = 4, then 2 zeros of padding that tie
    # with its own zeros; row 1 holds 5
    f = np.array([[0.0, 2.0, 0.0, 0.0, 0.0], [1.0, 0.0, 3.0, 0.0, 2.0]])
    g = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 4.0, 1.0, 0.0, 1.0]])
    for name, rule in nash_opt.COLUMN_RULES.items():
        def seeds(rows):
            return {"seeds": [3, "x"][rows]} if name == "random" else {}

        alone = [
            rule(f[r : r + 1, :n], g[r : r + 1, :n], 4, **seeds(slice(r, r + 1)))[0]
            for r, n in enumerate((3, 5))
        ]
        assert [len(picks) for picks in alone] == [3, 4], name
        assert rule(f, g, 4, sizes=[3, 5], **seeds(slice(None))) == alone, name
        with pytest.raises(ValueError, match="^1 sizes for 2 rows$"):
            rule(f, g, 4, sizes=[5], **seeds(slice(None)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_greedy_np_picks_no_padding_once_its_f_sum_overflows():
    # picks 0, then 1 (its score inf * 0 is NaN, which argmax takes);
    # then the f-sum is inf and the g-sum 0, so padding would score
    # inf * 0 = NaN above item 2's inf, were padding not taken
    f, g = np.array([[1e308, 1e308, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0, 0.0]])
    assert heuristic_greedy_np(f[:, :3], g[:, :3], 3) == [(0, 1, 2)]
    assert heuristic_greedy_np(f, g, 3, sizes=[3]) == [(0, 1, 2)]


def test_heuristics_call_their_column_rule_by_name_at_call_time(monkeypatch):
    # a wrapper installed over a column rule, as the benchmark's tracer
    # installs one, also sees the calls made through an instance
    inst = BilinearInstance(items=((1, 2), (3, 4), (5, 1)), k=2)
    calls = []
    for name, rule in nash_opt.COLUMN_RULES.items():
        def spy(*args, _rule=rule, _name=name, **kwargs):
            calls.append(_name)
            return _rule(*args, **kwargs)

        monkeypatch.setitem(nash_opt.COLUMN_RULES, name, spy)
    assert list(HEURISTICS) == list(nash_opt.COLUMN_RULES)
    assert HEURISTICS["random"](inst, 0) == HEURISTICS["random"](inst, seed=0)
    for rule in HEURISTICS.values():
        rule(inst)
    assert calls == ["random", "random", "mpp", "maxsp", "greedy_np", "random"]


def test_heuristics_return_sorted_valid_subsets():
    rng = random.Random(5)
    inst = random_instance(rng, n=10, k=4)
    for name, heuristic in HEURISTICS.items():
        chosen = heuristic(inst)
        assert chosen == tuple(sorted(chosen)), name
        assert len(set(chosen)) == inst.k, name


# small ints, ints past float64's 53-bit mantissa, and Fractions
EXACT_VALUES = st.one_of(
    st.integers(0, 50),
    st.integers(0, 2**200),
    st.fractions(min_value=0, max_value=10**6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(EXACT_VALUES, EXACT_VALUES), min_size=1, max_size=12), st.data())
def test_heuristics_pick_on_exact_values_as_on_their_float_images(items, data):
    k = data.draw(st.integers(1, len(items)))
    exact = BilinearInstance(items=tuple(items), k=k)
    image = BilinearInstance(items=tuple((float(f), float(g)) for f, g in items), k=k)
    for got, want in zip(nash_opt._as_float_arrays(exact), nash_opt._as_float_arrays(image)):
        assert got.tolist() == want.tolist()
    for name, heuristic in HEURISTICS.items():
        assert heuristic(exact) == heuristic(image), name


# floats, ints past 2**53, Fractions, bools and the sign of zero
FLOAT_IMAGE_VALUES = st.one_of(
    st.floats(0.0, 1e300),
    st.sampled_from([0.0, -0.0, True, False]),
    st.integers(0, 2**60),
    st.integers(2**1000, 2**1020),
    st.fractions(min_value=0, max_value=10**9),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(FLOAT_IMAGE_VALUES, FLOAT_IMAGE_VALUES), min_size=1, max_size=8))
def test_as_float_arrays_is_the_nested_conversion_property(items):
    got = nash_opt._as_float_arrays(BilinearInstance(items=tuple(items), k=1))
    want = np.array(items, dtype=np.float64).T
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_as_float_arrays_overflows_as_the_nested_conversion():
    items = ((1.0, 2), (10**400, 0))
    with pytest.raises(OverflowError):
        np.array(items, dtype=np.float64)
    with pytest.raises(OverflowError):
        nash_opt._as_float_arrays(BilinearInstance(items=items, k=1))


# repeated values, zeros of both signs, and floats whose products and
# sums round
RULE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300]),
    st.floats(0.0, 1e6),
)


@st.composite
def value_columns(draw):
    n = draw(st.integers(1, 12))
    fs = draw(st.lists(RULE_VALUES, min_size=n, max_size=n))
    gs = draw(st.lists(RULE_VALUES, min_size=n, max_size=n))
    return fs, gs, draw(st.integers(1, n) | st.just(n))


@settings(max_examples=300, deadline=None)
@given(value_columns(), st.integers() | st.text(max_size=4))
def test_heuristics_match_reference_loops_property(columns, seed):
    fs, gs, k = columns
    f, g = np.array(fs), np.array(gs)
    inst = BilinearInstance(items=tuple(zip(fs, gs)), k=k)
    for name, ref in (
        ("mpp", ref_heuristic_mpp),
        ("maxsp", ref_heuristic_maxsp),
        ("greedy_np", ref_heuristic_greedy_np),
    ):
        want = ref(fs, gs, k)
        assert nash_opt.COLUMN_RULES[name](f[None], g[None], k) == [want], name
        assert HEURISTICS[name](inst) == want, name
    want = tuple(sorted(random.Random(seed).sample(range(len(fs)), k)))
    assert heuristic_random(f[None], g[None], k, [seed]) == [want]
    assert HEURISTICS["random"](inst, seed) == want


def test_oracle_dominates_every_heuristic():
    rng = random.Random(1234)
    for _ in range(100):
        inst = random_instance(rng, n=12)
        opt = oracle_exact(inst).value
        for name, heuristic in HEURISTICS.items():
            assert nash_objective(inst, heuristic(inst)) <= opt, name


@st.composite
def small_instances(draw, values, g_values=None, max_n=10):
    """Instances of at most ``max_n`` items drawn from ``values`` (g from
    ``g_values`` when given), any k."""
    n = draw(st.integers(1, max_n))
    pair = st.tuples(values, values if g_values is None else g_values)
    items = draw(st.lists(pair, min_size=n, max_size=n))
    return BilinearInstance(items=tuple(items), k=draw(st.integers(1, n)))


_int_values = st.integers(0, 1000)
_float_values = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
_fraction_values = st.fractions(0, 1000, max_denominator=40)
_big_values = st.integers(2**40, 2**70)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        small_instances(_int_values),
        small_instances(_fraction_values),
        small_instances(_big_values),
        small_instances(_float_values),
    ),
    st.integers(1, 40),
)
def test_oracle_exact_matches_reference_property(inst, chunk):
    # small blocks, so instances this size cut and stack their groups
    with mock.patch.object(nash_opt, "_CHUNK", chunk):
        assert oracle_exact(inst) == ref_oracle_exact(inst)


def test_nash_objective_of_mixed_instance_is_float64():
    # 2**53 + 1 rounds to 2**53 in float64, and 2**53 + 1.0 to 2**53 again
    inst = BilinearInstance(items=((2**53 + 1, 1.0), (1, 1.0)), k=2)
    result = oracle_exact(inst)
    assert result.value == nash_objective(inst, result.indices) == 2.0**54


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        small_instances(_float_values, max_n=12),
        # ints past 2**53 mixed with floats: float64 throughout
        small_instances(_float_values | st.integers(2**53, 2**60), max_n=12),
    )
)
def test_oracle_float_value_is_objective_of_indices_property(inst):
    result = oracle_exact(inst)
    assert result.value == nash_objective(inst, result.indices)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_instances(_int_values), small_instances(_float_values)))
def test_oracle_dominates_every_heuristic_property(inst):
    opt = oracle_exact(inst).value
    for name, heuristic in HEURISTICS.items():
        assert nash_objective(inst, heuristic(inst)) <= opt, name


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
    assert result.value == oracle_exact(inst).value


@settings(max_examples=150, deadline=None)
@given(small_instances(_int_values, _float_values))
def test_oracle_dp_float_g_property(inst):
    result = oracle_dp(inst)
    chosen = result.indices
    assert len(set(chosen)) == inst.k == len(chosen)
    assert all(0 <= i < inst.n for i in chosen)
    assert result.value == oracle_exact(inst).value == nash_objective(inst, chosen)


@st.composite
def reductions(draw):
    """``reduce_ccss`` of a planted yes-instance or of its parity-no
    perturbation: integer f, and g that is a Fraction whenever k does
    not divide twice the target."""
    n = draw(st.integers(1, 12))
    yes = plant_yes_instance(n, draw(st.integers(1, n)), seed=draw(st.integers(0, 2**16)))
    return reduce_ccss(draw(st.sampled_from([yes, perturb_to_no_instance(yes)])))


def _same_result(got, want):
    """Equal indices and values, floats compared bit for bit."""
    if isinstance(got.value, float) or isinstance(want.value, float):
        return got.indices == want.indices and got.value.hex() == want.value.hex()
    return got == want


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        small_instances(_int_values),
        small_instances(_int_values, _float_values),
        small_instances(_int_values, _fraction_values),
        small_instances(_int_values, _big_values),
        reductions(),
    )
)
def test_oracle_dp_matches_reference_property(inst):
    assert _same_result(oracle_dp(inst), ref_oracle_dp(inst))


def test_oracle_dp_refuses_a_table_over_the_budget_before_allocating():
    inst = BilinearInstance(items=((10**12, 1), (1, 1)), k=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"2 x 2 x 1000000000001 = 4000000000004 cells"):
            oracle_dp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # n * (k + 1) * (S + 1) is exactly the budget, then four cells past it
    s = nash_opt.DEFAULT_ENUMERATION_BUDGET // 4 - 1
    assert oracle_dp(BilinearInstance(items=((s, 1), (1, 1)), k=1)) == OracleResult((0,), s)
    with pytest.raises(ValueError, match="exceeds the budget"):
        oracle_dp(BilinearInstance(items=((s + 1, 1), (1, 1)), k=1))


def test_oracle_dp_sizes_its_table_by_f_over_the_gcd():
    # S is 3 * 10**12 in units of 1, but 2 in units of the gcd
    inst = BilinearInstance(items=((10**12, 1), (2 * 10**12, 1)), k=1)
    assert oracle_dp(inst) == ref_oracle_dp(inst) == OracleResult((1,), 2 * 10**12)
    # f-sums past int64, against float and against integer g
    for gs in ((1.5, 0.25, 0.5), (3, 1, 2)):
        inst = BilinearInstance(items=tuple(zip((2**70, 2**71, 3 * 2**70), gs)), k=2)
        assert _same_result(oracle_dp(inst), ref_oracle_dp(inst))
        assert oracle_dp(inst).indices == (0, 2)


def test_oracles_refuse_float_sides_that_can_sum_to_inf():
    inst = BilinearInstance(items=((1, 1e308), (1, 1e308), (1, 0.0)), k=2)
    for oracle in (oracle_exact, oracle_dp):
        with pytest.raises(ValueError, match="2 largest g values can sum to inf"):
            oracle(inst)
    # one of them alone is a finite sum
    assert oracle_dp(BilinearInstance(items=inst.items, k=1)) == OracleResult((0,), 1e308)
    # added right to left these three reach the largest float, left to
    # right inf, and the subset's product against the zero g side is NaN
    top = sys.float_info.max
    ulp = top - math.nextafter(top, 0)
    x, y = top - ulp, 0.6 * ulp
    assert x + (y + y) == top and (x + y) + y == math.inf
    inst = BilinearInstance(items=((x, 0.0), (y, 0.0), (y, 0.0), (1.0, 1.0)), k=3)
    with pytest.raises(ValueError, match="3 largest f values can sum to inf"):
        oracle_exact(inst)


def test_oracles_hold_a_sum_past_int64_against_a_zero_side():
    # each product of sums is zero, but one side's sum is past int64
    g_big = BilinearInstance(items=((0, 2**70), (0, 1)), k=1)
    f_big = BilinearInstance(items=((2**70, 0), (1, 0)), k=1)
    assert oracle_exact(g_big) == oracle_exact(f_big) == OracleResult((0,), 0)
    assert oracle_dp(g_big) == ref_oracle_dp(g_big) == OracleResult((0,), 0)


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
    # five planted values in [20, 40]
    assert 5 * 20 <= inst.target <= 5 * 40
