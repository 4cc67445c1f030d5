"""Cardinality-constrained Nash-product selection.

Given items with per-player values (f_i, g_i) and a size cap k, the
problem is to pick a k-subset S maximizing the Nash product

    (sum of f over S) * (sum of g over S).

The problem is NP-hard: :func:`reduce_ccss` embeds cardinality-
constrained subset sum into it, which also serves as a generator of
test instances with known answers.  :func:`oracle_exact` solves small
instances by enumeration, :func:`oracle_dp` by dynamic programming over
integer f-sums; the ``heuristic_*`` functions are the polynomial-time
selection rules the simulator uses at scale.  Each rule is written once,
on two float64 value columns (f, g) and a cap k; ``COLUMN_RULES`` names
them for the full-information loop, and ``HEURISTICS`` runs each on the
float64 image of a :class:`BilinearInstance`.

Exactness: integer and Fraction-valued instances are evaluated in exact
arithmetic (Fractions are rescaled to integers internally); float
instances in float64, each sum added left to right in index order.
:func:`oracle_exact` enumerates the k-subsets in lexicographic order,
in NumPy blocks of at most ``_CHUNK`` subsets, and skips every prefix
whose separable bound (the prefix's sums plus the largest values left
on each side, multiplied) is strictly below the best value found so
far.  No optimal subset is skipped, so ties still go to the
lexicographically smallest index tuple; the budget still caps C(n, k),
not the number of subsets scored.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import EnumerationBudgetError, ReductionInfeasibleError

DEFAULT_ENUMERATION_BUDGET = 5_000_000

_CHUNK = 200_000
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class BilinearInstance:
    """Items with finite nonnegative per-player values and a selection cap k."""

    items: tuple[tuple[float, float], ...]
    k: int

    def __post_init__(self) -> None:
        n = len(self.items)
        if n == 0:
            raise ValueError("instance has no items")
        if not 1 <= self.k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {self.k}")
        inf = math.inf
        for i, (f, g) in enumerate(self.items):
            # chained comparisons also reject NaN; ints, big ints and
            # Fractions compare with inf exactly
            if not (0 <= f < inf and 0 <= g < inf):
                raise ValueError(
                    f"item {i}: values must be finite and nonnegative, got {f}, {g}"
                )

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def fs(self) -> tuple[float, ...]:
        return tuple(f for f, _ in self.items)

    @property
    def gs(self) -> tuple[float, ...]:
        return tuple(g for _, g in self.items)


@dataclass(frozen=True)
class OracleResult:
    indices: tuple[int, ...]
    value: float


def nash_objective(instance: BilinearInstance, indices: Iterable[int]) -> float:
    """Product of the two players' value sums over the chosen indices.

    Exact for integer and Fraction instances; an instance holding any
    other value is evaluated in float64, each sum added left to right in
    index order, as :func:`oracle_exact` evaluates it.
    """
    chosen = list(indices)
    if len(set(chosen)) != len(chosen):
        raise ValueError("duplicate indices")
    if len(chosen) > instance.k:
        raise ValueError(f"selection of size {len(chosen)} exceeds k={instance.k}")
    for i in chosen:
        if not 0 <= i < instance.n:
            raise IndexError(f"index {i} out of range for {instance.n} items")
    items = [instance.items[i] for i in sorted(chosen)]
    if not _is_exact(instance):
        items = [(float(f), float(g)) for f, g in items]
    # a loop, not sum(): sum() of floats compensates from Python 3.12
    f_sum = g_sum = 0
    for f, g in items:
        f_sum += f
        g_sum += g
    return f_sum * g_sum


def _is_exact(instance: BilinearInstance) -> bool:
    """Whether every value is an int or a Fraction; one value of any
    other kind sends the whole instance to float64."""
    return all(isinstance(v, (int, Fraction)) for item in instance.items for v in item)


def _scaled_integer_values(values: Sequence) -> tuple[list[int], int]:
    """Rescale int/Fraction values to exact integers by their common
    denominator."""
    scale = 1
    for v in values:
        if isinstance(v, Fraction):
            scale = scale * v.denominator // math.gcd(scale, v.denominator)
    return [int(v * scale) for v in values], scale


def _suffix_top_sums(values: np.ndarray, k: int) -> np.ndarray:
    """``top[r, j]``: the sum of the r largest values at positions j and
    after, for r up to k, in O(n * k).  Where fewer than r positions
    remain the entry is a smaller sum; no prefix reads it."""
    n = len(values)
    top = np.zeros((k + 1, n + 1), dtype=values.dtype)
    # the r largest from j on: the best first pick j' >= j plus the r - 1
    # largest after j'; column n, past the last position, stays zero
    with np.errstate(over="ignore"):  # an inf sum only keeps prefixes
        for r in range(1, k + 1):
            top[r, :n] = np.maximum.accumulate((values + top[r - 1, 1:])[::-1])[::-1]
    return top


@dataclass(frozen=True)
class _Block:
    """Subsets scored together: each one's Nash product and its rank in
    the lexicographic order of all k-subsets."""

    value: np.ndarray
    rank: np.ndarray

    def __len__(self) -> int:
        """The number of subsets scored in the block."""
        return len(self.value)


def _iter_combo_chunks(fs: np.ndarray, gs: np.ndarray, k: int, incumbent=None):
    """Nash products of the k-subsets with their lexicographic ranks, in
    lexicographic order, in blocks (:class:`_Block`) of at most
    ``_CHUNK`` subsets: a stack of groups of prefixes (last index,
    f-sum, g-sum, rank of the first completion), each pruned, grown by
    one index or cut to fit the block.

    Without an ``incumbent`` every subset is scored.  With one (the
    value of some k-subset, as this function scores it), a prefix is
    dropped when the bound below is strictly under the largest value
    yet seen, the incumbent included; so no subset that attains the
    maximum is dropped.  A prefix with sums (F, G), r picks left and
    last index ``last`` is bounded by (F + the r largest f after
    ``last``) * (G + the r largest g after ``last``).
    """
    n = len(fs)
    # below[m][r]: completions of an m-prefix with r indices after its last
    below = [np.array([math.comb(r, k - m) for r in range(n + 1)]) for m in range(k + 1)]
    top_f, top_g = _suffix_top_sums(fs, k), _suffix_top_sums(gs, k)
    # Float sums round, so the bound's sums get an outward slack.  A
    # completion adds r <= k nonnegative terms to F left to right, each
    # addition rounding up by at most a factor (1 + u), u = 2**-53.  The
    # table's top-r entry is at least its chain through the exact r
    # largest, whose r - 1 additions each round down by at most a factor
    # (1 - u), and F + it rounds down once more.  So a completion's f-sum is at most
    # fl(F + top) * ((1 + u) / (1 - u))**k <= fl(F + top) * (1 + 3ku)
    # for any ku below 0.01, and a factor 1 + 4(k + 1)u covers that and
    # its own rounding.  (Where F + top is below 2**-1022 every one of
    # these sums is exact.)  The scaled sums then bound every
    # completion's sums as floats, and rounding is monotone, so their
    # product bounds every completion's product.  An inf sum against a
    # zero one gives a NaN bound, and the test ``not (bound < best)``
    # keeps it.  Integer sums are exact, and in int64 the bound never
    # exceeds the product of the top-k sums, which the caller keeps
    # below 2**62.
    slack = 1 + 4 * (k + 1) * 2.0**-53 if fs.dtype.kind == "f" else None
    best = incumbent
    stack = [
        (0, np.array([-1]), np.zeros(1, fs.dtype), np.zeros(1, gs.dtype), np.zeros(1, np.int64))
    ]
    while stack:
        m, last, f, g, rank = stack.pop()
        if best is not None and m < k:
            with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN keep
                f_bound, g_bound = f + top_f[k - m, last + 1], g + top_g[k - m, last + 1]
                if slack is not None:
                    f_bound *= slack
                    g_bound *= slack
                keep = ~(f_bound * g_bound < best)
            if not keep.all():
                last, f, g, rank = last[keep], f[keep], g[keep], rank[keep]
                if not len(last):
                    continue
        sizes = below[m][n - 1 - last]
        if len(last) > 1 and sizes.sum() > _CHUNK:
            cut = max(1, int(np.searchsorted(np.cumsum(sizes), _CHUNK, side="right")))
            stack.append((m, last[cut:], f[cut:], g[cut:], rank[cut:]))
            stack.append((m, last[:cut], f[:cut], g[:cut], rank[:cut]))
        elif m == k:
            block = _Block(f * g, rank)
            if best is not None and (top := block.value.max()) > best:
                best = top
            yield block
        else:
            # every later index that leaves room for the rest of the subset
            counts = n - k + m - last
            parent = np.repeat(np.arange(len(last)), counts)
            child = np.arange(len(parent)) + (last + 1 + counts - np.cumsum(counts))[parent]
            # a child's first completion follows those of its earlier siblings
            child_rank = (rank + sizes)[parent] - below[m][::-1][child]
            stack.append((m + 1, child, f[parent] + fs[child], g[parent] + gs[child], child_rank))


def oracle_exact(
    instance: BilinearInstance,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> OracleResult:
    """Optimal k-subset by enumeration, pruned by a separable bound.

    Subsets are scored in lexicographic order, in blocks of at most
    ``_CHUNK`` rows that bound memory.  The incumbent starts at the
    value of the top k items by f * g and rises with each block's
    maximum; a prefix whose bound (see :func:`_iter_combo_chunks`) is
    strictly below it is not extended, so no optimal subset is skipped
    and ties resolve to the lexicographically smallest index tuple.
    Sums are added left to right, so a float value equals
    ``nash_objective`` of the indices; a NaN product (an inf sum
    against a zero one) wins as it would in one NumPy argmax over every
    subset.  C(n, k), not the number scored, must not exceed
    ``budget``; pass a larger budget explicitly to push past the
    default.
    """
    n, k = instance.n, instance.k
    count = math.comb(n, k)
    if count > budget:
        raise EnumerationBudgetError(n, k, count, budget)

    if _is_exact(instance):
        sf, scale_f = _scaled_integer_values(instance.fs)
        sg, scale_g = _scaled_integer_values(instance.gs)
        scale = scale_f * scale_g
        # int64 while no product can reach 2**62, Python integers past it
        fits = sum(sorted(sf)[-k:]) * sum(sorted(sg)[-k:]) < _INT64_SAFE
        fs = np.array(sf, dtype=np.int64 if fits else object)
        gs = np.array(sg, dtype=fs.dtype)
    else:
        scale = None
        fs, gs = _as_float_arrays(instance)

    # the incumbent: the top k by f * g, valued as the enumeration values
    # a subset, each sum added in index order from zero in the columns' dtype
    f, g = np.zeros(1, fs.dtype), np.zeros(1, gs.dtype)
    for i in sorted(top_k(fs * gs, k).tolist()):
        f, g = f + fs[i], g + gs[i]
    incumbent = (f * g)[0]
    best_val, rank = None, 0
    for block in _iter_combo_chunks(fs, gs, k, incumbent):
        # the first maximum of a block, and a strict > across blocks,
        # keep the lexicographically smallest optimal subset; the first
        # NaN, which argmax takes over any number, wins the same way
        i = int(np.argmax(block.value))
        v = block.value[i]
        if best_val is None or v > best_val or (v != v and best_val == best_val):
            best_val, rank = v, int(block.rank[i])
    combo, c = [], 0
    for left in range(k, 0, -1):  # unrank: skip subsets whose next index is c
        while rank >= (after := math.comb(n - 1 - c, left - 1)):
            rank -= after
            c += 1
        combo.append(c)
        c += 1

    if scale is None:
        return OracleResult(tuple(combo), float(best_val))
    val = int(best_val)
    return OracleResult(tuple(combo), val if scale == 1 else Fraction(val, scale))


def oracle_dp(instance: BilinearInstance) -> OracleResult:
    """Optimal k-subset by dynamic programming over integer f-sums.

    Requires integer f values.  State: (selected count, f-sum) mapped to
    the best attainable g-sum; pseudo-polynomial in sum(f).  Both
    oracles add float g in index order, so the returned value equals
    the enumeration oracle's exactly (for float g, while f-sums stay
    below 2**53).  The index tuple may differ on ties.
    """
    fs, gs, k = instance.fs, instance.gs, instance.k
    for i, f in enumerate(fs):
        if not isinstance(f, int):
            raise ValueError(f"item {i}: DP oracle needs integer f values, got {f!r}")

    base = {(0, 0): 0}
    layers: list[dict[tuple[int, int], float]] = []
    dp = base
    for f, g in instance.items:
        new = dict(dp)
        for (size, f_sum), g_best in dp.items():
            if size == k:
                continue
            key = (size + 1, f_sum + f)
            cand = g_best + g
            cur = new.get(key)
            if cur is None or cand > cur:
                new[key] = cand
        layers.append(new)
        dp = new

    best_val = None
    best_state = None
    for (size, f_sum), g_best in dp.items():
        if size != k:
            continue
        v = f_sum * g_best
        if best_val is None or v > best_val or (v == best_val and f_sum < best_state[1]):
            best_val = v
            best_state = (size, f_sum, g_best)
    assert best_state is not None

    # walk back, preferring to skip late items so early indices stay chosen
    chosen: list[int] = []
    size, f_sum, g_best = best_state
    for i in reversed(range(instance.n)):
        prev = layers[i - 1] if i > 0 else base
        if prev.get((size, f_sum)) == g_best:
            continue
        chosen.append(i)
        size, f_sum = size - 1, f_sum - fs[i]
        # read the g-sum from the layer before: with float g, g_best - g
        # need not undo the addition that reached g_best
        g_best = prev[(size, f_sum)]
    assert (size, f_sum) == (0, 0)
    return OracleResult(tuple(reversed(chosen)), best_val)


def _as_float_arrays(instance: BilinearInstance) -> np.ndarray:
    """The rows fs and gs in float64, rounded as float() rounds ints, big
    ints and Fractions."""
    n = instance.n
    flat = np.fromiter(chain.from_iterable(instance.items), np.float64, 2 * n)
    return flat.reshape(n, 2).T


def top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest keys, largest first; ties keep position
    order.  Every ranking in the game uses this rule: the keys are finite
    or infinite, never NaN, so the order is that of sorting positions by
    (-key, position)."""
    return np.argsort(-keys, kind="stable")[:k]


def heuristic_mpp(f: np.ndarray, g: np.ndarray, k: int) -> tuple[int, ...]:
    """Alternating picks: each side in turn takes its own argmax item
    among those not yet taken.

    The proposer side (f) moves first; ties go to the lowest index.  A
    side's next pick is the first untaken position of its own
    :func:`top_k` order.  Each side makes at most ceil(k/2) picks and
    passes over at most floor(k/2) items the other side took, so the
    first k positions of each order suffice.
    """
    orders = (top_k(f, k).tolist(), top_k(g, k).tolist())
    cursors = [0, 0]
    taken: set[int] = set()
    for turn in range(k):
        side = turn % 2
        order, c = orders[side], cursors[side]
        while order[c] in taken:
            c += 1
        taken.add(order[c])
        cursors[side] = c + 1
    return tuple(sorted(taken))


def heuristic_maxsp(f: np.ndarray, g: np.ndarray, k: int) -> tuple[int, ...]:
    """Top k items by the per-item value product f_i * g_i."""
    return tuple(sorted(top_k(f * g, k).tolist()))


def heuristic_greedy_np(f: np.ndarray, g: np.ndarray, k: int) -> tuple[int, ...]:
    """Greedy Nash-product ascent: repeatedly add the item that yields
    the largest objective after insertion, the first index on ties.

    The first pick coincides with MaxSP's best item since both sums
    start at zero.  Each sum adds the picked values left to right from
    0.0.
    """
    fs, gs = f.tolist(), g.tolist()
    n = len(fs)
    scores, g_after = np.empty(n), np.empty(n)
    taken = np.zeros(n, dtype=bool)
    chosen: list[int] = []
    f_sum = g_sum = 0.0
    for _ in range(k):
        np.add(f, f_sum, scores)
        np.add(g, g_sum, g_after)
        np.multiply(scores, g_after, scores)
        # below every score: values, and so products, are never negative
        np.putmask(scores, taken, -1.0)
        i = int(scores.argmax())
        taken[i] = True
        chosen.append(i)
        f_sum += fs[i]
        g_sum += gs[i]
    return tuple(sorted(chosen))


def heuristic_random(
    f: np.ndarray, g: np.ndarray, k: int, seed: int | str = 0
) -> tuple[int, ...]:
    """Uniform random k-subset of the len(f) items from a seeded
    generator; the values take no part."""
    return tuple(sorted(random.Random(seed).sample(range(len(f)), k)))


# The rules above take two float64 value columns, f for the proposer and
# g for the curator, and a cap k at most their length; they return
# ascending positions.  The entries below take a BilinearInstance of any
# value type, and run the rule on its float64 image.  Each names its rule
# at call time, so a wrapper installed on a rule's module name also sees
# the calls made through an instance.
HEURISTICS = {
    "mpp": lambda instance: heuristic_mpp(*_as_float_arrays(instance), instance.k),
    "maxsp": lambda instance: heuristic_maxsp(*_as_float_arrays(instance), instance.k),
    "greedy_np": lambda instance: heuristic_greedy_np(
        *_as_float_arrays(instance), instance.k
    ),
    "random": lambda instance, seed=0: heuristic_random(
        *_as_float_arrays(instance), instance.k, seed
    ),
}

# the column rules by heuristic name, as the full-information loop runs them
COLUMN_RULES = {
    "mpp": heuristic_mpp,
    "maxsp": heuristic_maxsp,
    "greedy_np": heuristic_greedy_np,
    "random": heuristic_random,
}


@dataclass(frozen=True)
class CcssInstance:
    """Cardinality-constrained subset sum: is there a k-subset of
    ``values`` summing exactly to ``target``?"""

    values: tuple[int, ...]
    target: int
    k: int

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("no values")
        if not 1 <= self.k <= len(self.values):
            raise ValueError(f"k must lie in [1, {len(self.values)}], got {self.k}")
        if self.target < 1:
            raise ValueError(f"target must be >= 1, got {self.target}")
        for i, a in enumerate(self.values):
            if not isinstance(a, int) or a < 1:
                raise ValueError(f"value {i}: must be a positive integer, got {a!r}")


def reduce_ccss(instance: CcssInstance) -> BilinearInstance:
    """Embed subset sum into Nash-product selection.

    With M = 2*target/k, map value a_i to the item (a_i, M - a_i).  A
    k-subset with value sum A scores A*(k*M - A), which peaks uniquely
    at A = target with value target**2; so the subset-sum instance is a
    yes-instance iff the selection optimum equals target**2.  M is kept
    as an exact Fraction when 2*target is not divisible by k.
    """
    two_t = 2 * instance.target
    for i, a in enumerate(instance.values):
        if a * instance.k > two_t:
            raise ReductionInfeasibleError(
                f"value {a} at position {i} exceeds 2*target/k = "
                f"{two_t}/{instance.k}; its mirrored value would be negative"
            )
    if two_t % instance.k == 0:
        m = two_t // instance.k
    else:
        m = Fraction(two_t, instance.k)
    items = tuple((a, m - a) for a in instance.values)
    return BilinearInstance(items=items, k=instance.k)


def decide_ccss(
    instance: CcssInstance, *, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> bool:
    """Decide subset sum exactly through the reduction and the oracle."""
    result = oracle_exact(reduce_ccss(instance), budget=budget)
    return result.value == instance.target * instance.target


def plant_yes_instance(
    n: int, k: int, seed: int, *, lo: int = 20, hi: int = 40
) -> CcssInstance:
    """Random instance with a planted solution: k even values in
    [lo, hi] sum to the target, padded with even decoys that keep the
    reduction feasible."""
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if lo < 2 or hi < lo:
        raise ValueError("need 2 <= lo <= hi")
    rng = random.Random(seed)
    planted = [2 * rng.randrange(lo // 2, hi // 2 + 1) for _ in range(k)]
    target = sum(planted)
    cap = (2 * target) // k
    decoys = [2 * rng.randrange(1, cap // 2 + 1) for _ in range(n - k)]
    values = planted + decoys
    rng.shuffle(values)
    return CcssInstance(tuple(values), target, k)


def perturb_to_no_instance(instance: CcssInstance) -> CcssInstance:
    """Shift an all-even instance's target by one: the odd target is
    unreachable by any subset of even values, a parity certificate that
    the perturbed instance is a no-instance."""
    if any(a % 2 for a in instance.values):
        raise ValueError("parity perturbation needs all-even values")
    if instance.target % 2:
        raise ValueError("parity perturbation needs an even target")
    return CcssInstance(instance.values, instance.target + 1, instance.k)
