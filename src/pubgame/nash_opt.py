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
on two float64 value matrices (f, g) with one row per week and a cap k,
and returns each row's picks; a row may be zero-padded past its items,
given each row's item count.  ``COLUMN_RULES`` names them for the
full-information loop, which calls each once per band of weeks whose
pool sizes share a bit length, and ``HEURISTICS`` runs each on the
float64 image of a :class:`BilinearInstance` as a one-row matrix.

Exactness: both oracles read the same value columns.  Integer and
Fraction-valued instances are evaluated in exact arithmetic (Fractions
are rescaled to integers internally); any other instance in float64,
each sum added left to right in index order, and one where k of the f,
or k of the g, can sum to inf is refused with a ``ValueError``.
:func:`oracle_exact` enumerates the k-subsets in lexicographic order,
in NumPy blocks of at most ``_CHUNK`` subsets, and skips every prefix
whose separable bound (the prefix's sums plus the largest values left
on each side, multiplied) is strictly below the best value found so
far.  No optimal subset is skipped, so ties still go to the
lexicographically smallest index tuple; the budget still caps C(n, k),
not the number of subsets scored.  :func:`oracle_dp` fills a table of
the best g-sum per (size, f-sum) for sizes up to k and f-sums up to S,
the sum of the k largest f, and keeps one bool cell per item and table
cell for its walk back; those n * (k + 1) * (S + 1) cells are capped by
the same default budget.
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


def _outward_slack(k: int) -> float:
    """The factor that lifts a float64 bound sum, a prefix's sum plus a
    top-r entry of :func:`_suffix_top_sums`, above every left-to-right
    sum of the prefix and r more values; derived in
    :func:`_iter_combo_chunks`."""
    return 1 + 4 * (k + 1) * 2.0**-53


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
    slack = _outward_slack(k) if fs.dtype.kind == "f" else None
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
    ``nash_objective`` of the indices.  A float instance where k of the
    f, or k of the g, can sum to inf is refused with a ``ValueError``.
    C(n, k), not the number scored, must not exceed ``budget``; pass a
    larger budget explicitly to push past the default.
    """
    n, k = instance.n, instance.k
    count = math.comb(n, k)
    if count > budget:
        raise EnumerationBudgetError(n, k, count, budget)

    fs, gs, scale = _columns(instance)

    # the incumbent: the top k by f * g, valued as the enumeration values
    # a subset, each sum added in index order from zero in the columns' dtype
    f, g = np.zeros(1, fs.dtype), np.zeros(1, gs.dtype)
    for i in sorted(top_k(fs * gs, k).tolist()):
        f, g = f + fs[i], g + gs[i]
    incumbent = (f * g)[0]
    best_val, rank = None, 0
    for block in _iter_combo_chunks(fs, gs, k, incumbent):
        # the first maximum of a block, and a strict > across blocks,
        # keep the lexicographically smallest optimal subset
        i = int(np.argmax(block.value))
        v = block.value[i]
        if best_val is None or v > best_val:
            best_val, rank = v, int(block.rank[i])
    combo, c = [], 0
    for left in range(k, 0, -1):  # unrank: skip subsets whose next index is c
        while rank >= (after := math.comb(n - 1 - c, left - 1)):
            rank -= after
            c += 1
        combo.append(c)
        c += 1

    return OracleResult(tuple(combo), _value(best_val, scale))


def oracle_dp(instance: BilinearInstance) -> OracleResult:
    """Optimal k-subset by dynamic programming over integer f-sums.

    Requires integer f values.  ``best[size, F]`` is the largest g-sum
    of a subset of the items seen so far with ``size`` items and f-sum
    F·d, d the gcd of all f, for sizes up to k and F up to S, the sum
    of the k largest f / d.
    Each item updates the table with one shifted comparison and records
    the cells it strictly improved in a bool table of n * (k + 1) *
    (S + 1) cells, which the walk back reads.  That table must not
    exceed ``DEFAULT_ENUMERATION_BUDGET`` cells; a larger one is
    refused with a ``ValueError`` before anything is allocated.

    The g column is the one :func:`oracle_exact` uses: exact for integer
    and Fraction values, float64 for any other instance (refused when
    k of its g can sum to inf), each g-sum added in index order.  So
    the value equals the enumeration oracle's; the index tuple may
    differ on ties.  Among optimal f-sums the smallest wins, and the
    walk back skips a late item wherever the cell holds without it.
    """
    n, k, fs = instance.n, instance.k, instance.fs
    for i, f in enumerate(fs):
        if not isinstance(f, int):
            raise ValueError(f"item {i}: DP oracle needs integer f values, got {f!r}")
    # the table counts f-sums in units of the gcd of all f
    d = math.gcd(*fs) or 1
    fs = [f // d for f in fs]
    s = sum(sorted(fs)[-k:])
    cells = n * (k + 1) * (s + 1)
    if cells > DEFAULT_ENUMERATION_BUDGET:
        raise ValueError(
            f"DP table of {n} x {k + 1} x {s + 1} = {cells} cells exceeds "
            f"the budget of {DEFAULT_ENUMERATION_BUDGET}"
        )
    _, gs, scale = _columns(instance)

    # an unreachable cell holds a value below every g-sum, and stays below
    # zero after the at most k additions a cell's chain makes: -inf in
    # float64, and for integers one less than minus the k largest g's sum
    unreachable = -math.inf if scale is None else -1 - np.sort(gs)[n - k :].sum()
    best = np.full((k + 1, s + 1), unreachable, dtype=gs.dtype)
    best[0, 0] = 0
    took = np.zeros((n, k + 1, s + 1), dtype=bool)
    for i, (f, g) in enumerate(zip(fs, gs)):
        # the candidates read the table before this item's writes
        cur, improved = best[1:, f:], took[i, 1:, f:]
        cand = best[:-1, : s + 1 - f] + g
        np.greater(cand, cur, out=improved)
        np.copyto(cur, cand, where=improved)

    reachable = np.flatnonzero(best[k] >= 0)
    # an f-sum that can pass int64 is held as a Python int
    f_sums = reachable.astype(np.int64 if s * d < _INT64_SAFE else object) * d
    values = f_sums * best[k, reachable]
    j = int(np.argmax(values))  # the first maximum: the smallest f-sum
    chosen, size, f_sum = [], k, int(reachable[j])
    for i in reversed(range(n)):
        if took[i, size, f_sum]:
            chosen.append(i)
            size, f_sum = size - 1, f_sum - fs[i]
    assert (size, f_sum) == (0, 0)
    return OracleResult(tuple(reversed(chosen)), _value(values[j], scale))


def _columns(instance: BilinearInstance) -> tuple[np.ndarray, np.ndarray, int | None]:
    """The value columns fs and gs in one dtype, as both oracles add them,
    and the scale that divides a product of their sums back.

    Integer and Fraction instances are rescaled to exact integers, held
    in int64 while no sum of k values, nor a product of two such sums,
    can reach 2**62, and in Python integers past it.  Any other instance
    is float64, with scale None, and is refused when k of its f, or k of
    its g, can sum to inf: a subset with such a sum against a zero sum
    on the other side has a NaN product, not a value.  The test lifts
    the top-k sum by the slack that bounds every order of addition, so
    no subset that passes it overflows.
    """
    k = instance.k
    if _is_exact(instance):
        sf, scale_f = _scaled_integer_values(instance.fs)
        sg, scale_g = _scaled_integer_values(instance.gs)
        top_f, top_g = sum(sorted(sf)[-k:]), sum(sorted(sg)[-k:])
        fits = max(top_f, 1) * max(top_g, 1) < _INT64_SAFE
        fs = np.array(sf, dtype=np.int64 if fits else object)
        return fs, np.array(sg, dtype=fs.dtype), scale_f * scale_g
    fs, gs = _as_float_arrays(instance)
    for side, column in (("f", fs), ("g", gs)):
        if math.isinf(float(_suffix_top_sums(column, k)[k, 0]) * _outward_slack(k)):
            raise ValueError(f"the {k} largest {side} values can sum to inf in float64")
    return fs, gs, None


def _value(v, scale: int | None):
    """A product of column sums as the instance's value: a float for
    float64 columns, else an int, or a Fraction when scaled."""
    if scale is None:
        return float(v)
    v = int(v)
    return v if scale == 1 else Fraction(v, scale)


def _as_float_arrays(instance: BilinearInstance) -> np.ndarray:
    """The rows fs and gs in float64, rounded as float() rounds ints, big
    ints and Fractions."""
    n = instance.n
    flat = np.fromiter(chain.from_iterable(instance.items), np.float64, 2 * n)
    return flat.reshape(n, 2).T


def top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest keys along the last axis, largest
    first; ties keep position order.  Every ranking in the game uses this
    rule: the keys are finite or infinite, never NaN, so the order is
    that of sorting positions by (-key, position)."""
    return np.argsort(-keys, axis=-1, kind="stable")[..., :k]


def _ascending(positions: np.ndarray, caps: Sequence[int]) -> list[tuple[int, ...]]:
    """The first ``caps[r]`` positions of each row r of a position
    matrix, as an ascending tuple."""
    return [tuple(sorted(row[:c])) for row, c in zip(positions.tolist(), caps)]


def _caps(f: np.ndarray, k: int, sizes: Sequence[int] | None) -> tuple[list[int], list[int]]:
    """Each row's item count, its length unless ``sizes`` gives one per
    row, and its cap min(k, count)."""
    sizes = [f.shape[1]] * len(f) if sizes is None else list(sizes)
    if len(sizes) != len(f):
        raise ValueError(f"{len(sizes)} sizes for {len(f)} rows")
    return sizes, [min(k, n) for n in sizes]


def heuristic_mpp(
    f: np.ndarray, g: np.ndarray, k: int, *, sizes: Sequence[int] | None = None
) -> list[tuple[int, ...]]:
    """Alternating picks, row by row: each side in turn takes its own
    argmax item among those not yet taken.

    The proposer side (f) moves first; ties go to the lowest index.  A
    side's next pick is the first untaken position of its own
    :func:`top_k` order, ranked for all rows at once.  Each side makes
    at most ceil(k/2) picks and passes over at most floor(k/2) items the
    other side took, so the first k positions of each order suffice.
    """
    _, caps = _caps(f, k, sizes)
    width = max(caps, default=0)
    picks = []
    for c, *orders in zip(caps, top_k(f, width).tolist(), top_k(g, width).tolist()):
        cursors = [0, 0]
        taken: set[int] = set()
        for turn in range(c):
            side = turn % 2
            order, at = orders[side], cursors[side]
            while order[at] in taken:
                at += 1
            taken.add(order[at])
            cursors[side] = at + 1
        picks.append(tuple(sorted(taken)))
    return picks


def heuristic_maxsp(
    f: np.ndarray, g: np.ndarray, k: int, *, sizes: Sequence[int] | None = None
) -> list[tuple[int, ...]]:
    """Top k items of each row by the per-item value product f_i * g_i."""
    _, caps = _caps(f, k, sizes)
    return _ascending(top_k(f * g, max(caps, default=0)), caps)


def heuristic_greedy_np(
    f: np.ndarray, g: np.ndarray, k: int, *, sizes: Sequence[int] | None = None
) -> list[tuple[int, ...]]:
    """Greedy Nash-product ascent: each row repeatedly adds the item that
    yields the largest objective after insertion, the first index on
    ties.

    The steps run over all rows at once, a row's padding counting as
    taken from the start.  The first pick coincides with MaxSP's best
    item since both sums start at zero.  Each row's sums add its picked
    values left to right from 0.0, in float64 as a row of its own would.
    A row whose cap is below the step count keeps stepping once it is
    full, its scores all -1 and its argmax position 0, and those picks
    are dropped.
    """
    sizes, caps = _caps(f, k, sizes)
    rows = np.arange(len(f))
    f_sum, g_sum = np.zeros(len(f)), np.zeros(len(f))
    scores, g_after = np.empty(f.shape), np.empty(f.shape)
    taken = np.arange(f.shape[1]) >= np.array(sizes, dtype=np.intp)[:, None]
    chosen = np.empty((max(caps, default=0), len(f)), dtype=np.intp)  # step by row
    for picked in chosen:
        np.add(f, f_sum[:, None], scores)
        np.add(g, g_sum[:, None], g_after)
        np.multiply(scores, g_after, scores)
        # below every score: values, and so products, are never negative
        np.putmask(scores, taken, -1.0)
        np.argmax(scores, axis=1, out=picked)
        taken[rows, picked] = True
        f_sum += f[rows, picked]
        g_sum += g[rows, picked]
    return _ascending(chosen.T, caps)


def heuristic_random(
    f: np.ndarray,
    g: np.ndarray,
    k: int,
    seeds: Sequence[int | str] | None = None,
    *,
    sizes: Sequence[int] | None = None,
) -> list[tuple[int, ...]]:
    """A uniform random k-subset of each row's items, from a generator
    seeded with that row's entry of ``seeds``, 0 for every row by
    default; the values take no part."""
    sizes, caps = _caps(f, k, sizes)
    if seeds is None:
        seeds = [0] * len(f)
    if len(seeds) != len(f):
        raise ValueError(f"{len(seeds)} seeds for {len(f)} rows")
    return [
        tuple(sorted(random.Random(seed).sample(range(n), c)))
        for seed, n, c in zip(seeds, sizes, caps)
    ]


# The rules above by heuristic name, as the full-information loop runs
# them: each takes two float64 value matrices of one shape, one row per
# week, f for the proposer and g for the curator, and a cap k, and
# returns each row's ascending positions, min(k, n) of a row of n items;
# random also takes one seed per row.  Given ``sizes``, row r holds its
# items in its first sizes[r] positions and zeros after them, and no
# rule picks a padding position: greedy counts padding as taken, and
# in the other rankings a zero key ranks after every item of its row,
# since keys are never negative and ties keep position order.
COLUMN_RULES = {
    "mpp": heuristic_mpp,
    "maxsp": heuristic_maxsp,
    "greedy_np": heuristic_greedy_np,
    "random": heuristic_random,
}


def _on_instance(name: str):
    """The column rule ``name`` on the float64 image of a BilinearInstance
    of any value type, as a one-row matrix, with random's seed, if one
    is given, as that row's.  It looks the rule up at call time, so a
    wrapper installed over a column rule also sees the calls made
    through an instance."""

    def rule(instance: BilinearInstance, seed: int | str | None = None) -> tuple[int, ...]:
        f, g = _as_float_arrays(instance)
        seeds = () if seed is None else ([seed],)
        return COLUMN_RULES[name](f[None], g[None], instance.k, *seeds)[0]

    return rule


HEURISTICS = {name: _on_instance(name) for name in COLUMN_RULES}


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


def decide_ccss(instance: CcssInstance) -> bool:
    """Decide subset sum exactly through the reduction and the oracle."""
    result = oracle_exact(reduce_ccss(instance))
    return result.value == instance.target * instance.target


# the range of a planted instance's planted values
PLANTED_LO, PLANTED_HI = 20, 40


def plant_yes_instance(n: int, k: int, seed: int) -> CcssInstance:
    """Random instance with a planted solution: k even values in
    [PLANTED_LO, PLANTED_HI] = [20, 40] sum to the target, padded with
    even decoys that keep the reduction feasible."""
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    rng = random.Random(seed)
    planted = [2 * rng.randrange(PLANTED_LO // 2, PLANTED_HI // 2 + 1) for _ in range(k)]
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
