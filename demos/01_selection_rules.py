"""Compare the three selection rules against the exact oracle.

Builds a small batch of (proposer value, curator value) pairs, asks each
rule to pick k of them, and prints the product-of-sums objective next to
the exact optimum so the gap is visible per rule.
"""

import random

from pubgame.nash_opt import (
    BilinearInstance,
    HEURISTICS,
    nash_objective,
    oracle_exact,
)

N, K, SEED = 12, 4, 7


def main() -> None:
    rng = random.Random(SEED)
    items = tuple((rng.randint(1, 50), rng.randint(1, 50)) for _ in range(N))
    instance = BilinearInstance(items=items, k=K)

    print(f"{N} candidates, pick {K}; items (proposer, curator):")
    print("  " + " ".join(f"{f}/{g}" for f, g in items))
    print()

    best = oracle_exact(instance)
    print(f"{'rule':<10} {'picked':<16} {'objective':>10} {'vs oracle':>10}")
    print(f"{'oracle':<10} {str(best.indices):<16} {best.value:>10} {'1.000':>10}")
    for name, rule in HEURISTICS.items():
        picked = rule(instance, SEED) if name == "random" else rule(instance)
        value = nash_objective(instance, picked)
        print(
            f"{name:<10} {str(picked):<16} {value:>10} "
            f"{value / best.value:>10.3f}"
        )


if __name__ == "__main__":
    main()
