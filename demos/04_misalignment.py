"""Measure how far the two players' utilities pull apart.

Generates datasets at three utility correlation levels and prints the
per-domain rank-correlation table for each, with significance from the
exact t approximation. Negative correlation is the interesting regime:
what the curator wants to publish is what the proposer values least.
"""

from pubgame.data import SyntheticSpec, generate_synthetic
from pubgame.reports import misalignment_report, misalignment_table

SEED = 2


def main() -> None:
    for rho in (-0.5, 0.0, 0.5):
        spec = SyntheticSpec(
            weeks=20,
            questions_per_week=120,
            utility_correlation=rho,
            topic_effect=0.0,
            seed=SEED,
        )
        dataset = generate_synthetic(spec)
        report = misalignment_report(dataset)
        print(f"target rank correlation {rho:+.1f}")
        print(misalignment_table(report).to_text())
        print()


if __name__ == "__main__":
    main()
