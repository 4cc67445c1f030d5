"""Run the weekly publication game end to end on synthetic data.

Generates a year of questions, pretrains the curator's text scorer, plays
the limited-information game with each proposer strategy, and compares the
outcomes against the four full-information selection rules. Pool sizes are
kept small enough that the exact recovery rate is computable, so the
surrogate ratio can be checked against it directly.
"""

from pubgame.core import GameConfig
from pubgame.data import Dataset, SyntheticSpec, generate_synthetic, split_pretrain
from pubgame.engine import (
    HEURISTICS,
    compute_eurr,
    exact_urr,
    run_asymmetric,
    run_full_information,
)
from pubgame.reports import asymmetric_table, full_information_table
from pubgame.strategies import train_text_scorer

SEED = 11
ROUNDS = 12
K = 4


def main() -> None:
    spec = SyntheticSpec(
        weeks=18,
        questions_per_week=18,
        utility_correlation=0.3,
        topic_effect=2.0,
        seed=SEED,
    )
    dataset = generate_synthetic(spec)
    train, val, sim = split_pretrain(dataset, 6)
    scorer = train_text_scorer(train.pools, val.pools)
    print(
        f"dataset: {dataset.metadata['n_questions']} questions, "
        f"{dataset.n_weeks} weeks; scorer theta {scorer.theta:.3f}"
    )
    print()

    full_runs = {
        name: run_full_information(sim, name, K, seed=SEED, rounds=ROUNDS)
        for name in HEURISTICS
    }
    print(full_information_table(full_runs).to_text())

    entries = {}
    for strategy in ("greedy", "utility", "random"):
        config = GameConfig(
            m_cap=8,
            k_cap=K,
            rounds=ROUNDS,
            retrain_period=5,
            seed=SEED,
            strategy_g=strategy,
        )
        ledger = run_asymmetric(sim, config, scorer)
        entries[strategy] = (ledger, compute_eurr(ledger, full_runs))
    print(asymmetric_table(entries).to_text())

    print("surrogate vs exact recovery (proposer, curator):")
    played = Dataset(sim.pools[:ROUNDS])
    for strategy, (ledger, eurr) in entries.items():
        urr = exact_urr(ledger, played, K)
        print(
            f"  {strategy:<8} eurr {eurr.eurr_g:.3f}/{eurr.eurr_f:.3f}"
            f"  urr {urr.urr_g:.3f}/{urr.urr_f:.3f}"
        )


if __name__ == "__main__":
    main()
