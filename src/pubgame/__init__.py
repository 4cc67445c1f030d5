"""Weekly proposer/curator publication game: simulation, exact and
heuristic selection, and recovery analysis."""

__version__ = "0.1.0"

from .core import (
    GameConfig,
    GameLedger,
    Question,
    RoundPool,
    SelectionOutcome,
    set_utility,
    utility_of_set,
)
from .data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    ingest,
    normalize_weekly,
    split_pretrain,
    write_jsonl,
)
from .engine import (
    EurrReport,
    UrrReport,
    compute_eurr,
    exact_urr,
    read_ledger_csv,
    run_asymmetric,
    run_full_information,
    write_ledger_csv,
)
from .errors import (
    CalibrationError,
    ConfigError,
    EnumerationBudgetError,
    PubgameError,
    ReductionInfeasibleError,
    SchemaError,
)
from .nash_opt import (
    BilinearInstance,
    CcssInstance,
    OracleResult,
    decide_ccss,
    heuristic_greedy_np,
    heuristic_maxsp,
    heuristic_mpp,
    heuristic_random,
    nash_objective,
    oracle_dp,
    oracle_exact,
    plant_yes_instance,
    perturb_to_no_instance,
    reduce_ccss,
)
from .reports import (
    MisalignmentReport,
    ResultsTable,
    asymmetric_table,
    full_information_table,
    misalignment_report,
    misalignment_table,
    significance_table,
)
from .stats import (
    CorrelationResult,
    TTestResult,
    regularized_incomplete_beta,
    spearman,
    student_t_sf,
    weekly_ttest,
)
from .strategies import (
    CalibrationResult,
    ForumScorer,
    calibrate_theta,
    forum_select,
    label_by_percentile,
    make_precomputed_scorer,
    strategy_g_greedy,
    strategy_g_random,
    strategy_g_utility,
    train_text_scorer,
)
from .textmodel import (
    AcceptanceModel,
    FeaturizerConfig,
    TextFeaturizer,
    tokenize,
    train_acceptance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
