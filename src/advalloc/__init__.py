"""Adversarially trained posted-price allocation with game-theoretic checks.

An online seller posts one price per arriving user; a user buys whenever
their budget covers the price and units remain, and welfare counts the
budgets of the buyers. The package trains a pricing network against a
budget-sequence generator, measures both against the offline benchmark,
and verifies the learned play against exact linear-programming values,
brute-force completion oracles, and classical threshold baselines.
"""
from .baselines import (
    EVAL_MODES,
    RESULTS_HEADER,
    BaselineParams,
    EvalRow,
    GreedyPolicy,
    LearnedPolicy,
    RandomizedPolicy,
    ThresholdPolicy,
    competitive_ratio,
    default_policies,
    evaluate_policies,
    exact_worst_case,
    play_protocol,
    random_sequences,
    snapshot_sequence_sampler,
    threshold_price,
)
from .completion import (
    CompletionResult,
    CompletionTooLargeError,
    brute_force_completion,
    candidate_gaps,
    optimal_completion,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config, render_config
from .equilibrium import (
    FictitiousPlayResult,
    MixedStrategy,
    PayoffGame,
    PayoffTooLargeError,
    enumerate_strategies,
    fictitious_play,
    payoff_game,
    solve_acceptance_lp,
    solve_zero_sum,
    undominated_columns,
)
from .game import (
    AllocationTrace,
    GameConfig,
    benchmark,
    benchmark_rows,
    format_sequence,
    gap,
    parse_sequence,
    play_out,
    simulate,
    validate_budgets,
    validate_prices,
    welfare_grid,
    welfare_paired,
)
from .gradients import DualInfo, ProbGradient, price_gradient, shadow_price
from .nets import (
    AdversaryPolicy,
    AlgorithmPolicy,
    SoftmaxMlp,
    StaleTapeError,
    sample_categorical,
    softmax_heads,
)
from .persist import PersistError, load_model, load_ring, save_model, save_ring
from .rng import derive_rng
from .simplex import InfeasibleError, LpSolution, SimplexError, UnboundedError, solve_lp
from .training import (
    METRICS_HEADER,
    MwState,
    SnapshotRing,
    TrainConfig,
    TrainResult,
    TrainSnapshot,
    algorithm_gradients,
    make_adversary_policy,
    make_algorithm_policy,
    mw_update,
    play_batch,
    train_adv_vs_mw,
    train_alg_vs_mw,
    train_joint,
)

__version__ = "0.1.0"
