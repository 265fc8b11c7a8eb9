"""corelearn: gradient-learned weighted coresets for average-loss approximation."""

__version__ = "0.1.0"

from .core import (
    Coreset,
    ContractError,
    DegenerateInputError,
    MeasurableQuerySpace,
    NumericError,
    Query,
    WeightedLabeledSet,
    expected_cost,
    set_cost,
    set_costs,
    stream_rng,
)
from .losses import LossModel
from .learner import (
    OptimizerState,
    TrainConfig,
    TrainReport,
    adam_step,
    autocl_average,
    autocl_practical,
    init_coreset,
    project_weights,
    train,
)
from .queries import QueryBatch, iid_sample, split_queries, trajectory_queries
from .baselines import leverage_coreset, solve_optimal, uniform_coreset
from .theory import (
    claim2_k,
    estimate_M,
    hoeffding_k,
    relate_eps,
    verify_claim1,
    verify_claim2,
)
from .evaluate import ResultTable, err_avg, err_opt, sweep
from .datasets import Schema, load_dataset, make_synthetic
