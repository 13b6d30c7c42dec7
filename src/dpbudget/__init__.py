"""dpbudget: zCDP privacy accounting, dynamic noise-scale budget allocation,
and a small differentially private SGD trainer."""

__version__ = "0.1.0"

from .accounting import (
    EpsDelta,
    PrivacyLedger,
    amplified_strong_composition,
    classic_gaussian_dp,
    gaussian_rho,
    rs_eps,
    rs_order_cap,
    zcdp_to_dp,
)
from .renyi import (
    divergence_changepoint,
    moments_accountant_eps,
    subsampled_renyi_divergence,
    validate_moment_bound,
)
from .schedules import (
    NoiseSchedule,
    ValidationController,
    epochs_until_exhaustion,
    sigma_at,
    solve_decay_rate,
)
from .nn import MlpModel
from .data import Dataset, load_cancer_csv, rf_batches, rs_batches, synth_blobs
from .dpsgd import TrainConfig, TrainReport, noisy_mean_gradient, train
from .selection import exp_mechanism_select, partition_tune, selection_rho

__all__ = [
    "EpsDelta",
    "PrivacyLedger",
    "amplified_strong_composition",
    "classic_gaussian_dp",
    "gaussian_rho",
    "rs_eps",
    "rs_order_cap",
    "zcdp_to_dp",
    "divergence_changepoint",
    "moments_accountant_eps",
    "subsampled_renyi_divergence",
    "validate_moment_bound",
    "NoiseSchedule",
    "ValidationController",
    "epochs_until_exhaustion",
    "sigma_at",
    "solve_decay_rate",
    "MlpModel",
    "Dataset",
    "load_cancer_csv",
    "rf_batches",
    "rs_batches",
    "synth_blobs",
    "TrainConfig",
    "TrainReport",
    "noisy_mean_gradient",
    "train",
    "exp_mechanism_select",
    "partition_tune",
    "selection_rho",
]
