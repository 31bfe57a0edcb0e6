"""Valid lower confidence limits for parameter extrema under differential privacy.

The package privatizes sufficient statistics with the Laplace mechanism,
corrects the winner's-curse bias of the plug-in maximum, and bootstraps the
privatized estimator (including its noise) to calibrate a one-sided limit.
"""

from .errors import DegeneracyError, LedgerError, NumericError, ParameterError
from .extrema import (
    FULL_CORRECTION,
    ConfidenceResult,
    bias_correction,
    bonferroni_lower_limit,
    correction_factor,
    naive_lower_limit,
    ppb_lower_limit,
    quantile,
)
from .crossval import CVConfig, CVResult, cv_choose_r
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    MethodSpec,
    emit_plot_data,
    load_config,
    run_experiment,
)
from .models import (
    GaussianData,
    PrivatizedGaussianEstimate,
    PrivatizedRegressionEstimate,
    RegressionData,
    gaussian_private_mle,
    regression_private_mle,
)
from .partial import partial_gaussian_private_mle
from .privacy import (
    Bounds,
    LaplaceSpec,
    PrivacyLedger,
    laplace_scale,
    laplace_symmetric_sample,
    sensitivity_cross_bounded,
    sensitivity_gram_bounded,
    sensitivity_sum_bounded,
    split_budget,
)

__version__ = "0.1.0"
