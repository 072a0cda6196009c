"""Set learning with reproducing kernels.

Estimate the support of a distribution from a sample: build the Gram
matrix of a separating kernel, pass it through a spectral regularization
filter, and threshold the resulting score function F_n, which tends to 1
on the support and decays away from it.
"""

from .data import Dataset, fmt_value, load_csv, write_table
from .errors import DataError, NumericError, UsageError
from .estimator import (SupportModel, fit, kpca_lambda_from_rank, member_mask,
                        predict_member, regularization_path, score, score_batch)
from .evaluation import (devroye_wise_member, hausdorff, parzen_score,
                         roc_auc, symdiff_measure)
from .filters import (EIG_SLACK, Filter, KpcaTruncation, Landweber,
                      SpectralCutoff, SpectralDecomposition, Tikhonov,
                      decompose, format_filter, parse_filter)
from .kernels import (Abel, Gaussian, Kernel, L1Exponential,
                      Linear, Normalized, Product, cross_gram, format_kernel,
                      gram, induced_metric, kernel_eval, metric_matrix,
                      normalize, parse_kernel, product_kernel)
from .model_io import load_model, save_model
from .oracles import (approximation_error_bound, bernstein_bound,
                      concentration_bound, effective_dimension,
                      finite_sample_bound, hs_distance, hs_norm,
                      sample_error_bound)
from .selection import lambda_curvature, rate_lambda, width_heuristic
from .synth import (SyntheticTask, get_task, reference_grid,
                    reference_support, sample, support_distance, task_names)

__version__ = "0.1.0"

__all__ = [
    "Abel", "Dataset", "DataError", "EIG_SLACK", "Filter", "Gaussian",
    "Kernel", "KpcaTruncation",
    "L1Exponential", "Landweber", "Linear", "Normalized", "NumericError",
    "Product", "SpectralCutoff", "SpectralDecomposition", "SupportModel",
    "SyntheticTask", "Tikhonov", "UsageError",
    "approximation_error_bound", "bernstein_bound", "concentration_bound",
    "cross_gram", "decompose", "devroye_wise_member",
    "effective_dimension", "finite_sample_bound",
    "fit", "fmt_value", "format_filter", "format_kernel", "get_task",
    "gram", "hausdorff", "hs_distance", "hs_norm", "induced_metric",
    "kernel_eval", "kpca_lambda_from_rank",
    "lambda_curvature", "load_csv", "load_model",
    "member_mask", "metric_matrix", "normalize", "parse_filter",
    "parse_kernel",
    "parzen_score", "predict_member", "product_kernel", "rate_lambda",
    "reference_grid", "reference_support", "regularization_path",
    "roc_auc", "sample", "sample_error_bound", "save_model", "score",
    "score_batch", "support_distance", "symdiff_measure", "task_names",
    "width_heuristic", "write_table",
]
