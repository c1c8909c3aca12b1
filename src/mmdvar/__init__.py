"""Unbiased squared-MMD estimation with truly unbiased variance estimates.

The package computes, in O(m^2) time and memory:

* the unbiased squared maximum mean discrepancy U-statistic between two
  samples of equal size m;
* an unbiased estimate of the sampling variance of that statistic;
* an unbiased estimate of the variance of the difference of two such
  statistics that share their first sample (the three-sample setting);

together with nested-loop oracles for every sub-term, closed-form
population values for a scalar Gaussian model under the linear kernel,
and a Monte Carlo harness that certifies unbiasedness and variance
tracking end to end.
"""

from .estimators import (
    EstimateReport,
    falling_factorial,
    full_report,
    mmd2_diff_var,
    mmd2_u,
    mmd2_var,
)
from .kernels import (
    MEDIAN,
    GramPack,
    GramStats,
    KernelSpec,
    build_gram_pack,
    eval_kernel,
    kernel_matrix,
    median_heuristic,
    resolve_bandwidth,
)
from .montecarlo import (
    McConfig,
    McEntry,
    McReport,
    draw_replicate,
    replicate_rng,
    run_unbiasedness,
    run_variance_tracking,
    target_ids,
)
from .oracle import (
    TERMS,
    THREE_SAMPLE_TERM_IDS,
    TWO_SAMPLE_TERM_IDS,
    ComponentEstimates,
    GaussianLinearModel,
    PopulationMoments,
    diff_var_components,
    diff_var_from_terms,
    estimate_term,
    gaussian_draw,
    gaussian_linear_moments,
    mc_variance_components,
    mmd2_var_components,
    mmd2_var_from_terms,
    oracle_mmd2,
    oracle_term,
    population_diff_var,
    population_mmd2,
    population_mmd2_var,
    sub_term_estimates,
    u_stat_variance,
)

__version__ = "0.1.0"
