"""Unbiased squared-MMD estimation with truly unbiased variance estimates.

The package computes, in O(m^2) time and O(m B) memory (B the block of
rows the Gram aggregates are accumulated over):

* the unbiased squared maximum mean discrepancy U-statistic between two
  samples of equal size m;
* an unbiased estimate of the sampling variance of that statistic;
* an unbiased estimate of the variance of the difference of two such
  statistics that share their first sample (the three-sample setting).

The verification layer that certifies these estimates is imported from its
modules, not from the package: :mod:`mmdvar.oracle` holds the index-pattern
oracles, the target table and the closed-form population values for a
scalar Gaussian model under the linear kernel, and :mod:`mmdvar.montecarlo`
the Monte Carlo harness that checks unbiasedness and variance tracking.
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

__version__ = "0.1.0"
