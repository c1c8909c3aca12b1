"""O(m^2) unbiased estimators built on cached Gram aggregates.

Naive plug-in products of sample means are biased because index tuples that
share a data point get counted; every estimator here subtracts those shared
tuples and renormalises by the falling-factorial count of distinct tuples,
which is exactly what makes it unbiased.  The estimand of each function is
written in its docstring using mean embeddings mu_a = E[phi(A)] of the
sampled populations; ``a`` and ``b`` name populations ("x", "y" or "z").

The sub-term estimators take the table's arguments unchecked: the target
table :data:`mmdvar.oracle.TARGETS` alone decides which m and samples each
admits, and ``estimate_term`` and ``sub_term_estimates`` reach them through
it.  The headline estimators, which data reach directly, check their input.

The variance estimators are sums of parts each written once: an own-sample
part per sample (its within matrix with a cross matrix), a cross part per
cross matrix and, for the difference, a coupling through the shared X; K_XX
cancels from the difference.  Each coefficient is an exact integer before
one floating division per term.

All estimators are O(m) reductions over the aggregates cached in a
:class:`~mmdvar.kernels.GramPack`, so the total cost including the Gram
aggregates is O(m^2) time and O(m B) memory, B the block of rows those
aggregates are accumulated over.  They are written over arrays: on a pack
of stacked replicates each gives an array of estimates, bit for bit what
each replicate's own pack gives as a NumPy scalar.  Variance estimates
are genuinely unbiased and may therefore be negative; callers that need a
nonnegative number (e.g. for studentisation) should use the floored
copies provided by :func:`full_report`, whose fields are Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .kernels import GramPack, KernelSpec


def falling_factorial(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1), the number of ordered k-tuples of distinct indices."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if n < k:
        raise ValueError(f"falling factorial needs n >= k, got n={n}, k={k}")
    return math.perm(n, k)


def _sq(v: np.ndarray):
    return np.vecdot(v, v)


def mmd2_u(g: GramPack, pair: str = "xy") -> float:
    """Unbiased squared-MMD U-statistic between X and the sample named by ``pair``.

    Averages k(A_i, A_j) + k(B_i, B_j) - k(A_i, B_j) - k(A_j, B_i) over all
    ordered pairs of distinct indices i != j.  Self-pairs k(A_i, B_i) never
    enter, which is what distinguishes this estimator from the plug-in one.
    """
    if pair not in ("xy", "xz"):
        raise ValueError(f"pair must be 'xy' or 'xz', got {pair!r}")
    b = pair[1]
    waa, wbb = g["xx"], g[b + b]
    cab = g["x" + b]
    off_diag_cross = cab.total - cab.trace
    return (waa.total + wbb.total - 2.0 * off_diag_cross) / falling_factorial(g.m, 2)


# ---------------------------------------------------------------------------
# sub-term estimators
# ---------------------------------------------------------------------------

def mu_dot(g: GramPack, a: str, b: str) -> float:
    """Unbiased estimate of <mu_a, mu_b>."""
    m = g.m
    return g[a + b].total / (falling_factorial(m, 2) if a == b else m * m)


def mu_dot_sq(g: GramPack, a: str, b: str) -> float:
    """Unbiased estimate of <mu_a, mu_b>^2.

    The square of :func:`mu_dot` would be biased upward by tuples reusing a
    point; the corrected form subtracts the shared-index sums.  Needs m >= 4
    for the within form (four distinct points) and m >= 2 for the cross form.
    """
    m = g.m
    s = g[a + b]
    if a == b:
        num = s.total * s.total - 4.0 * _sq(s.row_sums) + 2.0 * s.frob_sq
        return num / falling_factorial(m, 4)
    num = s.total * s.total - _sq(g[b + a].row_sums) - _sq(s.row_sums) + s.frob_sq
    return num / (m * m * (m - 1) * (m - 1))


def mu_dot_prod_own(g: GramPack, base: str, other: str) -> float:
    """Unbiased estimate of <mu_base, mu_base> <mu_base, mu_other>.

    Both factors draw from ``base``, so the distinct-tuple correction couples
    the within and cross matrices; needs m >= 3.
    """
    m = g.m
    w = g[base + base]
    c = g[base + other]
    num = w.total * c.total - 2.0 * np.vecdot(w.row_sums, c.row_sums)
    return num / (m * falling_factorial(m, 3))


def mu_dot_prod_shared(g: GramPack, a: str, b: str) -> float:
    """Unbiased estimate of <mu_x, mu_a> <mu_x, mu_b> (factors share the X sample)."""
    m = g.m
    ca = g["x" + a]
    cb = g["x" + b]
    num = ca.total * cb.total - np.vecdot(ca.row_sums, cb.row_sums)
    return num / (m ** 3 * (m - 1))


def phi_mu_sq(g: GramPack, a: str, b: str) -> float:
    """Unbiased estimate of E[<phi(A), mu_b>^2] for A drawn from population ``a``.

    Needs m >= 3 when a == b (three distinct points of the same sample),
    m >= 2 otherwise.
    """
    m = g.m
    s = g[a + b]
    return (_sq(s.row_sums) - s.frob_sq) / (falling_factorial(m, 3) if a == b else m * m * (m - 1))


def phi_mu_prod_own(g: GramPack, base: str, other: str) -> float:
    """Unbiased estimate of E[<phi(B), mu_base> <phi(B), mu_other>], B from ``base``."""
    m = g.m
    w = g[base + base]
    c = g[base + other]
    return np.vecdot(w.row_sums, c.row_sums) / (m * m * (m - 1))


def phi_mu_prod_shared(g: GramPack, a: str, b: str) -> float:
    """Unbiased estimate of E[<phi(X), mu_a> <phi(X), mu_b>]."""
    ca = g["x" + a]
    cb = g["x" + b]
    return np.vecdot(ca.row_sums, cb.row_sums) / g.m ** 3


def k2_mean(g: GramPack, a: str, b: str) -> float:
    """Unbiased estimate of E[k(A, B)^2] (two independent draws when a == b)."""
    m = g.m
    return g[a + b].frob_sq / (falling_factorial(m, 2) if a == b else m * m)


# ---------------------------------------------------------------------------
# variance estimators
# ---------------------------------------------------------------------------

def _own(g: GramPack, b: str, o: str):
    """The variance terms that read b's within matrix W (zero diagonal) with C = K_bo."""
    m = int(g.m)
    w, c = g[b + b], g[b + o]
    return (
        4.0 * _sq(w.row_sums) / falling_factorial(m, 4)
        - 8.0 * np.vecdot(w.row_sums, c.row_sums) / (m * m * (m - 1) * (m - 2))
        + 8.0 * (w.total * c.total) / (m * m * falling_factorial(m, 3))
        - 2.0 * (2 * m - 3) * (w.total * w.total)
        / (falling_factorial(m, 2) * falling_factorial(m, 4))
        - 2.0 * w.frob_sq / (m * (m - 1) * (m - 2) * (m - 3))
    )


def _cross(g: GramPack, a: str, b: str):
    """The variance terms that read the cross matrix C = K_ab alone."""
    m = int(g.m)
    c, cube = g[a + b], m ** 3 * (m - 1) ** 3
    return (
        4.0 * (m * m - m - 1) * (_sq(c.row_sums) + _sq(g[b + a].row_sums)) / cube
        - 4.0 * (2 * m - 3) * (c.total * c.total) / cube
        - 4.0 * (m - 2) * c.frob_sq / (m * m * (m - 1) ** 3)
    )


def mmd2_var(g: GramPack) -> float:
    """Unbiased estimate of Var[mmd2_u(X, Y)]: X's and Y's own parts, K_XY's cross part."""
    if g.m < 4:
        raise ValueError(f"variance estimator requires m ≥ 4, got m = {g.m}")
    return _own(g, "x", "y") + _own(g, "y", "x") + _cross(g, "x", "y")


def mmd2_diff_var(g: GramPack) -> float:
    """Unbiased estimate of Var[mmd2_u(X, Y) - mmd2_u(X, Z)].

    The two statistics share the X sample, so this is not a sum of two
    variances: K_XX cancels, and the coupling enters through the K_XY'K_XZ
    cross aggregate.
    """
    if g.m < 4:
        raise ValueError(f"variance estimator requires m ≥ 4, got m = {g.m}")
    m = int(g.m)
    cy, cz = g["xy"], g["xz"]
    return (
        _own(g, "y", "x") + _own(g, "z", "x") + _cross(g, "x", "y") + _cross(g, "x", "z")
        - 8.0 * np.vecdot(cy.row_sums, cz.row_sums) / (m ** 3 * (m - 1))
        + 8.0 * (cy.total * cz.total) / (m ** 4 * (m - 1))
    )


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateReport:
    """Headline statistics for one dataset.

    ``vhat`` (and ``nuhat`` for three samples) are the raw unbiased variance
    estimates and may be negative; the floored copies are clamped at
    ``floor_epsilon`` and back the studentised ``z_stat``:
    mmd2_xy / sqrt(vhat_floored) for two samples, diff / sqrt(nuhat_floored)
    for three.  The normal approximation behind any use of z_stat as a test
    statistic is a convenience, not an exact null distribution.
    """

    m: int
    kernel: KernelSpec
    mmd2_xy: float
    vhat: float
    vhat_floored: float
    z_stat: float
    mmd2_xz: float | None = None
    diff: float | None = None
    nuhat: float | None = None
    nuhat_floored: float | None = None


def full_report(g: GramPack, floor_epsilon: float = 1e-12) -> EstimateReport:
    """Compute every headline estimate for the pack in one call.

    Takes one dataset, not a stack of replicates.  Raises ValueError
    naming the first estimate that is not finite.
    """
    if not 0.0 < floor_epsilon < math.inf:
        raise ValueError("floor_epsilon must be positive and finite")
    if g.samples["x"].ndim != 2:
        raise ValueError("full_report takes one dataset, not a stack of replicates")
    rep = {"mmd2_xy": mmd2_u(g, "xy"), "vhat": mmd2_var(g)}
    rep["vhat_floored"] = max(rep["vhat"], floor_epsilon)
    if g.has_z:
        rep["mmd2_xz"] = mmd2_u(g, "xz")
        rep["diff"] = rep["mmd2_xy"] - rep["mmd2_xz"]
        rep["nuhat"] = mmd2_diff_var(g)
        rep["nuhat_floored"] = max(rep["nuhat"], floor_epsilon)
        rep["z_stat"] = rep["diff"] / math.sqrt(rep["nuhat_floored"])
    else:
        rep["z_stat"] = rep["mmd2_xy"] / math.sqrt(rep["vhat_floored"])
    for name, value in rep.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: kernel aggregates overflow float64")
    return EstimateReport(m=g.m, kernel=g.spec, **{k: float(v) for k, v in rep.items()})
