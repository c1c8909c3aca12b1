"""O(m^2) unbiased estimators built on cached Gram aggregates.

Naive plug-in products of sample means are biased because index tuples that
share a data point get counted; every estimator here subtracts those shared
tuples and renormalises by the falling-factorial count of distinct tuples,
which is exactly what makes it unbiased.  The estimand of each function is
written in its docstring using mean embeddings mu_a = E[phi(A)] of the
sampled populations; ``a`` and ``b`` name populations ("x", "y" or "z").

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


def _require_m(g: GramPack, min_m: int, what: str) -> None:
    if g.m < min_m:
        raise ValueError(f"{what} requires m >= {min_m}, got m = {g.m}")


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
    waa, wbb = g.within("x"), g.within(b)
    cab = g.cross("x", b)
    off_diag_cross = cab.total - cab.trace
    return (waa.total + wbb.total - 2.0 * off_diag_cross) / falling_factorial(g.m, 2)


# ---------------------------------------------------------------------------
# sub-term estimators
# ---------------------------------------------------------------------------

def mu_dot(g: GramPack, a: str, b: str) -> float:
    """Unbiased estimate of <mu_a, mu_b>."""
    m = g.m
    if a == b:
        return g.within(a).total / falling_factorial(m, 2)
    return g.cross(a, b).total / (m * m)


def mu_dot_sq(g: GramPack, a: str, b: str) -> float:
    """Unbiased estimate of <mu_a, mu_b>^2.

    The square of :func:`mu_dot` would be biased upward by tuples reusing a
    point; the corrected form subtracts the shared-index sums.  Needs m >= 4
    for the within form (four distinct points) and m >= 2 for the cross form.
    """
    m = g.m
    if a == b:
        _require_m(g, 4, "<mu_a, mu_a>^2 estimator")
        s = g.within(a)
        num = s.total * s.total - 4.0 * _sq(s.row_sums) + 2.0 * s.frob_sq
        return num / falling_factorial(m, 4)
    s = g.cross(a, b)
    num = s.total * s.total - _sq(s.col_sums) - _sq(s.row_sums) + s.frob_sq
    return num / (m * m * (m - 1) * (m - 1))


def mu_dot_prod_own(g: GramPack, base: str, other: str) -> float:
    """Unbiased estimate of <mu_base, mu_base> <mu_base, mu_other>.

    Both factors draw from ``base``, so the distinct-tuple correction couples
    the within and cross matrices; needs m >= 3.
    """
    if base == other:
        raise ValueError("populations must differ; use mu_dot_sq for the within square")
    _require_m(g, 3, "<mu_a, mu_a><mu_a, mu_b> estimator")
    m = g.m
    w = g.within(base)
    c = g.cross(base, other)
    num = w.total * c.total - 2.0 * np.vecdot(w.row_sums, c.row_sums)
    return num / (m * falling_factorial(m, 3))


def mu_dot_prod_shared(g: GramPack) -> float:
    """Unbiased estimate of <mu_x, mu_y> <mu_x, mu_z> (factors share the X sample)."""
    if not g.has_z:
        raise ValueError("<mu_x, mu_y><mu_x, mu_z> estimator requires a z sample")
    m = g.m
    cy = g.cross("x", "y")
    cz = g.cross("x", "z")
    num = cy.total * cz.total - np.vecdot(cy.row_sums, cz.row_sums)
    return num / (m ** 3 * (m - 1))


def phi_mu_sq(g: GramPack, a: str, b: str) -> float:
    """Unbiased estimate of E[<phi(A), mu_b>^2] for A drawn from population ``a``.

    Needs m >= 3 when a == b (three distinct points of the same sample),
    m >= 2 otherwise.
    """
    m = g.m
    if a == b:
        _require_m(g, 3, "E[<phi(a), mu_a>^2] estimator")
        s = g.within(a)
        return (_sq(s.row_sums) - s.frob_sq) / falling_factorial(m, 3)
    s = g.cross(a, b)
    return (_sq(s.row_sums) - s.frob_sq) / (m * m * (m - 1))


def phi_mu_prod_own(g: GramPack, base: str, other: str) -> float:
    """Unbiased estimate of E[<phi(B), mu_base> <phi(B), mu_other>], B from ``base``."""
    if base == other:
        raise ValueError("populations must differ; use phi_mu_sq for the squared form")
    m = g.m
    w = g.within(base)
    c = g.cross(base, other)
    return np.vecdot(w.row_sums, c.row_sums) / (m * m * (m - 1))


def phi_mu_prod_shared(g: GramPack) -> float:
    """Unbiased estimate of E[<phi(X), mu_y> <phi(X), mu_z>]."""
    if not g.has_z:
        raise ValueError("E[<phi(x), mu_y><phi(x), mu_z>] estimator requires a z sample")
    cy = g.cross("x", "y")
    cz = g.cross("x", "z")
    return np.vecdot(cy.row_sums, cz.row_sums) / g.m ** 3


def k2_mean(g: GramPack, a: str, b: str) -> float:
    """Unbiased estimate of E[k(A, B)^2] (two independent draws when a == b)."""
    m = g.m
    if a == b:
        return g.within(a).frob_sq / falling_factorial(m, 2)
    return g.cross(a, b).frob_sq / (m * m)


# ---------------------------------------------------------------------------
# variance estimators
# ---------------------------------------------------------------------------

def mmd2_var(g: GramPack) -> float:
    """Unbiased estimate of Var[mmd2_u(X, Y)].

    Single-pass combination of the sub-term estimators with the coefficients
    merged; all polynomial-in-m coefficients are evaluated in exact integer
    arithmetic before one floating division per term, so small m does not
    suffer catastrophic cancellation in the denominators.
    """
    if g.m < 4:
        raise ValueError(f"variance estimator requires m ≥ 4, got m = {g.m}")
    m = int(g.m)
    wx, wy = g.within("x"), g.within("y")
    c = g.cross("x", "y")
    r_xx, r_yy = _sq(wx.row_sums), _sq(wy.row_sums)
    r_xy, c_xy = _sq(c.row_sums), _sq(c.col_sums)
    b_xx_xy = np.vecdot(wx.row_sums, c.row_sums)   # 1' Kxx~ Kxy 1
    b_yy_yx = np.vecdot(wy.row_sums, c.col_sums)   # 1' Kyy~ Kxy' 1

    m1, m2, m3 = m - 1, m - 2, m - 3
    return (
        4.0 * (r_xx + r_yy) / falling_factorial(m, 4)
        + 4.0 * (m * m - m - 1) * (r_xy + c_xy) / (m ** 3 * m1 ** 3)
        - 8.0 * (b_xx_xy + b_yy_yx) / (m * m * m1 * m2)
        + 8.0 * ((wx.total + wy.total) * c.total) / (m * m * falling_factorial(m, 3))
        - 2.0 * (2 * m - 3) * (wx.total * wx.total + wy.total * wy.total)
        / (falling_factorial(m, 2) * falling_factorial(m, 4))
        - 4.0 * (2 * m - 3) * (c.total * c.total) / (m ** 3 * m1 ** 3)
        - 2.0 * (wx.frob_sq + wy.frob_sq) / (m * m1 * m2 * m3)
        - 4.0 * m2 * c.frob_sq / (m * m * m1 ** 3)
    )


def mmd2_diff_var(g: GramPack) -> float:
    """Unbiased estimate of Var[mmd2_u(X, Y) - mmd2_u(X, Z)].

    The two statistics share the X sample, so this is not a sum of two
    variances: the coupling enters through the K_XY'K_XZ cross aggregate.
    """
    if not g.has_z:
        raise ValueError("difference variance estimator requires a z sample")
    if g.m < 4:
        raise ValueError(f"variance estimator requires m ≥ 4, got m = {g.m}")
    m = int(g.m)
    wy, wz = g.within("y"), g.within("z")
    cy, cz = g.cross("x", "y"), g.cross("x", "z")
    r_xy, c_xy = _sq(cy.row_sums), _sq(cy.col_sums)
    r_xz, c_xz = _sq(cz.row_sums), _sq(cz.col_sums)
    r_yy, r_zz = _sq(wy.row_sums), _sq(wz.row_sums)
    b_xy_xz = np.vecdot(cy.row_sums, cz.row_sums)  # 1' Kxy' Kxz 1
    b_yy_yx = np.vecdot(wy.row_sums, cy.col_sums)  # 1' Kyy~ Kxy' 1
    b_zz_zx = np.vecdot(wz.row_sums, cz.col_sums)  # 1' Kzz~ Kxz' 1

    m1, m2, m3 = m - 1, m - 2, m - 3
    return (
        4.0 * (m * m - m - 1) * (r_xy + c_xy + r_xz + c_xz) / (m ** 3 * m1 ** 3)
        + 4.0 * (r_yy + r_zz) / falling_factorial(m, 4)
        - 8.0 * b_xy_xz / (m ** 3 * m1)
        - 8.0 * (b_yy_yx + b_zz_zx) / (m * m * m1 * m2)
        - 4.0 * (2 * m - 3) * (cy.total * cy.total + cz.total * cz.total) / (m ** 3 * m1 ** 3)
        - 2.0 * (2 * m - 3) * (wy.total * wy.total + wz.total * wz.total)
        / (falling_factorial(m, 2) * falling_factorial(m, 4))
        + 8.0 * cy.total * cz.total / (m ** 4 * m1)
        + 8.0 * (wy.total * cy.total + wz.total * cz.total)
        / (m * m * falling_factorial(m, 3))
        - 4.0 * m2 * (cy.frob_sq + cz.frob_sq) / (m * m * m1 ** 3)
        - 2.0 * (wy.frob_sq + wz.frob_sq) / (m * m1 * m2 * m3)
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

    Raises ValueError naming the first estimate that is not finite.
    """
    if not floor_epsilon > 0.0:
        raise ValueError("floor_epsilon must be positive")
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
