"""Independent ground truth for everything in :mod:`mmdvar.estimators`.

:data:`TARGETS` registers each verification target once: its estimator,
minimum m, need for a z sample, and the oracles it must agree with:

* nested-loop twins of the sub-term estimators, written as literal sums
  over explicitly enumerated tuples of distinct indices with no matrix
  shortcuts (O(m^4) worst case, guarded at m <= 30);
* the population variance of the squared-MMD U-statistic and of the
  difference of two such statistics sharing a sample, evaluated from
  population moments, together with the first/second-order variance
  components of the underlying pair kernel;
* closed-form population moments for scalar Gaussian samples under the
  linear kernel, the one model where every moment is elementary, plus a
  nested Monte Carlo estimator of the variance components used to
  cross-validate those closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtri

from .estimators import (
    k2_mean, mmd2_diff_var, mmd2_u, mmd2_var, mu_dot, mu_dot_prod_own, mu_dot_prod_shared,
    mu_dot_sq, phi_mu_prod_own, phi_mu_prod_shared, phi_mu_sq,
)
from .kernels import GramPack

ORACLE_MAX_M = 30  # the quartic loops get expensive fast

Pair = tuple[str, str]


def _guard(g: GramPack) -> None:
    if g.m > ORACLE_MAX_M:
        raise ValueError(f"oracle refuses m = {g.m} > {ORACLE_MAX_M} (O(m^4) loops)")


def _ff(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def _mat(g: GramPack, a: str, b: str) -> list[list[float]]:
    return g.matrix(a, b).tolist()


# --- literal loop transcriptions -------------------------------------------
# Ordered tuples, never deduplicated by symmetry; each function is the
# defining sum of its estimand divided by the count of admissible tuples.

def _loop_mu_within(k: list[list[float]], m: int) -> float:
    tot = 0.0
    for i in range(m):
        for j in range(m):
            if j == i:
                continue
            tot += k[i][j]
    return tot / _ff(m, 2)


def _loop_mu_cross(k: list[list[float]], m: int) -> float:
    tot = 0.0
    for i in range(m):
        for j in range(m):
            tot += k[i][j]
    return tot / (m * m)


def _loop_mu_sq_within(k: list[list[float]], m: int) -> float:
    tot = 0.0
    for i in range(m):
        ki = k[i]
        for j in range(m):
            if j == i:
                continue
            kij = ki[j]
            for a in range(m):
                if a == i or a == j:
                    continue
                ka = k[a]
                for b in range(m):
                    if b == i or b == j or b == a:
                        continue
                    tot += kij * ka[b]
    return tot / _ff(m, 4)


def _loop_mu_sq_cross(k: list[list[float]], m: int) -> float:
    tot = 0.0
    for i in range(m):
        for j in range(m):
            kij = k[i][j]
            for i2 in range(m):
                if i2 == i:
                    continue
                ki2 = k[i2]
                for j2 in range(m):
                    if j2 == j:
                        continue
                    tot += kij * ki2[j2]
    return tot / (m * m * (m - 1) * (m - 1))


def _loop_prod_own(kw: list[list[float]], kc: list[list[float]], m: int) -> float:
    # <mu_a, mu_a><mu_a, mu_b>: i, j != i, l outside {i, j}, all o
    tot = 0.0
    for i in range(m):
        kwi = kw[i]
        for j in range(m):
            if j == i:
                continue
            kwij = kwi[j]
            for l in range(m):
                if l == i or l == j:
                    continue
                kcl = kc[l]
                for o in range(m):
                    tot += kwij * kcl[o]
    return tot / (m * _ff(m, 3))


def _loop_prod_shared(ky: list[list[float]], kz: list[list[float]], m: int) -> float:
    # <mu_x, mu_y><mu_x, mu_z>: i, a, j != i, b
    tot = 0.0
    for i in range(m):
        kyi = ky[i]
        for a in range(m):
            kyia = kyi[a]
            for j in range(m):
                if j == i:
                    continue
                kzj = kz[j]
                for b in range(m):
                    tot += kyia * kzj[b]
    return tot / (m ** 3 * (m - 1))


def _loop_phi_sq_within(k: list[list[float]], m: int) -> float:
    # E[<phi(A), mu_a>^2]: i, j != i, l outside {i, j}
    tot = 0.0
    for i in range(m):
        ki = k[i]
        for j in range(m):
            if j == i:
                continue
            kij = ki[j]
            for l in range(m):
                if l == i or l == j:
                    continue
                tot += kij * ki[l]
    return tot / _ff(m, 3)


def _loop_phi_sq_cross(k: list[list[float]], m: int) -> float:
    # E[<phi(A), mu_b>^2]: i, j, l != j
    tot = 0.0
    for i in range(m):
        ki = k[i]
        for j in range(m):
            kij = ki[j]
            for l in range(m):
                if l == j:
                    continue
                tot += kij * ki[l]
    return tot / (m * m * (m - 1))


def _loop_phi_prod_own(kw: list[list[float]], kc: list[list[float]], m: int) -> float:
    # E[<phi(A), mu_a><phi(A), mu_b>]: i, j != i, all l
    tot = 0.0
    for i in range(m):
        kwi = kw[i]
        kci = kc[i]
        for j in range(m):
            if j == i:
                continue
            kwij = kwi[j]
            for l in range(m):
                tot += kwij * kci[l]
    return tot / (m * m * (m - 1))


def _loop_phi_prod_shared(ky: list[list[float]], kz: list[list[float]], m: int) -> float:
    # E[<phi(X), mu_y><phi(X), mu_z>]: i, j, l
    tot = 0.0
    for i in range(m):
        kyi = ky[i]
        kzi = kz[i]
        for j in range(m):
            kyij = kyi[j]
            for l in range(m):
                tot += kyij * kzi[l]
    return tot / m ** 3


def _loop_k2_within(k: list[list[float]], m: int) -> float:
    tot = 0.0
    for i in range(m):
        for j in range(m):
            if j == i:
                continue
            tot += k[i][j] ** 2
    return tot / _ff(m, 2)


def _loop_k2_cross(k: list[list[float]], m: int) -> float:
    tot = 0.0
    for i in range(m):
        for j in range(m):
            tot += k[i][j] ** 2
    return tot / (m * m)


def oracle_mmd2(g: GramPack, pair: str = "xy") -> float:
    """Double-loop squared-MMD U-statistic (no cached sums)."""
    if pair not in ("xy", "xz"):
        raise ValueError(f"pair must be 'xy' or 'xz', got {pair!r}")
    _guard(g)
    m = g.m
    b = pair[1]
    kaa = _mat(g, "x", "x")
    kbb = _mat(g, b, b)
    kab = _mat(g, "x", b)
    tot = 0.0
    for i in range(m):
        for j in range(m):
            if j == i:
                continue
            tot += kaa[i][j] + kbb[i][j] - kab[i][j] - kab[j][i]
    return tot / _ff(m, 2)


# ---------------------------------------------------------------------------
# population moments and variance formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationMoments:
    """Population values of every quantity the variance formulas consume.

    ``mu[(a, b)]``       <mu_a, mu_b> = E[k(A, B)] for independent draws
    ``phi_sq[(a, b)]``   E[<phi(A), mu_b>^2]
    ``phi_prod[(a, b, c)]``  E[<phi(A), mu_b><phi(A), mu_c>]
    ``k2[(a, b)]``       E[k(A, B)^2] (independent draws when a == b)

    ``mu`` and ``k2`` are symmetric in their pair; either key order works.
    """

    mu: dict[Pair, float]
    phi_sq: dict[Pair, float]
    phi_prod: dict[tuple[str, str, str], float]
    k2: dict[Pair, float]

    def __post_init__(self) -> None:
        for name, table in (("mu", self.mu), ("k2", self.k2)):
            object.__setattr__(self, name, {**{(b, a): v for (a, b), v in table.items()}, **table})

    def term(self, term_id: str) -> float:
        """Population value of a sub-term id."""
        return _term_row(term_id).truth(self, None)


def population_mmd2(mom: PopulationMoments, pair: str = "xy") -> float:
    """Population squared MMD between two of the modelled populations."""
    a, b = pair[0], pair[1]
    return mom.mu[a, a] + mom.mu[b, b] - 2.0 * mom.mu[a, b]


def mmd2_var_from_terms(term: Callable[[str], float], m: int) -> float:
    """Sampling variance of the two-sample squared-MMD U-statistic, written
    as a fixed linear combination of term values.

    Called with population values it gives the true variance; called with
    the unbiased sub-term estimates it gives the assembled (equivalent) form
    of :func:`mmdvar.estimators.mmd2_var`.
    """
    if m < 2:
        raise ValueError("variance formula needs m >= 2")
    s = (
        2 * (m - 2) * (term("ephi2_xx") + term("ephi2_yy")
                       + term("ephi2_xy") + term("ephi2_yx"))
        - (2 * m - 3) * (term("mu_sq_xx") + term("mu_sq_yy"))
        - (4 * m - 6) * term("mu_sq_xy")
        - 4 * (m - 1) * (term("ephi_xx_xy") + term("ephi_yy_yx"))
        + 4 * (m - 1) * (term("prod_xx_xy") + term("prod_yy_yx"))
        + term("ek2_xx") + term("ek2_yy") + 2 * term("ek2_xy")
    )
    return 2.0 * s / (m * (m - 1))


def diff_var_from_terms(term: Callable[[str], float], m: int) -> float:
    """Sampling variance of mmd2_u(X, Y) - mmd2_u(X, Z) as a combination of
    term values; see :func:`mmd2_var_from_terms`."""
    if m < 2:
        raise ValueError("variance formula needs m >= 2")
    s = (
        2 * (m - 2) * (term("ephi2_xy") + term("ephi2_xz")
                       + term("ephi2_yx") + term("ephi2_zx")
                       + term("ephi2_yy") + term("ephi2_zz"))
        - 2 * (2 * m - 3) * (term("mu_sq_xy") + term("mu_sq_xz"))
        - (2 * m - 3) * (term("mu_sq_yy") + term("mu_sq_zz"))
        + 4 * (m - 1) * (term("prod_xy_xz") + term("prod_yy_yx") + term("prod_zz_zx"))
        - 4 * (m - 1) * (term("ephi_xy_xz") + term("ephi_yy_yx") + term("ephi_zz_zx"))
        + 2 * (term("ek2_xy") + term("ek2_xz")) + term("ek2_yy") + term("ek2_zz")
    )
    return 2.0 * s / (m * (m - 1))


def population_mmd2_var(mom: PopulationMoments, m: int) -> float:
    """True Var[mmd2_u(X, Y)] at sample size m."""
    return mmd2_var_from_terms(mom.term, m)


def population_diff_var(mom: PopulationMoments, m: int) -> float:
    """True Var[mmd2_u(X, Y) - mmd2_u(X, Z)] at sample size m."""
    return diff_var_from_terms(mom.term, m)


def mmd2_var_components(mom: PopulationMoments) -> tuple[float, float]:
    """First- and second-order variance components of the two-sample pair
    kernel h(U1, U2): the variance of E[h | U1] and the total variance of h.

    ``u_stat_variance(first, second, m)`` must reproduce
    :func:`population_mmd2_var`; that identity is a transcription check.
    """
    t = mom.term
    first = (
        t("ephi2_xx") - t("mu_sq_xx") + t("ephi2_yy") - t("mu_sq_yy")
        + t("ephi2_xy") - t("mu_sq_xy") + t("ephi2_yx") - t("mu_sq_xy")
        - 2.0 * t("ephi_xx_xy") + 2.0 * t("prod_xx_xy")
        - 2.0 * t("ephi_yy_yx") + 2.0 * t("prod_yy_yx")
    )
    second = (
        t("ek2_xx") - t("mu_sq_xx") + t("ek2_yy") - t("mu_sq_yy")
        + 2.0 * t("ek2_xy") - 2.0 * t("mu_sq_xy")
        - 4.0 * t("ephi_xx_xy") + 4.0 * t("prod_xx_xy")
        - 4.0 * t("ephi_yy_yx") + 4.0 * t("prod_yy_yx")
    )
    return first, second


def diff_var_components(mom: PopulationMoments) -> tuple[float, float]:
    """Variance components of the three-sample difference pair kernel."""
    t = mom.term
    first = (
        t("ephi2_xy") - t("mu_sq_xy") + t("ephi2_xz") - t("mu_sq_xz")
        + t("ephi2_yx") - t("mu_sq_xy") + t("ephi2_yy") - t("mu_sq_yy")
        + t("ephi2_zx") - t("mu_sq_xz") + t("ephi2_zz") - t("mu_sq_zz")
        - 2.0 * t("ephi_xy_xz") + 2.0 * t("prod_xy_xz")
        - 2.0 * t("ephi_yy_yx") + 2.0 * t("prod_yy_yx")
        - 2.0 * t("ephi_zz_zx") + 2.0 * t("prod_zz_zx")
    )
    second = (
        2.0 * t("ek2_xy") - 2.0 * t("mu_sq_xy")
        + 2.0 * t("ek2_xz") - 2.0 * t("mu_sq_xz")
        + t("ek2_yy") - t("mu_sq_yy") + t("ek2_zz") - t("mu_sq_zz")
        - 4.0 * t("ephi_xy_xz") + 4.0 * t("prod_xy_xz")
        - 4.0 * t("ephi_yy_yx") + 4.0 * t("prod_yy_yx")
        - 4.0 * t("ephi_zz_zx") + 4.0 * t("prod_zz_zx")
    )
    return first, second


def u_stat_variance(first_order: float, second_order: float, m: int) -> float:
    """Exact variance of a degree-2 U-statistic from its variance components."""
    if m < 2:
        raise ValueError("variance formula needs m >= 2")
    return 2.0 * (2 * (m - 2) * first_order + second_order) / (m * (m - 1))


# ---------------------------------------------------------------------------
# the verification targets
# ---------------------------------------------------------------------------

class Target(NamedTuple):
    """One verification target; the Monte Carlo harness reads it by position."""

    estimate: Callable[[GramPack], float]  # the O(m^2) estimator
    min_m: int
    needs_z: bool
    loop: Callable[[GramPack], float] | None  # nested-loop twin (sub-terms only)
    truth: Callable[[PopulationMoments, int | None], float]  # population value at m


def _loop_ab(within, cross):
    return lambda g, a, b: (within if a == b else cross)(_mat(g, a, b), g.m)


#: Term families: (estimator, loop twin, population value), each taking a row's
#: populations (a, b).  "own" products pair a with a and b; "shared" ones X with a and b.
_FAMILIES = {
    "mu": (mu_dot, _loop_ab(_loop_mu_within, _loop_mu_cross),
           lambda mom, a, b: mom.mu[a, b]),
    "mu_sq": (mu_dot_sq, _loop_ab(_loop_mu_sq_within, _loop_mu_sq_cross),
              lambda mom, a, b: mom.mu[a, b] * mom.mu[a, b]),
    "prod_own": (mu_dot_prod_own,
                 lambda g, a, b: _loop_prod_own(_mat(g, a, a), _mat(g, a, b), g.m),
                 lambda mom, a, b: mom.mu[a, a] * mom.mu[a, b]),
    "prod_shared": (lambda g, a, b: mu_dot_prod_shared(g),
                    lambda g, a, b: _loop_prod_shared(_mat(g, "x", a), _mat(g, "x", b), g.m),
                    lambda mom, a, b: mom.mu["x", a] * mom.mu["x", b]),
    "ephi2": (phi_mu_sq, _loop_ab(_loop_phi_sq_within, _loop_phi_sq_cross),
              lambda mom, a, b: mom.phi_sq[a, b]),
    "ephi_own": (phi_mu_prod_own,
                 lambda g, a, b: _loop_phi_prod_own(_mat(g, a, a), _mat(g, a, b), g.m),
                 lambda mom, a, b: mom.phi_prod[a, a, b]),
    "ephi_shared": (lambda g, a, b: phi_mu_prod_shared(g),
                    lambda g, a, b: _loop_phi_prod_shared(_mat(g, "x", a), _mat(g, "x", b), g.m),
                    lambda mom, a, b: mom.phi_prod["x", a, b]),
    "ek2": (k2_mean, _loop_ab(_loop_k2_within, _loop_k2_cross),
            lambda mom, a, b: mom.k2[a, b]),
}


def _term(family: str, a: str, b: str, min_m: int) -> Target:
    estimate, loop, truth = _FAMILIES[family]
    return Target(lambda g: estimate(g, a, b), min_m, "z" in (a, b),
                  lambda g: loop(g, a, b), lambda mom, m: truth(mom, a, b))


#: Every sub-term the variance expressions are built from, as
#: (family, a, b, min_m).  Ids spell populations and orientation:
#: ``ephi2_yx`` is E[<phi(Y), mu_x>^2], ``prod_xx_xy`` is
#: <mu_x, mu_x><mu_x, mu_y>.
TERMS: dict[str, Target] = {t: _term(*row) for t, row in {
    "mu_xx": ("mu", "x", "x", 2),
    "mu_yy": ("mu", "y", "y", 2),
    "mu_zz": ("mu", "z", "z", 2),
    "mu_xy": ("mu", "x", "y", 2),
    "mu_xz": ("mu", "x", "z", 2),
    "mu_sq_xx": ("mu_sq", "x", "x", 4),
    "mu_sq_yy": ("mu_sq", "y", "y", 4),
    "mu_sq_zz": ("mu_sq", "z", "z", 4),
    "mu_sq_xy": ("mu_sq", "x", "y", 2),
    "mu_sq_xz": ("mu_sq", "x", "z", 2),
    "prod_xx_xy": ("prod_own", "x", "y", 3),
    "prod_yy_yx": ("prod_own", "y", "x", 3),
    "prod_zz_zx": ("prod_own", "z", "x", 3),
    "prod_xy_xz": ("prod_shared", "y", "z", 2),
    "ephi2_xx": ("ephi2", "x", "x", 3),
    "ephi2_yy": ("ephi2", "y", "y", 3),
    "ephi2_zz": ("ephi2", "z", "z", 3),
    "ephi2_xy": ("ephi2", "x", "y", 2),
    "ephi2_yx": ("ephi2", "y", "x", 2),
    "ephi2_xz": ("ephi2", "x", "z", 2),
    "ephi2_zx": ("ephi2", "z", "x", 2),
    "ephi_xx_xy": ("ephi_own", "x", "y", 2),
    "ephi_yy_yx": ("ephi_own", "y", "x", 2),
    "ephi_zz_zx": ("ephi_own", "z", "x", 2),
    "ephi_xy_xz": ("ephi_shared", "y", "z", 1),
    "ek2_xx": ("ek2", "x", "x", 2),
    "ek2_yy": ("ek2", "y", "y", 2),
    "ek2_zz": ("ek2", "z", "z", 2),
    "ek2_xy": ("ek2", "x", "y", 2),
    "ek2_xz": ("ek2", "x", "z", 2),
}.items()}

TWO_SAMPLE_TERM_IDS: tuple[str, ...] = tuple(t for t, r in TERMS.items() if not r.needs_z)
THREE_SAMPLE_TERM_IDS: tuple[str, ...] = tuple(TERMS)

#: Every Monte Carlo target: the headline statistics, then the sub-terms.
TARGETS: dict[str, Target] = {
    "mmd2": Target(lambda g: mmd2_u(g, "xy"), 2, False, None,
                   lambda mom, m: population_mmd2(mom, "xy")),
    "mmd2_xz": Target(lambda g: mmd2_u(g, "xz"), 2, True, None,
                      lambda mom, m: population_mmd2(mom, "xz")),
    "diff": Target(lambda g: mmd2_u(g, "xy") - mmd2_u(g, "xz"), 2, True, None,
                   lambda mom, m: population_mmd2(mom, "xy") - population_mmd2(mom, "xz")),
    "mmd2_var": Target(mmd2_var, 4, False, None, population_mmd2_var),
    "mmd2_diff_var": Target(mmd2_diff_var, 4, True, None, population_diff_var),
    **TERMS,
}


def _term_row(term_id: str, g: GramPack | None = None) -> Target:
    """The row of a sub-term id, checked against the pack's m and samples if given."""
    if term_id not in TERMS:
        raise ValueError(f"unknown term id {term_id!r}")
    row = TERMS[term_id]
    if g is not None and row.needs_z and not g.has_z:
        raise ValueError(f"term {term_id!r} requires a z sample")
    if g is not None and g.m < row.min_m:
        raise ValueError(f"term {term_id!r} requires m >= {row.min_m}, got m = {g.m}")
    return row


def estimate_term(g: GramPack, term_id: str) -> float:
    """Evaluate one sub-term estimator by id."""
    return _term_row(term_id, g).estimate(g)


def sub_term_estimates(g: GramPack) -> dict[str, float]:
    """Every sub-term estimate whose minimum m, and need for a z sample, the pack meets."""
    return {t: row.estimate(g) for t, row in TERMS.items()
            if g.m >= row.min_m and (g.has_z or not row.needs_z)}


def oracle_term(g: GramPack, term_id: str) -> float:
    """Nested-loop evaluation of one sub-term; the ground truth the matrix
    estimators are checked against."""
    _guard(g)
    return _term_row(term_id, g).loop(g)


# ---------------------------------------------------------------------------
# scalar Gaussian verification model (linear kernel)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianLinearModel:
    """Independent scalar Gaussians X, Y (and optionally Z) under k(x, y) = xy.

    With this kernel phi is the identity on the reals, so every population
    moment is an elementary function of the means and variances.
    """

    mean_x: float
    var_x: float
    mean_y: float
    var_y: float
    mean_z: float | None = None
    var_z: float | None = None

    def __post_init__(self) -> None:
        for name in ("mean_x", "var_x", "mean_y", "var_y", "mean_z", "var_z"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.var_x > 0 or not self.var_y > 0:
            raise ValueError("variances must be strictly positive")
        if (self.mean_z is None) != (self.var_z is None):
            raise ValueError("provide both mean_z and var_z or neither")
        if self.var_z is not None and not self.var_z > 0:
            raise ValueError("variances must be strictly positive")

    @property
    def has_z(self) -> bool:
        return self.mean_z is not None

    def params(self, pop: str) -> tuple[float, float]:
        if pop == "x":
            return self.mean_x, self.var_x
        if pop == "y":
            return self.mean_y, self.var_y
        if pop == "z" and self.has_z:
            return self.mean_z, self.var_z
        raise ValueError(f"model has no population {pop!r}")


def gaussian_linear_moments(model: GaussianLinearModel) -> PopulationMoments:
    """Closed-form population moments of the model.

    For A ~ N(a, va), B ~ N(b, vb) independent and k(x, y) = xy:
    <mu_a, mu_b> = a b;  E[<phi(A), mu_b>^2] = (a^2 + va) b^2;
    E[<phi(A), mu_b><phi(A), mu_c>] = (a^2 + va) b c;
    E[k(A, B)^2] = (a^2 + va)(b^2 + vb).
    """
    pops = ["x", "y"] + (["z"] if model.has_z else [])
    mean = {p: model.params(p)[0] for p in pops}
    second = {p: mean[p] ** 2 + model.params(p)[1] for p in pops}

    mu: dict[Pair, float] = {}
    phi_sq: dict[Pair, float] = {}
    k2: dict[Pair, float] = {}
    for a in pops:
        mu[(a, a)] = mean[a] * mean[a]
        phi_sq[(a, a)] = second[a] * mu[(a, a)]
        k2[(a, a)] = second[a] * second[a]
    cross_pairs = [("x", "y")] + ([("x", "z")] if model.has_z else [])
    for a, b in cross_pairs:
        mu[(a, b)] = mean[a] * mean[b]
        phi_sq[(a, b)] = second[a] * mean[b] ** 2
        phi_sq[(b, a)] = second[b] * mean[a] ** 2
        k2[(a, b)] = second[a] * second[b]

    phi_prod = {
        ("x", "x", "y"): second["x"] * mean["x"] * mean["y"],
        ("y", "y", "x"): second["y"] * mean["y"] * mean["x"],
    }
    if model.has_z:
        phi_prod[("z", "z", "x")] = second["z"] * mean["z"] * mean["x"]
        phi_prod[("x", "y", "z")] = second["x"] * mean["y"] * mean["z"]
    return PopulationMoments(mu=mu, phi_sq=phi_sq, phi_prod=phi_prod, k2=k2)


def gaussian_draw(rng: np.random.Generator, mean: float, var: float, size) -> np.ndarray:
    """Gaussian draw by inverse CDF over a strictly interior uniform grid.

    Uniforms are taken on {1, ..., 2^53 - 1} / 2^53 so the inverse normal CDF
    never sees 0 or 1; results are reproducible across platforms for a fixed
    generator state up to floating rounding.
    """
    return gaussian_from_ints(rng.integers(1, 1 << 53, size=size), mean, var)


def gaussian_from_ints(ints: np.ndarray, mean: float, var: float) -> np.ndarray:
    """The Gaussians :func:`gaussian_draw` makes from its integer draws."""
    return ndtri(ints * (1.0 / (1 << 53))) * np.sqrt(var) + mean


@dataclass(frozen=True)
class ComponentEstimates:
    """Monte Carlo estimates of the pair-kernel variance components."""

    first_order: float
    first_order_se: float
    second_order: float
    second_order_se: float


def _pair_statistic(x1, y1, x2, y2):
    # h(U1, U2) for the linear kernel on scalars
    return x1 * x2 + y1 * y2 - x1 * y2 - x2 * y1


def mc_variance_components(
    model: GaussianLinearModel,
    n_outer: int = 10_000,
    n_inner: int = 1_000,
    seed: int = 0,
) -> ComponentEstimates:
    """Nested Monte Carlo estimate of the two-sample variance components.

    First order: for each of ``n_outer`` draws of U1 = (X1, Y1), the
    conditional mean of h over ``n_inner`` inner draws; the between-group
    variance is debiased by the within-group variance / n_inner (one-way
    ANOVA), with a delete-one-group jackknife standard error.  Second order:
    plain sample variance of h over n_outer * n_inner fresh pairs, with the
    standard moment-based SE of a sample variance.
    """
    if n_outer < 100 or n_inner < 100:
        raise ValueError("need n_outer >= 100 and n_inner >= 100")
    rng = np.random.default_rng(seed)
    mx, vx = model.mean_x, model.var_x
    my, vy = model.mean_y, model.var_y

    group_means = np.empty(n_outer)
    group_vars = np.empty(n_outer)
    chunk = max(1, 2_000_000 // n_inner)
    done = 0
    while done < n_outer:
        b = min(chunk, n_outer - done)
        x1 = gaussian_draw(rng, mx, vx, (b, 1))
        y1 = gaussian_draw(rng, my, vy, (b, 1))
        x2 = gaussian_draw(rng, mx, vx, (b, n_inner))
        y2 = gaussian_draw(rng, my, vy, (b, n_inner))
        h = _pair_statistic(x1, y1, x2, y2)
        group_means[done:done + b] = h.mean(axis=1)
        group_vars[done:done + b] = h.var(axis=1, ddof=1)
        done += b

    n = n_outer
    first = float(np.var(group_means, ddof=1) - group_vars.mean() / n_inner)
    # delete-one-group jackknife
    s1 = group_means.sum()
    s2 = float(group_means @ group_means)
    sv = group_vars.sum()
    loo_var = (s2 - group_means ** 2 - (s1 - group_means) ** 2 / (n - 1)) / (n - 2)
    loo = loo_var - (sv - group_vars) / ((n - 1) * n_inner)
    first_se = float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))

    # second order from fresh independent pairs
    n2 = n_outer * n_inner
    sums = np.zeros(4)
    done = 0
    pair_chunk = 1_000_000
    while done < n2:
        b = min(pair_chunk, n2 - done)
        x1 = gaussian_draw(rng, mx, vx, b)
        y1 = gaussian_draw(rng, my, vy, b)
        x2 = gaussian_draw(rng, mx, vx, b)
        y2 = gaussian_draw(rng, my, vy, b)
        h = _pair_statistic(x1, y1, x2, y2)
        sums += [h.sum(), (h ** 2).sum(), (h ** 3).sum(), (h ** 4).sum()]
        done += b
    mean = sums[0] / n2
    m2 = sums[1] / n2 - mean ** 2
    m4 = (sums[3] - 4 * mean * sums[2] + 6 * mean ** 2 * sums[1]) / n2 - 3 * mean ** 4
    second = float(m2 * n2 / (n2 - 1))
    second_se = float(np.sqrt(max(m4 - m2 ** 2 * (n2 - 3) / (n2 - 1), 0.0) / n2))
    return ComponentEstimates(first_order=first, first_order_se=first_se,
                              second_order=second, second_order_se=second_se)
