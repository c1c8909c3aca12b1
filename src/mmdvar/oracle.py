"""Independent ground truth for everything in :mod:`mmdvar.estimators`.

:data:`TARGETS` registers each verification target once: its estimator,
minimum m, need for a z sample, and the oracles it must agree with:

* an enumerated twin of each sub-term estimator: the term's pattern of
  kernel factors, averaged by one enumerator over every tuple of indices
  that is distinct within each sample, reading only matrix entries at the
  enumerated tuples (O(m^4) tuples for four-index patterns, guarded at
  m <= 30);
* the true variance of the squared-MMD U-statistic and of the difference
  of two such statistics sharing a sample: the estimators' own formula,
  Hoeffding's variance over own, cross and coupling parts
  (:func:`mmdvar.estimators.u_stat_variance`), read at population values
  instead of sub-term estimates, and at enumerated sub-terms as the
  variance estimators' twin (:func:`enumerated_terms`);
* closed-form population moments for scalar Gaussian samples under the
  linear kernel, the one model where every moment is elementary, plus a
  nested Monte Carlo estimator of the variance components used to
  cross-validate those closed forms.

Only the Gaussian sampler loads scipy: :func:`ndtri` imports it on first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product, starmap
from operator import add
from typing import Callable, NamedTuple

import numpy as np

from .estimators import (
    FAMILIES, Terms, diff_zeta, mmd2_diff_var, mmd2_u, mmd2_var, mmd2_zeta, u_stat_variance,
)
from .kernels import GramPack

ORACLE_MAX_M = 30  # the four-index patterns enumerate O(m^4) tuples

Pair = tuple[str, str]

#: A point is (role, slot): the role is "a" or "b", a target row's two
#: populations, or a population named outright; a factor is a pair of points,
#: one kernel entry; a pattern is a tuple of at most two factors.
Point = tuple[str, int]
Pattern = tuple[tuple[Point, Point], ...]


def _guard(g: GramPack) -> None:
    if g.m > ORACLE_MAX_M:
        raise ValueError(f"oracle refuses m = {g.m} > {ORACLE_MAX_M} "
                         "(patterns of four indices enumerate O(m^4) tuples)")


def _rows(g: GramPack, a: str, b: str) -> list:
    """``g.matrix(a, b)`` as nested lists, each computed once per pack."""
    if (a, b) not in g._rows:  # yx and zx are the transposes of the computed xy and xz
        g._rows[a, b] = list(zip(*_rows(g, b, a))) if a > b else g.matrix(a, b).tolist()
    return g._rows[a, b]


def _pattern(text: str) -> Pattern:
    """``"a0b1 a2b3"`` is ((("a", 0), ("b", 1)), (("a", 2), ("b", 3)))."""
    return tuple(((f[0], int(f[1])), (f[2], int(f[3]))) for f in text.split())


def _draws(m: int, sizes: list[int]):
    """Every flat index tuple whose consecutive groups of ``sizes`` entries
    each hold distinct indices in range(m).  One group is drawn lazily;
    across groups ``product`` holds its inputs (at most m^3 tuples each),
    never the tuples it yields."""
    head = permutations(range(m), sizes[0])
    if len(sizes) == 1:
        return head
    return starmap(add, product(head, _draws(m, sizes[1:])))


def _groups(pattern: Pattern, a: str, b: str) -> dict[str, list[int]]:
    """A pattern's slots grouped by the population each resolves to, both in
    order of first appearance.  Points that resolve to one population are
    distinct draws from it, so one pattern serves a == b and a != b."""
    role = {"a": a, "b": b}
    groups: dict[str, list[int]] = {}
    for slot, p in {slot: role.get(r, r) for factor in pattern for r, slot in factor}.items():
        groups.setdefault(p, []).append(slot)
    return groups


def _enumerate(g: GramPack, pattern: Pattern, a: str, b: str) -> float:
    """The U-statistic of a pattern: the average, over every assignment of
    indices to its points that is distinct within each population, of the
    product of its kernel entries."""
    groups = _groups(pattern, a, b)
    order = [(slot, p) for p, slots in groups.items() for slot in slots]
    pop, at = dict(order), {slot: i for i, (slot, _) in enumerate(order)}
    draws = _draws(g.m, [len(slots) for slots in groups.values()])
    factors = [(pop[p], pop[q], at[p], at[q]) for (_, p), (_, q) in pattern]
    (u, v, i, j), *rest = factors
    k = _rows(g, u, v)
    tot, n = 0.0, 0
    if not rest:
        for t in draws:
            tot += k[t[i]][t[j]]
            n += 1
    else:
        ((u2, v2, i2, j2),) = rest
        k2 = _rows(g, u2, v2)
        for t in draws:
            tot += k[t[i]][t[j]] * k2[t[i2]][t[j2]]
            n += 1
    return tot / n


def oracle_mmd2(g: GramPack, pair: str = "xy") -> float:
    """Squared-MMD U-statistic as a literal sum over index pairs i != j (no
    cached sums): a paired statistic, so not a pattern of independent draws."""
    if pair not in ("xy", "xz"):
        raise ValueError(f"pair must be 'xy' or 'xz', got {pair!r}")
    _guard(g)
    b = pair[1]
    kaa, kbb, kab = _rows(g, "x", "x"), _rows(g, b, b), _rows(g, "x", b)
    tot, n = 0.0, 0
    for i, j in permutations(range(g.m), 2):
        tot += kaa[i][j] + kbb[i][j] - kab[i][j] - kab[j][i]
        n += 1
    return tot / n


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
        return TERMS[term_id].truth(self, None)


def population_mmd2(mom: PopulationMoments, pair: str = "xy") -> float:
    """Population squared MMD between two of the modelled populations."""
    a, b = pair[0], pair[1]
    return mom.mu[a, a] + mom.mu[b, b] - 2 * mom.mu[a, b]


def _truths(mom: PopulationMoments) -> Terms:
    return lambda family, a, b: _FAMILIES[family][1](mom, a, b)


def mmd2_var_components(mom: PopulationMoments) -> tuple[float, float]:
    """First- and second-order variance components of the two-sample pair
    kernel h(U1, U2): the variance of E[h | U1] and the total variance of h."""
    return mmd2_zeta(_truths(mom))


def diff_var_components(mom: PopulationMoments) -> tuple[float, float]:
    """Variance components of the three-sample difference pair kernel."""
    return diff_zeta(_truths(mom))


def population_mmd2_var(mom: PopulationMoments, m: int) -> float:
    """True Var[mmd2_u(X, Y)] at sample size m."""
    return u_stat_variance(*mmd2_var_components(mom), m)


def population_diff_var(mom: PopulationMoments, m: int) -> float:
    """True Var[mmd2_u(X, Y) - mmd2_u(X, Z)] at sample size m."""
    return u_stat_variance(*diff_var_components(mom), m)


# ---------------------------------------------------------------------------
# the verification targets
# ---------------------------------------------------------------------------

class Target(NamedTuple):
    """One verification target; the Monte Carlo harness reads it by position."""

    estimate: Callable[[GramPack], float]  # the O(m^2) estimator
    min_m: int
    needs_z: bool
    loop: Callable[[GramPack], float] | None  # enumerated pattern twin (sub-terms only)
    truth: Callable[[PopulationMoments, int | None], float]  # population value at m


#: Term families: (pattern, population value), each taking a row's
#: populations (a, b); :data:`mmdvar.estimators.FAMILIES` holds the estimators.
_FAMILIES = {
    "mu": (_pattern("a0b1"), lambda mom, a, b: mom.mu[a, b]),
    "mu_sq": (_pattern("a0b1 a2b3"), lambda mom, a, b: mom.mu[a, b] * mom.mu[a, b]),
    "prod_own": (_pattern("a0a1 a2b3"), lambda mom, a, b: mom.mu[a, a] * mom.mu[a, b]),
    "prod_shared": (_pattern("x0a1 x2b3"), lambda mom, a, b: mom.mu["x", a] * mom.mu["x", b]),
    "ephi2": (_pattern("a0b1 a0b2"), lambda mom, a, b: mom.phi_sq[a, b]),
    "ephi_own": (_pattern("a0a1 a0b2"), lambda mom, a, b: mom.phi_prod[a, a, b]),
    "ephi_shared": (_pattern("x0a1 x0b2"), lambda mom, a, b: mom.phi_prod["x", a, b]),
    "ek2": (_pattern("a0b1 a0b1"), lambda mom, a, b: mom.k2[a, b]),
}


def _term(family: str, a: str, b: str) -> Target:
    """A sub-term's row; its minimum m is the most distinct points its pattern
    draws from one population, and at least 2."""
    estimate, (pattern, truth) = FAMILIES[family], _FAMILIES[family]
    min_m = max(2, *map(len, _groups(pattern, a, b).values()))
    return Target(lambda g: estimate(g, a, b), min_m, "z" in (a, b),
                  lambda g: _enumerate(g, pattern, a, b), lambda mom, m: truth(mom, a, b))


#: Every sub-term the variance expressions are built from, as
#: (family, a, b).  Ids spell populations and orientation:
#: ``ephi2_yx`` is E[<phi(Y), mu_x>^2], ``prod_xx_xy`` is
#: <mu_x, mu_x><mu_x, mu_y>.
TERMS: dict[str, Target] = {t: _term(*row) for t, row in {
    "mu_xx": ("mu", "x", "x"),
    "mu_yy": ("mu", "y", "y"),
    "mu_zz": ("mu", "z", "z"),
    "mu_xy": ("mu", "x", "y"),
    "mu_xz": ("mu", "x", "z"),
    "mu_sq_xx": ("mu_sq", "x", "x"),
    "mu_sq_yy": ("mu_sq", "y", "y"),
    "mu_sq_zz": ("mu_sq", "z", "z"),
    "mu_sq_xy": ("mu_sq", "x", "y"),
    "mu_sq_xz": ("mu_sq", "x", "z"),
    "prod_xx_xy": ("prod_own", "x", "y"),
    "prod_yy_yx": ("prod_own", "y", "x"),
    "prod_zz_zx": ("prod_own", "z", "x"),
    "prod_xy_xz": ("prod_shared", "y", "z"),
    "ephi2_xx": ("ephi2", "x", "x"),
    "ephi2_yy": ("ephi2", "y", "y"),
    "ephi2_zz": ("ephi2", "z", "z"),
    "ephi2_xy": ("ephi2", "x", "y"),
    "ephi2_yx": ("ephi2", "y", "x"),
    "ephi2_xz": ("ephi2", "x", "z"),
    "ephi2_zx": ("ephi2", "z", "x"),
    "ephi_xx_xy": ("ephi_own", "x", "y"),
    "ephi_yy_yx": ("ephi_own", "y", "x"),
    "ephi_zz_zx": ("ephi_own", "z", "x"),
    "ephi_xy_xz": ("ephi_shared", "y", "z"),
    "ek2_xx": ("ek2", "x", "x"),
    "ek2_yy": ("ek2", "y", "y"),
    "ek2_zz": ("ek2", "z", "z"),
    "ek2_xy": ("ek2", "x", "y"),
    "ek2_xz": ("ek2", "x", "z"),
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


def _refusal(row: Target, m: int, has_z: bool) -> str | None:
    """Why a row cannot be evaluated at sample size m, with or without a z
    sample, or None if it can: the one place either is decided."""
    if m < row.min_m:
        return f"requires m >= {row.min_m}, got m = {m}"
    if row.needs_z and not has_z:
        return "requires a z sample"
    return None


def check_target(target_id: str, m: int, has_z: bool, sub_term: bool = False) -> Target:
    """The row of a target id (of a sub-term id if ``sub_term``), refusing an
    unknown id and a sample size or set of samples the row does not admit."""
    table, kind = (TERMS, "term id") if sub_term else (TARGETS, "target")
    if target_id not in table:
        raise ValueError(f"unknown {kind} {target_id!r}")
    row = table[target_id]
    why = _refusal(row, m, has_z)
    if why is not None:
        raise ValueError(f"target {target_id!r} {why}")
    return row


def estimate_term(g: GramPack, term_id: str) -> float:
    """Evaluate one sub-term estimator by id."""
    return check_target(term_id, g.m, g.has_z, sub_term=True).estimate(g)


def sub_term_estimates(g: GramPack) -> dict[str, float]:
    """Every sub-term estimate whose minimum m, and need for a z sample, the pack meets."""
    return {t: row.estimate(g) for t, row in TERMS.items()
            if _refusal(row, g.m, g.has_z) is None}


def oracle_term(g: GramPack, term_id: str) -> float:
    """One sub-term's pattern, enumerated over its distinct index tuples;
    the ground truth the matrix estimators are checked against."""
    _guard(g)
    return check_target(term_id, g.m, g.has_z, sub_term=True).loop(g)


def enumerated_terms(g: GramPack) -> Terms:
    """Every sub-term's pattern enumerated on one pack, keyed as the variance
    parts of :mod:`mmdvar.estimators` read them."""
    _guard(g)
    return lambda family, a, b: _enumerate(g, _FAMILIES[family][0], a, b)


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
        if (self.mean_z is None) != (self.var_z is None):
            raise ValueError("provide both mean_z and var_z or neither")
        if not all(v > 0 for v in (self.var_x, self.var_y, self.var_z) if v is not None):
            raise ValueError("variances must be strictly positive")

    @property
    def has_z(self) -> bool:
        return self.mean_z is not None

    def params(self, pop: str) -> tuple[float, float]:
        if pop in ("x", "y") or pop == "z" and self.has_z:
            return getattr(self, "mean_" + pop), getattr(self, "var_" + pop)
        raise ValueError(f"model has no population {pop!r}")


def gaussian_linear_moments(model: GaussianLinearModel) -> PopulationMoments:
    """Closed-form population moments of the model.

    For A ~ N(a, va), B ~ N(b, vb) independent and k(x, y) = xy:
    <mu_a, mu_b> = a b;  E[<phi(A), mu_b>^2] = (a^2 + va) b^2;
    E[<phi(A), mu_b><phi(A), mu_c>] = (a^2 + va) b c;
    E[k(A, B)^2] = (a^2 + va)(b^2 + vb).

    Each table holds its formula at every pair (or triple) of the model's
    populations.
    """
    pops = ["x", "y"] + (["z"] if model.has_z else [])
    mean = {p: model.params(p)[0] for p in pops}
    second = {p: mean[p] ** 2 + model.params(p)[1] for p in pops}
    pairs = list(product(pops, repeat=2))
    mu = {(a, b): mean[a] * mean[b] for a, b in pairs}
    phi_sq = {(a, b): second[a] * (mean[b] * mean[b]) for a, b in pairs}
    phi_prod = {(a, b, c): second[a] * mean[b] * mean[c] for a, b, c in product(pops, repeat=3)}
    k2 = {(a, b): second[a] * second[b] for a, b in pairs}
    return PopulationMoments(mu=mu, phi_sq=phi_sq, phi_prod=phi_prod, k2=k2)


def ndtri(p):  # scipy's, imported on first call: only the Gaussian sampler needs it
    from scipy.special import ndtri
    return ndtri(p)


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
    (mx, vx), (my, vy) = model.params("x"), model.params("y")

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
