"""The population variance formulas against the definition of variance, exactly.

X, Y and Z are scalar populations of finite support with rational weights,
under the non-linear kernel k(u, v) = (uv + 1)^2.  Every population moment is
a finite weighted sum, so it is a ``Fraction``; every dataset of m points per
sample is enumerated with its probability, so the variance of the statistic
over all of them is a ``Fraction`` too, and the formulas must equal it.
"""

import math
from fractions import Fraction as F
from itertools import permutations, product

import pytest

from mmdvar.oracle import (
    PopulationMoments, diff_var_components, mmd2_var_components, population_diff_var,
    population_mmd2, population_mmd2_var,
)

#: population -> its (value, weight) support points
SUPPORT = {
    "x": ((0, F(1, 3)), (1, F(2, 3))),
    "y": ((1, F(1, 2)), (2, F(1, 2))),
    "z": ((0, F(1, 4)), (2, F(3, 4))),
}


def k(u, v):
    return (u * v + 1) ** 2


def draws(pops):
    """Every joint draw of one point from each population, with its probability."""
    for points in product(*(SUPPORT[p] for p in pops)):
        yield tuple(v for v, _ in points), math.prod(w for _, w in points)


def mean_k(u, pop):
    """<phi(u), mu_pop> = E k(u, P)."""
    return sum(w * k(u, v) for v, w in SUPPORT[pop])


def moments() -> PopulationMoments:
    pops = tuple(SUPPORT)
    pairs = list(product(pops, repeat=2))
    return PopulationMoments(
        mu={(a, b): sum(w * mean_k(u, b) for u, w in SUPPORT[a]) for a, b in pairs},
        phi_sq={(a, b): sum(w * mean_k(u, b) ** 2 for u, w in SUPPORT[a]) for a, b in pairs},
        phi_prod={(a, b, c): sum(w * mean_k(u, b) * mean_k(u, c) for u, w in SUPPORT[a])
                  for a, b, c in product(pops, repeat=3)},
        k2={(a, b): sum(w * k(u, v) ** 2 for (u, v), w in draws((a, b))) for a, b in pairs},
    )


def mmd2_u(a, b):
    """The squared-MMD U-statistic of two samples, from its definition."""
    m = len(a)
    total = sum(k(a[i], a[j]) + k(b[i], b[j]) - k(a[i], b[j]) - k(a[j], b[i])
                for i, j in permutations(range(m), 2))
    return F(total, m * (m - 1))


def mean_and_variance(weighted):
    """E[T] and Var[T] of a statistic given as (value, probability) pairs."""
    e1 = e2 = 0
    for t, w in weighted:
        e1 += w * t
        e2 += w * t * t
    return e1, e2 - e1 * e1


def datasets(pops, m):
    """Every dataset of m points from each population, with its probability."""
    for samples in product(*(product(SUPPORT[p], repeat=m) for p in pops)):
        yield [[v for v, _ in s] for s in samples], math.prod(w for s in samples for _, w in s)


def h_mmd2(u1, u2):
    (x1, y1), (x2, y2) = u1, u2
    return k(x1, x2) + k(y1, y2) - k(x1, y2) - k(x2, y1)


def h_diff(u1, u2):
    (x1, y1, z1), (x2, y2, z2) = u1, u2
    return h_mmd2((x1, y1), (x2, y2)) - h_mmd2((x1, z1), (x2, z2))


def components(h, pops):
    """Var E[h(U1, U2) | U1] and Var h(U1, U2), U1 and U2 independent draws."""
    support = list(draws(pops))
    conditional = [(sum(w2 * h(u1, u2) for u2, w2 in support), w1) for u1, w1 in support]
    _, first = mean_and_variance(conditional)
    _, second = mean_and_variance((h(u1, u2), w1 * w2)
                                  for (u1, w1), (u2, w2) in product(support, repeat=2))
    return first, second


MOM = moments()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_mmd2_variance_is_exact(m):
    mean, var = mean_and_variance((mmd2_u(x, y), p) for (x, y), p in datasets("xy", m))
    assert population_mmd2(MOM, "xy") == mean
    assert isinstance(population_mmd2_var(MOM, m), F)
    assert population_mmd2_var(MOM, m) == var


@pytest.mark.parametrize("m", [2, 3, 4])
def test_diff_variance_is_exact(m):
    mean, var = mean_and_variance((mmd2_u(x, y) - mmd2_u(x, z), p)
                                  for (x, y, z), p in datasets("xyz", m))
    assert population_mmd2(MOM, "xy") - population_mmd2(MOM, "xz") == mean
    assert isinstance(population_diff_var(MOM, m), F)
    assert population_diff_var(MOM, m) == var


@pytest.mark.parametrize("formula,h,pops", [(mmd2_var_components, h_mmd2, "xy"),
                                             (diff_var_components, h_diff, "xyz")])
def test_components_are_exact(formula, h, pops):
    first, second = formula(MOM)
    assert isinstance(first, F) and isinstance(second, F)
    assert (first, second) == components(h, pops)
