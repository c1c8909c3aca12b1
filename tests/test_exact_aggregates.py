"""Exact-rational oracle for the Gram aggregates of float samples.

Every float64 is a dyadic rational: scaled by a common power of two, the
samples are exact integers, and so is every entry of K_ab = a b' (scalar
samples, the Monte Carlo model's kernel).  A float aggregate of n terms,
each a product of at most two rounded values, lies within gamma_n S of its
exact value, gamma_n = n u / (1 - n u) with u = 2^-53 and S the sum of the
terms' absolute values: the same aggregate of |a| |b|' (Higham, *Accuracy
and Stability of Numerical Algorithms*, ch. 3-4).  Both the harness's
closed forms and ``build_gram_pack`` must meet gamma_{2m+1} S.
"""

from fractions import Fraction

import numpy as np
import pytest

from mmdvar import build_gram_pack, montecarlo
from mmdvar.montecarlo import draw_replicate, replicate_rng
from mmdvar.oracle import GaussianLinearModel

U = Fraction(1, 2 ** 53)
FIELDS = ("row_sums", "total", "frob_sq", "trace")
PAIRS = ("xx", "yy", "zz", "xy", "yx", "xz", "zx")


def gamma(n: int) -> Fraction:
    """Higham's gamma_n: the relative error bound of n rounded operations."""
    return n * U / (1 - n * U)


def exact_aggregates(samples: dict[str, np.ndarray]):
    """``(out, den)``: each kernel matrix K_ab = a b' (diagonal zeroed when
    a == b) formed entry by entry in Python integers, ``out[ab][field]``
    being (exact value, S) over ``den``, the entries' common denominator."""
    exact = {p: [Fraction(t) for t in a.tolist()] for p, a in samples.items()}
    root = max(f.denominator for v in exact.values() for f in v)  # powers of 2
    ints = {p: np.array([int(f * root) for f in v], dtype=object) for p, v in exact.items()}
    out = {}
    for a, b in PAIRS:
        if a in ints and b in ints:
            k = np.outer(ints[a], ints[b])
            if a == b:
                np.fill_diagonal(k, 0)
            out[a + b] = {f: (fn(k), fn(np.abs(k))) for f, fn in (
                ("row_sums", lambda k: k.sum(axis=1)), ("total", lambda k: k.sum()),
                ("frob_sq", lambda k: (k * k).sum()), ("trace", np.trace))}
    return out, root * root


def within_bound(got, field: str, want, scale, den: int, m: int) -> bool:
    """|got - exact| <= gamma_{2m+1} S for every value of one field; the
    Frobenius norm sums squared entries, so its integers carry den^2."""
    if field == "frob_sq":
        den *= den
    bound = gamma(2 * m + 1)
    return all(abs(Fraction(g) * den - w) <= bound * s for g, w, s in
               zip(np.ravel(got).tolist(), np.ravel(want).tolist(), np.ravel(scale).tolist()))


MODELS = {"means_0": GaussianLinearModel(0.0, 1.0, 0.5, 2.0),
          "means_30": GaussianLinearModel(30.0, 1.0, 30.5, 2.0, 29.0, 1.0)}


def check_replicates(draws, m: int) -> None:
    """Every field of every matrix, from the harness's closed form over the
    replicates stacked as a chunk and from each replicate's own pack."""
    pops = "xyz"[:len([s for s in draws[0] if s is not None])]
    chunk = {p: np.stack([d[i][:, 0] for d in draws]) for i, p in enumerate(pops)}
    closed = montecarlo._rank_one_stats(chunk)
    for r, d in enumerate(draws):
        exact, den = exact_aggregates({p: chunk[p][r] for p in pops})
        pack = build_gram_pack(*d)
        assert set(closed) == set(pack.stats) == set(exact)
        for key, fields in exact.items():
            for field, (want, scale) in fields.items():
                stacked = getattr(closed[key], field)  # a zero trace stays a scalar
                for path, got in (("closed form", stacked if np.ndim(stacked) == 0
                                   else stacked[r]), ("pack", getattr(pack.stats[key], field))):
                    assert within_bound(got, field, want, scale, den, m), (path, r, key, field)


@pytest.mark.parametrize("m", [4, 8, 40])
@pytest.mark.parametrize("model", list(MODELS.values()), ids=list(MODELS))
def test_aggregates_within_gamma_bound_of_exact(model, m):
    check_replicates([draw_replicate(model, m, replicate_rng(m, r), model.has_z)
                      for r in range(4)], m)


def test_a_dominant_value_stays_within_the_bound():
    """x = (-0.006, 0.058, -0.062, -0.820): a closed form that subtracts x_i
    from sum(x), or x_i^2 from x.x, cancels when x_i dominates, and misses
    the bound by up to 3x on this replicate and 10^5x on others."""
    check_replicates([draw_replicate(MODELS["means_0"], 4, replicate_rng(4, 687), False)], 4)
