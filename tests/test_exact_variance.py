"""Exact-rational oracle for the two variance estimators at large m.

Under the linear kernel every aggregate the estimators read is a polynomial
in the data, so for integer samples it is an integer, computed here in
Python integers from the samples alone; the float aggregates of the pack are
never read.  The merged formulas of ``mmd2_var`` (8 terms) and
``mmd2_diff_var`` (10 terms) are evaluated over them in ``Fraction``, and the
float64 estimate must lie within 8 eps S of the exact value, eps = 2**-52
and S the sum of the absolute values of the terms.  The bound scales with S,
not with the value, because the terms cancel: shifting the data by +30
leaves both estimates unchanged in exact arithmetic but makes S far larger.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from mmdvar import KernelSpec, build_gram_pack, mmd2_diff_var, mmd2_var

EPS = Fraction(1, 2 ** 52)
PAIRS = ("xx", "yy", "zz", "xy", "yx", "xz", "zx")


def exact_stats(samples: dict[str, np.ndarray]) -> dict[str, tuple[list[int], int, int]]:
    """Row sums, total and squared Frobenius norm of each kernel matrix
    K_ab = A B' (diagonal zeroed when a == b), in Python integers.

    Row sums are A (B' 1); ||A B'||_F^2 is <A'A, B'B>_F, so no m x m matrix
    is formed.  The zeroed diagonal removes |a_i|^2 from each row sum and
    sum_i |a_i|^4 from the Frobenius norm.
    """
    s = {k: np.asarray(v, dtype=np.int64).astype(object) for k, v in samples.items()}
    out = {}
    for a, b in PAIRS:
        rows = [int(r) for r in s[a] @ s[b].sum(axis=0)]
        frob = int(((s[a].T @ s[a]) * (s[b].T @ s[b])).sum())
        if a == b:
            sq = [int(q) for q in (s[a] * s[a]).sum(axis=1)]
            rows = [r - q for r, q in zip(rows, sq)]
            frob -= sum(q * q for q in sq)
        out[a + b] = (rows, sum(rows), frob)
    return out


def _sq(v: list[int]) -> int:
    return sum(t * t for t in v)


def _dot(u: list[int], v: list[int]) -> int:
    return sum(s * t for s, t in zip(u, v))


def var_terms(st, m: int) -> list[Fraction]:
    """The 8 merged terms of the unbiased Var[mmd2_u(X, Y)] estimate."""
    (rx, tx, fx), (ry, ty, fy), (rc, tc, fc) = st["xx"], st["yy"], st["xy"]
    rt = st["yx"][0]
    m1, m2, m3 = m - 1, m - 2, m - 3
    ff = math.perm
    return [
        Fraction(4 * (_sq(rx) + _sq(ry)), ff(m, 4)),
        Fraction(4 * (m * m - m - 1) * (_sq(rc) + _sq(rt)), m ** 3 * m1 ** 3),
        Fraction(-8 * (_dot(rx, rc) + _dot(ry, rt)), m * m * m1 * m2),
        Fraction(8 * (tx + ty) * tc, m * m * ff(m, 3)),
        Fraction(-2 * (2 * m - 3) * (tx * tx + ty * ty), ff(m, 2) * ff(m, 4)),
        Fraction(-4 * (2 * m - 3) * tc * tc, m ** 3 * m1 ** 3),
        Fraction(-2 * (fx + fy), m * m1 * m2 * m3),
        Fraction(-4 * m2 * fc, m * m * m1 ** 3),
    ]


def diff_var_terms(st, m: int) -> list[Fraction]:
    """The 10 merged terms of the unbiased Var[mmd2_u(X, Y) - mmd2_u(X, Z)]
    estimate; no term reads K_XX."""
    (ry, ty, fy), (rz, tz, fz) = st["yy"], st["zz"]
    (rcy, tcy, fcy), (rcz, tcz, fcz) = st["xy"], st["xz"]
    rty, rtz = st["yx"][0], st["zx"][0]
    m1, m2, m3 = m - 1, m - 2, m - 3
    ff = math.perm
    return [
        Fraction(4 * (m * m - m - 1) * (_sq(rcy) + _sq(rty) + _sq(rcz) + _sq(rtz)),
                 m ** 3 * m1 ** 3),
        Fraction(4 * (_sq(ry) + _sq(rz)), ff(m, 4)),
        Fraction(-8 * _dot(rcy, rcz), m ** 3 * m1),
        Fraction(-8 * (_dot(ry, rty) + _dot(rz, rtz)), m * m * m1 * m2),
        Fraction(-4 * (2 * m - 3) * (tcy * tcy + tcz * tcz), m ** 3 * m1 ** 3),
        Fraction(-2 * (2 * m - 3) * (ty * ty + tz * tz), ff(m, 2) * ff(m, 4)),
        Fraction(8 * tcy * tcz, m ** 4 * m1),
        Fraction(8 * (ty * tcy + tz * tcz), m * m * ff(m, 3)),
        Fraction(-4 * m2 * (fcy + fcz), m * m * m1 ** 3),
        Fraction(-2 * (fy + fz), m * m1 * m2 * m3),
    ]


def error_ratios(samples: dict[str, np.ndarray]) -> tuple[float, float]:
    """|float - exact| / (eps S) for mmd2_var and mmd2_diff_var on integer samples."""
    g = build_gram_pack(samples["x"], samples["y"], samples["z"], KernelSpec.linear())
    st, m = exact_stats(samples), g.m
    ratios = []
    for got, terms in ((mmd2_var(g), var_terms(st, m)), (mmd2_diff_var(g), diff_var_terms(st, m))):
        scale = EPS * sum(abs(t) for t in terms)
        ratios.append(float(abs(Fraction(float(got)) - sum(terms)) / scale))
    return ratios[0], ratios[1]


def integer_samples(rng, m: int, d: int, lo: int, hi: int, shift: int):
    return {k: rng.integers(lo, hi + 1, size=(m, d)) + shift for k in "xyz"}


@pytest.mark.parametrize("shift", [0, 30])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("m", [4, 5, 8, 50, 500, 2000, 5000])
def test_variance_estimates_match_exact_rationals(m, d, shift):
    rng = np.random.default_rng([m, d, shift])
    var_ratio, diff_ratio = error_ratios(integer_samples(rng, m, d, -20, 20, shift))
    assert var_ratio <= 8.0
    assert diff_ratio <= 8.0


@pytest.mark.parametrize("seed", range(8))
def test_variance_estimates_match_exact_rationals_small_m(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        m, d = int(rng.integers(4, 31)), int(rng.integers(1, 5))
        hi = int(rng.integers(1, 100))
        shift = int(rng.integers(-50, 51))
        var_ratio, diff_ratio = error_ratios(integer_samples(rng, m, d, -hi, hi, shift))
        assert var_ratio <= 8.0, (m, d, hi, shift)
        assert diff_ratio <= 8.0, (m, d, hi, shift)
