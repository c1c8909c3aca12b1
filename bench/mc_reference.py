"""Independent recomputation of the Monte Carlo harness's reports.

The verification path runs the scalar Gaussian model under the linear
kernel k(a, b) = ab.  For that model this module rebuilds, without
importing mmdvar:

- the replicate draws, from the harness's documented stream: replicate r
  reads a Philox generator keyed (seed, r), and x, y and z are, in that
  order, m Gaussians each by the inverse CDF of uniforms on
  {1, ..., 2^53 - 1} / 2^53;
- every estimator from its definition: an average of kernel products over
  the index tuples that are distinct within each sample (an einsum against
  a distinct-index mask), for all replicates at once;
- the two variance estimators from the Hoeffding decomposition of a
  second-order U-statistic over the paired sample w_i = (x_i, y_i, z_i),
  expanded into those sub-terms;
- every population value in closed form from the means and variances.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import ndtri

POPS = "xyz"


def draws(model, m: int, seed: int, replicates: int) -> dict[str, np.ndarray]:
    """{population: (replicates, m) array} of the harness's replicate draws."""
    out = {p: np.empty((replicates, m)) for p in POPS}
    for r in range(replicates):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, r], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        for p in POPS:
            out[p][r] = rng.integers(1, 1 << 53, size=m)
    for p in POPS:
        mean, var = _params(model, p)
        out[p] = ndtri(out[p] * (1.0 / (1 << 53))) * np.sqrt(var) + mean
    return out


def _params(model, pop: str) -> tuple[float, float]:
    return getattr(model, f"mean_{pop}"), getattr(model, f"var_{pop}")


def _distinct(m: int, k: int) -> np.ndarray:
    """Mask over k indices in range(m): 1 where all k indices differ."""
    mask = np.zeros((m,) * k)
    for idx in itertools.permutations(range(m), k):
        mask[idx] = 1.0
    return mask


# ---------------------------------------------------------------------------
# term ids: the population quantity a product of two kernel factors estimates
# ---------------------------------------------------------------------------
# A point is (population, slot); equal points are the same draw, different
# points are independent draws.  A factor is a pair of points.

def _product_term(f: tuple, g: tuple) -> str:
    """Id of E[k(f) k(g)] for two kernel factors of independent-or-equal points."""
    shared = set(f) & set(g)
    if len(shared) == 2:
        return "ek2_" + "".join(sorted(p for p, _ in f))
    if len(shared) == 1:
        (q,) = shared
        a = q[0]
        b, c = sorted(next(p for p in h if p != q)[0] for h in (f, g))
        if b == c:
            return f"ephi2_{a}{b}"
        if a in (b, c):
            other = c if b == a else b
            return f"ephi_{a}{a}_{a}{other}"
        return f"ephi_{a}{b}_{a}{c}"
    pf, pg = ("".join(sorted(p for p, _ in h)) for h in (f, g))
    if pf == pg:
        return "mu_sq_" + pf
    for own, other in ((pf, pg), (pg, pf)):
        if own[0] == own[1] and own[0] in other:
            b = other.replace(own[0], "", 1)
            return f"prod_{own}_{own[0]}{b}"
    if {pf, pg} == {"xy", "xz"}:
        return "prod_xy_xz"
    return f"mu_{pf}*mu_{pg}"  # no estimator of its own; must cancel


def _h(pair: str, i: int, j: int) -> list[tuple[float, tuple, tuple]]:
    """h(w_i, w_j) of mmd2_u for X against ``pair[1]``: signed kernel factors."""
    b = pair[1]
    return [(1.0, ("x", i), ("x", j)), (1.0, (b, i), (b, j)),
            (-1.0, ("x", i), (b, j)), (-1.0, ("x", j), (b, i))]


def _expect(h1: list, h2: list) -> dict[str, float]:
    out: dict[str, float] = {}
    for (s, *f), (t, *g) in itertools.product(h1, h2):
        key = _product_term(tuple(f), tuple(g))
        out[key] = out.get(key, 0.0) + s * t
    return out


def variance_combination(m: int, h) -> dict[str, float]:
    """Var[U] as {term id: coefficient} for the U-statistic of kernel ``h``.

    Var[U] = (4 (m-2) E[h12 h13] + 2 E[h12^2] + c E[h12] E[h34]) / (m (m-1))
    with c = (m-2)(m-3) - m(m-1): the ordered index pairs of U^2 grouped by
    how many indices they share.
    """
    n = m * (m - 1)
    parts = ((4.0 * (m - 2) / n, _expect(h(1, 2), h(1, 3))),
             (2.0 / n, _expect(h(1, 2), h(1, 2))),
             (((m - 2) * (m - 3) - n) / n, _expect(h(1, 2), h(3, 4))))
    out: dict[str, float] = {}
    for weight, terms in parts:
        for key, coef in terms.items():
            out[key] = out.get(key, 0.0) + weight * coef
    return {k: c for k, c in out.items() if abs(c) > 1e-12}


def _h_diff(i: int, j: int) -> list:
    return _h("xy", i, j) + [(-s, f, g) for s, f, g in _h("xz", i, j)]


# ---------------------------------------------------------------------------
# estimators from their definitions, one value per replicate
# ---------------------------------------------------------------------------

def estimates(samples: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """{target id: (replicates,) array} for every sub-term and statistic."""
    m = samples["x"].shape[1]
    d2, d3, d4 = _distinct(m, 2), _distinct(m, 3), _distinct(m, 4)
    ff = math.perm
    k = {a + b: samples[a][:, :, None] * samples[b][:, None, :] for a in POPS for b in POPS}

    def ein(spec, *ops):
        return np.einsum(spec, *ops, optimize=True)

    out: dict[str, np.ndarray] = {}
    for a in POPS:
        kaa = k[a + a]
        out[f"mu_{a}{a}"] = ein("rij,ij->r", kaa, d2) / ff(m, 2)
        out[f"mu_sq_{a}{a}"] = ein("rij,rkl,ijkl->r", kaa, kaa, d4) / ff(m, 4)
        out[f"ephi2_{a}{a}"] = ein("rij,rik,ijk->r", kaa, kaa, d3) / ff(m, 3)
        out[f"ek2_{a}{a}"] = ein("rij,rij,ij->r", kaa, kaa, d2) / ff(m, 2)
    for a, b in (("x", "y"), ("x", "z")):
        kab = k[a + b]
        out[f"mu_{a}{b}"] = kab.sum(axis=(1, 2)) / m ** 2
        out[f"mu_sq_{a}{b}"] = ein("rij,rkl,ik,jl->r", kab, kab, d2, d2) / ff(m, 2) ** 2
        out[f"ek2_{a}{b}"] = ein("rij,rij->r", kab, kab) / m ** 2
        out[f"mmd2_{a}{b}"] = ein("rij,ij->r", k["xx"] + k[b + b] - kab - kab.transpose(0, 2, 1),
                                  d2) / ff(m, 2)
    for a, b in itertools.permutations(POPS, 2):
        kab = k[a + b]
        out[f"ephi2_{a}{b}"] = ein("rij,rik,jk->r", kab, kab, d2) / (m * ff(m, 2))
    for a, b in (("x", "y"), ("y", "x"), ("z", "x")):
        out[f"prod_{a}{a}_{a}{b}"] = ein("rij,rkl,ijk->r", k[a + a], k[a + b], d3) / (ff(m, 3) * m)
        out[f"ephi_{a}{a}_{a}{b}"] = ein("rij,rik,ij->r", k[a + a], k[a + b], d2) / (ff(m, 2) * m)
    out["prod_xy_xz"] = ein("rij,rkl,ik->r", k["xy"], k["xz"], d2) / (ff(m, 2) * m * m)
    out["ephi_xy_xz"] = ein("rij,rik->r", k["xy"], k["xz"]) / m ** 3

    out["mmd2"] = out.pop("mmd2_xy")
    out["diff"] = out["mmd2"] - out["mmd2_xz"]
    for name, h in (("mmd2_var", lambda i, j: _h("xy", i, j)), ("mmd2_diff_var", _h_diff)):
        combination = variance_combination(m, h)
        stray = sorted(set(combination) - set(out))
        if stray:
            raise AssertionError(f"{name}: terms without an estimator did not cancel: {stray}")
        out[name] = sum(c * out[t] for t, c in combination.items())
    return out


# ---------------------------------------------------------------------------
# population values
# ---------------------------------------------------------------------------

def truths(model, m: int) -> dict[str, float]:
    """{target id: population value} of the scalar Gaussian linear model."""
    mu = {p: _params(model, p)[0] for p in POPS}
    var = {p: _params(model, p)[1] for p in POPS}
    sq = {p: mu[p] ** 2 + var[p] for p in POPS}  # E[P^2]
    out: dict[str, float] = {}
    for a, b in itertools.product(POPS, POPS):
        out[f"mu_{a}{b}"] = mu[a] * mu[b]
        out[f"mu_sq_{a}{b}"] = (mu[a] * mu[b]) ** 2
        out[f"ephi2_{a}{b}"] = sq[a] * mu[b] ** 2
        out[f"ek2_{a}{b}"] = sq[a] * sq[b]
        out[f"prod_{a}{a}_{a}{b}"] = mu[a] ** 3 * mu[b]
        out[f"ephi_{a}{a}_{a}{b}"] = sq[a] * mu[a] * mu[b]
    out["prod_xy_xz"] = mu["x"] ** 2 * mu["y"] * mu["z"]
    out["ephi_xy_xz"] = sq["x"] * mu["y"] * mu["z"]

    # d = x - y and e = x - z of one paired draw; h(w1, w2) = d1 d2 (- e1 e2)
    dm, em = mu["x"] - mu["y"], mu["x"] - mu["z"]
    dv, ev, cov = var["x"] + var["y"], var["x"] + var["z"], var["x"]
    out["mmd2"], out["mmd2_xz"] = dm ** 2, em ** 2
    out["diff"] = dm ** 2 - em ** 2

    def u_var(zeta1: float, zeta2: float) -> float:
        return (4.0 * (m - 2) * zeta1 + 2.0 * zeta2) / (m * (m - 1))

    out["mmd2_var"] = u_var(dm ** 2 * dv, 2 * dm ** 2 * dv + dv ** 2)
    dd = 2 * dm ** 2 * dv + dv ** 2  # Var[d1 d2]
    ee = 2 * em ** 2 * ev + ev ** 2  # Var[e1 e2]
    de = (cov + dm * em) ** 2 - (dm * em) ** 2  # Cov[d1 d2, e1 e2]
    out["mmd2_diff_var"] = u_var(dm ** 2 * dv + em ** 2 * ev - 2 * dm * em * cov,
                                 dd + ee - 2 * de)
    return out


def jackknife_var_se(v: np.ndarray) -> float:
    """Delete-one jackknife standard error of the ddof=1 sample variance."""
    n = v.size
    loo = np.tile(v, (n, 1))[~np.eye(n, dtype=bool)].reshape(n, n - 1).var(axis=1, ddof=1)
    return float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))
