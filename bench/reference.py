"""Dense NumPy recomputation of the three-sample RBF estimates.

Independent of ``mmdvar.kernels``: squared distances come from the Gram
expansion |a|^2 + |b|^2 - 2 a.b through BLAS rather than scipy's cdist and
pdist, every kernel entry is evaluated (no condensed storage), and the
aggregates are accumulated over row blocks so the check never holds an
m x m matrix.  The estimators are the closed forms of Sutherland & Deka
(arXiv:1906.02104) written over those aggregates.  Each value comes with a
scale, the sum of the absolute values of its terms, against which rounding
error is judged.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 512


def _aggregates(a: np.ndarray, b: np.ndarray, sigma: float, within: bool) -> dict:
    """Row sums, column sums, total, squared Frobenius norm and trace of
    K[i, j] = exp(-|a_i - b_j|^2 / (2 sigma^2)), diagonal zeroed if ``within``."""
    scale = -0.5 / (sigma * sigma)
    nb = np.einsum("ij,ij->i", b, b)
    rows = np.empty(a.shape[0])
    cols = np.zeros(b.shape[0])
    frob = trace = 0.0
    for s in range(0, a.shape[0], _BLOCK):
        blk = a[s:s + _BLOCK]
        k = blk @ b.T
        k *= -2.0
        k += nb
        k += np.einsum("ij,ij->i", blk, blk)[:, None]
        np.maximum(k, 0.0, out=k)
        k *= scale
        np.exp(k, out=k)
        diag = (np.arange(blk.shape[0]), s + np.arange(blk.shape[0]))
        if within:
            k[diag] = 0.0
        else:
            trace += float(k[diag].sum())
        rows[s:s + blk.shape[0]] = k.sum(axis=1)
        cols += k.sum(axis=0)
        frob += float(np.einsum("ij,ij->", k, k))
    return {"rows": rows, "cols": cols, "total": float(rows.sum()), "frob": frob,
            "trace": trace}


def _sum(terms: list[float]) -> tuple[float, float]:
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def estimates(x: np.ndarray, y: np.ndarray, z: np.ndarray, sigma: float) -> dict:
    """{name: (value, scale)} for mmd2_xy, mmd2_xz, vhat and nuhat."""
    m = x.shape[0]
    wx, wy, wz = (_aggregates(s, s, sigma, True) for s in (x, y, z))
    cy, cz = _aggregates(x, y, sigma, False), _aggregates(x, z, sigma, False)
    ff = math.perm
    m1, m2, m3 = m - 1, m - 2, m - 3

    def mmd2(w_b: dict, c: dict) -> tuple[float, float]:
        return _sum([t / ff(m, 2) for t in
                     (wx["total"], w_b["total"], -2.0 * (c["total"] - c["trace"]))])

    def sq(v: np.ndarray) -> float:
        return float(v @ v)

    vhat = _sum([
        4.0 * (sq(wx["rows"]) + sq(wy["rows"])) / ff(m, 4),
        4.0 * (m * m - m - 1) * (sq(cy["rows"]) + sq(cy["cols"])) / (m ** 3 * m1 ** 3),
        -8.0 * (float(wx["rows"] @ cy["rows"]) + float(wy["rows"] @ cy["cols"]))
        / (m * m * m1 * m2),
        8.0 * (wx["total"] + wy["total"]) * cy["total"] / (m * m * ff(m, 3)),
        -2.0 * (2 * m - 3) * (wx["total"] ** 2 + wy["total"] ** 2) / (ff(m, 2) * ff(m, 4)),
        -4.0 * (2 * m - 3) * cy["total"] ** 2 / (m ** 3 * m1 ** 3),
        -2.0 * (wx["frob"] + wy["frob"]) / (m * m1 * m2 * m3),
        -4.0 * m2 * cy["frob"] / (m * m * m1 ** 3),
    ])
    nuhat = _sum([
        4.0 * (m * m - m - 1)
        * (sq(cy["rows"]) + sq(cy["cols"]) + sq(cz["rows"]) + sq(cz["cols"]))
        / (m ** 3 * m1 ** 3),
        4.0 * (sq(wy["rows"]) + sq(wz["rows"])) / ff(m, 4),
        -8.0 * float(cy["rows"] @ cz["rows"]) / (m ** 3 * m1),
        -8.0 * (float(wy["rows"] @ cy["cols"]) + float(wz["rows"] @ cz["cols"]))
        / (m * m * m1 * m2),
        -4.0 * (2 * m - 3) * (cy["total"] ** 2 + cz["total"] ** 2) / (m ** 3 * m1 ** 3),
        -2.0 * (2 * m - 3) * (wy["total"] ** 2 + wz["total"] ** 2) / (ff(m, 2) * ff(m, 4)),
        8.0 * cy["total"] * cz["total"] / (m ** 4 * m1),
        8.0 * (wy["total"] * cy["total"] + wz["total"] * cz["total"]) / (m * m * ff(m, 3)),
        -4.0 * m2 * (cy["frob"] + cz["frob"]) / (m * m * m1 ** 3),
        -2.0 * (wy["frob"] + wz["frob"]) / (m * m1 * m2 * m3),
    ])
    return {"mmd2_xy": mmd2(wy, cy), "mmd2_xz": mmd2(wz, cz), "vhat": vhat, "nuhat": nuhat}
