"""Kernel functions, Gram matrices, and their cached aggregate statistics.

Everything downstream works off a :class:`GramPack`: the cross kernel
matrices between the samples plus the within-sample matrices with their
diagonals zeroed at construction time, so that sums over the zeroed
matrices automatically range over pairs of distinct indices.  Row sums,
column sums, grand sums, squared Frobenius norms and traces are cached
once; all estimators are then O(m) reductions over these caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

MEDIAN = "median"

_KINDS = ("linear", "rbf", "polynomial", "constant")


@dataclass(frozen=True)
class KernelSpec:
    """Declarative kernel choice.

    kind:
        ``linear``      k(x, y) = x . y
        ``rbf``         k(x, y) = exp(-||x - y||^2 / (2 sigma^2)) with sigma = bandwidth
        ``polynomial``  k(x, y) = (x . y + coef0) ** degree
        ``constant``    k(x, y) = value

    The RBF bandwidth may be the sentinel string ``"median"``; it must be
    resolved to a number (see :func:`median_heuristic`) before the kernel
    can be evaluated.  ``build_gram_pack`` resolves it against the pooled
    sample automatically.

    The constant kernel is positive semidefinite iff ``value >= 0``; it is
    admitted mainly because it makes every estimator collapse to a known
    exact value, which is useful for testing.
    """

    kind: str
    bandwidth: float | str | None = None
    degree: int | None = None
    coef0: float | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "rbf":
            if self.bandwidth is None:
                raise ValueError("rbf kernel requires a bandwidth (number or 'median')")
            if isinstance(self.bandwidth, str):
                if self.bandwidth != MEDIAN:
                    raise ValueError(f"bandwidth must be a number or {MEDIAN!r}")
            elif not float(self.bandwidth) > 0.0:
                raise ValueError("rbf bandwidth must be strictly positive")
        elif self.kind == "polynomial":
            if self.degree is None or int(self.degree) != self.degree or self.degree < 1:
                raise ValueError("polynomial kernel requires integer degree >= 1")
            if self.coef0 is None:
                object.__setattr__(self, "coef0", 0.0)
        elif self.kind == "constant":
            if self.value is None:
                raise ValueError("constant kernel requires a value")

    # -- convenience constructors -------------------------------------
    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls("linear")

    @classmethod
    def rbf(cls, bandwidth: float | str = MEDIAN) -> "KernelSpec":
        return cls("rbf", bandwidth=bandwidth)

    @classmethod
    def polynomial(cls, degree: int, coef0: float = 0.0) -> "KernelSpec":
        return cls("polynomial", degree=degree, coef0=coef0)

    @classmethod
    def constant(cls, value: float = 1.0) -> "KernelSpec":
        return cls("constant", value=value)


def _resolved_sigma(spec: KernelSpec) -> float:
    if spec.bandwidth == MEDIAN:
        raise ValueError("rbf bandwidth 'median' has not been resolved to a number")
    return float(spec.bandwidth)


def eval_kernel(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate k(x, y) for a single pair of vectors.

    Symmetric in its arguments; raises on dimension mismatch and on an
    unresolved ``"median"`` RBF bandwidth.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if spec.kind == "linear":
        return float(x @ y)
    if spec.kind == "rbf":
        sigma = _resolved_sigma(spec)
        d = x - y
        return float(np.exp(-(d @ d) / (2.0 * sigma * sigma)))
    if spec.kind == "polynomial":
        return float((x @ y + spec.coef0) ** spec.degree)
    return float(spec.value)


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense kernel matrix K[i, j] = k(a_i, b_j) (diagonal untouched)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if spec.kind == "linear":
        return a @ b.T
    if spec.kind == "rbf":
        sigma = _resolved_sigma(spec)
        d = cdist(a, b, "sqeuclidean")
        d *= -1.0 / (2.0 * sigma * sigma)
        return np.exp(d, out=d)
    if spec.kind == "polynomial":
        return (a @ b.T + spec.coef0) ** spec.degree
    return np.full((a.shape[0], b.shape[0]), float(spec.value))


def _median_distance_from_sq(parts: list[np.ndarray]) -> float:
    """Median Euclidean distance given squared distances in arbitrary chunks.

    sqrt is monotone, so the middle order statistics of the squared values
    are the squares of the middle distances; selecting them first avoids a
    square root per pair.
    """
    sq = np.concatenate([np.ravel(p) for p in parts])
    n = sq.size
    mid = n // 2
    if n % 2:
        sq.partition(mid)
        med = float(np.sqrt(sq[mid]))
    else:
        sq.partition([mid - 1, mid])
        med = 0.5 * (float(np.sqrt(sq[mid - 1])) + float(np.sqrt(sq[mid])))
    if med == 0.0:
        raise ValueError("degenerate pooled sample: median pairwise distance is zero")
    return med


def median_heuristic(pooled: np.ndarray) -> float:
    """Median of Euclidean distances over all unordered pairs of distinct rows.

    Zero distances (duplicate rows) participate in the median; only a zero
    median itself is an error.  This is the bandwidth used for the RBF
    kernel when the spec carries the ``"median"`` sentinel.
    """
    pooled = _as_sample(pooled, "pooled")
    if pooled.shape[0] < 2:
        raise ValueError("median heuristic needs at least 2 rows")
    if not np.isfinite(pooled).all():
        raise ValueError("median heuristic needs finite rows")
    return _median_distance_from_sq([pdist(pooled, "sqeuclidean")])


def resolve_bandwidth(spec: KernelSpec, pooled: np.ndarray) -> KernelSpec:
    """Return a spec whose RBF bandwidth is numeric, resolving 'median' if needed."""
    if spec.kind == "rbf" and spec.bandwidth == MEDIAN:
        return replace(spec, bandwidth=median_heuristic(pooled))
    return spec


@dataclass(frozen=True)
class GramStats:
    """Cached aggregates of one kernel matrix."""

    row_sums: np.ndarray
    col_sums: np.ndarray
    total: float      # grand sum 1' K 1
    frob_sq: float    # ||K||_F^2
    trace: float

    def swapped(self) -> "GramStats":
        """Aggregates of the transposed matrix."""
        return GramStats(self.col_sums, self.row_sums, self.total, self.frob_sq, self.trace)


def _stats(k: np.ndarray, symmetric: bool = False) -> GramStats:
    row_sums = k.sum(axis=1)
    col_sums = row_sums if symmetric else k.sum(axis=0)
    total = float(row_sums.sum())
    frob_sq = float(np.einsum("ij,ij->", k, k))
    if not (math.isfinite(total) and math.isfinite(frob_sq)):
        raise ValueError("kernel matrix is not finite (non-finite input or overflow)")
    trace = float(np.trace(k))
    row_sums.setflags(write=False)
    col_sums.setflags(write=False)
    return GramStats(row_sums, col_sums, total, frob_sq, trace)


_CROSS_KEYS = {("x", "y"): "xy", ("x", "z"): "xz"}


@dataclass(frozen=True)
class GramPack:
    """All kernel matrices for samples X, Y (and optionally Z), plus caches.

    ``kxx_t``, ``kyy_t``, ``kzz_t`` are the within-sample matrices with the
    diagonal set to zero, so any full sum over them is a sum over distinct
    index pairs.  Matrices are read-only after construction; the pack is
    safe for concurrent use.
    """

    m: int
    d: int
    spec: KernelSpec
    kxy: np.ndarray
    kxx_t: np.ndarray
    kyy_t: np.ndarray
    kxz: np.ndarray | None
    kzz_t: np.ndarray | None
    stats: dict[str, GramStats]

    @property
    def has_z(self) -> bool:
        return self.kxz is not None

    def within(self, pop: str) -> GramStats:
        """Aggregates of the zero-diagonal within-sample matrix of ``pop``."""
        if pop not in ("x", "y", "z"):
            raise ValueError(f"unknown population {pop!r}")
        if pop == "z" and not self.has_z:
            raise ValueError("no z sample in this GramPack")
        return self.stats[pop + pop]

    def cross(self, a: str, b: str) -> GramStats:
        """Aggregates of the cross matrix oriented with rows indexed by ``a``."""
        if (a, b) in _CROSS_KEYS:
            st = self.stats.get(_CROSS_KEYS[(a, b)])
        elif (b, a) in _CROSS_KEYS:
            st = self.stats.get(_CROSS_KEYS[(b, a)])
            st = st.swapped() if st is not None else None
        else:
            raise ValueError(f"no kernel matrix for pair ({a!r}, {b!r})")
        if st is None:
            raise ValueError("no z sample in this GramPack")
        return st

    def matrix(self, a: str, b: str) -> np.ndarray:
        """The kernel matrix with rows indexed by ``a`` and columns by ``b``.

        Within-sample pairs return the zero-diagonal matrix; reversed cross
        pairs return a transposed view.
        """
        if a == b:
            self.within(a)  # availability check
            return {"x": self.kxx_t, "y": self.kyy_t, "z": self.kzz_t}[a]
        if (a, b) == ("x", "y"):
            return self.kxy
        if (a, b) == ("y", "x"):
            return self.kxy.T
        if (a, b) in (("x", "z"), ("z", "x")):
            if not self.has_z:
                raise ValueError("no z sample in this GramPack")
            return self.kxz if a == "x" else self.kxz.T
        raise ValueError(f"no kernel matrix for pair ({a!r}, {b!r})")


def _as_sample(arr: np.ndarray, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.ndim != 2:
        raise ValueError(f"{name} must be an m x d matrix, got ndim={out.ndim}")
    return out


def _zero_diag_sym(k: np.ndarray) -> np.ndarray:
    # (k + k.T)/2 leaves an already-symmetric matrix bit-identical but
    # guarantees exact symmetry regardless of how the BLAS filled it in.
    out = (k + k.T) * 0.5
    np.fill_diagonal(out, 0.0)
    return out


def _rbf_matrices(
    spec: KernelSpec, sets: dict[str, np.ndarray],
) -> tuple[KernelSpec, dict[str, np.ndarray]]:
    """RBF matrices from squared-distance blocks computed exactly once.

    Within-sample blocks stay condensed (half the pairs) until expansion,
    which also yields the zero diagonal and exact symmetry for free.  A
    'median' bandwidth is selected from the same blocks, augmented by the
    Y-Z block that the Gram pack itself never needs, so the multiset of
    pooled pairwise distances is complete.
    """
    d_cross = {k: cdist(sets["x"], s, "sqeuclidean")
               for k, s in (("xy", sets["y"]), ("xz", sets.get("z")))
               if s is not None}
    d_within = {p + p: pdist(s, "sqeuclidean") for p, s in sets.items()}
    if spec.bandwidth == MEDIAN:
        parts = list(d_cross.values()) + list(d_within.values())
        if "z" in sets:
            parts.append(cdist(sets["y"], sets["z"], "sqeuclidean"))
        spec = replace(spec, bandwidth=_median_distance_from_sq(parts))
    scale = -0.5 / (float(spec.bandwidth) ** 2)

    def to_kernel(d: np.ndarray) -> np.ndarray:
        d *= scale
        return np.exp(d, out=d)

    mats = {k: to_kernel(d) for k, d in d_cross.items()}
    mats.update({k: squareform(to_kernel(d)) for k, d in d_within.items()})
    return spec, mats


def build_gram_pack(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray | None = None,
    spec: KernelSpec = KernelSpec.linear(),
) -> GramPack:
    """Compute all kernel matrices and caches for samples of equal size.

    All samples must share the same number of rows m >= 2 and the same
    dimension.  1-d inputs are treated as single-column samples.  An RBF
    'median' bandwidth is resolved against the pooled rows of every sample
    provided.
    """
    x = _as_sample(x, "x")
    y = _as_sample(y, "y")
    sets = {"x": x, "y": y}
    if z is not None:
        sets["z"] = _as_sample(z, "z")
    m, d = x.shape
    for name, s in sets.items():
        if s.shape[0] != m:
            raise ValueError(f"sample sizes differ: x has {m} rows, {name} has {s.shape[0]}")
        if s.shape[1] != d:
            raise ValueError(f"dimensions differ: x has d={d}, {name} has d={s.shape[1]}")
    if m < 2:
        raise ValueError("need at least m = 2 observations per sample")

    if spec.kind == "rbf":
        spec, mats = _rbf_matrices(spec, sets)
    else:
        mats = {"xy": kernel_matrix(spec, x, y),
                "xx": _zero_diag_sym(kernel_matrix(spec, x, x)),
                "yy": _zero_diag_sym(kernel_matrix(spec, y, y))}
        if z is not None:
            mats["xz"] = kernel_matrix(spec, x, sets["z"])
            mats["zz"] = _zero_diag_sym(kernel_matrix(spec, sets["z"], sets["z"]))
    stats = {key: _stats(mat, symmetric=len(set(key)) == 1) for key, mat in mats.items()}
    kxy, kxx_t, kyy_t = mats["xy"], mats["xx"], mats["yy"]
    kxz, kzz_t = mats.get("xz"), mats.get("zz")

    for k in (kxy, kxx_t, kyy_t, kxz, kzz_t):
        if k is not None:
            k.setflags(write=False)
    return GramPack(m=m, d=d, spec=spec, kxy=kxy, kxx_t=kxx_t, kyy_t=kyy_t,
                    kxz=kxz, kzz_t=kzz_t, stats=stats)
