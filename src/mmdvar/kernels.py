"""Kernel functions and the cached aggregates of their Gram matrices.

Everything downstream works off a :class:`GramPack`: the samples and, for
each ordered pair of populations (``xy`` and its transpose ``yx``, and
``xx`` with its diagonal zeroed so sums range over distinct index pairs),
the row and grand sums, squared Frobenius norm and trace of that kernel
matrix.  These and the median bandwidth are accumulated over blocks of
rows, never holding an m x m matrix: O(m^2) time, O(m * _BLOCK) memory.
Estimators are O(m) reductions over them.

Every function here takes one dataset, an m x d matrix per sample;
:func:`build_gram_pack` and :func:`median_heuristic` refuse a stack of
replicates.  Only the RBF distances load scipy: :func:`cdist` and
:func:`pdist` import it on their first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np


def cdist(a, b, metric):  # scipy's, imported on first call: only RBF kernels need it
    from scipy.spatial.distance import cdist
    return cdist(a, b, metric)


def pdist(a, metric):  # scipy's, imported on first call: only the median bandwidth needs it
    from scipy.spatial.distance import pdist
    return pdist(a, metric)


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
            else:  # the kernel scales distances by -1 / (2 sigma^2)
                sigma = float(self.bandwidth)
                two_var = 2.0 * sigma * sigma  # not sigma ** 2, which raises on overflow
                if not (sigma > 0.0 and 0.0 < two_var < math.inf and 1.0 / two_var < math.inf):
                    raise ValueError(f"rbf bandwidth must be positive, with 2 sigma^2 and "
                                     f"1 / (2 sigma^2) finite and nonzero, got {sigma!r}")
        elif self.kind == "polynomial":
            if self.degree is None or not 1 <= self.degree < math.inf or self.degree % 1:
                raise ValueError("polynomial kernel requires integer degree >= 1")
            if self.coef0 is None:
                object.__setattr__(self, "coef0", 0.0)
            if not math.isfinite(self.coef0):
                raise ValueError(f"polynomial coef0 must be finite, got {self.coef0!r}")
        elif self.kind == "constant":
            if self.value is None:
                raise ValueError("constant kernel requires a value")
            if not math.isfinite(self.value):
                raise ValueError(f"constant kernel value must be finite, got {self.value!r}")

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
    """Dense kernel matrix K[i, j] = k(a_i, b_j) (diagonal untouched), as a
    new C-contiguous array."""
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


#: Rows per block: a pass over a kernel matrix or over the pooled pairwise
#: distances holds one block of at most _BLOCK rows against all columns.
_BLOCK = 256
#: Most squared distances the median selection gathers at once (64 MiB).
_GATHER_MAX = 1 << 23
#: Most rows of the probe that brackets the median; fewer pooled rows skip it.
_PROBE_ROWS = 2048
#: Histogram bins of a pass that narrows a bracket holding too many values.
_BINS = 1024


def _pair_blocks(pooled: np.ndarray):
    """Flat blocks of the squared distances of all unordered pairs of rows, each pair once."""
    for i0 in range(0, pooled.shape[0], _BLOCK):
        block = pooled[i0:i0 + _BLOCK]
        yield pdist(block, "sqeuclidean")
        yield cdist(block, pooled[i0 + _BLOCK:], "sqeuclidean").ravel()


def _scan(pooled: np.ndarray, lo: float, hi: float):
    """One pass over all pairs: ``(below, gathered, bins)``, the number of
    squared distances below ``lo`` and those in [lo, hi], gathered while they
    fit in ``_GATHER_MAX``.  Past that, ``gathered`` is None and ``bins`` is
    (lows, highs, counts) of ``_BINS`` bins of equal width in the float64
    bits, which order non-negative floats as their values do."""
    n = pooled.shape[0]
    buf = np.empty(min(n * (n - 1) // 2, _GATHER_MAX))
    size = below = 0
    bins = None
    for d in _pair_blocks(pooled):
        under = d < lo
        below += np.count_nonzero(under)
        inside = d <= hi
        inside ^= under
        k = np.count_nonzero(inside)
        if bins is None and size + k <= buf.size:
            np.compress(inside, d, out=buf[size:size + k])
            size += k
            continue
        if bins is None:
            lo_bits, hi_bits = (int(np.float64(v).view(np.uint64)) for v in (lo, hi))
            starts = np.array([lo_bits + j * (hi_bits - lo_bits + 1) // _BINS
                               for j in range(_BINS + 1)], dtype=np.uint64)
            edges = starts[1:-1].view(np.float64)
            counts = np.bincount(np.searchsorted(edges, buf[:size], "right"), minlength=_BINS)
            bins = (starts[:-1].view(np.float64), (starts[1:] - 1).view(np.float64), counts)
        counts += np.bincount(np.searchsorted(edges, d[inside], "right"), minlength=_BINS)
    return below, (buf[:size] if bins is None else None), bins


def _select_sq(pooled: np.ndarray, ranks: tuple[int, ...], lo: float = 0.0,
               hi: float = math.inf) -> tuple[float, ...]:
    """Exact order statistics (one rank, or two adjacent) of the squared
    distances of all unordered pairs of rows, never holding n^2 values.

    [lo, hi] guesses a bracket of the ranks.  One that misses them is
    widened toward them, one holding too many values to gather is narrowed
    to a histogram bin holding them; each costs one more pass.
    """
    while True:
        below, gathered, bins = _scan(pooled, lo, hi)
        first, last = ranks[0] - below, ranks[-1] - below
        inside = gathered.size if bins is None else int(bins[2].sum())
        if first < 0 or last >= inside:  # missed: widen toward the ranks; the next pass recounts
            lo, hi = (0.0 if first < 0 else lo if first < inside else hi,
                      lo if last < 0 else hi if last < inside else math.inf)
        elif bins is None:
            gathered.partition([first, last])
            return tuple(float(gathered[r - below]) for r in ranks)
        else:
            lows, highs, counts = bins
            j = np.searchsorted(np.cumsum(counts), [first, last], side="right")
            if j[0] != j[1]:  # the ranks lie in different bins: select each alone
                return tuple(_select_sq(pooled, (r,), float(lows[b]), float(highs[b]))[0]
                             for r, b in zip(ranks, j))
            lo, hi = float(lows[j[0]]), float(highs[j[0]])
            if lo == hi:
                return (lo,) * len(ranks)


def _probe_bracket(pooled: np.ndarray) -> tuple[float, float]:
    """A bracket likely to hold the median squared distance: four standard
    errors either side of the median over p rows, every s-th (s >= 2).

    The error is the first-order one of a U-statistic, 2 sd(f) / sqrt(p),
    f_i being the share of probe row i's pairs at or below that median
    (over every 8th probe row).  Fewer than ``_PROBE_ROWS`` rows get the
    whole range.
    """
    n = pooled.shape[0]
    if n < _PROBE_ROWS:
        return 0.0, math.inf
    probe = pooled[::max(2, -(-n // _PROBE_ROWS))]
    p = probe.shape[0]
    sq = pdist(probe, "sqeuclidean")
    mid = sq.size // 2
    sq.partition(mid)
    share = np.count_nonzero(cdist(probe[::8], probe, "sqeuclidean") <= sq[mid], axis=1) / p
    half = int(4.0 * 2.0 * float(share.std()) / math.sqrt(p) * sq.size)
    ranks = [max(mid - half, 0), min(mid + half, sq.size - 1)]
    sq.partition(ranks)
    return float(sq[ranks[0]]), float(sq[ranks[1]])


def _median_distance_from_sq(pooled: np.ndarray) -> float:
    """Median Euclidean distance over all unordered pairs of distinct rows.

    sqrt is monotone, so the middle order statistics of the squared
    distances are the squares of the middle distances; selecting them first
    avoids a square root per pair.  The selection is exact, so the result
    equals ``np.median(np.sqrt(pdist(pooled, "sqeuclidean")))`` bit for bit.
    """
    if not np.isfinite(pooled).all():
        raise ValueError("pooled sample is not finite; the median heuristic needs finite rows")
    n = pooled.shape[0]
    pairs = n * (n - 1) // 2
    mid = pairs // 2
    ranks = (mid,) if pairs % 2 else (mid - 1, mid)
    roots = [float(np.sqrt(v)) for v in _select_sq(pooled, ranks, *_probe_bracket(pooled))]
    med = roots[0] if pairs % 2 else 0.5 * (roots[0] + roots[1])
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
    return _median_distance_from_sq(pooled)


def resolve_bandwidth(spec: KernelSpec, pooled: np.ndarray) -> KernelSpec:
    """Return a spec whose RBF bandwidth is numeric, resolving 'median' if needed."""
    if spec.kind == "rbf" and spec.bandwidth == MEDIAN:
        return replace(spec, bandwidth=median_heuristic(pooled))
    return spec


@dataclass(frozen=True)
class GramStats:
    """Cached aggregates of one kernel matrix.  The Monte Carlo harness
    stacks R replicates' aggregates: (R, m) row sums and (R,) scalars (a
    trace known to be 0 stays a scalar)."""

    row_sums: np.ndarray  # K 1
    total: float      # grand sum 1' K 1
    frob_sq: float    # ||K||_F^2
    trace: float


def _stats(spec: KernelSpec, a: np.ndarray, b: np.ndarray,
           within: bool) -> tuple[GramStats, GramStats]:
    """Aggregates of K[i, j] = k(a_i, b_j) and of its transpose, for samples
    of equal size m, accumulated over blocks of at most ``_BLOCK`` rows.
    The transpose's row sums are K's column sums.

    ``within`` means b is a: the diagonal is zeroed and only the upper
    triangle is evaluated, each block from its own diagonal rightwards; the
    part right of the block's square stands in for its transpose below it.
    """
    m = a.shape[0]
    row_sums = np.zeros(m)
    col_sums = None
    frob_sq = trace = 0.0
    for i0 in range(0, m, _BLOCK):
        k = kernel_matrix(spec, a[i0:i0 + _BLOCK], b[i0:] if within else b)
        n, width = k.shape
        diag = k.reshape(-1)[(0 if within else i0)::width + 1]  # a view: k is C-contiguous
        if within:
            diag[:] = 0.0
        else:
            trace = trace + diag.sum()
            part = k.sum(axis=0)
            col_sums = part if col_sums is None else np.add(col_sums, part, out=col_sums)
        row_sums[i0:i0 + n] += k.sum(axis=1)
        frob_sq = frob_sq + np.einsum("ij,ij->", k, k)
        if within and n < width:  # right of the block's square: its transpose lies below
            right = k[:, n:]
            row_sums[i0 + n:] += right.sum(axis=0)
            frob_sq = frob_sq + np.einsum("ij,ij->", right, right)
    total = row_sums.sum()
    if not (np.isfinite(total) and np.isfinite(frob_sq)):
        raise ValueError("kernel matrix is not finite (non-finite input or overflow)")
    col_sums = row_sums if within else col_sums
    row_sums.setflags(write=False)
    col_sums.setflags(write=False)
    return GramStats(row_sums, total, frob_sq, trace), GramStats(col_sums, total, frob_sq, trace)


@dataclass(frozen=True)
class GramPack:
    """Samples X, Y (and optionally Z), their kernel, and the aggregates of
    every kernel matrix the estimators read.

    ``stats`` holds one :class:`GramStats` per ordered pair of populations
    indexing a matrix's rows and columns: ``xx``, ``yy``, ``xy``, ``yx`` and,
    with a Z sample, ``zz``, ``xz``, ``zx``; ``g["yx"]`` is the transpose of
    K_XY, whose row sums are K_XY's column sums.  The within-sample
    aggregates are those of the matrix with its diagonal zeroed, so any full
    sum over it is a sum over distinct index pairs.  No m x m matrix is
    stored, but for the oracles' copies at m <= 30: :meth:`matrix`
    recomputes one on demand.  Samples and aggregates are read-only; the
    pack is safe for concurrent use.
    """

    m: int
    d: int
    spec: KernelSpec
    samples: dict[str, np.ndarray]
    stats: dict[str, GramStats]
    #: The oracles' nested-list copies of :meth:`matrix`, each made at most
    #: once per pack (:mod:`mmdvar.oracle`).
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def has_z(self) -> bool:
        return "z" in self.samples

    def __getitem__(self, pair: str) -> GramStats:
        """Aggregates of the matrix with rows indexed by ``pair[0]`` and
        columns by ``pair[1]``, such as ``g["xy"]``."""
        if pair not in self.stats:
            if pair in _PAIRS or pair[::-1] in _PAIRS:
                raise ValueError("no z sample in this GramPack")
            raise ValueError(f"no kernel matrix for pair {pair!r}")
        return self.stats[pair]

    def matrix(self, a: str, b: str) -> np.ndarray:
        """The kernel matrix with rows indexed by ``a`` and columns by ``b``,
        recomputed in O(m^2) memory (for the oracle and tests).

        Within-sample pairs have the diagonal zeroed; reversed cross pairs
        return the transpose of the forward matrix.
        """
        self[a + b]  # raises for a pair or sample the pack lacks
        if a + b not in _PAIRS:
            return self.matrix(b, a).T
        k = kernel_matrix(self.spec, self.samples[a], self.samples[b])
        if a == b:
            np.fill_diagonal(k, 0.0)
        return k


def _as_sample(arr: np.ndarray, name: str) -> np.ndarray:
    """A read-only float64 copy of ``arr`` as an m x d matrix: the one check
    that refuses a stack of replicates."""
    out = np.array(arr, dtype=np.float64)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.ndim != 2:
        raise ValueError(f"{name} must be an m x d matrix, one dataset, not a stack of "
                         f"replicates; got ndim={out.ndim}")
    out.setflags(write=False)
    return out


#: The kernel matrices computed, as (rows, columns) populations; each also
#: gives the aggregates of its transpose.
_PAIRS = ("xy", "xx", "yy", "xz", "zz")


def build_gram_pack(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray | None = None,
    spec: KernelSpec = KernelSpec.linear(),
) -> GramPack:
    """Compute the aggregates of every kernel matrix for samples of equal size.

    All samples must share the same number of rows m >= 2 and the same
    dimension.  1-d inputs are treated as single-column samples.  An RBF
    'median' bandwidth is resolved against the pooled rows of every sample
    provided.  O(m^2) time, O(m * _BLOCK) memory.
    """
    samples = {"x": _as_sample(x, "x"), "y": _as_sample(y, "y")}
    if z is not None:
        samples["z"] = _as_sample(z, "z")
    m, d = samples["x"].shape
    for name, s in samples.items():
        if s.shape[0] != m:
            raise ValueError(f"sample sizes differ: x has {m} rows, {name} has {s.shape[0]}")
        if s.shape[1] != d:
            raise ValueError(f"dimensions differ: x has d={d}, {name} has d={s.shape[1]}")
    if m < 2:
        raise ValueError("need at least m = 2 observations per sample")

    if spec.kind == "rbf":
        spec = resolve_bandwidth(spec, np.concatenate(list(samples.values())))
    stats = {}
    for key in _PAIRS:
        if key[1] in samples:
            stats[key], stats[key[::-1]] = _stats(spec, samples[key[0]], samples[key[1]],
                                                  key[0] == key[1])
    return GramPack(m=m, d=d, spec=spec, samples=samples, stats=stats)
