import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from mmdvar import kernels
from mmdvar import (
    MEDIAN,
    KernelSpec,
    build_gram_pack,
    eval_kernel,
    kernel_matrix,
    median_heuristic,
    resolve_bandwidth,
)

from conftest import KERNEL_CASES


class TestKernelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kernel kind"):
            KernelSpec("cosine")

    def test_rbf_needs_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            KernelSpec("rbf")

    # beyond 0 and -1, 2 sigma^2 or 1 / (2 sigma^2) is not a finite nonzero float
    @pytest.mark.parametrize("bw", [0.0, -1.0, math.inf, math.nan, 1e-300, 1e-160, 1e200])
    def test_rbf_rejects_nonpositive_bandwidth(self, bw):
        with pytest.raises(ValueError, match="positive"):
            KernelSpec.rbf(bw)

    def test_rbf_rejects_other_strings(self):
        with pytest.raises(ValueError):
            KernelSpec.rbf("auto")

    @pytest.mark.parametrize("deg", [0, -2, 1.5, math.inf, math.nan])
    def test_polynomial_degree_validated(self, deg):
        with pytest.raises(ValueError, match="degree"):
            KernelSpec("polynomial", degree=deg)

    def test_polynomial_default_coef0(self):
        assert KernelSpec.polynomial(3).coef0 == 0.0

    @pytest.mark.parametrize("coef0", [math.nan, math.inf, -math.inf])
    def test_polynomial_rejects_non_finite_coef0(self, coef0):
        with pytest.raises(ValueError, match=f"polynomial coef0 must be finite, got {coef0}"):
            KernelSpec.polynomial(3, coef0=coef0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_constant_rejects_non_finite_value(self, value):
        with pytest.raises(ValueError, match=f"constant kernel value must be finite, got {value}"):
            KernelSpec.constant(value)

    def test_constant_needs_value(self):
        with pytest.raises(ValueError, match="value"):
            KernelSpec("constant")


class TestEvalKernel:
    def test_linear_example(self):
        assert eval_kernel(KernelSpec.linear(), (1, 2), (3, 4)) == 11.0

    @pytest.mark.parametrize("bw", [0.1, 1.0, 25.0])
    def test_rbf_self_similarity_is_one(self, bw):
        x = np.array([0.3, -2.0, 1.5])
        assert eval_kernel(KernelSpec.rbf(bw), x, x) == 1.0

    def test_rbf_value(self):
        # one-dimensional pair at distance 2, sigma 1: exp(-4/2)
        got = eval_kernel(KernelSpec.rbf(1.0), [0.0], [2.0])
        assert got == pytest.approx(np.exp(-2.0), rel=1e-15)

    def test_constant(self):
        assert eval_kernel(KernelSpec.constant(1.0), [1.0], [9.0]) == 1.0

    def test_polynomial_value(self):
        got = eval_kernel(KernelSpec.polynomial(3, coef0=2.0), (1, 2), (3, 4))
        assert got == pytest.approx((11 + 2.0) ** 3, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            eval_kernel(KernelSpec.linear(), [1.0, 2.0], [1.0])

    def test_unresolved_median_bandwidth(self):
        with pytest.raises(ValueError, match="median"):
            eval_kernel(KernelSpec.rbf(MEDIAN), [1.0], [2.0])

    def test_symmetry_exact_random(self, rng):
        for spec in KERNEL_CASES.values():
            if spec.kind == "rbf":
                spec = KernelSpec.rbf(1.7)
            for _ in range(25):
                x, y = rng.normal(size=(2, 5)) * 3
                assert eval_kernel(spec, x, y) == eval_kernel(spec, y, x)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=50)
    def test_linear_symmetry_hypothesis(self, vals):
        x = np.array(vals)
        y = x[::-1].copy()
        assert eval_kernel(KernelSpec.linear(), x, y) == eval_kernel(KernelSpec.linear(), y, x)


class TestMedianHeuristic:
    def test_single_pair(self):
        assert median_heuristic(np.array([[0.0], [1.0]])) == 1.0

    def test_three_points(self):
        # distances {1, 1, 2} -> median 1
        assert median_heuristic(np.array([[0.0], [1.0], [2.0]])) == 1.0

    def test_degenerate_two_identical(self):
        with pytest.raises(ValueError, match="degenerate"):
            median_heuristic(np.array([[0.0], [0.0]]))

    def test_duplicates_tolerated_when_median_positive(self):
        # distances {0, 1, 1} -> median 1
        assert median_heuristic(np.array([[0.0], [0.0], [1.0]])) == 1.0
        # distances {0 x6, 1 x4} -> median 0 -> error
        pts = np.array([[0.0]] * 4 + [[1.0]])
        with pytest.raises(ValueError, match="degenerate"):
            median_heuristic(pts)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            median_heuristic(np.array([[1.0]]))

    def test_rejects_stacked_rows(self, rng):
        with pytest.raises(ValueError, match="one dataset, not a stack of replicates"):
            median_heuristic(rng.normal(size=(3, 5, 2)))

    def test_rejects_non_finite_rows(self):
        with pytest.raises(ValueError, match="finite"):
            median_heuristic(np.array([[0.0], [1.0], [np.nan], [3.0]]))

    def test_resolve_bandwidth(self):
        pooled = np.array([[0.0], [1.0]])
        spec = resolve_bandwidth(KernelSpec.rbf(MEDIAN), pooled)
        assert spec.bandwidth == 1.0
        fixed = KernelSpec.rbf(2.5)
        assert resolve_bandwidth(fixed, pooled) is fixed
        lin = KernelSpec.linear()
        assert resolve_bandwidth(lin, pooled) is lin


def _numpy_median(pooled: np.ndarray) -> float:
    return float(np.median(np.sqrt(pdist(pooled, "sqeuclidean"))))


def _tiny_passes():
    """Blocks, gather buffer and probe small enough that samples of a few
    dozen rows run the probe, the histogram narrowing and the widening."""
    return mock.patch.multiple(kernels, _BLOCK=4, _GATHER_MAX=24, _PROBE_ROWS=8)


@st.composite
def pooled_samples(draw):
    """Pooled rows of 2 or 3 equal samples; small integer grids make ties
    and duplicate rows common."""
    k = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 14))
    d = draw(st.integers(1, 3))
    grid = draw(st.sampled_from([3, 10, 0]))
    cells = st.integers(0, grid - 1).map(float) if grid else st.floats(-1e3, 1e3)
    rows = draw(st.lists(st.lists(cells, min_size=d, max_size=d),
                         min_size=k * m, max_size=k * m))
    return k, np.array(rows)


class TestExactMedianSelection:
    """The blocked selection returns the median of every pooled pairwise
    distance bit for bit, whichever passes it takes."""

    def _check(self, pooled, k=None):
        """median_heuristic, and a build from k equal samples, against NumPy."""
        expected = _numpy_median(pooled)
        if expected == 0.0:
            with pytest.raises(ValueError, match="degenerate"):
                median_heuristic(pooled)
            return
        assert median_heuristic(pooled) == expected
        if k is not None and pooled.shape[0] >= 2 * k:
            g = build_gram_pack(*np.split(pooled, k), spec=KernelSpec.rbf(MEDIAN))
            assert g.spec.bandwidth == expected

    @given(pooled_samples())
    @settings(deadline=None, max_examples=150)
    def test_matches_numpy_median(self, case):
        k, pooled = case
        self._check(pooled, k)

    @given(pooled_samples())
    @settings(deadline=None, max_examples=150)
    def test_matches_numpy_median_in_tiny_passes(self, case):
        k, pooled = case
        with _tiny_passes():
            self._check(pooled, k)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9])  # 1, 3, 6, 10, 15, 36 pairs
    def test_smallest_samples(self, rng, n):
        pooled = rng.normal(size=(n, 2))
        self._check(pooled)
        for k in (2, 3):  # builds at m = 2 and 3
            if n % k == 0:
                self._check(pooled, k)

    def test_duplicate_rows_and_ties(self, rng):
        pooled = np.repeat(rng.integers(0, 4, size=(30, 2)).astype(float), 4, axis=0)
        self._check(pooled, 3)
        with _tiny_passes():
            self._check(pooled, 3)

    def test_probe_path_at_full_size(self, rng):
        pooled = rng.normal(size=(2 * kernels._PROBE_ROWS + 2, 3))
        lo, hi = kernels._probe_bracket(pooled)
        assert 0.0 < lo < hi < np.inf
        self._check(pooled, 2)

    def test_bracket_miss_falls_back(self, rng):
        # every probed row sits in a tight cluster, so the probe's bracket
        # lies far below the median of the whole pooled sample
        pooled = rng.normal(size=(96, 2)) * 50.0
        with _tiny_passes():
            stride = max(2, -(-96 // kernels._PROBE_ROWS))
            pooled[::stride] *= 1e-4
            lo, hi = kernels._probe_bracket(pooled)
            assert hi < _numpy_median(pooled) ** 2
            scans = []
            real_scan = kernels._scan
            with mock.patch.object(kernels, "_scan",
                                   lambda *a: scans.append(a[1:]) or real_scan(*a)):
                self._check(pooled, 3)
        assert scans[0] == (lo, hi) and len(scans) >= 3


class TestBuildGramPack:
    def test_linear_example(self):
        g = build_gram_pack([1.0, 2.0], [3.0, 4.0])
        np.testing.assert_array_equal(g.matrix("x", "y"), [[3.0, 4.0], [6.0, 8.0]])
        np.testing.assert_array_equal(g.matrix("x", "x"), [[0.0, 2.0], [2.0, 0.0]])
        assert not g.has_z
        assert g.m == 2 and g.d == 1

    def test_constant_m3_grand_sums(self):
        ones = np.zeros((3, 1))
        g = build_gram_pack(ones, ones + 1, ones + 2, spec=KernelSpec.constant(1.0))
        assert np.all(g.matrix("x", "y") == 1.0) and np.all(g.matrix("x", "z") == 1.0)
        # within matrices: m(m-1) off-diagonal ones
        for key in ("xx", "yy", "zz"):
            assert g.stats[key].total == 6.0

    def test_rbf_identical_sets(self, rng):
        x = rng.normal(size=(5, 2))
        g = build_gram_pack(x, x.copy(), spec=KernelSpec.rbf(1.0))
        kxy = g.matrix("x", "y")
        np.testing.assert_array_equal(np.diag(kxy), np.ones(5))
        off = kxy.copy()
        np.fill_diagonal(off, 0.0)
        np.testing.assert_array_equal(g.matrix("x", "x"), off)

    def test_size_errors(self):
        with pytest.raises(ValueError, match="sample sizes differ"):
            build_gram_pack(np.zeros((3, 1)), np.zeros((4, 1)))
        with pytest.raises(ValueError, match="dimensions differ"):
            build_gram_pack(np.zeros((3, 2)), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="m = 2"):
            build_gram_pack(np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="sample sizes differ"):
            build_gram_pack(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((2, 1)))

    @pytest.mark.parametrize("spec", [KernelSpec.linear(), KernelSpec.rbf("median"),
                                      KernelSpec.polynomial(3)])
    def test_non_finite_matrix_rejected(self, spec):
        x = np.array([[0.0], [1.0], [2.0], [np.nan]])
        with pytest.raises(ValueError, match="not finite"):
            build_gram_pack(x, x + 1.0, spec=spec)

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_stack_refused(self, rng, name):
        """An (R, m, d) stack of replicates is refused in any sample's place."""
        x, y, z = rng.normal(size=(3, 5, 2))
        stack = rng.normal(size=(4, 5, 2))
        for samples in ((stack, y), (x, stack), (x, y, stack)):
            with pytest.raises(ValueError, match="one dataset, not a stack of replicates"):
                build_gram_pack(*samples, spec=KERNEL_CASES[name])

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_entries_match_eval_kernel(self, rng, name):
        x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        g = build_gram_pack(x, y, spec=KERNEL_CASES[name])
        spec = g.spec  # bandwidth resolved
        expected = np.array([[eval_kernel(spec, xi, yj) for yj in y] for xi in x])
        scale = 4 * np.finfo(float).eps * max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(g.matrix("x", "y"), expected, rtol=4e-16, atol=scale)
        exp_xx = np.array([[eval_kernel(spec, xi, xj) for xj in x] for xi in x])
        np.fill_diagonal(exp_xx, 0.0)
        np.testing.assert_allclose(g.matrix("x", "x"), exp_xx, rtol=4e-16, atol=scale)

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_caches_consistent(self, rng, name):
        self._check_caches(rng, name, kernels._BLOCK)

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_caches_consistent_in_blocks(self, rng, name):
        self._check_caches(rng, name, 3)  # blocks of 3, 3 and 1 rows

    def _check_caches(self, rng, name, block):
        x, y, z = rng.normal(size=(3, 7, 2))
        with mock.patch.object(kernels, "_BLOCK", block):
            g = build_gram_pack(x, y, z, spec=KERNEL_CASES[name])
        assert set(g.stats) == {"xx", "yy", "zz", "xy", "yx", "xz", "zx"}
        tol = 8 * np.finfo(float).eps
        for key, st in g.stats.items():
            mat = g.matrix(key[0], key[1])
            # blocks sum in another order: allow rounding on the scale of |K| row sums
            atol = 0.0 if block == kernels._BLOCK else tol * 7 * float(np.abs(mat).max())
            np.testing.assert_allclose(st.row_sums, mat.sum(axis=1), rtol=tol, atol=atol)
            assert st.total == pytest.approx(float(mat.sum()), rel=1e-13)
            assert st.total == pytest.approx(float(st.row_sums.sum()), rel=tol)
            assert st.frob_sq == pytest.approx(float((mat ** 2).sum()), rel=1e-13)
            if block == kernels._BLOCK:
                assert st.trace == float(np.trace(mat))
            else:
                assert abs(st.trace - np.trace(mat)) <= tol * np.abs(np.diag(mat)).sum()

    def test_zero_diagonals_and_symmetry(self, rng):
        x, y, z = rng.normal(size=(3, 6, 2))
        g = build_gram_pack(x, y, z, spec=KernelSpec.rbf(0.8))
        for mat in (g.matrix(p, p) for p in "xyz"):
            assert np.all(np.diag(mat) == 0.0)
            np.testing.assert_array_equal(mat, mat.T)

    @pytest.mark.parametrize("name", ["linear", "rbf_median", "poly2"])
    def test_gram_psd(self, rng, name):
        pts = rng.normal(size=(10, 3))
        spec = resolve_bandwidth(KERNEL_CASES[name], pts)
        k = kernel_matrix(spec, pts, pts)
        eig = np.linalg.eigvalsh((k + k.T) / 2)
        assert eig.min() >= -1e-8 * max(eig.max(), 1e-30)

    def test_matrix_orientation(self, rng):
        x, y, z = rng.normal(size=(3, 4, 2))
        g = build_gram_pack(x, y, z, spec=KernelSpec.linear())
        np.testing.assert_array_equal(g.matrix("y", "x"), g.matrix("x", "y").T)
        np.testing.assert_array_equal(g.matrix("z", "x"), g.matrix("x", "z").T)
        kxx = kernel_matrix(g.spec, x, x)
        np.fill_diagonal(kxx, 0.0)
        np.testing.assert_array_equal(g.matrix("x", "x"), kxx)
        with pytest.raises(ValueError, match="pair"):
            g.matrix("y", "z")

    def test_missing_z_is_guarded(self):
        g = build_gram_pack(np.zeros((3, 1)), np.ones((3, 1)))
        for pair in ("zz", "xz", "zx"):
            with pytest.raises(ValueError, match="no z sample"):
                g[pair]
        with pytest.raises(ValueError, match="no kernel matrix for pair 'yz'"):
            g["yz"]

    def test_arrays_read_only(self):
        x = np.array([1.0, 2.0])
        g = build_gram_pack(x, [3.0, 4.0])
        for sample in g.samples.values():
            with pytest.raises(ValueError):
                sample[0, 0] = 99.0
        for st in g.stats.values():
            with pytest.raises(ValueError):
                st.row_sums[0] = 99.0
        x[0] = 5.0  # the caller's array stays writable, and the pack keeps its copy
        assert g.samples["x"][0, 0] == 1.0
