import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmdvar as mv
from mmdvar import KernelSpec, build_gram_pack

from conftest import KERNEL_CASES, make_xyz

CONST1 = KernelSpec.constant(1.0)
ZERO = KernelSpec.constant(0.0)

X12 = np.array([1.0, 2.0])
Y34 = np.array([3.0, 4.0])
Z56 = np.array([5.0, 6.0])


def pack2(spec=KernelSpec.linear()):
    return build_gram_pack(X12, Y34, Z56, spec=spec)


class TestFallingFactorial:
    @pytest.mark.parametrize("n,k,expected", [(5, 2, 20), (4, 4, 24), (7, 1, 7)])
    def test_values(self, n, k, expected):
        assert mv.falling_factorial(n, k) == expected

    def test_errors(self):
        with pytest.raises(ValueError, match="n >= k"):
            mv.falling_factorial(3, 4)
        with pytest.raises(ValueError, match="positive"):
            mv.falling_factorial(3, 0)

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(deadline=None)
    def test_matches_factorial_ratio(self, n, k):
        if k > n:
            with pytest.raises(ValueError):
                mv.falling_factorial(n, k)
        else:
            assert mv.falling_factorial(n, k) == math.factorial(n) // math.factorial(n - k)


class TestMmd2U:
    def test_linear_example(self):
        assert mv.mmd2_u(pack2()) == 4.0

    def test_identical_samples_zero(self, rng):
        x = rng.normal(size=(6, 2))
        for spec in KERNEL_CASES.values():
            g = build_gram_pack(x, x.copy(), spec=spec)
            assert mv.mmd2_u(g) == pytest.approx(0.0, abs=1e-12)

    def test_constant_kernel_zero(self, rng):
        x, y, z = make_xyz(rng, 5)
        g = build_gram_pack(x, y, z, spec=CONST1)
        assert mv.mmd2_u(g, "xy") == pytest.approx(0.0, abs=1e-12)
        assert mv.mmd2_u(g, "xz") == pytest.approx(0.0, abs=1e-12)

    def test_xz_pair_frozen(self):
        # hand loop over ordered pairs: mmd2(X=(1..4), Z=(2..5)) = 1
        g = build_gram_pack(np.arange(1.0, 5.0), np.arange(5.0, 9.0),
                            np.arange(2.0, 6.0))
        assert mv.mmd2_u(g, "xy") == pytest.approx(16.0, rel=1e-12)
        assert mv.mmd2_u(g, "xz") == pytest.approx(1.0, rel=1e-12)

    def test_bad_pair(self):
        with pytest.raises(ValueError, match="pair"):
            mv.mmd2_u(pack2(), "yz")

    def test_xz_requires_z(self):
        g = build_gram_pack(X12, Y34)
        with pytest.raises(ValueError, match="no z sample"):
            mv.mmd2_u(g, "xz")


class TestSubTermExamples:
    """Frozen values computed independently with exact rational arithmetic."""

    def test_mu_dot(self):
        g = pack2()
        assert mv.mu_dot(g, "x", "y") == 5.25
        assert mv.mu_dot(g, "x", "x") == 2.0

    def test_mu_dot_sq_cross(self):
        assert mv.mu_dot_sq(pack2(), "x", "y") == 24.0

    def test_mu_dot_sq_within(self):
        g = build_gram_pack(np.arange(1.0, 5.0), np.arange(5.0, 9.0))
        assert mv.mu_dot_sq(g, "x", "x") == pytest.approx(24.0, rel=1e-12)

    def test_mu_dot_prod_own(self):
        g = build_gram_pack(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        assert mv.mu_dot_prod_own(g, "x", "y") == pytest.approx(30.0, rel=1e-12)

    def test_mu_dot_prod_shared(self):
        assert mv.mu_dot_prod_shared(pack2()) == pytest.approx(38.5, rel=1e-12)

    def test_phi_mu_sq_own(self):
        g = build_gram_pack(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        assert mv.phi_mu_sq(g, "x", "x") == pytest.approx(12.0, rel=1e-12)

    def test_phi_mu_sq_cross(self):
        assert mv.phi_mu_sq(pack2(), "x", "y") == pytest.approx(30.0, rel=1e-12)

    def test_phi_mu_prod_own(self):
        assert mv.phi_mu_prod_own(pack2(), "x", "y") == pytest.approx(10.5, rel=1e-12)

    def test_phi_mu_prod_shared(self):
        assert mv.phi_mu_prod_shared(pack2()) == pytest.approx(48.125, rel=1e-12)

    def test_k2_mean(self):
        g = pack2()
        assert mv.k2_mean(g, "x", "x") == 4.0

    @pytest.mark.parametrize("m", [4, 5])
    def test_constant_kernel_everything_is_one(self, rng, m):
        x, y, z = make_xyz(rng, m)
        g = build_gram_pack(x, y, z, spec=CONST1)
        for term_id, value in mv.sub_term_estimates(g).items():
            assert value == pytest.approx(1.0, rel=1e-12), term_id

    def test_zero_kernel_everything_is_zero(self, rng):
        x, y, z = make_xyz(rng, 5)
        g = build_gram_pack(x, y, z, spec=ZERO)
        for term_id, value in mv.sub_term_estimates(g).items():
            assert value == 0.0, term_id


class TestPreconditions:
    def test_mu_dot_sq_within_needs_m4(self, rng):
        x, y, _ = make_xyz(rng, 3)
        g = build_gram_pack(x, y)
        with pytest.raises(ValueError, match="m >= 4"):
            mv.mu_dot_sq(g, "x", "x")

    def test_mu_dot_prod_own_needs_m3(self):
        g = build_gram_pack(X12, Y34)
        with pytest.raises(ValueError, match="m >= 3"):
            mv.mu_dot_prod_own(g, "x", "y")

    def test_phi_mu_sq_own_needs_m3(self):
        g = build_gram_pack(X12, Y34)
        with pytest.raises(ValueError, match="m >= 3"):
            mv.phi_mu_sq(g, "x", "x")

    def test_same_population_rejected_for_products(self):
        g = pack2()
        with pytest.raises(ValueError, match="differ"):
            mv.mu_dot_prod_own(g, "x", "x")
        with pytest.raises(ValueError, match="differ"):
            mv.phi_mu_prod_own(g, "y", "y")

    def test_shared_products_need_z(self):
        g = build_gram_pack(X12, Y34)
        with pytest.raises(ValueError, match="z sample"):
            mv.mu_dot_prod_shared(g)
        with pytest.raises(ValueError, match="z sample"):
            mv.phi_mu_prod_shared(g)

    def test_variance_needs_m4(self, rng):
        x, y, z = make_xyz(rng, 3)
        g = build_gram_pack(x, y, z)
        with pytest.raises(ValueError, match="m ≥ 4"):
            mv.mmd2_var(g)
        with pytest.raises(ValueError, match="m ≥ 4"):
            mv.mmd2_diff_var(g)

    def test_diff_variance_needs_z(self, rng):
        x, y, _ = make_xyz(rng, 5)
        g = build_gram_pack(x, y)
        with pytest.raises(ValueError, match="z sample"):
            mv.mmd2_diff_var(g)


class TestTermRegistry:
    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown term"):
            mv.estimate_term(pack2(), "mu_xw")

    def test_needs_z(self):
        g = build_gram_pack(X12, Y34)
        with pytest.raises(ValueError, match="z sample"):
            mv.estimate_term(g, "mu_xz")

    def test_min_m_enforced(self):
        with pytest.raises(ValueError, match="m >= 4"):
            mv.estimate_term(pack2(), "mu_sq_xx")

    def test_matches_direct_functions(self, rng):
        x, y, z = make_xyz(rng, 6)
        g = build_gram_pack(x, y, z, spec=KernelSpec.rbf(1.2))
        assert mv.estimate_term(g, "ephi2_yx") == mv.phi_mu_sq(g, "y", "x")
        assert mv.estimate_term(g, "prod_zz_zx") == mv.mu_dot_prod_own(g, "z", "x")

    def test_sub_term_estimates_key_sets(self, rng):
        x, y, z = make_xyz(rng, 6)
        g2 = build_gram_pack(x, y)
        assert set(mv.sub_term_estimates(g2)) == set(mv.TWO_SAMPLE_TERM_IDS)
        g3 = build_gram_pack(x, y, z)
        assert set(mv.sub_term_estimates(g3)) == set(mv.THREE_SAMPLE_TERM_IDS)
        assert len(mv.THREE_SAMPLE_TERM_IDS) == 30
        # below the within-square threshold the quartic terms drop out
        g_small = build_gram_pack(x[:3], y[:3])
        est = mv.sub_term_estimates(g_small)
        assert "mu_sq_xx" not in est and "ephi2_xx" in est


class TestInvarianceProperties:
    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_common_permutation_invariance(self, rng, name):
        # mmd2_u pairs observation i of every sample, so the permutation must
        # be applied to all sets at once.
        x, y, z = make_xyz(rng, 6)
        g = build_gram_pack(x, y, z, spec=KERNEL_CASES[name])
        base_stats = (mv.mmd2_u(g), mv.mmd2_u(g, "xz"), mv.mmd2_var(g), mv.mmd2_diff_var(g))
        for _ in range(3):
            p = rng.permutation(6)
            gp = build_gram_pack(x[p], y[p], z[p], spec=g.spec)
            got = (mv.mmd2_u(gp), mv.mmd2_u(gp, "xz"), mv.mmd2_var(gp), mv.mmd2_diff_var(gp))
            for a, b in zip(got, base_stats):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_sub_terms_allow_independent_permutations(self, rng, name):
        # the sub-terms are built from per-matrix aggregates only, so each
        # sample may even be reindexed on its own
        x, y, z = make_xyz(rng, 6)
        g = build_gram_pack(x, y, z, spec=KERNEL_CASES[name])
        base = mv.sub_term_estimates(g)
        for _ in range(3):
            px, py, pz = (rng.permutation(6) for _ in range(3))
            gp = build_gram_pack(x[px], y[py], z[pz], spec=g.spec)
            perm = mv.sub_term_estimates(gp)
            for term_id in base:
                assert perm[term_id] == pytest.approx(base[term_id], rel=1e-12, abs=1e-12)
            assert mv.mmd2_var(gp) == pytest.approx(mv.mmd2_var(g), rel=1e-12, abs=1e-14)
            assert mv.mmd2_diff_var(gp) == pytest.approx(mv.mmd2_diff_var(g), rel=1e-12, abs=1e-14)

    def test_swap_xy_symmetry(self, rng):
        x, y, _ = make_xyz(rng, 7)
        g = build_gram_pack(x, y, spec=KernelSpec.rbf(1.1))
        g_swapped = build_gram_pack(y, x, spec=KernelSpec.rbf(1.1))
        assert mv.mmd2_u(g_swapped) == pytest.approx(mv.mmd2_u(g), rel=1e-12)
        assert mv.mmd2_var(g_swapped) == pytest.approx(mv.mmd2_var(g), rel=1e-12)

    def test_swap_yz_symmetry_of_diff_var(self, rng):
        x, y, z = make_xyz(rng, 7)
        g = build_gram_pack(x, y, z, spec=KernelSpec.polynomial(2, 1.0))
        g_swapped = build_gram_pack(x, z, y, spec=g.spec)
        assert mv.mmd2_diff_var(g_swapped) == pytest.approx(mv.mmd2_diff_var(g), rel=1e-12)
        # the difference itself flips sign
        d = mv.mmd2_u(g, "xy") - mv.mmd2_u(g, "xz")
        d_swapped = mv.mmd2_u(g_swapped, "xy") - mv.mmd2_u(g_swapped, "xz")
        assert d_swapped == pytest.approx(-d, rel=1e-12)

    def test_linear_scale_covariance(self, rng):
        x, y, _ = make_xyz(rng, 6)
        g = build_gram_pack(x, y)
        c = 3.7
        gc = build_gram_pack(c * x, c * y)
        assert mv.mmd2_u(gc) == pytest.approx(c ** 2 * mv.mmd2_u(g), rel=1e-10)
        assert mv.mmd2_var(gc) == pytest.approx(c ** 4 * mv.mmd2_var(g), rel=1e-10)

    def test_degenerate_single_point(self):
        x = np.full((5, 2), 1.5)
        g = build_gram_pack(x, x.copy(), spec=KernelSpec.rbf(1.0))
        assert mv.mmd2_u(g) == pytest.approx(0.0, abs=1e-12)
        assert mv.mmd2_var(g) == pytest.approx(0.0, abs=1e-12)


class TestFullReport:
    def test_two_sample_structure(self, rng):
        x, y, _ = make_xyz(rng, 6)
        g = build_gram_pack(x, y)
        rep = mv.full_report(g)
        assert rep.mmd2_xz is None and rep.diff is None and rep.nuhat is None
        assert rep.vhat_floored >= 1e-12
        assert rep.z_stat == rep.mmd2_xy / math.sqrt(rep.vhat_floored)
        assert rep.m == 6 and rep.kernel.kind == "linear"

    def test_three_sample_structure(self, rng):
        x, y, z = make_xyz(rng, 6)
        rep = mv.full_report(build_gram_pack(x, y, z))
        assert rep.diff == rep.mmd2_xy - rep.mmd2_xz
        assert rep.nuhat_floored >= 1e-12
        assert rep.z_stat == rep.diff / math.sqrt(rep.nuhat_floored)

    def test_constant_kernel_three_samples(self, rng):
        x, y, z = make_xyz(rng, 6)
        rep = mv.full_report(build_gram_pack(x, y, z, spec=CONST1))
        assert rep.diff == pytest.approx(0.0, abs=1e-12)
        assert rep.z_stat == pytest.approx(0.0, abs=1e-6)

    def test_floor_applies_to_negative_estimates(self, rng):
        # constant kernel gives vhat ~ 0 (possibly negative rounding dust)
        x, y, _ = make_xyz(rng, 6)
        rep = mv.full_report(build_gram_pack(x, y, spec=CONST1), floor_epsilon=1e-10)
        assert rep.vhat_floored == max(rep.vhat, 1e-10)

    def test_floor_must_be_positive(self, rng):
        x, y, _ = make_xyz(rng, 6)
        with pytest.raises(ValueError, match="floor_epsilon"):
            mv.full_report(build_gram_pack(x, y), floor_epsilon=0.0)

    def test_synthetic_draw_all_finite(self):
        rng = np.random.default_rng(1)
        x, y, z = rng.normal(size=(3, 8, 1))
        rep = mv.full_report(build_gram_pack(x, y, z, spec=KernelSpec.rbf("median")))
        for v in (rep.mmd2_xy, rep.mmd2_xz, rep.diff, rep.vhat, rep.nuhat, rep.z_stat):
            assert math.isfinite(v)
        assert rep.vhat_floored >= 1e-12

    @pytest.mark.parametrize("with_z", [False, True])
    def test_fields_are_python_floats(self, rng, with_z):
        x, y, z = make_xyz(rng, 6)
        rep = mv.full_report(build_gram_pack(x, y, z if with_z else None))
        for field in ("mmd2_xy", "vhat", "vhat_floored", "z_stat", "mmd2_xz", "diff", "nuhat",
                      "nuhat_floored"):
            value = getattr(rep, field)
            assert type(value) is float or (value is None and not with_z), field


class TestShiftInvariance:
    """k -> k + c leaves every estimate unchanged in exact arithmetic: the
    constant cancels from each U-statistic and from the variance estimates.

    In float64 it cancels only up to rounding.  The aggregates then carry
    terms as large as s = max |k| + |c| (s^2 in the variances), so the
    estimates may move by a few eps of that scale; 64 eps is allowed,
    against a worst case of about 12 eps measured over 400 random cases at
    m <= 200.  A relative bound would not do: MMD^2 near 0 moves by more
    than 1e-12 of itself.
    """

    @given(st.integers(0, 2**32 - 1), st.integers(4, 200), st.integers(1, 5),
           st.sampled_from([-0.5, 1.0, 10.0]))
    @settings(deadline=None, max_examples=60)
    def test_linear_plus_constant(self, seed, m, d, c):
        rng = np.random.default_rng(seed)
        x, y, z = make_xyz(rng, m, d)
        base = mv.full_report(build_gram_pack(x, y, z, spec=KernelSpec.linear()))
        shifted = mv.full_report(build_gram_pack(x, y, z, spec=KernelSpec.polynomial(1, coef0=c)))
        pooled = np.vstack([x, y, z])
        s = float(np.abs(pooled @ pooled.T).max()) + abs(c)
        for field, power in (("mmd2_xy", 1), ("mmd2_xz", 1), ("vhat", 2), ("nuhat", 2)):
            a, b = getattr(base, field), getattr(shifted, field)
            assert abs(a - b) <= 64 * np.finfo(float).eps * s ** power, (field, a, b)
