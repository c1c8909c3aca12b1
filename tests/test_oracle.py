import math

import numpy as np
import pytest

import mmdvar as mv
from mmdvar import GaussianLinearModel, KernelSpec, build_gram_pack
from mmdvar.oracle import (
    ComponentEstimates,
    diff_var_components,
    gaussian_linear_moments,
    mc_variance_components,
    mmd2_var_components,
    oracle_mmd2,
    oracle_term,
    population_diff_var,
    population_mmd2,
    population_mmd2_var,
    u_stat_variance,
)

from conftest import make_xyz


def pack123():
    return build_gram_pack(np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                           np.array([5.0, 6.0]))


class TestOracleLoops:
    """The loop oracles reproduce values computed once with exact rational
    arithmetic in an entirely separate implementation."""

    @pytest.mark.parametrize("term_id,expected", [
        ("mu_xy", 5.25),
        ("mu_xx", 2.0),
        ("mu_sq_xy", 24.0),
        ("prod_xy_xz", 38.5),
        ("ephi2_xy", 30.0),
        ("ephi_xx_xy", 10.5),
        ("ephi_xy_xz", 48.125),
        ("ek2_xx", 4.0),
        ("ek2_xy", 31.25),  # (9+16+36+64)/4
    ])
    def test_frozen_pairs(self, term_id, expected):
        assert oracle_term(pack123(), term_id) == pytest.approx(expected, rel=1e-13)

    def test_frozen_quartics(self):
        g = build_gram_pack(np.arange(1.0, 5.0), np.arange(5.0, 9.0))
        assert oracle_term(g, "mu_sq_xx") == pytest.approx(24.0, rel=1e-13)
        g3 = build_gram_pack(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        assert oracle_term(g3, "prod_xx_xy") == pytest.approx(30.0, rel=1e-13)
        assert oracle_term(g3, "ephi2_xx") == pytest.approx(12.0, rel=1e-13)

    def test_constant_kernel_all_ones(self, rng):
        x, y, z = make_xyz(rng, 4)
        g = build_gram_pack(x, y, z, spec=KernelSpec.constant(1.0))
        for term_id in mv.THREE_SAMPLE_TERM_IDS:
            assert oracle_term(g, term_id) == pytest.approx(1.0, rel=1e-12), term_id

    def test_zero_kernel_all_zero(self, rng):
        x, y, z = make_xyz(rng, 4)
        g = build_gram_pack(x, y, z, spec=KernelSpec.constant(0.0))
        for term_id in mv.THREE_SAMPLE_TERM_IDS:
            assert oracle_term(g, term_id) == 0.0, term_id

    def test_cost_guard(self, rng):
        x, y, _ = make_xyz(rng, 31)
        g = build_gram_pack(x, y)
        with pytest.raises(ValueError, match="oracle refuses"):
            oracle_term(g, "mu_xx")

    def test_unknown_term(self):
        with pytest.raises(ValueError, match="unknown term"):
            oracle_term(pack123(), "nope")

    def test_exchangeability(self, rng):
        x, y, z = make_xyz(rng, 5)
        g = build_gram_pack(x, y, z, spec=KernelSpec.rbf(1.0))
        p = rng.permutation(5)
        gp = build_gram_pack(x[p], y[p], z[p], spec=g.spec)
        for term_id in ("mu_sq_xx", "prod_xx_xy", "ephi2_yx", "prod_xy_xz"):
            assert oracle_term(gp, term_id) == pytest.approx(
                oracle_term(g, term_id), rel=1e-12)

    def test_oracle_mmd2_matches_estimator(self, rng):
        x, y, z = make_xyz(rng, 6)
        g = build_gram_pack(x, y, z, spec=KernelSpec.rbf("median"))
        assert oracle_mmd2(g, "xy") == pytest.approx(mv.mmd2_u(g, "xy"), rel=1e-12)
        assert oracle_mmd2(g, "xz") == pytest.approx(mv.mmd2_u(g, "xz"), rel=1e-12)


class TestGaussianLinearMoments:
    def test_model_validation(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianLinearModel(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="both"):
            GaussianLinearModel(0.0, 1.0, 0.0, 1.0, mean_z=1.0)
        with pytest.raises(ValueError, match="positive"):
            GaussianLinearModel(0.0, 1.0, 0.0, 1.0, mean_z=1.0, var_z=-1.0)

    @pytest.mark.parametrize("name,value", [
        ("mean_x", math.nan), ("mean_y", math.inf), ("mean_z", -math.inf),
        ("var_x", math.inf), ("var_z", math.inf), ("var_y", math.nan),
    ])
    def test_non_finite_parameters_named(self, name, value):
        params = dict(mean_x=0.0, var_x=1.0, mean_y=0.5, var_y=2.0, mean_z=0.25, var_z=1.0)
        params[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GaussianLinearModel(**params)

    def test_standard_normal_moments(self):
        mom = gaussian_linear_moments(GaussianLinearModel(0.0, 1.0, 0.0, 1.0))
        for pair in (("x", "x"), ("y", "y"), ("x", "y")):
            assert mom.mu[pair] == 0.0
        assert mom.k2[("x", "x")] == 1.0
        assert population_mmd2(mom) == 0.0

    def test_point_mass_limit(self):
        mom = gaussian_linear_moments(GaussianLinearModel(1.0, 1e-14, 3.0, 1e-14))
        assert mom.mu[("x", "y")] == 3.0
        assert mom.phi_sq[("x", "y")] == pytest.approx(9.0, rel=1e-12)
        assert mom.k2[("x", "y")] == pytest.approx(9.0, rel=1e-12)

    def test_e_k2_cross_example(self):
        mom = gaussian_linear_moments(GaussianLinearModel(1.0, 2.0, 3.0, 4.0))
        assert mom.k2[("x", "y")] == 39.0

    def test_closed_forms_against_direct_monte_carlo(self):
        """Every closed-form moment is validated against a direct Monte Carlo
        of its defining expectation (4 standard errors)."""
        model = GaussianLinearModel(0.3, 0.8, -0.7, 1.5, 1.1, 0.6)
        mom = gaussian_linear_moments(model)
        rng = np.random.default_rng(99)
        n = 400_000
        draws = {p: rng.normal(*_ms(model, p), size=(2, n)) for p in ("x", "y", "z")}

        def check(samples, truth, label):
            mean = samples.mean()
            se = samples.std(ddof=1) / np.sqrt(samples.size)
            assert abs(mean - truth) <= 4 * se, (label, mean, truth, se)

        for (a, b), truth in mom.mu.items():
            check(draws[a][0] * draws[b][1], truth, f"mu[{a}{b}]")
        for (a, b), truth in mom.phi_sq.items():
            # E[<phi(A), mu_b>^2] = E[(A * mean_b)^2] under the linear kernel
            check((draws[a][0] * mom_mean(model, b)) ** 2, truth, f"phi_sq[{a}{b}]")
        for (a, b, c), truth in mom.phi_prod.items():
            vals = draws[a][0] ** 2 * mom_mean(model, b) * mom_mean(model, c)
            check(vals, truth, f"phi_prod[{a}{b}{c}]")
        for (a, b), truth in mom.k2.items():
            check((draws[a][0] * draws[b][1]) ** 2, truth, f"k2[{a}{b}]")

    def test_cauchy_schwarz_and_jensen(self, rng):
        for _ in range(10):
            means = rng.normal(size=3)
            variances = rng.uniform(0.2, 3.0, size=3)
            mom = gaussian_linear_moments(GaussianLinearModel(
                means[0], variances[0], means[1], variances[1], means[2], variances[2]))
            for (a, b), v in mom.mu.items():
                assert v * v <= mom.mu[(a, a)] * mom.mu[(b, b)] + 1e-12
            for (a, b), v in mom.phi_sq.items():
                assert v >= mom.mu.get((a, b), mom.mu.get((b, a))) ** 2 - 1e-12


def _ms(model, pop):
    mean, var = model.params(pop)
    return mean, np.sqrt(var)


def mom_mean(model, pop):
    return model.params(pop)[0]


class TestPopulationVariance:
    def test_component_assembly_identity(self, rng):
        """The final variance expression equals the component assembly for
        every valid set of moments; checks the transcription consistency."""
        for _ in range(20):
            means = rng.normal(size=3) * 2
            variances = rng.uniform(0.1, 4.0, size=3)
            model = GaussianLinearModel(means[0], variances[0], means[1],
                                        variances[1], means[2], variances[2])
            mom = gaussian_linear_moments(model)
            z1, z2 = mmd2_var_components(mom)
            x1, x2 = diff_var_components(mom)
            for m in (2, 3, 4, 7, 20):
                direct = population_mmd2_var(mom, m)
                assembled = u_stat_variance(z1, z2, m)
                assert direct == pytest.approx(assembled, rel=1e-12, abs=1e-14)
                direct_d = population_diff_var(mom, m)
                assembled_d = u_stat_variance(x1, x2, m)
                assert direct_d == pytest.approx(assembled_d, rel=1e-12, abs=1e-14)

    def test_m2_reduces_to_second_component(self):
        mom = gaussian_linear_moments(GaussianLinearModel(0.1, 1.0, 0.4, 2.0))
        _, z2 = mmd2_var_components(mom)
        assert population_mmd2_var(mom, 2) == pytest.approx(z2, rel=1e-12)

    def test_point_mass_variance_is_zero(self):
        # deterministic samples: every expectation is a product of means
        from mmdvar.oracle import PopulationMoments
        mx, my, mz = 1.3, -0.4, 2.2
        mean = {"x": mx, "y": my, "z": mz}
        mu = {(a, b): mean[a] * mean[b]
              for a, b in [("x", "x"), ("y", "y"), ("z", "z"), ("x", "y"), ("x", "z")]}
        phi_sq = {(a, b): (mean[a] * mean[b]) ** 2
                  for a in mean for b in mean if (a, b) != ("y", "z") and (a, b) != ("z", "y")}
        phi_prod = {(a, b, c): mean[a] ** 2 * mean[b] * mean[c]
                    for (a, b, c) in [("x", "x", "y"), ("y", "y", "x"),
                                      ("z", "z", "x"), ("x", "y", "z")]}
        k2 = {k: v ** 2 for k, v in mu.items()}
        mom = PopulationMoments(mu=mu, phi_sq=phi_sq, phi_prod=phi_prod, k2=k2)
        for m in (2, 5, 9):
            assert population_mmd2_var(mom, m) == pytest.approx(0.0, abs=1e-12)
            assert population_diff_var(mom, m) == pytest.approx(0.0, abs=1e-12)

    def test_needs_m2(self):
        mom = gaussian_linear_moments(GaussianLinearModel(0.0, 1.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="m >= 2"):
            population_mmd2_var(mom, 1)

    def test_population_mmd2_is_squared_mean_gap(self):
        mom = gaussian_linear_moments(GaussianLinearModel(0.25, 1.0, -1.0, 3.0))
        assert population_mmd2(mom) == pytest.approx((0.25 + 1.0) ** 2, rel=1e-12)


class TestMcVarianceComponents:
    MODEL = GaussianLinearModel(0.0, 1.0, 0.5, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_outer"):
            mc_variance_components(self.MODEL, n_outer=50, n_inner=200)

    def test_deterministic(self):
        a = mc_variance_components(self.MODEL, 300, 100, seed=3)
        b = mc_variance_components(self.MODEL, 300, 100, seed=3)
        assert isinstance(a, ComponentEstimates)
        assert a == b

    def test_matches_closed_forms(self):
        mom = gaussian_linear_moments(self.MODEL)
        c1, c2 = mmd2_var_components(mom)
        est = mc_variance_components(self.MODEL, n_outer=3_000, n_inner=300, seed=7)
        assert abs(est.first_order - c1) <= 4 * est.first_order_se
        assert abs(est.second_order - c2) <= 4 * est.second_order_se
        assert est.first_order_se > 0 and est.second_order_se > 0

    def test_symmetric_null_model(self):
        # identical X and Y populations: components known from closed forms
        model = GaussianLinearModel(0.0, 1.0, 0.0, 1.0)
        mom = gaussian_linear_moments(model)
        c1, c2 = mmd2_var_components(mom)
        assert c1 == 0.0  # conditional mean of the pair statistic is constant 0
        est = mc_variance_components(model, n_outer=2_000, n_inner=400, seed=21)
        assert abs(est.first_order - c1) <= 4 * est.first_order_se
        assert abs(est.second_order - c2) <= 4 * est.second_order_se

    def test_swapping_models_agrees_within_joint_se(self):
        # the pair statistic is symmetric in the two populations
        swapped = GaussianLinearModel(0.5, 2.0, 0.0, 1.0)
        a = mc_variance_components(self.MODEL, 2_000, 300, seed=11)
        b = mc_variance_components(swapped, 2_000, 300, seed=12)
        joint1 = np.hypot(a.first_order_se, b.first_order_se)
        joint2 = np.hypot(a.second_order_se, b.second_order_se)
        assert abs(a.first_order - b.first_order) <= 3 * joint1
        assert abs(a.second_order - b.second_order) <= 3 * joint2
