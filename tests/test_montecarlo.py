from unittest import mock

import numpy as np
import pytest

import mmdvar as mv
from mmdvar import GaussianLinearModel, KernelSpec, McConfig, kernels, montecarlo
from mmdvar.montecarlo import _target_info, replicate_rng
from mmdvar.oracle import TARGETS

MODEL_XY = GaussianLinearModel(0.0, 1.0, 0.5, 2.0)
MODEL_XYZ = GaussianLinearModel(0.0, 1.0, 0.5, 2.0, 0.25, 1.0)


def config(**kw):
    base = dict(model=MODEL_XYZ, m=6, replicates=1500, seed=42,
                targets=("mmd2", "mmd2_var"))
    base.update(kw)
    return McConfig(**base)


class TestConfigValidation:
    def test_replicates_minimum(self):
        with pytest.raises(ValueError, match="replicates below minimum"):
            config(replicates=10).validate()

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            config(targets=("mmd3",)).validate()

    def test_min_m_per_target(self):
        with pytest.raises(ValueError, match="m >= 4"):
            config(m=3, targets=("mmd2_var",)).validate()

    def test_z_targets_need_z_model(self):
        with pytest.raises(ValueError, match="z population"):
            config(model=MODEL_XY, targets=("diff",)).validate()

    def test_no_targets(self):
        with pytest.raises(ValueError, match="no targets"):
            config(targets=()).validate()

    def test_bad_threshold(self):
        with pytest.raises(ValueError, match="z_threshold"):
            config(z_threshold=0.0).validate()

    def test_targets_deduped_in_order(self):
        c = config(targets=("mmd2", "ek2_xy", "mmd2"))
        assert c.targets == ("mmd2", "ek2_xy")

    def test_target_ids_listing(self):
        two = mv.target_ids(with_z=False)
        assert "mmd2" in two and "mmd2_var" in two and "diff" not in two
        assert set(mv.TWO_SAMPLE_TERM_IDS) <= set(two)
        three = mv.target_ids(with_z=True)
        assert {"diff", "mmd2_diff_var", "mmd2_xz"} <= set(three)
        assert set(mv.THREE_SAMPLE_TERM_IDS) <= set(three)


class TestDeterminism:
    def test_identical_configs_identical_reports(self):
        r1 = mv.run_unbiasedness(config())
        r2 = mv.run_unbiasedness(config())
        assert r1 == r2

    def test_replicate_rng_streams_are_stable(self):
        a = replicate_rng(7, 3).integers(0, 1 << 53, 4)
        b = replicate_rng(7, 3).integers(0, 1 << 53, 4)
        c = replicate_rng(7, 4).integers(0, 1 << 53, 4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_split_workers_reproduce_sequential_mean(self):
        """Filling disjoint replicate ranges in parallel workers and reducing
        by replicate index gives bitwise the sequential result."""
        cfg = config(targets=("mmd2",), replicates=1000)
        # pretend two workers: indices [0, 500) and [500, 1000)
        values = np.empty(cfg.replicates)
        fn = _target_info("mmd2")[0]
        for lo, hi in ((0, 500), (500, 1000)):
            for rep in range(lo, hi):
                rng = replicate_rng(cfg.seed, rep)
                x, y, z = mv.draw_replicate(cfg.model, cfg.m, rng, False)
                g = mv.build_gram_pack(x, y, z)
                values[rep] = fn(g)
        # McConfig guards verdicts at >= 1000 replicates, so compare directly
        report = mv.run_unbiasedness(cfg)
        assert report.entries["mmd2"].mean == float(values.mean())


class TestRunUnbiasedness:
    def test_null_case_mmd2(self):
        model = GaussianLinearModel(0.3, 1.0, 0.3, 1.0)
        cfg = McConfig(model=model, m=5, replicates=4000, seed=5, targets=("mmd2",))
        rep = mv.run_unbiasedness(cfg)
        e = rep.entries["mmd2"]
        assert e.truth == 0.0
        assert abs(e.z) <= 4 and e.passed
        assert rep.all_passed

    def test_known_truths(self):
        cfg = McConfig(model=MODEL_XYZ, m=6, replicates=4000, seed=17,
                       targets=("mmd2", "diff", "mu_sq_xy", "ek2_xz"))
        rep = mv.run_unbiasedness(cfg)
        assert rep.entries["mmd2"].truth == pytest.approx(0.25)
        assert rep.entries["diff"].truth == pytest.approx(0.25 - 0.0625)
        # <mu_x, mu_y>^2 = (0 * 0.5)^2 = 0 for the zero-mean X
        assert rep.entries["mu_sq_xy"].truth == 0.0
        assert rep.all_passed, {t: e.z for t, e in rep.entries.items()}

    def test_report_echo(self):
        rep = mv.run_unbiasedness(config())
        assert rep.kind == "unbiasedness"
        assert rep.config["gaussian_sampler"] == "inverse_cdf"
        assert rep.config["m"] == 6
        assert rep.config["targets"] == ["mmd2", "mmd2_var"]

    def test_verdict_consistent_with_z(self):
        rep = mv.run_unbiasedness(config(z_threshold=0.05))
        for e in rep.entries.values():
            assert e.passed == (abs(e.z) <= 0.05)
            assert e.se > 0


class TestRunVarianceTracking:
    def test_two_sample_tracks_mmd2_only(self):
        cfg = McConfig(model=MODEL_XY, m=5, replicates=4000, seed=2, targets=("mmd2",))
        rep = mv.run_variance_tracking(cfg)
        assert rep.kind == "variance_tracking"
        assert list(rep.entries) == ["mmd2"]
        assert rep.all_passed, rep.entries

    def test_three_sample_tracks_diff_too(self):
        cfg = McConfig(model=MODEL_XYZ, m=5, replicates=4000, seed=3, targets=("mmd2",))
        rep = mv.run_variance_tracking(cfg)
        assert list(rep.entries) == ["mmd2", "diff"]
        assert rep.all_passed, {t: e.z for t, e in rep.entries.items()}

    def test_truths_are_population_variances(self):
        cfg = McConfig(model=MODEL_XYZ, m=6, replicates=1200, seed=4, targets=("mmd2",))
        rep = mv.run_variance_tracking(cfg)
        mom = mv.gaussian_linear_moments(MODEL_XYZ)
        assert rep.entries["mmd2"].truth == mv.population_mmd2_var(mom, 6)
        assert rep.entries["diff"].truth == mv.population_diff_var(mom, 6)

    def test_needs_m4(self):
        cfg = McConfig(model=MODEL_XY, m=3, replicates=1200, seed=4, targets=("mmd2",))
        with pytest.raises(ValueError, match="m >= 4"):
            mv.run_variance_tracking(cfg)


class TestZScoreCalibration:
    def test_z_scores_roughly_standard_normal_across_seeds(self):
        """Over 20 independent seeds at a known truth, at most one |z| > 3."""
        exceed = 0
        for seed in range(20):
            cfg = McConfig(model=MODEL_XY, m=4, replicates=1000, seed=seed,
                           targets=("mmd2",))
            z = mv.run_unbiasedness(cfg).entries["mmd2"].z
            if abs(z) > 3:
                exceed += 1
        assert exceed <= 1


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestStackedEngine:
    """The engine evaluates chunks of stacked replicates; every value must be
    bit for bit what the replicate's own pack gives."""

    @staticmethod
    def _per_replicate(cfg, targets, with_z):
        """Per replicate: its own stream, one ``gaussian_draw`` call per sample
        (``draw_replicate``), its own pack and every estimator."""
        values = {t: np.empty(cfg.replicates) for t in targets}
        for rep in range(cfg.replicates):
            x, y, z = mv.draw_replicate(cfg.model, cfg.m, replicate_rng(cfg.seed, rep), with_z)
            g = mv.build_gram_pack(x, y, z)
            for t in targets:
                values[t][rep] = TARGETS[t].estimate(g)
        return values

    @pytest.mark.parametrize("model", [MODEL_XY, MODEL_XYZ], ids=["two", "three"])
    @pytest.mark.parametrize("m", [4, 5, 8, 40])
    @pytest.mark.parametrize("per_chunk", [None, 7], ids=["one_chunk", "ragged_chunks"])
    def test_values_match_per_replicate_packs(self, model, m, per_chunk):
        targets = mv.target_ids(model.has_z)
        cfg = config(model=model, m=m, replicates=1000, seed=m, targets=targets)
        # 7 replicates a chunk: 142 full chunks and a last one of 6
        entries = montecarlo._CHUNK_ENTRIES if per_chunk is None else per_chunk * m * m
        with mock.patch.object(montecarlo, "_CHUNK_ENTRIES", entries):
            got = montecarlo._replicate_values(cfg, targets, model.has_z)
        want = self._per_replicate(cfg, targets, model.has_z)
        for t in targets:
            np.testing.assert_array_equal(_bits(got[t]), _bits(want[t]), err_msg=t)

    @pytest.mark.parametrize("spec", [KernelSpec.linear(), KernelSpec.polynomial(2, coef0=1.0),
                                      KernelSpec.constant(0.7)], ids=["linear", "poly2", "const"])
    @pytest.mark.parametrize("m,d,block", [(5, 1, None), (40, 3, None), (40, 3, 3),
                                           (300, 2, None), (300, 2, 7)])
    def test_stacked_pack_matches_separate_packs(self, rng, spec, m, d, block):
        """Every GramStats field and every estimate; m = 300 with the
        default block holds 256 x 300 blocks, summed one matrix at a time."""
        stack = rng.normal(size=(3, 3, m, d))  # 3 populations x 3 replicates
        with mock.patch.object(kernels, "_BLOCK", block or kernels._BLOCK):
            g = mv.build_gram_pack(*stack, spec=spec)
            alone = [mv.build_gram_pack(*stack[:, r], spec=spec) for r in range(3)]
        assert (g.m, g.d) == (m, d) and g.samples["x"].shape == (3, m, d)
        fields = ("row_sums", "col_sums", "total", "frob_sq", "trace")
        for r, one in enumerate(alone):
            for key, stats in one.stats.items():
                for field in fields:
                    stacked = getattr(g.stats[key], field)  # a zero trace stays a scalar
                    got = stacked if np.ndim(stacked) == 0 else stacked[r]
                    np.testing.assert_array_equal(_bits(got), _bits(getattr(stats, field)),
                                                  err_msg=f"{key}.{field}")
            for t, row in TARGETS.items():
                if m >= row.min_m:
                    assert _bits(row.estimate(g)[r]) == _bits(row.estimate(one)), t
            np.testing.assert_array_equal(g.matrix("x", "x")[r], one.matrix("x", "x"))

    def test_stacked_rbf_rejected(self, rng):
        stack = rng.normal(size=(2, 4, 5, 2))
        for spec in (KernelSpec.rbf("median"), KernelSpec.rbf(1.0)):
            with pytest.raises(ValueError, match="one sample at a time"):
                mv.build_gram_pack(stack[0], stack[1], spec=spec)
        with pytest.raises(ValueError):  # cdist takes 2-d arrays only
            mv.kernel_matrix(KernelSpec.rbf(1.0), stack[0], stack[1])

    def test_non_finite_stack_rejected(self, rng):
        stack = rng.normal(size=(2, 4, 5, 1))
        stack[1, 2, 3, 0] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            mv.build_gram_pack(stack[0], stack[1])

    def test_mismatched_stacks_rejected(self, rng):
        with pytest.raises(ValueError, match="stacks differ"):
            mv.build_gram_pack(rng.normal(size=(4, 5, 1)), rng.normal(size=(3, 5, 1)))


class TestOutputTypes:
    def test_entries_are_python_floats(self):
        cfg = config(model=MODEL_XYZ, targets=mv.target_ids(True))
        for rep in (mv.run_unbiasedness(cfg), mv.run_variance_tracking(cfg)):
            for t, e in rep.entries.items():
                for field in ("mean", "se", "truth", "z"):
                    assert type(getattr(e, field)) is float, (rep.kind, t, field)
                assert type(e.passed) is bool


class TestNonFiniteReplicates:
    @pytest.mark.parametrize("var,what", [(1e152, "replicate mean"), (1e150, "standard error")])
    def test_overflowing_estimates_name_the_target(self, var, what):
        """Finite kernel matrices whose variance estimates overflow float64
        (at 1e152), or whose spread does when squared (at 1e150)."""
        model = GaussianLinearModel(1e76, var, 1e76, var)
        cfg = McConfig(model=model, m=4, replicates=1000, seed=0, targets=("mmd2", "mmd2_var"))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"target 'mmd2_var': {what} is not finite"):
                mv.run_unbiasedness(cfg)

    def test_zero_spread_names_the_target(self):
        """Means so large that every replicate rounds to the same samples:
        a standard error of 0 leaves no finite z-score."""
        model = GaussianLinearModel(1e76, 1.0, 1e76, 2.0)
        cfg = McConfig(model=model, m=4, replicates=1000, seed=0, targets=("mmd2", "mmd2_var"))
        with pytest.raises(ValueError, match="target 'mmd2_var': z-score is not finite"):
            mv.run_unbiasedness(cfg)
        with pytest.raises(ValueError, match="target 'mmd2': z-score is not finite"):
            mv.run_variance_tracking(cfg)
