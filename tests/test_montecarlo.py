import json
from unittest import mock

import numpy as np
import pytest

import mmdvar as mv
from mmdvar import KernelSpec, montecarlo
from mmdvar.montecarlo import (
    McConfig, _target_info, draw_replicate, replicate_rng, run_unbiasedness,
    run_variance_tracking, target_ids,
)
from mmdvar.oracle import (
    TARGETS, THREE_SAMPLE_TERM_IDS, TWO_SAMPLE_TERM_IDS, GaussianLinearModel,
    gaussian_linear_moments, population_diff_var, population_mmd2_var,
)

from test_exact_aggregates import FIELDS, gamma

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
            config(replicates=10)

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            config(targets=("mmd3",))

    def test_min_m_per_target(self):
        with pytest.raises(ValueError, match="m >= 4"):
            config(m=3, targets=("mmd2_var",))

    def test_z_targets_need_z_model(self):
        with pytest.raises(ValueError, match="requires a z sample"):
            config(model=MODEL_XY, targets=("diff",))

    def test_no_targets(self):
        with pytest.raises(ValueError, match="no targets"):
            config(targets=())

    def test_bad_threshold(self):
        for threshold in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="z_threshold"):
                config(z_threshold=threshold)

    @pytest.mark.parametrize("field,value", [("m", 8.0), ("replicates", 1000.5), ("seed", 0.5)])
    def test_non_integer_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            config(**{field: value})

    def test_numpy_integers_become_python_ints(self):
        """A NumPy seed would overflow int64 under the seed's mod-2**64 mask,
        and would not serialise in the echoed config."""
        numpy_cfg = config(m=np.int64(6), replicates=np.uint32(1500), seed=np.int64(-5))
        for name, want in (("m", 6), ("replicates", 1500), ("seed", -5)):
            assert type(getattr(numpy_cfg, name)) is int and getattr(numpy_cfg, name) == want
        got, want = run_unbiasedness(numpy_cfg), run_unbiasedness(config(seed=-5))
        assert json.dumps(got.config) == json.dumps(want.config)
        assert repr(got) == repr(want)  # every float's repr round-trips its bits

    def test_targets_deduped_in_order(self):
        c = config(targets=("mmd2", "ek2_xy", "mmd2"))
        assert c.targets == ("mmd2", "ek2_xy")

    def test_target_ids_listing(self):
        two = target_ids(with_z=False)
        assert "mmd2" in two and "mmd2_var" in two and "diff" not in two
        assert set(TWO_SAMPLE_TERM_IDS) <= set(two)
        three = target_ids(with_z=True)
        assert {"diff", "mmd2_diff_var", "mmd2_xz"} <= set(three)
        assert set(THREE_SAMPLE_TERM_IDS) <= set(three)


class TestDeterminism:
    def test_identical_configs_identical_reports(self):
        r1 = run_unbiasedness(config())
        r2 = run_unbiasedness(config())
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
            values[lo:hi] = fn(_chunk(cfg, range(lo, hi), False)[1])
        # McConfig guards verdicts at >= 1000 replicates, so compare directly
        report = run_unbiasedness(cfg)
        assert report.entries["mmd2"].mean == float(values.mean())


class TestRunUnbiasedness:
    def test_null_case_mmd2(self):
        model = GaussianLinearModel(0.3, 1.0, 0.3, 1.0)
        cfg = McConfig(model=model, m=5, replicates=4000, seed=5, targets=("mmd2",))
        rep = run_unbiasedness(cfg)
        e = rep.entries["mmd2"]
        assert e.truth == 0.0
        assert abs(e.z) <= 4 and e.passed
        assert rep.all_passed

    def test_known_truths(self):
        cfg = McConfig(model=MODEL_XYZ, m=6, replicates=4000, seed=17,
                       targets=("mmd2", "diff", "mu_sq_xy", "ek2_xz"))
        rep = run_unbiasedness(cfg)
        assert rep.entries["mmd2"].truth == pytest.approx(0.25)
        assert rep.entries["diff"].truth == pytest.approx(0.25 - 0.0625)
        # <mu_x, mu_y>^2 = (0 * 0.5)^2 = 0 for the zero-mean X
        assert rep.entries["mu_sq_xy"].truth == 0.0
        assert rep.all_passed, {t: e.z for t, e in rep.entries.items()}

    def test_report_echo(self):
        rep = run_unbiasedness(config())
        assert rep.kind == "unbiasedness"
        assert rep.config["gaussian_sampler"] == "inverse_cdf"
        assert rep.config["m"] == 6
        assert rep.config["targets"] == ["mmd2", "mmd2_var"]

    def test_verdict_consistent_with_z(self):
        rep = run_unbiasedness(config(z_threshold=0.05))
        for e in rep.entries.values():
            assert e.passed == (abs(e.z) <= 0.05)
            assert e.se > 0


class TestRunVarianceTracking:
    def test_two_sample_tracks_mmd2_only(self):
        cfg = McConfig(model=MODEL_XY, m=5, replicates=4000, seed=2, targets=("mmd2",))
        rep = run_variance_tracking(cfg)
        assert rep.kind == "variance_tracking"
        assert list(rep.entries) == ["mmd2"]
        assert rep.all_passed, rep.entries

    def test_three_sample_tracks_diff_too(self):
        cfg = McConfig(model=MODEL_XYZ, m=5, replicates=4000, seed=3, targets=("mmd2",))
        rep = run_variance_tracking(cfg)
        assert list(rep.entries) == ["mmd2", "diff"]
        assert rep.all_passed, {t: e.z for t, e in rep.entries.items()}

    def test_truths_are_population_variances(self):
        cfg = McConfig(model=MODEL_XYZ, m=6, replicates=1200, seed=4, targets=("mmd2",))
        rep = run_variance_tracking(cfg)
        mom = gaussian_linear_moments(MODEL_XYZ)
        assert rep.entries["mmd2"].truth == population_mmd2_var(mom, 6)
        assert rep.entries["diff"].truth == population_diff_var(mom, 6)

    def test_needs_m4(self):
        cfg = McConfig(model=MODEL_XY, m=3, replicates=1200, seed=4, targets=("mmd2",))
        with pytest.raises(ValueError, match="m >= 4"):
            run_variance_tracking(cfg)


class TestZScoreCalibration:
    def test_z_scores_roughly_standard_normal_across_seeds(self):
        """Over 20 independent seeds at a known truth, at most one |z| > 3."""
        exceed = 0
        for seed in range(20):
            cfg = McConfig(model=MODEL_XY, m=4, replicates=1000, seed=seed,
                           targets=("mmd2",))
            z = run_unbiasedness(cfg).entries["mmd2"].z
            if abs(z) > 3:
                exceed += 1
        assert exceed <= 1


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


MODEL_XYZ_30 = GaussianLinearModel(30.0, 1.0, 30.5, 2.0, 29.0, 1.0)


class TestRankOneEngine:
    """The engine evaluates chunks of stacked replicates from the rank-one
    aggregates of their scalar samples: no value may depend on how the
    replicates are chunked, and every aggregate must agree with the
    replicate's own pack within the exact-rational test's rounding bound."""

    @pytest.mark.parametrize("model", [MODEL_XY, MODEL_XYZ, MODEL_XYZ_30],
                             ids=["two", "three", "three_means_30"])
    @pytest.mark.parametrize("m", [4, 5, 8, 40, 300])
    def test_values_bit_identical_across_chunkings(self, model, m):
        targets = target_ids(model.has_z)
        cfg = config(model=model, m=m, replicates=1000, seed=m, targets=targets)
        runs = []
        for per_chunk in (None, 7, 1):  # 7 a chunk: 142 full chunks and a last one of 6
            entries = montecarlo._CHUNK_ENTRIES if per_chunk is None else per_chunk * m
            with mock.patch.object(montecarlo, "_CHUNK_ENTRIES", entries):
                runs.append(montecarlo._replicate_values(cfg, targets, model.has_z))
        for t in targets:
            for other in runs[1:]:
                np.testing.assert_array_equal(_bits(other[t]), _bits(runs[0][t]), err_msg=t)

    @pytest.mark.parametrize("model", [MODEL_XY, MODEL_XYZ], ids=["two", "three"])
    @pytest.mark.parametrize("m", [4, 5, 8, 40])
    def test_values_agree_with_per_replicate_packs(self, model, m):
        """The harness's values are the estimators on the rank-one aggregates
        of ``draw_replicate``'s samples, and each of those aggregates lies
        within 2 gamma_{2m+1} S of the replicate's own pack: both lie within
        gamma_{2m+1} S of the exact value, S the aggregate of |samples|."""
        targets = target_ids(model.has_z)
        cfg = config(model=model, m=m, replicates=1000, seed=m, targets=targets)
        got = montecarlo._replicate_values(cfg, targets, model.has_z)
        draws, stacked = _chunk(cfg, range(cfg.replicates), model.has_z)
        for t in targets:
            np.testing.assert_array_equal(_bits(got[t]), _bits(TARGETS[t].estimate(stacked)),
                                          err_msg=t)
        closed = stacked.stats
        scale = montecarlo._rank_one_stats({p: np.abs(a) for p, a in stacked.samples.items()})
        bound = 2 * float(gamma(2 * m + 1))
        for r, d in enumerate(draws):
            for key, stats in mv.build_gram_pack(*d).stats.items():
                for field in FIELDS:
                    want = getattr(stats, field)
                    have, s = (_replicate(getattr(st[key], field), r) for st in (closed, scale))
                    assert np.all(np.abs(have - want) <= bound * s), (r, key, field)


class TestReKeyedStreams:
    """The harness re-keys one Philox per replicate instead of building
    :func:`replicate_rng`'s generator; its draws must be that generator's, bit
    for bit, on 10^5 (seed, replicate) pairs.  The word counts, 14 and 27, are
    not multiples of Philox's four-word block, so a re-key that kept the
    previous replicate's buffered words would show; chunks of 997 replicates
    put a chunk boundary inside each run."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, -1, -5, np.uint64(2**63 + 5)],
                             ids=["0", "2**64-1", "-1", "-5", "uint64"])
    @pytest.mark.parametrize("model,m", [(MODEL_XY, 7), (MODEL_XYZ, 9)], ids=["w14", "w27"])
    def test_draws_equal_replicate_rng(self, seed, model, m):
        n, words = 10_000, (2 + model.has_z) * m
        cfg = McConfig(model=model, m=m, replicates=n, seed=seed, targets=("mmd2",))
        mapped, gaussian_from_ints = [], montecarlo.gaussian_from_ints

        def record(ints, *params):
            mapped.append(ints)
            return gaussian_from_ints(ints, *params)

        with mock.patch.object(montecarlo, "_CHUNK_ENTRIES", 997 * m), \
                mock.patch.object(montecarlo, "gaussian_from_ints", record):
            montecarlo._replicate_values(cfg, (), model.has_z)  # draws, evaluates nothing
        k = words // m  # one call per sample and chunk, in the order x, y, z
        got = np.concatenate([np.stack(mapped[i:i + k], axis=1)
                              for i in range(0, len(mapped), k)]).reshape(n, words)
        want = np.stack([replicate_rng(seed, r).integers(1, 1 << 53, size=words)
                         for r in range(n)])
        assert len(mapped) == k * -(-n // 997)
        np.testing.assert_array_equal(got, want)


def _chunk(cfg, reps, with_z):
    """Each replicate's ``draw_replicate`` samples, and the pack of their
    stacked rank-one aggregates that the harness evaluates."""
    draws = [draw_replicate(cfg.model, cfg.m, replicate_rng(cfg.seed, r), with_z) for r in reps]
    samples = {p: np.stack([d[i][:, 0] for d in draws]) for i, p in enumerate("xyz"[:2 + with_z])}
    return draws, mv.GramPack(m=cfg.m, d=1, spec=KernelSpec.linear(), samples=samples,
                              stats=montecarlo._rank_one_stats(samples))


def _replicate(value, r):
    """Replicate r's value of a stacked aggregate; a zero trace stays a scalar."""
    return value if np.ndim(value) == 0 else value[r]


class TestOutputTypes:
    def test_entries_are_python_floats(self):
        cfg = config(model=MODEL_XYZ, targets=target_ids(True))
        for rep in (run_unbiasedness(cfg), run_variance_tracking(cfg)):
            for t, e in rep.entries.items():
                for field in ("mean", "se", "truth", "z"):
                    assert type(getattr(e, field)) is float, (rep.kind, t, field)
                assert type(e.passed) is bool


class TestNonFiniteReplicates:
    @pytest.mark.parametrize("var,what", [(4e152, "replicate mean"), (1e150, "standard error")])
    def test_overflowing_estimates_name_the_target(self, var, what):
        """Finite kernel matrices whose variance estimates overflow float64
        (at 4e152), or whose spread does when squared (at 1e150)."""
        model = GaussianLinearModel(1e76, var, 1e76, var)
        cfg = McConfig(model=model, m=4, replicates=1000, seed=0, targets=("mmd2", "mmd2_var"))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"target 'mmd2_var': {what} is not finite"):
                run_unbiasedness(cfg)

    def test_zero_spread_names_the_target(self):
        """Means so large that every replicate rounds to the same samples:
        a standard error of 0 leaves no finite z-score."""
        model = GaussianLinearModel(1e76, 1.0, 1e76, 2.0)
        cfg = McConfig(model=model, m=4, replicates=1000, seed=0, targets=("mmd2", "mmd2_var"))
        with pytest.raises(ValueError, match="target 'mmd2_var': z-score is not finite"):
            run_unbiasedness(cfg)
        with pytest.raises(ValueError, match="target 'mmd2': z-score is not finite"):
            run_variance_tracking(cfg)
