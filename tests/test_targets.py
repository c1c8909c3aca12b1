"""The verification target table: every row resolves to a working estimator,
a finite population value and, for sub-terms, a nested-loop twin."""

import math

import numpy as np
import pytest

import mmdvar as mv
from mmdvar.oracle import TARGETS, TERMS, oracle_term

from conftest import rel_close

MODELS = {
    "two_sample": (mv.GaussianLinearModel(0.0, 1.0, 0.5, 2.0), 19),
    "three_sample": (mv.GaussianLinearModel(0.0, 1.0, 0.5, 2.0, 0.25, 1.0), 35),
}


@pytest.mark.parametrize("name", list(MODELS))
def test_every_target_resolves(name):
    model, count = MODELS[name]
    mom = mv.gaussian_linear_moments(model)
    ids = mv.target_ids(model.has_z)
    assert len(ids) == count
    for t in ids:
        row = TARGETS[t]
        m = max(row.min_m, 4)
        x, y, z = mv.draw_replicate(model, m, mv.replicate_rng(11, m), model.has_z)
        g = mv.build_gram_pack(x, y, z)
        assert math.isfinite(row.estimate(g)), t
        assert math.isfinite(row.truth(mom, m)), t
        if t in TERMS:
            assert rel_close(oracle_term(g, t), mv.estimate_term(g, t)), t
            assert mom.term(t) == row.truth(mom, m), t
        else:
            assert row.loop is None, t


@pytest.mark.parametrize("bad", ["mu_xw", "mmd2"])
def test_unknown_id_rejected(bad):
    g = mv.build_gram_pack(np.arange(4.0), np.arange(4.0) + 1.0)
    with pytest.raises(ValueError, match="unknown term id"):
        oracle_term(g, bad)
    with pytest.raises(ValueError, match="unknown term id"):
        mv.estimate_term(g, bad)
    if bad != "mmd2":  # a statistic is a target, though not a sub-term
        config = mv.McConfig(model=MODELS["two_sample"][0], m=4, replicates=1000,
                             seed=0, targets=(bad,))
        with pytest.raises(ValueError, match="unknown target"):
            config.validate()


@pytest.mark.parametrize("term_id,m,with_z,message", [
    ("mu_sq_xx", 3, False, "requires m >= 4"),
    ("prod_xx_xy", 2, False, "requires m >= 3"),
    ("mu_xz", 4, False, "requires a z sample"),
])
def test_estimator_and_oracle_refuse_alike(term_id, m, with_z, message):
    """Both evaluations check a row's minimum m and need for a z sample."""
    x, y, z = mv.draw_replicate(MODELS["three_sample"][0], m, mv.replicate_rng(5, m), with_z)
    g = mv.build_gram_pack(x, y, z)
    with pytest.raises(ValueError, match=message):
        mv.estimate_term(g, term_id)
    with pytest.raises(ValueError, match=message):
        oracle_term(g, term_id)
