"""The verification target table: every row resolves to a working estimator,
a finite population value and, for sub-terms, an enumerated pattern twin."""

import math
import re
from functools import partial

import numpy as np
import pytest

import mmdvar as mv
from mmdvar.montecarlo import McConfig, draw_replicate, replicate_rng, target_ids
from mmdvar.oracle import (
    TARGETS, TERMS, GaussianLinearModel, check_target, estimate_term, gaussian_linear_moments,
    oracle_term,
)

from conftest import rel_close

MODELS = {
    "two_sample": (GaussianLinearModel(0.0, 1.0, 0.5, 2.0), 19),
    "three_sample": (GaussianLinearModel(0.0, 1.0, 0.5, 2.0, 0.25, 1.0), 35),
}


@pytest.mark.parametrize("name", list(MODELS))
def test_every_target_resolves(name):
    model, count = MODELS[name]
    mom = gaussian_linear_moments(model)
    ids = target_ids(model.has_z)
    assert len(ids) == count
    for t in ids:
        row = TARGETS[t]
        m = max(row.min_m, 4)
        x, y, z = draw_replicate(model, m, replicate_rng(11, m), model.has_z)
        g = mv.build_gram_pack(x, y, z)
        assert math.isfinite(row.estimate(g)), t
        assert math.isfinite(row.truth(mom, m)), t
        if t in TERMS:
            assert rel_close(oracle_term(g, t), estimate_term(g, t)), t
            assert mom.term(t) == row.truth(mom, m), t
        else:
            assert row.loop is None, t


@pytest.mark.parametrize("bad", ["mu_xw", "mmd2"])
def test_unknown_id_rejected(bad):
    g = mv.build_gram_pack(np.arange(4.0), np.arange(4.0) + 1.0)
    with pytest.raises(ValueError, match="unknown term id"):
        oracle_term(g, bad)
    with pytest.raises(ValueError, match="unknown term id"):
        estimate_term(g, bad)
    if bad != "mmd2":  # a statistic is a target, though not a sub-term
        with pytest.raises(ValueError, match="unknown target"):
            McConfig(model=MODELS["two_sample"][0], m=4, replicates=1000, seed=0, targets=(bad,))


def _gate_cases():
    """(target, m, with_z, reason): each target at its minimum m with every
    sample (reason None), one below that minimum, and without a z sample it needs."""
    for t, row in TARGETS.items():
        yield t, row.min_m, True, None
        if row.min_m > 2:  # no pack has m < 2
            yield t, row.min_m - 1, row.needs_z, f"requires m >= {row.min_m}"
        if row.needs_z:
            yield t, max(row.min_m, 4), False, "requires a z sample"


@pytest.mark.parametrize("term_id,m,with_z,message", list(_gate_cases()))
def test_estimator_and_oracle_refuse_alike(term_id, m, with_z, message):
    """The table is the only guard: the estimator and oracle of a sub-term and
    the harness's validation admit a target at its minimum m and refuse it,
    with the gate's message, below that or without a z sample it needs."""
    model = MODELS["three_sample" if with_z else "two_sample"][0]
    x, y, z = draw_replicate(model, m, replicate_rng(5, m), with_z)
    g = mv.build_gram_pack(x, y, z)
    config = partial(McConfig, model=model, m=m, replicates=1000, seed=0, targets=(term_id,))
    if term_id in TERMS:
        evaluations = [lambda: estimate_term(g, term_id), lambda: oracle_term(g, term_id)]
    else:
        evaluations = [lambda: check_target(term_id, m, with_z).estimate(g)]
    if message is None:
        config()
        for evaluate in evaluations:
            assert math.isfinite(evaluate()), term_id
        return
    if message.startswith("requires m"):
        message += f", got m = {m}"
    for evaluate in [config, *evaluations]:
        with pytest.raises(ValueError, match=f"^{re.escape(f'target {term_id!r} {message}')}$"):
            evaluate()
