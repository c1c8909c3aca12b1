"""Matrix estimators against their enumerated pattern twins on random data.

The acceptance suite runs the full 50-dataset grid; this module keeps a
faster randomized slice of the same checks for everyday development.
"""

import numpy as np
import pytest

import mmdvar as mv
from mmdvar import build_gram_pack
from mmdvar.oracle import (
    diff_var_from_terms, mmd2_var_from_terms, oracle_term, sub_term_estimates,
)

from conftest import KERNEL_CASES, make_xyz, rel_close


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("kernel", ["linear", "rbf_median", "poly2"])
def test_every_term_matches_its_loop_twin(m, kernel):
    rng = np.random.default_rng(1000 * m + len(kernel))
    for _ in range(3):
        x, y, z = make_xyz(rng, m)
        g = build_gram_pack(x, y, z, spec=KERNEL_CASES[kernel])
        estimates = sub_term_estimates(g)
        for term_id, value in estimates.items():
            truth = oracle_term(g, term_id)
            assert rel_close(value, truth), (term_id, value, truth)


@pytest.mark.parametrize("m", [4, 6, 8])
@pytest.mark.parametrize("kernel", list(KERNEL_CASES))
def test_variance_estimators_match_their_assemblies(m, kernel):
    rng = np.random.default_rng(7000 + m)
    for _ in range(3):
        x, y, z = make_xyz(rng, m)
        g = build_gram_pack(x, y, z, spec=KERNEL_CASES[kernel])
        est = sub_term_estimates(g)
        assembled_v = mmd2_var_from_terms(est.__getitem__, m)
        assert rel_close(mv.mmd2_var(g), assembled_v, rtol=1e-10)
        assembled_nu = diff_var_from_terms(est.__getitem__, m)
        assert rel_close(mv.mmd2_diff_var(g), assembled_nu, rtol=1e-10)


def test_variance_estimators_match_oracle_assembly():
    # loop-oracle sub-terms, assembled by the population formula, equal the
    # single-pass merged estimators: checks the coefficient merge end to end
    rng = np.random.default_rng(31)
    for m in (4, 6):
        x, y, z = make_xyz(rng, m)
        g = build_gram_pack(x, y, z, spec=KERNEL_CASES["poly2"])
        assembled_v = mmd2_var_from_terms(lambda t: oracle_term(g, t), m)
        assert rel_close(mv.mmd2_var(g), assembled_v, rtol=1e-10)
        assembled_nu = diff_var_from_terms(lambda t: oracle_term(g, t), m)
        assert rel_close(mv.mmd2_diff_var(g), assembled_nu, rtol=1e-10)
