"""Matrix estimators against their enumerated pattern twins on random data.

The acceptance suite runs the full 50-dataset grid; this module keeps a
faster randomized slice of the same checks for everyday development.
"""

import numpy as np
import pytest

import mmdvar as mv
from mmdvar import build_gram_pack
from mmdvar.estimators import diff_zeta, mmd2_zeta, u_stat_variance
from mmdvar.oracle import enumerated_terms, oracle_term, sub_term_estimates

from conftest import KERNEL_CASES, make_xyz, rel_close
from test_exact_variance import merged_terms


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
    # the formula over the sub-term estimates equals the merged-coefficient
    # reference, evaluated exactly over the same pack's aggregates
    rng = np.random.default_rng(7000 + m)
    for _ in range(3):
        x, y, z = make_xyz(rng, m)
        g = build_gram_pack(x, y, z, spec=KERNEL_CASES[kernel])
        merged_v, merged_nu = (float(sum(terms)) for terms in merged_terms(g))
        assert rel_close(mv.mmd2_var(g), merged_v, rtol=1e-10)
        assert rel_close(mv.mmd2_diff_var(g), merged_nu, rtol=1e-10)


def test_variance_estimators_match_oracle_assembly():
    # loop-oracle sub-terms, assembled by the variance formula, equal the
    # estimators: checks the sub-term estimators inside the formula end to end
    rng = np.random.default_rng(31)
    for m in (4, 6):
        x, y, z = make_xyz(rng, m)
        g = build_gram_pack(x, y, z, spec=KERNEL_CASES["poly2"])
        t = enumerated_terms(g)
        assert rel_close(mv.mmd2_var(g), u_stat_variance(*mmd2_zeta(t), m), rtol=1e-10)
        assert rel_close(mv.mmd2_diff_var(g), u_stat_variance(*diff_zeta(t), m), rtol=1e-10)
