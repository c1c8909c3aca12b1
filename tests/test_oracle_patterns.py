"""The index-pattern oracle on inputs where float arithmetic is exact.

On integer-valued samples under the linear kernel, and under the
polynomial kernel of degree 2, every kernel entry, product and sum the
oracle and the estimators form is an integer below 2**53, so each side is
exact up to its one final division.  The two must then agree bit for bit,
which pins the number of index tuples each pattern enumerates: a count off
by one moves the quotient, where the relative tolerances of the random-data
tests would not see it.
"""

import numpy as np
import pytest

from mmdvar import KernelSpec, build_gram_pack
from mmdvar.oracle import ORACLE_MAX_M, estimate_term, oracle_term, sub_term_estimates

from conftest import make_xyz, rel_close

CASES = [("linear", KernelSpec.linear(), d, shift) for d in (1, 3) for shift in (0, 30)]
CASES += [("poly2", KernelSpec.polynomial(2, coef0=1.0), d, 0) for d in (1, 3)]


@pytest.mark.parametrize("m", [4, 5, 6, 8])
@pytest.mark.parametrize("name,spec,d,shift", CASES,
                         ids=[f"{name}-d{d}-shift{shift}" for name, _, d, shift in CASES])
def test_integer_packs_agree_exactly(m, name, spec, d, shift):
    rng = np.random.default_rng(100 * m + 10 * d + shift)
    x, y, z = (rng.integers(-9, 10, size=(3, m, d)) + shift).astype(float)
    g = build_gram_pack(x, y, z, spec=spec)
    for term_id, value in sub_term_estimates(g).items():
        assert value == oracle_term(g, term_id), term_id


def test_guard_admits_its_largest_m(rng):
    x, y, _ = make_xyz(rng, ORACLE_MAX_M)
    g = build_gram_pack(x, y)
    for term_id in ("mu_xx", "ek2_xy"):
        assert rel_close(oracle_term(g, term_id), estimate_term(g, term_id)), term_id
