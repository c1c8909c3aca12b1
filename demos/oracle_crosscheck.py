"""Every O(m^2) estimator has a twin that enumerates its index pattern
over all distinct index tuples (up to O(m^4) of them); compare them.

Also shows the assembly identity: the merged-coefficient variance
estimator equals the population variance formula evaluated on the
unbiased sub-term estimates.
"""

import numpy as np

from mmdvar import KernelSpec, build_gram_pack, mmd2_diff_var, mmd2_var
from mmdvar.oracle import (
    diff_var_from_terms, mmd2_var_from_terms, oracle_term, sub_term_estimates,
)

rng = np.random.default_rng(3)
m = 8
x, y, z = rng.normal(size=(3, m, 2))

g = build_gram_pack(x, y, z, spec=KernelSpec.polynomial(2, coef0=0.5))
estimates = sub_term_estimates(g)

print(f"{'term':<12} {'matrix form':>16} {'enumerated':>16} {'rel err':>10}")
for term_id, value in estimates.items():
    truth = oracle_term(g, term_id)
    rel = abs(value - truth) / max(abs(truth), 1e-300)
    print(f"{term_id:<12} {value:>16.9f} {truth:>16.9f} {rel:>10.1e}")

v_fast = mmd2_var(g)
v_assembled = mmd2_var_from_terms(estimates.__getitem__, m)
nu_fast = mmd2_diff_var(g)
nu_assembled = diff_var_from_terms(estimates.__getitem__, m)

print(f"\nmmd2_var      merged = {v_fast:.12f}")
print(f"mmd2_var   assembled = {v_assembled:.12f}")
print(f"mmd2_diff_var merged = {nu_fast:.12f}")
print(f"mmd2_diff_var assembled = {nu_assembled:.12f}")
print(f"\nmax assembly gap: {max(abs(v_fast - v_assembled), abs(nu_fast - nu_assembled)):.2e}")
