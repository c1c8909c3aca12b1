"""Every O(m^2) estimator has a twin that enumerates its index pattern
over all distinct index tuples (up to O(m^4) of them); compare them.

The variance estimators are Hoeffding's variance formula over the sub-term
estimates; the same formula over the enumerated sub-terms is their twin.
"""

import numpy as np

from mmdvar import KernelSpec, build_gram_pack, mmd2_diff_var, mmd2_var
from mmdvar.estimators import diff_zeta, mmd2_zeta, u_stat_variance
from mmdvar.oracle import enumerated_terms, oracle_term, sub_term_estimates

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

enumerated = enumerated_terms(g)
v_fast = mmd2_var(g)
v_enumerated = u_stat_variance(*mmd2_zeta(enumerated), m)
nu_fast = mmd2_diff_var(g)
nu_enumerated = u_stat_variance(*diff_zeta(enumerated), m)

print(f"\nmmd2_var       estimator = {v_fast:.12f}")
print(f"mmd2_var      enumerated = {v_enumerated:.12f}")
print(f"mmd2_diff_var  estimator = {nu_fast:.12f}")
print(f"mmd2_diff_var enumerated = {nu_enumerated:.12f}")
print(f"\nmax gap: {max(abs(v_fast - v_enumerated), abs(nu_fast - nu_enumerated)):.2e}")
