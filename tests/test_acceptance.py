"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The statistical criteria use fixed seeds, so the
whole suite is deterministic.
"""

import json
import time

import numpy as np
import pytest

import mmdvar as mv
from mmdvar import KernelSpec, build_gram_pack
from mmdvar.cli import EXIT_INPUT, EXIT_PRECONDITION, main
from mmdvar.montecarlo import McConfig, run_unbiasedness, run_variance_tracking
from mmdvar.oracle import (
    THREE_SAMPLE_TERM_IDS,
    GaussianLinearModel,
    gaussian_linear_moments,
    mc_variance_components,
    mmd2_var_components,
    oracle_term,
    sub_term_estimates,
)

from conftest import make_xyz, rel_close
from test_exact_variance import merged_terms

M_GRID = (4, 5, 6, 7, 8)
N_DATASETS = 50
KERNELS = {
    "linear": KernelSpec.linear(),
    "rbf_median": KernelSpec.rbf("median"),
    "poly2": KernelSpec.polynomial(2, coef0=1.0),
}

#: scalar Gaussians for the statistical criteria:
#: X ~ N(0, 1), Y ~ N(0.5, 2), Z ~ N(0.25, 1), linear kernel
MODEL = GaussianLinearModel(0.0, 1.0, 0.5, 2.0, 0.25, 1.0)
SEED = 20240817


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[criterion {num}] {name}: {status}{suffix}")


def test_criterion_1_oracle_equivalence():
    """Every sub-term estimator equals its enumerated pattern on the full
    m x kernel x dataset grid, within 1e-10 relative (1e-12 absolute below
    1e-8), in under a minute."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    comparisons = 0
    for m in M_GRID:
        for kname, spec in KERNELS.items():
            for _ in range(N_DATASETS):
                x, y, z = make_xyz(rng, m)
                g = build_gram_pack(x, y, z, spec=spec)
                for term_id, value in sub_term_estimates(g).items():
                    comparisons += 1
                    truth = oracle_term(g, term_id)
                    if not rel_close(value, truth):
                        failures.append((m, kname, term_id, value, truth))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _verdict(1, "oracle equivalence of all sub-terms", ok,
             f"{comparisons} comparisons, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 60.0


def test_criterion_2_assembly_identity():
    """The variance estimators, Hoeffding's formula over the sub-term
    estimates, equal the merged-coefficient formulas evaluated exactly over
    the same pack's aggregates."""
    rng = np.random.default_rng(SEED + 1)
    failures = []
    for m in M_GRID:
        for kname, spec in KERNELS.items():
            for _ in range(N_DATASETS):
                x, y, z = make_xyz(rng, m)
                g = build_gram_pack(x, y, z, spec=spec)
                v_merged, nu_merged = (float(sum(terms)) for terms in merged_terms(g))
                v = mv.mmd2_var(g)
                if not rel_close(v, v_merged, rtol=1e-10):
                    failures.append(("mmd2_var", m, kname, v, v_merged))
                nu = mv.mmd2_diff_var(g)
                if not rel_close(nu, nu_merged, rtol=1e-10):
                    failures.append(("mmd2_diff_var", m, kname, nu, nu_merged))
    ok = not failures
    _verdict(2, "variance estimators equal the merged formulas", ok)
    assert not failures, failures[:5]


def test_criterion_3_constant_kernel_exactness():
    """Constant kernel: statistic and both variance estimates vanish to
    1e-12 absolute for m in {4, 10, 100}."""
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for m in (4, 10, 100):
        x, y, z = make_xyz(rng, m)
        g = build_gram_pack(x, y, z, spec=KernelSpec.constant(1.0))
        for value in (mv.mmd2_u(g, "xy"), mv.mmd2_u(g, "xz"),
                      mv.mmd2_var(g), mv.mmd2_diff_var(g)):
            worst = max(worst, abs(value))
    ok = worst <= 1e-12
    _verdict(3, "constant-kernel exact zeros", ok, f"worst |value| = {worst:.2e}")
    assert ok


def test_criterion_4_unbiasedness():
    """1e5 replicates at m = 8: the replicate mean of the statistic, of both
    variance estimators, and of all 30 sub-terms sits within 4 standard
    errors of the closed-form truth.  Runtime under 5 minutes."""
    start = time.perf_counter()
    targets = ("mmd2", "mmd2_var", "mmd2_diff_var") + THREE_SAMPLE_TERM_IDS
    cfg = McConfig(model=MODEL, m=8, replicates=100_000, seed=SEED, targets=targets)
    report = run_unbiasedness(cfg)
    elapsed = time.perf_counter() - start
    worst = max(report.entries.items(), key=lambda kv: abs(kv[1].z))
    ok = report.all_passed and elapsed < 300.0
    _verdict(4, "unbiasedness of every estimator", ok,
             f"worst |z| = {abs(worst[1].z):.2f} ({worst[0]}), {elapsed:.0f}s")
    assert report.all_passed, {t: e.z for t, e in report.entries.items() if not e.passed}
    assert elapsed < 300.0


def test_criterion_5_variance_tracking():
    """Empirical Var[mmd2_u] and Var[diff] across 1e5 replicates match the
    closed-form sampling variances within 4 jackknife standard errors."""
    cfg = McConfig(model=MODEL, m=8, replicates=100_000, seed=SEED + 3,
                   targets=("mmd2",))
    report = run_variance_tracking(cfg)
    zs = {t: e.z for t, e in report.entries.items()}
    ok = report.all_passed and set(zs) == {"mmd2", "diff"}
    _verdict(5, "variance tracking of mmd2 and diff", ok,
             "z = " + ", ".join(f"{t}: {z:+.2f}" for t, z in zs.items()))
    assert ok, zs


def test_criterion_6_component_consistency():
    """Nested Monte Carlo estimates of the two variance components agree
    with the closed forms used by the population variance, within 4 SE."""
    model = GaussianLinearModel(MODEL.mean_x, MODEL.var_x, MODEL.mean_y, MODEL.var_y)
    c1, c2 = mmd2_var_components(gaussian_linear_moments(model))
    est = mc_variance_components(model, n_outer=10_000, n_inner=1_000, seed=SEED)
    z1 = (est.first_order - c1) / est.first_order_se
    z2 = (est.second_order - c2) / est.second_order_se
    ok = abs(z1) <= 4 and abs(z2) <= 4
    _verdict(6, "variance components vs nested Monte Carlo", ok,
             f"z_first = {z1:+.2f}, z_second = {z2:+.2f}")
    assert ok, (z1, z2)


_BENCH_SCRIPT = """
import json, resource, time
import numpy as np
from mmdvar import KernelSpec, build_gram_pack, mmd2_u, mmd2_var
baseline_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

def once(x, y):
    t0 = time.perf_counter()
    g = build_gram_pack(x, y, spec=KernelSpec.rbf("median"))
    mmd2_u(g)
    mmd2_var(g)
    return time.perf_counter() - t0

rng = np.random.default_rng({seed})
data = {{m: (rng.normal(size=(m, 10)), rng.normal(loc=0.1, size=(m, 10)))
         for m in (500, 2000)}}
best = {{m: once(*xy) for m, xy in data.items()}}  # warm-up round
for _ in range(5):  # interleave the sizes so drift hits both alike
    for m, xy in data.items():
        best[m] = min(best[m], once(*xy))
best["rss_growth_bytes"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - baseline_kib) * 1024
print(json.dumps(best))
"""


def test_criterion_7_performance():
    """m = 2000, d = 10, RBF: statistic plus variance estimate in under 10
    seconds, O(m^2) memory, empirical scaling exponent at most 2.3.

    Timed and measured in a fresh interpreter so the heap state does not
    depend on the tests that ran before.  Memory is the growth of peak RSS
    over the post-import baseline, so temporaries count too.  glibc is
    told to recycle large blocks instead of returning them to the kernel
    (standard tunables): per-call mmap and page-fault churn on blocks of
    several MB would otherwise dominate the m = 2000 timings and measure
    the allocator, not the estimators.
    """
    import os
    import subprocess
    import sys

    env = dict(os.environ,
               MALLOC_MMAP_THRESHOLD_="1073741824",
               MALLOC_TRIM_THRESHOLD_="1073741824")
    proc = subprocess.run(
        [sys.executable, "-c", _BENCH_SCRIPT.format(seed=SEED + 4)],
        capture_output=True, text=True, check=True, env=env)
    best = json.loads(proc.stdout)
    t500, t2000 = best["500"], best["2000"]
    exponent = np.log(t2000 / t500) / np.log(4.0)

    m = 2000
    total = best["rss_growth_bytes"]
    mem_ok = total <= 3 * m * m * 8 + 16 * m * 8  # three m x m grams + O(m) caches

    ok = t2000 < 10.0 and exponent <= 2.3 and mem_ok
    _verdict(7, "O(m^2) performance at m = 2000", ok,
             f"t = {t2000:.2f}s, scaling exponent = {exponent:.2f}, "
             f"memory = {total / 1e6:.0f} MB")
    assert t2000 < 10.0
    assert exponent <= 2.3, (t500, t2000)
    assert mem_ok


def test_criterion_8_cli_contract(tmp_path, capsys):
    """Exit-code taxonomy and JSON round-trip hold end to end."""
    x3 = tmp_path / "x3.csv"
    x3.write_text("1\n2\n3\n")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    x4 = tmp_path / "x4.csv"
    x4.write_text("1\n2\n3\n4\n")
    y4 = tmp_path / "y4.csv"
    y4.write_text("5\n6\n7\n8\n")
    z4 = tmp_path / "z4.csv"
    z4.write_text("2\n3\n4\n5\n")

    checks = []

    code = main(["mmd", str(x3), str(x3)])
    err = capsys.readouterr().err
    checks.append(("m=3 exits 3", code == EXIT_PRECONDITION and "m ≥ 4" in err))

    code = main(["mmd", str(x4), str(ragged)])
    err = capsys.readouterr().err
    checks.append(("ragged exits 2", code == EXIT_INPUT and "ragged row 2" in err))

    code = main(["verify", "--replicates", "10"])
    err = capsys.readouterr().err
    checks.append(("tiny replicates exits 2",
                   code == EXIT_INPUT and "below minimum" in err))

    round_trips = []
    for argv in (["mmd", str(x4), str(y4)],
                 ["relmmd", str(x4), str(y4), str(z4)],
                 ["verify", "--replicates", "1500", "--m", "5"]):
        code = main(argv)
        out = capsys.readouterr().out
        payload = json.loads(out)
        round_trips.append(code == 0 and json.dumps(payload) + "\n" == out)
    checks.append(("JSON round-trips", all(round_trips)))

    ok = all(passed for _, passed in checks)
    _verdict(8, "CLI exit codes and JSON round-trip", ok,
             "; ".join(name for name, passed in checks if not passed) or "all checks")
    assert ok, checks
