"""Watch the unbiasedness certificates run.

For scalar Gaussians under the linear kernel every population quantity has
a closed form, so replicate means can be compared against exact truths.
This is a scaled-down version of what `mmdvar verify` and the acceptance
suite run at 1e5 replicates.
"""

from mmdvar.montecarlo import McConfig, run_unbiasedness, run_variance_tracking
from mmdvar.oracle import GaussianLinearModel

model = GaussianLinearModel(mean_x=0.0, var_x=1.0,
                            mean_y=0.5, var_y=2.0,
                            mean_z=0.25, var_z=1.0)

config = McConfig(
    model=model, m=8, replicates=20_000, seed=123,
    targets=("mmd2", "diff", "mmd2_var", "mmd2_diff_var",
             "mu_sq_xy", "ephi2_yx", "prod_xy_xz", "ek2_xz"),
)

print(f"{config.replicates} replicates at m = {config.m}\n")
report = run_unbiasedness(config)
print(f"{'target':<15} {'replicate mean':>15} {'truth':>10} {'z':>7}  verdict")
for target, e in report.entries.items():
    verdict = "ok" if e.passed else "BIASED?"
    print(f"{target:<15} {e.mean:>15.5f} {e.truth:>10.5f} {e.z:>+7.2f}  {verdict}")

print("\nvariance tracking: does the variance estimate match the actual")
print("replicate-to-replicate variance of the statistic?\n")
tracking = run_variance_tracking(config)
for target, e in tracking.entries.items():
    print(f"Var[{target:<5}] empirical = {e.mean:.5f}   closed form = {e.truth:.5f}"
          f"   z = {e.z:+.2f}")
