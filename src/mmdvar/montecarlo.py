"""Statistical verification harness.

Draws replicate datasets from the scalar-Gaussian linear-kernel model,
recomputes the targeted estimators on every replicate, and checks the
replicate mean against the closed-form population truth (unbiasedness) or
the replicate variance against the closed-form sampling variance
(variance tracking).  Verdicts use a z-score threshold, |z| <= 4 by
default: loose enough to almost never false-alarm at 1e5 replicates,
tight enough to catch any real bias.

Reproducibility: replicate r draws from a counter-based Philox stream
keyed (seed, r), so splitting replicates across workers cannot change any
sample; Gaussians come from the inverse-CDF sampler in
:mod:`mmdvar.oracle`.  Reductions run over arrays indexed by replicate,
making reports bit-identical for identical configs.

Replicates are evaluated in chunks, stacked: each replicate of a chunk
draws its samples in one call on its own stream, the chunk's draws are
mapped to Gaussians population by population, one Gram pack holds the
whole chunk, and each target's estimator runs once on it.  Every value is
bit for bit what the replicate's own pack gives.  A chunk holds
max(1, _CHUNK_ENTRIES // m^2) replicates, so its kernel blocks stay near
2 MiB.  At m = 8 with three samples and all 35 targets a replicate costs
about 47 us on a 2-vCPU VM: 25 us construct its Philox generator, the
draw and the stacked Gaussian map most of the rest, and the Gram pack and
every estimator together about 6 us.  ``mmdvar verify`` with a z model
and both passes takes about 9.5 s at 10^5 replicates and 90 s at 10^6
(peak RSS 110 MB; each pass keeps 8 bytes per replicate and target).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, build_gram_pack
from .oracle import (
    TARGETS, GaussianLinearModel, Target, gaussian_draw, gaussian_from_ints,
    gaussian_linear_moments,
)

_LINEAR = KernelSpec.linear()

MIN_REPLICATES = 1_000

#: Most kernel-matrix entries one chunk of stacked replicates holds per
#: matrix block (2 MiB of float64); a chunk has max(1, this // m^2) replicates.
_CHUNK_ENTRIES = 1 << 18


def target_ids(with_z: bool) -> tuple[str, ...]:
    """All valid target names: headline statistics plus sub-term ids."""
    return tuple(t for t, row in TARGETS.items() if with_z or not row.needs_z)


def _target_info(target: str) -> Target:
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    return TARGETS[target]


@dataclass(frozen=True)
class McConfig:
    """One verification run: model, sample size, replicate budget, targets."""

    model: GaussianLinearModel
    m: int
    replicates: int
    seed: int
    targets: tuple[str, ...]
    z_threshold: float = 4.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(dict.fromkeys(self.targets)))

    def validate(self) -> None:
        if self.replicates < MIN_REPLICATES:
            raise ValueError(
                f"replicates below minimum ({MIN_REPLICATES}) for a pass/fail verdict")
        if not self.targets:
            raise ValueError("no targets given")
        if self.m < 2:
            raise ValueError("need m >= 2")
        if not self.z_threshold > 0:
            raise ValueError("z_threshold must be positive")
        for t in self.targets:
            _, min_m, needs_z, *_ = _target_info(t)
            if self.m < min_m:
                raise ValueError(f"target {t!r} requires m >= {min_m}, got m = {self.m}")
            if needs_z and not self.model.has_z:
                raise ValueError(f"target {t!r} requires a model with a z population")

    def needs_z(self) -> bool:
        return any(_target_info(t)[2] for t in self.targets)

    def echo(self) -> dict:
        model = {"mean_x": self.model.mean_x, "var_x": self.model.var_x,
                 "mean_y": self.model.mean_y, "var_y": self.model.var_y}
        if self.model.has_z:
            model["mean_z"] = self.model.mean_z
            model["var_z"] = self.model.var_z
        return {"model": model, "m": self.m, "replicates": self.replicates,
                "seed": self.seed, "targets": list(self.targets),
                "z_threshold": self.z_threshold, "gaussian_sampler": "inverse_cdf",
                "rng": "philox(seed, replicate)"}


@dataclass(frozen=True)
class McEntry:
    """Verdict for one target: replicate average vs population truth."""

    mean: float
    se: float
    truth: float
    z: float
    passed: bool


@dataclass(frozen=True)
class McReport:
    kind: str  # "unbiasedness" or "variance_tracking"
    entries: dict[str, McEntry]
    config: dict

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries.values())


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Counter-based stream for one replicate: Philox keyed (seed, replicate)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, replicate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_replicate(
    model: GaussianLinearModel, m: int, rng: np.random.Generator, with_z: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One replicate dataset: column samples drawn in the fixed order x, y, z."""
    x = gaussian_draw(rng, model.mean_x, model.var_x, (m, 1))
    y = gaussian_draw(rng, model.mean_y, model.var_y, (m, 1))
    z = gaussian_draw(rng, model.mean_z, model.var_z, (m, 1)) if with_z else None
    return x, y, z


def _entry(target: str, mean: float, se: float, truth: float, threshold: float,
           what: str = "mean") -> McEntry:
    if se > 0.0:
        z = (mean - truth) / se
    else:
        z = 0.0 if mean == truth else math.inf
    for name, value in ((f"replicate {what}", mean), ("standard error", se), ("z-score", z)):
        if not math.isfinite(value):
            raise ValueError(f"target {target!r}: {name} is not finite "
                             f"({what} {mean!r}, standard error {se!r}, truth {truth!r})")
    return McEntry(mean=mean, se=se, truth=truth, z=z, passed=abs(z) <= threshold)


def _replicate_values(config: McConfig, targets: tuple[str, ...],
                      with_z: bool) -> dict[str, np.ndarray]:
    """Every target's value on every replicate, over chunks of stacked replicates.

    One ``integers`` call per replicate draws what :func:`draw_replicate`
    draws in one call per sample, in the same order.
    """
    fns = [(t, _target_info(t)[0]) for t in targets]
    pops, m, n = ("xyz" if with_z else "xy"), config.m, config.replicates
    step = max(1, _CHUNK_ENTRIES // (m * m))
    values = {t: np.empty(n) for t in targets}
    for r0 in range(0, n, step):
        reps = range(r0, min(r0 + step, n))
        ints = np.stack([replicate_rng(config.seed, r).integers(1, 1 << 53, size=len(pops) * m)
                         for r in reps]).reshape(len(reps), len(pops), m, 1)
        g = build_gram_pack(*(gaussian_from_ints(ints[:, i], *config.model.params(p))
                              for i, p in enumerate(pops)), spec=_LINEAR)
        for t, fn in fns:
            values[t][r0:reps.stop] = fn(g)
    return values


def run_unbiasedness(config: McConfig) -> McReport:
    """Replicate means of every targeted estimator vs their population truths."""
    config.validate()
    with_z = config.needs_z()
    values = _replicate_values(config, config.targets, with_z)
    mom = gaussian_linear_moments(config.model)
    n = config.replicates
    entries = {}
    for t in config.targets:
        v = values[t]
        mean = float(v.mean())
        se = float(v.std(ddof=1) / math.sqrt(n))
        entries[t] = _entry(t, mean, se, TARGETS[t].truth(mom, config.m), config.z_threshold)
    return McReport(kind="unbiasedness", entries=entries, config=config.echo())


def _jackknife_var_se(v: np.ndarray) -> float:
    # delete-one standard error of the ddof=1 sample variance
    n = v.size
    s1 = v.sum()
    s2 = float(v @ v)
    loo = (s2 - v ** 2 - (s1 - v) ** 2 / (n - 1)) / (n - 2)
    return float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


def run_variance_tracking(config: McConfig) -> McReport:
    """Replicate variance of the squared-MMD statistic (and of the paired
    difference when the model has a z population) vs the closed-form
    sampling variance, with a jackknife standard error."""
    config.validate()
    if config.m < 4:
        raise ValueError("variance tracking requires m >= 4")
    with_z = config.model.has_z
    # each tracked statistic, and the target whose truth is its variance
    tracked = {"mmd2": "mmd2_var", "diff": "mmd2_diff_var"} if with_z else {"mmd2": "mmd2_var"}
    values = _replicate_values(config, tuple(tracked), with_z)
    mom = gaussian_linear_moments(config.model)
    entries = {}
    for t, var_target in tracked.items():
        v = values[t]
        entries[t] = _entry(t, float(np.var(v, ddof=1)), _jackknife_var_se(v),
                            TARGETS[var_target].truth(mom, config.m), config.z_threshold,
                            "variance")
    return McReport(kind="variance_tracking", entries=entries, config=config.echo())
