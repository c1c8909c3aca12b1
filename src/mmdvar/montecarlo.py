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
draws its samples in one call on its own stream, and the chunk's draws are
mapped to Gaussians population by population.  A pass makes one Philox
and re-keys it (seed, r) for each replicate instead of building one.
Under k(x, y) = xy every kernel matrix is rank one, so the aggregates the
estimators read have closed forms, O(m) per replicate
(:func:`_rank_one_stats`); each target's estimator runs once on the
chunk's.  No value depends on the chunking, and each aggregate is within
rounding of the replicate's own Gram pack.  On a 2-vCPU VM, at m = 8 with
three samples and all 35 targets a replicate costs about 8.5 us: 0.5 us
re-key the Philox, 5 us draw its samples, and under 1 us each map them,
form the aggregates and run the estimators (a generator built per
replicate cost 11 us more).  ``mmdvar verify`` with a z model and both
passes takes about 2.2 s at m = 8, 8.5 s at m = 200 and 36 s at
m = 1000, at 10^5 replicates (peak RSS about 60 MB; a pass keeps 8 bytes
per replicate and target).
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .kernels import GramPack, GramStats, KernelSpec
from .oracle import (
    TARGETS, GaussianLinearModel, Target, check_target, gaussian_draw, gaussian_from_ints,
    gaussian_linear_moments,
)

_LINEAR = KernelSpec.linear()

MIN_REPLICATES = 1_000

#: Most values one chunk of stacked replicates holds per sample (128 KiB of
#: float64, so the chunk's arrays stay in cache); a chunk has
#: max(1, this // m) replicates.
_CHUNK_ENTRIES = 1 << 14


def target_ids(with_z: bool) -> tuple[str, ...]:
    """All valid target names: headline statistics plus sub-term ids."""
    return tuple(t for t, row in TARGETS.items() if with_z or not row.needs_z)


def _target_info(target: str) -> Target:
    """A validated target's row, read by position: the harness's one estimator lookup."""
    return TARGETS[target]


#: Each statistic variance tracking follows, and the target whose population
#: value is its sampling variance.
_TRACKED = {"mmd2": "mmd2_var", "diff": "mmd2_diff_var"}


@dataclass(frozen=True)
class McConfig:
    """One verification run: model, sample size, replicate budget, targets,
    checked once when made; :meth:`tracked` is variance tracking's own gate."""

    model: GaussianLinearModel
    m: int
    replicates: int
    seed: int
    targets: tuple[str, ...]
    z_threshold: float = 4.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(dict.fromkeys(self.targets)))
        for name in ("m", "replicates", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # Python ints: a NumPy seed's mod-2**64 mask would overflow, and echo() is JSON
            object.__setattr__(self, name, int(value))
        if self.replicates < MIN_REPLICATES:
            raise ValueError(
                f"replicates below minimum ({MIN_REPLICATES}) for a pass/fail verdict")
        if not self.targets:
            raise ValueError("no targets given")
        if not 0.0 < self.z_threshold < math.inf:
            raise ValueError("z_threshold must be positive and finite")
        for t in self.targets:
            check_target(t, self.m, self.model.has_z)

    def tracked(self) -> dict[str, str]:
        """Each statistic variance tracking follows under this model, with the
        target of its sampling variance; the gate refuses an m it does not admit."""
        tracked = {s: v for s, v in _TRACKED.items() if self.model.has_z or not TARGETS[s].needs_z}
        for v in tracked.values():
            check_target(v, self.m, self.model.has_z)
        return tracked

    def needs_z(self) -> bool:
        return any(TARGETS[t].needs_z for t in self.targets)

    def echo(self) -> dict:
        model = {k: v for k, v in asdict(self.model).items() if v is not None}
        return {"model": model, "m": self.m, "replicates": self.replicates,
                "seed": self.seed, "targets": list(self.targets),
                "z_threshold": self.z_threshold, "gaussian_sampler": "inverse_cdf",
                "rng": "philox(seed, replicate)"}


@dataclass(frozen=True, slots=True)
class McEntry:
    """Verdict for one target: replicate average vs population truth (slotted:
    a report keeps one small object per target)."""

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


def _u64(seed: int) -> int:
    """The seed as Philox's first key word: seed mod 2**64."""
    return operator.index(seed) & 0xFFFFFFFFFFFFFFFF


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Counter-based stream for one replicate: Philox keyed (seed, replicate).

    The reference for every replicate's draws; the harness reproduces it bit
    for bit by re-keying one Philox instead of building one per replicate.
    """
    key = np.array([_u64(seed), replicate], dtype=np.uint64)
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


def _sum_of_others(a: np.ndarray) -> np.ndarray:
    """sum_{j != i} a[r, j] at each (r, i), as the sum before i plus the sum
    after it: subtracting a[r, i] from the row's sum would cancel when it
    dominates the row."""
    out = np.zeros_like(a)
    np.cumsum(a[:, :-1], axis=1, out=out[:, 1:])
    out[:, :-1] += np.cumsum(a[:, :0:-1], axis=1)[:, ::-1]
    return out


def _rank_one_stats(samples: dict[str, np.ndarray]) -> dict[str, GramStats]:
    """The stacked aggregates of every kernel matrix under k(x, y) = xy, from
    (R, m) scalar samples in O(R m): K_ab = a b' is rank one.  K_xb has row
    sums x_i sum(b), grand sum sum(x) sum(b), squared Frobenius norm
    (x.x)(b.b) and trace x.b, and K_bx row sums b_i sum(x).  K_aa, its
    diagonal zeroed, has row sums a_i sum_{j != i} a_j, their sum as grand
    sum, squared norm sum_i a_i^2 sum_{j != i} a_j^2 and trace 0."""
    x, sums = samples["x"], {p: a.sum(axis=1) for p, a in samples.items()}
    sq = {p: a * a for p, a in samples.items()}
    stats = {}
    for p, a in samples.items():
        rows, frob_sq = a * _sum_of_others(a), np.vecdot(sq[p], _sum_of_others(sq[p]))
        stats[p + p] = GramStats(rows, rows.sum(axis=1), frob_sq, 0.0)
        if p != "x":
            shared = sums["x"] * sums[p], sq["x"].sum(axis=1) * sq[p].sum(axis=1), np.vecdot(x, a)
            stats["x" + p] = GramStats(x * sums[p][:, None], *shared)
            stats[p + "x"] = GramStats(a * sums["x"][:, None], *shared)
    return stats


def _replicate_values(config: McConfig, targets: tuple[str, ...],
                      with_z: bool) -> dict[str, np.ndarray]:
    """Every target's value on every replicate, over chunks of stacked replicates.

    One ``integers`` call per replicate draws what :func:`draw_replicate`
    draws in one call per sample, in the same order, from the stream of
    :func:`replicate_rng`.
    """
    fns = [(t, _target_info(t)[0]) for t in targets]
    pops, m, n = ("xyz" if with_z else "xy"), config.m, config.replicates
    step = max(1, _CHUNK_ENTRIES // m)
    values = {t: np.empty(n) for t in targets}
    # one Philox per call, re-keyed for each replicate to the state
    # Philox(key=(seed, r)) starts in: counter 0, an empty buffer
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [_u64(config.seed), 0]},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)

    def draw(r: int) -> np.ndarray:
        state["state"]["key"][1] = r
        bits.state = state
        return rng.integers(1, 1 << 53, size=len(pops) * m)

    for r0 in range(0, n, step):
        reps = range(r0, min(r0 + step, n))
        ints = np.stack([draw(r) for r in reps]).reshape(len(reps), len(pops), m)
        samples = {p: gaussian_from_ints(ints[:, i], *config.model.params(p))
                   for i, p in enumerate(pops)}
        g = GramPack(m=m, d=1, spec=_LINEAR, samples=samples, stats=_rank_one_stats(samples))
        for t, fn in fns:
            values[t][r0:reps.stop] = fn(g)
    return values


def run_unbiasedness(config: McConfig) -> McReport:
    """Replicate means of every targeted estimator vs their population truths."""
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
    tracked = config.tracked()
    with_z = config.model.has_z
    values = _replicate_values(config, tuple(tracked), with_z)
    mom = gaussian_linear_moments(config.model)
    entries = {}
    for t, var_target in tracked.items():
        v = values[t]
        entries[t] = _entry(t, float(np.var(v, ddof=1)), _jackknife_var_se(v),
                            TARGETS[var_target].truth(mom, config.m), config.z_threshold,
                            "variance")
    return McReport(kind="variance_tracking", entries=entries, config=config.echo())
