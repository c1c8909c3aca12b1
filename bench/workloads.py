"""The three workloads: inputs from a seed, the timed op, output checks and
per-layer metrics.

Each workload is a closed loop with one caller: the next op starts only
after the previous one returned.  Inputs are made outside the timed region,
fresh for every op, from ``numpy.random.default_rng([seed, stream, index])``.
"""

from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import layers
import mc_reference
import reference
from mmdvar import cli, montecarlo
from mmdvar.estimators import full_report
from mmdvar.kernels import KernelSpec, build_gram_pack, median_heuristic
from mmdvar.montecarlo import McConfig, run_unbiasedness, run_variance_tracking, target_ids
from mmdvar.oracle import GaussianLinearModel

BENCH = Path(__file__).resolve().parent

#: Tolerance of the dense recomputation, as a share of the sum of the
#: absolute values of an estimator's terms.  Rounding differences measured
#: at m = 500 and 2000 are below 1e-15 of that scale; a wrong bandwidth,
#: a missed diagonal or a dropped block moves a value by far more.
REF_RTOL = 1e-12

#: Tolerance of the verification-path reference, as a share of the mean
#: absolute replicate value (of the variance, for variance tracking).  The
#: library and reference values of single replicates agree to 4e-15 of it.
MC_RTOL = 1e-9

OP_STREAM, SETUP_STREAM, PROBE_STREAM = 0, 1, 2


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _traced(rec, name: str, fn, *args, **kwargs):
    if rec is None:
        return fn(*args, **kwargs)
    with rec.span(name):
        return fn(*args, **kwargs)


def _alloc_probe(fn, *args, **kwargs) -> tuple[float, float]:
    """Peak and retained traced allocation (MB) of one call while its
    result is alive.  NumPy reports its data buffers to tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
        del result
    finally:
        tracemalloc.stop()
    return (peak - base) / 2 ** 20, (current - base) / 2 ** 20


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _layer(red: dict, name: str, field: str = "s") -> float:
    return red.get(name, {}).get(field, 0.0)


class Workload:
    name: str
    #: What one unit of ``datasets_per_s`` is on this workload.
    unit_label = "datasets"
    #: Spans installed for a traced op: (module, attribute, span name), and
    #: replacements made by factories (see ``spans.patched``).
    targets: list = []
    factories: list = []
    #: Whose resource usage the op shows up in: this process or its children.
    rusage_who = resource.RUSAGE_SELF

    def make_input(self, seed: int, stream: int, index: int):
        raise NotImplementedError

    def run(self, inp, rec=None):
        raise NotImplementedError

    def units(self, inp) -> int:
        return 1

    def check(self, inp, out) -> list[str]:
        """Failed checks of one op's output (empty when correct)."""
        raise NotImplementedError

    def summary(self, outputs: list) -> dict:
        """Extra facts about a run's outputs, for the report."""
        return {}

    def setup_sample(self, seed: int, index: int) -> float:
        """Seconds for a fresh interpreter to import mmdvar and run one op."""
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), self.name, str(seed), str(index)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=170, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def computed_counts(self) -> dict[str, float]:
        """Per build_gram_pack call, from the sizes and the current algorithm.

        ``kernels.matrix_bytes.computed`` is also the op's working set."""
        raise NotImplementedError

    def op_layers(self, red: dict, op_s: float, units: int) -> dict[str, float]:
        """Per-layer values of one traced op beyond ``layer_times``."""
        raise NotImplementedError

    def build_inputs(self, inp) -> tuple[tuple, KernelSpec]:
        """The samples and kernel one ``build_gram_pack`` call of the op gets."""
        raise NotImplementedError

    def probes(self, inp) -> dict[str, float]:
        """Single measurements outside the op: allocation and median selection."""
        samples, spec = self.build_inputs(inp)
        peak, kept = _alloc_probe(build_gram_pack, *samples, spec=spec)
        return {"kernels.build_gram_pack.peak_alloc_mb": peak,
                "kernels.build_gram_pack.retained_mb": kept,
                "kernels.median_heuristic.s": _timed(median_heuristic, np.vstack(samples))}

    def close(self) -> None:
        pass


class RelMmdRbf(Workload):
    """Relative similarity at large m: three samples, RBF median bandwidth."""

    name = "relmmd-rbf-m4000"
    m, d = 4000, 10
    targets = layers.KERNEL_INTERNALS

    def make_input(self, seed, stream, index):
        rng = rng_for(seed, stream, index)
        x = rng.normal(size=(self.m, self.d))
        y = rng.normal(loc=0.05, size=(self.m, self.d))
        z = rng.normal(scale=1.1, size=(self.m, self.d))
        return x, y, z

    def run(self, inp, rec=None):
        x, y, z = inp
        g = _traced(rec, "kernels.build_gram_pack", build_gram_pack, x, y, z,
                    KernelSpec.rbf("median"))
        report = _traced(rec, "estimators.full_report", full_report, g)
        # keep only the report: the 640 MB of matrices must not outlive the op
        return report

    def check(self, inp, out):
        x, y, z = inp
        failures = []
        sigma = median_heuristic(np.vstack(inp))
        if out.kernel.bandwidth != sigma:
            failures.append(f"bandwidth {out.kernel.bandwidth!r} != median_heuristic {sigma!r}")
        ref = reference.estimates(x, y, z, sigma)
        for key, (value, scale) in ref.items():
            got = getattr(out, key)
            if not abs(got - value) <= REF_RTOL * scale:
                failures.append(f"{key} {got!r} vs dense {value!r} (scale {scale:.3g})")
        return failures

    def computed_counts(self):
        m, pairs = self.m, self.m * (self.m - 1) // 2
        return {"kernels.pairwise_distances.computed": 3 * m * m + 3 * pairs,
                "kernels.kernel_entries.computed": 2 * m * m + 3 * pairs,
                "kernels.matrix_bytes.computed": 5 * m * m * 8}

    def op_layers(self, red, op_s, units):
        covered = _layer(red, "kernels.build_gram_pack") + _layer(red, "estimators.full_report")
        return {"trace.accounted_frac": covered / op_s}

    def build_inputs(self, inp):
        return inp, KernelSpec.rbf("median")


def _traced_target_info(rec, target_info):
    """``montecarlo._target_info`` returning each target's estimator callable
    wrapped in an ``estimators.target.<id>`` span: the harness evaluates
    every target through it, including the variance estimators it holds by
    reference rather than by module attribute."""
    def traced(target):
        fn, *rest = target_info(target)
        return (rec.wrap(fn, f"estimators.target.{target}"), *rest)
    return traced


class VerifyM8(Workload):
    """``mmdvar verify --targets all`` at m = 8: both Monte Carlo passes."""

    name = "verify-m8"
    unit_label = "replicates"
    m, replicates = 8, 1000
    model = GaussianLinearModel(0.0, 1.0, 0.5, 2.0, 0.25, 1.0)
    targets = layers.MONTECARLO
    factories = [("mmdvar.montecarlo", "_target_info", _traced_target_info)]
    #: Variance tracking: the target whose population value is each tracked
    #: statistic's sampling variance.
    tracked_truth = {"mmd2": "mmd2_var", "diff": "mmd2_diff_var"}

    def make_input(self, seed, stream, index):
        config_seed = int(np.random.SeedSequence([seed, stream, index]).generate_state(1, np.uint64)[0])
        return McConfig(model=self.model, m=self.m, replicates=self.replicates,
                        seed=config_seed, targets=target_ids(True))

    def run(self, inp, rec=None):
        unbiased = _traced(rec, "montecarlo.run_unbiasedness", run_unbiasedness, inp)
        tracking = _traced(rec, "montecarlo.run_variance_tracking", run_variance_tracking, inp)
        return unbiased, tracking

    def units(self, inp):
        return 2 * inp.replicates  # each pass draws every replicate

    def check(self, inp, out):
        """Every number of both reports against ``mc_reference``: the same
        replicate draws, each estimator from its definition, closed-form
        truths, and the z-score and verdict each entry derives from them."""
        unbiased, tracking = out
        samples = mc_reference.draws(inp.model, inp.m, inp.seed, inp.replicates)
        values = mc_reference.estimates(samples)
        truths = mc_reference.truths(inp.model, inp.m)
        n = inp.replicates
        failures = []
        for report, expect in ((unbiased, inp.targets), (tracking, tuple(self.tracked_truth))):
            if set(report.entries) != set(expect):
                failures.append(f"{report.kind}: targets {sorted(report.entries)}")
                continue
            for t, e in report.entries.items():
                v = values[t]
                scale = float(np.mean(np.abs(v)))
                if report is unbiased:
                    want = {"mean": (float(v.mean()), scale),
                            "se": (float(v.std(ddof=1)) / math.sqrt(n), scale),
                            "truth": (truths[t], max(abs(truths[t]), scale))}
                else:
                    var = float(np.var(v, ddof=1))
                    want = {"mean": (var, var),
                            "se": (mc_reference.jackknife_var_se(v), var),
                            "truth": (truths[self.tracked_truth[t]], var)}
                z = (e.mean - e.truth) / e.se
                want["z"] = (z, max(1.0, abs(z)))
                for field, (value, tol_scale) in want.items():
                    got = getattr(e, field)
                    if not abs(got - value) <= MC_RTOL * tol_scale:
                        failures.append(f"{report.kind} {t}.{field} {got!r} vs reference {value!r}")
                if e.passed != (abs(e.z) <= inp.z_threshold):
                    failures.append(f"{report.kind} {t}: passed={e.passed} with z = {e.z!r}")
        return failures

    def summary(self, outputs):
        """The harness's verdicts, reported but not gated on.

        At R = 1000 the z-scores of heavy-tailed statistics such as
        mu_sq_xx (here e4 of 8 standard Gaussians over C(8, 4))
        exceed 4 far more often than a normal tail says (see NOTES.md), so
        a verdict alarm is no sign of a wrong output.  The pooled z of a
        target is its mean over ops against sqrt(sum se_i^2) / n.
        """
        alarms = sum(not (u.all_passed and t.all_passed) for u, t in outputs)
        pooled = {}
        for reports in zip(*outputs):
            n = len(reports)
            for t, first in reports[0].entries.items():
                entries = [r.entries[t] for r in reports]
                mean = math.fsum(e.mean for e in entries) / n
                se = math.sqrt(math.fsum(e.se ** 2 for e in entries)) / n
                pooled[f"{reports[0].kind} {t}"] = (mean - first.truth) / se
        worst = max(pooled, key=lambda k: abs(pooled[k]), default=None)
        return {"ops_with_a_per_op_verdict_alarm": alarms,
                "largest_pooled_z": f"{worst}: {pooled[worst]:.2f}" if worst else None}

    def computed_counts(self):
        return {"kernels.pairwise_distances.computed": 0,
                "kernels.kernel_entries.computed": 5 * self.m * self.m,
                "kernels.matrix_bytes.computed": 5 * self.m * self.m * 8}

    def op_layers(self, red, op_s, units):
        per = 1.0 / units
        estimators = sum(v["s"] for k, v in red.items() if k.startswith("estimators."))
        mc_self = (_layer(red, "montecarlo.run_unbiasedness", "self_s")
                   + _layer(red, "montecarlo.run_variance_tracking", "self_s"))
        parts = {
            "montecarlo.replicate_rng.s_per_replicate": _layer(red, "montecarlo.replicate_rng") * per,
            "montecarlo.draw_replicate.s_per_replicate": _layer(red, "montecarlo.draw_replicate") * per,
            "kernels.build_gram_pack.s_per_replicate": _layer(red, "kernels.build_gram_pack") * per,
            "estimators.s_per_replicate": estimators * per,
            "montecarlo.self.s_per_replicate": mc_self * per,
        }
        return {**parts,
                "oracle.gaussian_draw.s_per_replicate": _layer(red, "oracle.gaussian_draw") * per,
                "trace.accounted_frac": sum(parts.values()) / per / op_s}

    def build_inputs(self, inp):
        rng = montecarlo.replicate_rng(inp.seed, 0)
        return montecarlo.draw_replicate(self.model, self.m, rng, True), KernelSpec.linear()


class MmdCliLinear(Workload):
    """``python -m mmdvar mmd X.csv Y.csv`` in a fresh interpreter."""

    name = "mmd-cli-linear-m2000"
    m, d = 2000, 10
    targets = layers.CLI
    rusage_who = resource.RUSAGE_CHILDREN

    def __init__(self, work_dir: Path):
        self.dir = work_dir
        self.dir.mkdir(parents=True, exist_ok=True)

    def make_input(self, seed, stream, index):
        rng = rng_for(seed, stream, index)
        paths = []
        for name, loc in (("x", 0.0), ("y", 0.05)):
            path = self.dir / f"{name}-{stream}-{index}.csv"
            np.savetxt(path, rng.normal(loc=loc, size=(self.m, self.d)),
                       fmt="%.17g", delimiter=",")
            paths.append(str(path))
        return tuple(paths)

    def run(self, inp, rec=None):
        if rec is None:
            cmd = [sys.executable, "-m", "mmdvar", "mmd", *inp]
        else:
            spans_path = self.dir / "child-spans.json"
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path), "mmd", *inp]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if rec is not None:
            rec.adopt([tuple(s) for s in json.loads(spans_path.read_text())])
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, inp, out):
        code, stdout, stderr = out
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        line = stdout.rstrip("\n")
        failures = []
        payload = json.loads(line)
        if json.dumps(payload) != line:
            failures.append("JSON output does not round-trip")
        g = build_gram_pack(cli.load_csv(inp[0]), cli.load_csv(inp[1]), spec=KernelSpec.linear())
        rep = full_report(g)
        expect = {"m": g.m, "d": g.d, "kernel": {"kind": "linear"}, "mmd2": rep.mmd2_xy,
                  "vhat": rep.vhat, "vhat_floored": rep.vhat_floored, "z_stat": rep.z_stat}
        if payload != expect:
            failures.append(f"CLI output {payload} != library result {expect}")
        return failures

    def setup_sample(self, seed, index):
        inp = self.make_input(seed, SETUP_STREAM, index)
        t0 = time.perf_counter()
        code, _, stderr = self.run(inp)
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up invocation failed: {stderr.strip()[-200:]}")
        return elapsed

    def computed_counts(self):
        return {"kernels.pairwise_distances.computed": 0,
                "kernels.kernel_entries.computed": 3 * self.m * self.m,
                "kernels.matrix_bytes.computed": 3 * self.m * self.m * 8}

    def op_layers(self, red, op_s, units):
        main = _layer(red, "cli.main")
        imp = _layer(red, "cli.import")
        return {"cli.import.s": imp,
                "cli.load_csv.s": _layer(red, "cli.load_csv"),
                "cli.load_csv.cells": self.m * self.d * _layer(red, "cli.load_csv", "calls"),
                "cli.main.self.s": _layer(red, "cli.main", "self_s"),
                "cli.interpreter.s": op_s - imp - main,
                "trace.accounted_frac": (imp + main) / op_s}

    def build_inputs(self, inp):
        return (cli.load_csv(inp[0]), cli.load_csv(inp[1])), KernelSpec.linear()

    def close(self):
        for path in self.dir.glob("*"):
            path.unlink()
        self.dir.rmdir()


def layer_times(red: dict) -> dict[str, float]:
    """Per op: build_gram_pack calls and seconds, seconds in its helpers and
    in full_report (zero where not called)."""
    groups = {"kernels.build_gram_pack.s": ("kernels.build_gram_pack",),
              "estimators.full_report.s": ("estimators.full_report",),
              "kernels.distances.s": ("kernels.cdist", "kernels.pdist"),
              "kernels.median_select.s": ("kernels.median_select",),
              "kernels.squareform.s": ("kernels.squareform",),
              "kernels.kernel_matrix.s": ("kernels.kernel_matrix",),
              "kernels.zero_diag_sym.s": ("kernels.zero_diag_sym",),
              "kernels.stats.s": ("kernels.stats",)}
    times = {metric: sum(_layer(red, n) for n in names) for metric, names in groups.items()}
    return {**times, "kernels.build_gram_pack.calls": _layer(red, "kernels.build_gram_pack", "calls")}


def make(name: str, work_dir: Path) -> Workload:
    if name == RelMmdRbf.name:
        return RelMmdRbf()
    if name == VerifyM8.name:
        return VerifyM8()
    if name == MmdCliLinear.name:
        return MmdCliLinear(work_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (RelMmdRbf.name, VerifyM8.name, MmdCliLinear.name)
