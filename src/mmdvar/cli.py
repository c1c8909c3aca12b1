"""Command-line front end.

Subcommands:

* ``mmd X.csv Y.csv``          two-sample statistic and its variance estimate
* ``relmmd X.csv Y.csv Z.csv`` difference of the two statistics sharing X
* ``verify``                   Monte Carlo unbiasedness / variance tracking run

Exit codes: 0 success, 2 input or configuration error, 3 estimator
precondition violated (m < 4, mismatched sample sizes), 4 statistical
verification failure.  Reports go to stdout as JSON (default) or as
key<TAB>value lines (``--format tsv``); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from .estimators import full_report
from .kernels import MEDIAN, KernelSpec, build_gram_pack

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_STAT_FAIL = 4


class InputError(Exception):
    """Bad file or flag input (exit code 2)."""


def load_csv(path: str) -> np.ndarray:
    """Read a rectangular numeric CSV into an m x d matrix, row order preserved.

    The text is UTF-8, with or without a byte-order mark.  The first
    non-blank row is a header, and skipped, if its first cell does not parse
    as a number.  Ragged rows, and non-numeric or non-finite cells in any
    other row, are errors.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    rows: dict[int, list[float]] = {}  # file line number -> cells
    width: int | None = None
    for lineno, line in lines:
        cells = [c.strip() for c in line.split(",")]
        if lineno == lines[0][0]:
            try:
                float(cells[0])
            except ValueError:
                continue  # header row
        vals: list[float] = []
        for idx, cell in enumerate(cells):
            try:
                if "_" in cell or not cell.isascii():  # float() reads "1_0" and "\uff11"
                    raise ValueError(cell)
                vals.append(float(cell))
            except ValueError:
                raise InputError(
                    f"{path}: non-numeric cell {idx + 1} in row {lineno}") from None
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise InputError(f"{path}: ragged row {lineno}")
        rows[lineno] = vals
    if not rows:
        raise InputError(f"{path}: empty file (no data rows)")
    data = np.array(list(rows.values()), dtype=np.float64)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        raise InputError(f"{path}: non-finite cell {bad[0, 1] + 1} in row {list(rows)[bad[0, 0]]}")
    return data


def _kernel_from_args(args: argparse.Namespace) -> KernelSpec:
    kind = args.kernel
    try:
        if kind == "linear":
            return KernelSpec.linear()
        if kind == "rbf":
            bw: float | str = args.bandwidth
            if bw != MEDIAN:
                bw = float(bw)
            return KernelSpec.rbf(bandwidth=bw)
        if kind == "poly":
            return KernelSpec.polynomial(degree=args.degree, coef0=args.coef0)
        return KernelSpec.constant(value=args.const_value)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _flatten(payload: Any, prefix: str = "") -> list[tuple[str, Any]]:
    if isinstance(payload, dict):
        out: list[tuple[str, Any]] = []
        for k, v in payload.items():
            out.extend(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
        return out
    return [(prefix, payload)]


def _emit(payload: dict, fmt: str) -> None:
    text = json.dumps(payload, allow_nan=False)  # raises on NaN or inf, in either format
    if fmt == "json":
        sys.stdout.write(text + "\n")
        return
    for key, value in _flatten(payload):
        if isinstance(value, float):
            text = repr(value)
        elif isinstance(value, (list, tuple)):
            text = json.dumps(value)
        else:
            text = str(value)
        sys.stdout.write(f"{key}\t{text}\n")


def _fail(code: int, message: str) -> int:
    sys.stderr.write(message.rstrip() + "\n")
    return code


def _estimate(args: argparse.Namespace, paths: list[str], fields: dict[str, str]) -> int:
    """Load the samples, build their pack and emit the report fields given
    as {output key: ``EstimateReport`` attribute}."""
    try:
        samples = [load_csv(path) for path in paths]
        spec = _kernel_from_args(args)
        if not 0.0 < args.floor_eps < math.inf:
            raise InputError("--floor-eps must be positive and finite")
    except InputError as exc:
        return _fail(EXIT_INPUT, str(exc))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite results raise below
            g = build_gram_pack(*samples, spec=spec)
            rep = full_report(g, floor_epsilon=args.floor_eps)
        kernel = {k: v for k, v in asdict(g.spec).items() if v is not None}
        _emit({"m": g.m, "d": g.d, "kernel": kernel,
               **{key: getattr(rep, attr) for key, attr in fields.items()}}, args.format)
    except ValueError as exc:
        return _fail(EXIT_PRECONDITION, str(exc))
    return EXIT_OK


def cmd_mmd(args: argparse.Namespace) -> int:
    return _estimate(args, [args.x, args.y], {"mmd2": "mmd2_xy", "vhat": "vhat",
                                             "vhat_floored": "vhat_floored", "z_stat": "z_stat"})


def cmd_relmmd(args: argparse.Namespace) -> int:
    # positive diff: Y is farther from X than Z is
    keys = ("mmd2_xy", "mmd2_xz", "diff", "nuhat", "nuhat_floored", "z_stat")
    return _estimate(args, [args.x, args.y, args.z], {key: key for key in keys})


def _report_payload(report) -> dict[str, Any]:
    """The entries of a :class:`~mmdvar.montecarlo.McReport` as JSON fields."""
    return {t: {"mean": e.mean, "se": e.se, "truth": e.truth, "z": e.z,
                "pass": e.passed}
            for t, e in report.entries.items()}


def cmd_verify(args: argparse.Namespace) -> int:
    # the verification layer loads here, not with the estimators
    from .montecarlo import McConfig, run_unbiasedness, run_variance_tracking, target_ids
    from .oracle import GaussianLinearModel

    try:
        model = GaussianLinearModel(mean_x=args.mean_x, var_x=args.var_x,
                                    mean_y=args.mean_y, var_y=args.var_y,
                                    mean_z=args.mean_z, var_z=args.var_z)
        aliases = {"vhat": "mmd2_var", "nuhat": "mmd2_diff_var"}
        if args.targets == "default":
            targets = ["mmd2", "mmd2_var"]
            if model.has_z:
                targets += ["diff", "mmd2_diff_var"]
        elif args.targets == "all":
            targets = list(target_ids(model.has_z))
        else:
            targets = [aliases.get(t.strip(), t.strip())
                       for t in args.targets.split(",") if t.strip()]
        config = McConfig(model=model, m=args.m, replicates=args.replicates,
                          seed=args.seed, targets=tuple(targets),
                          z_threshold=args.z_threshold)
        config.tracked()  # both passes' targets are checked before either runs
    except ValueError as exc:
        return _fail(EXIT_INPUT, str(exc))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite results raise
            unbiased = run_unbiasedness(config)
            tracking = run_variance_tracking(config)
    except ValueError as exc:
        return _fail(EXIT_INPUT, str(exc))
    all_pass = unbiased.all_passed and tracking.all_passed
    _emit({"config": config.echo(),
           "unbiasedness": _report_payload(unbiased),
           "variance_tracking": _report_payload(tracking),
           "all_pass": all_pass}, args.format)
    return EXIT_OK if all_pass else EXIT_STAT_FAIL


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", choices=("linear", "rbf", "poly", "const"),
                   default="linear", help="kernel family (default linear)")
    p.add_argument("--bandwidth", default=MEDIAN,
                   help="RBF bandwidth: a number or 'median' (default)")
    p.add_argument("--degree", type=int, default=2, help="polynomial degree")
    p.add_argument("--coef0", type=float, default=0.0, help="polynomial offset")
    p.add_argument("--const-value", type=float, default=1.0, help="constant kernel value")
    p.add_argument("--floor-eps", type=float, default=1e-12,
                   help="variance floor for studentisation (default 1e-12)")
    p.add_argument("--format", choices=("json", "tsv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmdvar",
        description="Unbiased squared-MMD estimation with unbiased variance estimates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mmd = sub.add_parser("mmd", help="two-sample squared MMD with variance estimate")
    p_mmd.add_argument("x", help="CSV of the X sample, one observation per row")
    p_mmd.add_argument("y", help="CSV of the Y sample")
    _add_common(p_mmd)
    p_mmd.set_defaults(func=cmd_mmd)

    p_rel = sub.add_parser(
        "relmmd", help="difference MMD^2(X,Y) - MMD^2(X,Z) with variance estimate")
    p_rel.add_argument("x", help="CSV of the shared X sample")
    p_rel.add_argument("y", help="CSV of the Y sample")
    p_rel.add_argument("z", help="CSV of the Z sample")
    _add_common(p_rel)
    p_rel.set_defaults(func=cmd_relmmd)

    p_ver = sub.add_parser(
        "verify", help="Monte Carlo verification against closed-form truths")
    p_ver.add_argument("--mean-x", type=float, default=0.0)
    p_ver.add_argument("--var-x", type=float, default=1.0)
    p_ver.add_argument("--mean-y", type=float, default=0.5)
    p_ver.add_argument("--var-y", type=float, default=2.0)
    p_ver.add_argument("--mean-z", type=float, default=None)
    p_ver.add_argument("--var-z", type=float, default=None)
    p_ver.add_argument("--m", type=int, default=8, help="sample size per replicate")
    p_ver.add_argument("--replicates", type=int, default=100_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--targets", default="default",
                       help="comma-separated target ids, or 'default'/'all'")
    p_ver.add_argument("--z-threshold", type=float, default=4.0,
                       help="|z| acceptance threshold (default 4)")
    p_ver.add_argument("--format", choices=("json", "tsv"), default="json")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
