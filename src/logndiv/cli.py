"""Command-line interface.

Subcommands: asymptotic, simulate, sumcdf, verify, figure.
Exit codes: 0 success, 2 usage, 3 domain/validity error, 4 verification
failure. Output files are written atomically and are byte-identical for
identical invocations. LOGNDIV_SEED overrides the default simulation seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from typing import Optional

from .channel import ChannelSpec, derive_params
from .curves import Curve, curves_to_text
from .errors import DomainError, LogndivError
from .montecarlo import SimConfig, sweep
from .presets import (PRESET_NAMES, _y_grid, asymptotic_curve, er_grid_from, figure_curves,
                      grid_size, sumcdf_curve)
from .schemes import SchemeKind
from .verify_suites import SUITES, run_suites

DEFAULT_SEED = 1


def _default_seed() -> int:
    env = os.environ.get("LOGNDIV_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise DomainError(f"LOGNDIV_SEED must be an integer, got {env!r}") from None


def _parse_grid(text: str, what: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{what} grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} grid fields must be numeric: {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise argparse.ArgumentTypeError(f"{what} grid fields must be finite: {text!r}")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"{what} grid is empty or inverted: {text!r}")
    return {"start": start, "stop": stop, "step": step}


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".logndiv-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sanitize(obj):
    # NaN is not valid JSON; it only appears where a field is inapplicable.
    if isinstance(obj, float):
        return None if obj != obj else obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _emit(curves: list[Curve], meta: dict, out: Optional[str], fmt: str) -> None:
    if fmt == "csv":
        text = curves_to_text(curves, meta)
    else:
        payload = {"meta": meta, "curves": [
            {**{k: v for k, v in asdict(c).items() if k != "points"},
             "points": [asdict(p) for p in c.points]} for c in curves]}
        text = json.dumps(_sanitize(payload), indent=2, allow_nan=False) + "\n"
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _channel_spec(args) -> ChannelSpec:
    """Channel from --config JSON, with explicit flags taking precedence.
    Sweep commands anchor power per grid point, so the returned ChannelSpec
    carries a placeholder anchor; a config's own anchor is only validated."""
    base: dict = {}
    if args.config:
        try:
            with open(args.config) as f:
                text = f.read()
        except OSError as exc:
            raise DomainError(f"cannot read config {args.config!r}: {exc}") from exc
        spec = ChannelSpec.from_json(text)
        base = {"L": spec.L, "rho": spec.rho, "sigma_G": spec.sigma_G}
    if args.L is not None:
        base["L"] = args.L
    if args.rho is not None:
        base["rho"] = args.rho
    if args.sigma_g is not None:
        base["sigma_G"] = args.sigma_g
    for key in ("L", "rho", "sigma_G"):
        if key not in base:
            raise DomainError(f"missing channel parameter {key} (flag or --config)")
    return ChannelSpec(**base, Er=1.0)


def _cmd_asymptotic(args) -> int:
    spec = _channel_spec(args)
    scheme = SchemeKind.parse(args.scheme)
    grid = er_grid_from(args.er_db)
    curve = asymptotic_curve(spec, scheme, args.gamma_th, grid)
    meta = {"command": "asymptotic", "scheme": scheme.value, "L": str(spec.L),
            "rho": f"{spec.rho:g}", "sigma_G": f"{spec.sigma_G:g}",
            "gamma_th": f"{args.gamma_th:g}"}
    _emit([curve], meta, args.out, args.format)
    return 0


def _cmd_simulate(args) -> int:
    spec = _channel_spec(args)
    scheme = SchemeKind.parse(args.scheme)
    grid = er_grid_from(args.er_db)
    params = derive_params(spec)
    cfg = SimConfig(samples=args.samples, seed=args.seed,
                    batch_size=min(args.batch_size, args.samples))
    curve = sweep(params, scheme, args.gamma_th, grid, cfg)
    meta = {"command": "simulate", "scheme": scheme.value, "L": str(spec.L),
            "rho": f"{spec.rho:g}", "sigma_G": f"{spec.sigma_G:g}",
            "gamma_th": f"{args.gamma_th:g}", "samples": str(args.samples),
            "seed": str(args.seed), "batch_size": str(cfg.batch_size)}
    _emit([curve], meta, args.out, args.format)
    return 0


def _cmd_sumcdf(args) -> int:
    # A sumcdf grid always keeps both of its ends, one point when they coincide.
    points = grid_size(args.y)
    if args.y["stop"] > args.y["start"]:
        points = max(2, points)
    y_grid = _y_grid({**args.y, "points": points, "spacing": args.y_spacing})
    curve = sumcdf_curve(args.L, args.rho, args.mu_g, args.sigma_g, y_grid, args.method)
    meta = {"command": "sumcdf", "method": args.method, "L": str(args.L),
            "rho": f"{args.rho:g}", "sigma_G": f"{args.sigma_g:g}", "mu_G": f"{args.mu_g:g}"}
    _emit([curve], meta, args.out, args.format)
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.suite}/{c.name}: {c.detail}")
    all_passed = all(c.passed for c in checks)
    report = {"suites": names, "all_passed": all_passed,
              "checks": [asdict(c) for c in checks]}
    if args.out:
        _write_atomic(args.out, json.dumps(report, indent=2) + "\n")
    print(f"{'OK' if all_passed else 'FAILED'}: {sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return 0 if all_passed else 4


def _cmd_figure(args) -> int:
    meta, curves = figure_curves(args.preset, samples=args.samples, seed=args.seed,
                                 batch_size=args.batch_size)
    _emit(curves, meta, args.out, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="logndiv",
        description="Outage probabilities of SC/EGC/MRC diversity receivers over "
                    "equally correlated lognormal fading channels.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_channel_flags(sp, with_gamma=True):
        sp.add_argument("--L", type=int, default=None, help="branch count")
        sp.add_argument("--rho", type=float, default=None, help="exponent correlation in [0,1)")
        sp.add_argument("--sigma-g", type=float, default=None, help="exponent std dev (nats)")
        sp.add_argument("--config", default=None, help="JSON channel config (keys: L, rho, sigma_G, mu_G|Er_watts|Er_dB)")
        if with_gamma:
            sp.add_argument("--gamma-th", type=float, required=True, help="outage threshold (watts)")

    def add_output_flags(sp):
        sp.add_argument("--out", default=None, help="output path (stdout if omitted)")
        sp.add_argument("--format", choices=("csv", "obj"), default="csv")

    sp = sub.add_parser("asymptotic", help="closed-form outage curve over an Er grid")
    add_channel_flags(sp)
    sp.add_argument("--scheme", required=True, choices=[s.value for s in SchemeKind])
    sp.add_argument("--er-db", type=lambda t: _parse_grid(t, "--er-db"), required=True,
                    metavar="START:STOP:STEP")
    add_output_flags(sp)
    sp.set_defaults(func=_cmd_asymptotic)

    sp = sub.add_parser("simulate", help="Monte Carlo outage curve over an Er grid")
    add_channel_flags(sp)
    sp.add_argument("--scheme", required=True, choices=[s.value for s in SchemeKind])
    sp.add_argument("--er-db", type=lambda t: _parse_grid(t, "--er-db"), required=True,
                    metavar="START:STOP:STEP")
    sp.add_argument("--samples", type=int, default=10_000_000)
    sp.add_argument("--seed", type=int, default=_default_seed())
    sp.add_argument("--batch-size", type=int, default=1_000_000)
    add_output_flags(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("sumcdf", help="CDF of a sum of correlated lognormal variables")
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--mu-g", type=float, required=True, help="exponent mean (nats)")
    sp.add_argument("--sigma-g", type=float, required=True)
    sp.add_argument("--y", type=lambda t: _parse_grid(t, "--y"), required=True,
                    metavar="START:STOP:STEP")
    sp.add_argument("--y-spacing", choices=("linear", "log"), default="linear")
    sp.add_argument("--method", choices=("fw", "asym", "quadrature"), required=True)
    add_output_flags(sp)
    sp.set_defaults(func=_cmd_sumcdf)

    sp = sub.add_parser("verify", help="run the numeric verification suites")
    sp.add_argument("--suite", choices=SUITES + ("all",), default="all")
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("figure", help="emit a shipped figure preset")
    sp.add_argument("preset", choices=PRESET_NAMES)
    sp.add_argument("--samples", type=int, default=None,
                    help="add simulated curves with this many trials per point")
    sp.add_argument("--seed", type=int, default=_default_seed())
    sp.add_argument("--batch-size", type=int, default=1_000_000)
    add_output_flags(sp)
    sp.set_defaults(func=_cmd_figure)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LogndivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
