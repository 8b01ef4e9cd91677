"""Command-line interface.

Subcommands: asymptotic, simulate, sumcdf, verify, figure.
Exit codes: 0 success, 2 usage (an unwritable output path too), 3
domain/validity error, 4 verification failure. Output files are written
atomically and are byte-identical for identical invocations. LOGNDIV_SEED
overrides the default simulation seed.
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

from .channel import ChannelSpec
from .curves import Curve, curves_to_text
from .errors import DomainError, LogndivError
from .presets import (PRESET_NAMES, _y_grid, asymptotic_curve, er_grid_from, figure_curves,
                      grid_size, simulated_curves, sumcdf_curve)
from .schemes import SchemeKind
from .verify_suites import SUITES, run_suites

DEFAULT_SEED = 1


def _seed(flag: Optional[int]) -> int:
    """The --seed flag if given, else LOGNDIV_SEED, else DEFAULT_SEED. Read
    by the handlers that simulate, so that a bad LOGNDIV_SEED is a domain
    error (exit 3) there and no concern of any other command."""
    if flag is not None:
        return flag
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


class _UnwritableOutput(Exception):
    """An output path that cannot be written: a usage error (exit 2)."""


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".logndiv-")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise _UnwritableOutput(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _emit(curves: list[Curve], meta: dict, out: Optional[str], fmt: str) -> None:
    if fmt == "csv":
        text = curves_to_text(curves, meta)
    else:
        payload = {"meta": meta, "curves": [
            {**{k: v for k, v in asdict(c).items() if k != "points"},
             "points": [asdict(p) for p in c.points]} for c in curves]}
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
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


def _cmd_outage(args) -> int:
    spec = _channel_spec(args)
    scheme = SchemeKind.parse(args.scheme)
    grid = er_grid_from(args.er_db)
    meta = {"command": args.cmd, "scheme": scheme.value, "L": str(spec.L),
            "rho": f"{spec.rho:g}", "sigma_G": f"{spec.sigma_G:g}",
            "gamma_th": f"{args.gamma_th:g}"}
    if args.cmd == "asymptotic":
        curves = [asymptotic_curve(spec, scheme, args.gamma_th, grid)]
    else:
        from .montecarlo import SimConfig
        cfg = SimConfig(args.samples, _seed(args.seed))
        curves = simulated_curves(spec, [scheme], args.gamma_th, grid, cfg)
        meta.update(samples=str(cfg.samples), seed=str(cfg.seed))
    _emit(curves, meta, args.out, args.format)
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
    seed = DEFAULT_SEED if args.samples is None else _seed(args.seed)
    meta, curves = figure_curves(args.preset, samples=args.samples, seed=seed)
    _emit(curves, meta, args.out, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="logndiv",
        description="Outage probabilities of SC/EGC/MRC diversity receivers over "
                    "equally correlated lognormal fading channels.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_outage_flags(sp):
        sp.add_argument("--L", type=int, default=None, help="branch count")
        sp.add_argument("--rho", type=float, default=None, help="exponent correlation in [0,1)")
        sp.add_argument("--sigma-g", type=float, default=None, help="exponent std dev (nats)")
        sp.add_argument("--config", default=None, help="JSON channel config (keys: L, rho, sigma_G, mu_G|Er_watts|Er_dB)")
        sp.add_argument("--gamma-th", type=float, required=True, help="outage threshold (watts)")
        sp.add_argument("--scheme", required=True, choices=[s.value for s in SchemeKind])
        sp.add_argument("--er-db", type=lambda t: _parse_grid(t, "--er-db"), required=True,
                        metavar="START:STOP:STEP")

    def add_output_flags(sp):
        sp.add_argument("--out", default=None, help="output path (stdout if omitted)")
        sp.add_argument("--format", choices=("csv", "obj"), default="csv")

    sp = sub.add_parser("asymptotic", help="closed-form outage curve over an Er grid")
    add_outage_flags(sp)
    add_output_flags(sp)
    sp.set_defaults(func=_cmd_outage)

    sp = sub.add_parser("simulate", help="Monte Carlo outage curve over an Er grid")
    add_outage_flags(sp)
    sp.add_argument("--samples", type=int, default=10_000_000)
    sp.add_argument("--seed", type=int, default=None,
                    help="simulation seed (default: LOGNDIV_SEED, else 1)")
    add_output_flags(sp)
    sp.set_defaults(func=_cmd_outage)

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
    sp.add_argument("--seed", type=int, default=None,
                    help="simulation seed (default: LOGNDIV_SEED, else 1)")
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
    except _UnwritableOutput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
