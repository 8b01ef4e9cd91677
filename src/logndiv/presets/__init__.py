"""Shipped figure presets: parameter sets encoded as JSON config files,
turned into curve bundles here."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from functools import partial
from importlib import resources
from typing import Callable, Optional

import numpy as np

from ..asymptotics import OutageQuery, outage_asym, sum_lognormal_cdf_asym
from ..baselines import fenton_wilkinson_cdf
from ..channel import ChannelSpec, derive_params
from ..curves import Curve, CurvePoint
from ..errors import BelowAsymptoticRegimeError, DomainError
from ..montecarlo import SimConfig, sweep
from ..oracles import sum2_cdf_quadrature
from ..schemes import SchemeKind

PRESET_NAMES = ("fig4", "fig5", "fig6", "fig7")

# Largest point count a start:stop:step grid may ask for.
MAX_GRID_POINTS = 10 ** 6


def load_preset(name: str) -> dict:
    if name not in PRESET_NAMES:
        raise DomainError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    text = resources.files("logndiv.presets").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def grid_size(cfg: dict) -> int:
    """Point count of the inclusive grid start:stop:step, at most MAX_GRID_POINTS."""
    start, stop, step = float(cfg["start"]), float(cfg["stop"]), float(cfg["step"])
    if not all(math.isfinite(v) for v in (start, stop, step)) or step <= 0.0 or stop < start:
        raise DomainError(f"bad grid {cfg!r}")
    n = round(min((stop - start) / step, MAX_GRID_POINTS)) + 1
    if n > MAX_GRID_POINTS:
        raise DomainError(f"grid {cfg!r} asks for more than {MAX_GRID_POINTS} points")
    return n


def er_grid_from(cfg: dict) -> list[float]:
    """Inclusive dB grid -> watts."""
    start, step = float(cfg["start"]), float(cfg["step"])
    try:
        return [10.0 ** ((start + i * step) / 10.0) for i in range(grid_size(cfg))]
    except OverflowError:
        raise DomainError(f"grid {cfg!r} reaches past the largest float in watts") from None


def _closed_form_point(x: float, evaluate: Callable[[], float],
                       below_note: Callable[[BelowAsymptoticRegimeError], str]) -> CurvePoint:
    """One closed-form point. Below the validity region (note from
    below_note) or where the raw approximation exceeds 1 the point is
    annotated, not dropped."""
    try:
        value = evaluate()
    except BelowAsymptoticRegimeError as exc:
        return CurvePoint(x=x, outage=None, note=below_note(exc))
    if value > 1.0:
        return CurvePoint(x=x, outage=None, note=f"above_unity;raw={value:.6e}")
    return CurvePoint(x=x, outage=value)


def _below_er(exc: BelowAsymptoticRegimeError) -> str:
    return f"below_asymptotic_regime;min_er_db={10.0 * exc.ln_bound / math.log(10.0):.6f}"


def asymptotic_curve(spec: ChannelSpec, scheme: SchemeKind, gamma_th: float,
                     er_grid: list[float], label: Optional[str] = None) -> Curve:
    """Closed-form curve over an Er grid. At L = 1 every scheme is the exact
    lognormal CDF, so that curve's source is 'exact'."""
    params = derive_params(spec)
    pts = tuple(_closed_form_point(10.0 * math.log10(er),
                                   partial(outage_asym, params, scheme, OutageQuery(gamma_th, er)),
                                   _below_er)
                for er in er_grid)
    return Curve(label=label or f"{scheme.value}-asym-L{spec.L}-rho{spec.rho:g}",
                 scheme=scheme.value, source="exact" if spec.L == 1 else "asymptotic",
                 L=spec.L, rho=spec.rho, sigma_G=spec.sigma_G, gamma_th=gamma_th, points=pts)


def _y_grid(cfg: dict) -> list[float]:
    n = int(cfg["points"])
    if n < 1:
        raise DomainError("y grid needs at least one point")
    start, stop = float(cfg["start"]), float(cfg["stop"])
    if cfg.get("spacing", "log") == "log":
        if start <= 0.0:
            raise DomainError("log-spaced y grid needs start > 0")
        return np.geomspace(start, stop, n).tolist()
    return np.linspace(start, stop, n).tolist()


def sumcdf_curve(L: int, rho: float, mu_G: float, sigma_G: float,
                 y_grid: list[float], method: str, label: Optional[str] = None) -> Curve:
    """Sum-CDF curve by one of: the tail approximation ('asym'), the
    moment-matched lognormal ('fw'), or adaptive quadrature ('quadrature',
    two branches only)."""
    sources = {"asym": "asymptotic", "fw": "baseline", "quadrature": "exact"}
    if method not in sources:
        raise DomainError(f"unknown sum-CDF method {method!r}; expected fw/asym/quadrature")
    if method == "quadrature" and L != 2:
        raise DomainError("quadrature sum-CDF is implemented for L = 2 only")
    pts = []
    for y in y_grid:
        if method == "asym":
            pts.append(_closed_form_point(
                y, partial(sum_lognormal_cdf_asym, L, rho, mu_G, sigma_G, y),
                lambda exc: "beyond_tail_region"))
        elif method == "fw":
            pts.append(CurvePoint(x=y, outage=fenton_wilkinson_cdf(L, rho, mu_G, sigma_G, y)))
        else:
            pts.append(CurvePoint(x=y, outage=sum2_cdf_quadrature(mu_G, sigma_G, rho, y)))
    return Curve(label=label or f"sumcdf-{method}", scheme="egc", source=sources[method],
                 L=L, rho=rho, sigma_G=sigma_G, gamma_th=None, points=tuple(pts), x_kind="y")


def figure_curves(name: str, samples: Optional[int] = None, seed: int = 1,
                  batch_size: int = 1_000_000) -> tuple[dict, list[Curve]]:
    """Build all curves of a preset. For outage presets, `samples` adds
    simulated curves next to the closed forms; sum-CDF presets have none, so
    asking them for samples is a domain error."""
    preset = load_preset(name)
    meta = {"preset": name, "description": preset["description"]}
    curves: list[Curve] = []
    if preset["kind"] == "outage":
        gamma_th = float(preset["gamma_th"])
        er_grid = er_grid_from(preset["er_db"])
        meta["gamma_th"] = f"{gamma_th:g}"
        for ch in preset["channels"]:
            spec = ChannelSpec(L=int(ch["L"]), rho=float(ch["rho"]),
                               sigma_G=float(ch["sigma_G"]), Er=1.0)
            for s in preset["schemes"]:
                scheme = SchemeKind.parse(s)
                label = f"{scheme.value}-L{spec.L}-rho{spec.rho:g}-sg{spec.sigma_G:g}"
                curves.append(asymptotic_curve(spec, scheme, gamma_th, er_grid,
                                               label=label + "-asym"))
                if samples:
                    sim = sweep(derive_params(spec), scheme, gamma_th, er_grid,
                                SimConfig(samples, seed, min(batch_size, samples)))
                    curves.append(replace(sim, label=label + "-sim"))
        if "baseline_single_branch" in preset:
            spec = ChannelSpec(L=1, rho=0.0, Er=1.0,
                               sigma_G=float(preset["baseline_single_branch"]["sigma_G"]))
            curves.append(asymptotic_curve(spec, SchemeKind.SC, gamma_th, er_grid,
                                           label="single-branch-exact"))
        if samples:
            meta["samples"] = str(samples)
            meta["seed"] = str(seed)
    elif preset["kind"] == "sumcdf":
        if samples is not None:
            raise DomainError(f"preset {name!r} has no simulated curves, "
                              "so it takes no sample count")
        y_grid = _y_grid(preset["y"])
        for s2 in preset["sigma_sq"]:
            sg = math.sqrt(float(s2))
            for method in preset["methods"]:
                curves.append(sumcdf_curve(
                    int(preset["L"]), float(preset["rho"]), float(preset["mu_G"]), sg,
                    y_grid, method, label=f"sumcdf-{method}-s2_{s2:g}"))
    else:
        raise DomainError(f"unknown preset kind {preset['kind']!r}")
    return meta, curves
