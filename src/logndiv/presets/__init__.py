"""Shipped figure presets: parameter sets encoded as JSON config files,
turned into curve bundles here."""

from __future__ import annotations

import json
import math
from functools import partial
from importlib import resources
from typing import TYPE_CHECKING, Callable, Optional

from ..asymptotics import OutageQuery, outage_asym, sum_lognormal_cdf_asym
from ..baselines import fenton_wilkinson_cdf
from ..channel import ChannelSpec, derive_params
from ..curves import Curve, CurvePoint
from ..errors import BelowAsymptoticRegimeError, DomainError
from ..schemes import SchemeKind

if TYPE_CHECKING:   # imported where used, so that the closed forms do not pay for it
    from ..montecarlo import SimConfig, SimEstimate

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
    """One closed-form point from evaluate(), or from the error it raises
    below the validity region (note from below_note). Such a point, and one
    where the raw approximation exceeds 1, is annotated, not dropped."""
    try:
        value = evaluate()
    except BelowAsymptoticRegimeError as exc:
        return CurvePoint(x=x, outage=None, note=below_note(exc))
    if value > 1.0:
        return CurvePoint(x=x, outage=None, note=f"above_unity;raw={value:.6e}")
    return CurvePoint(x=x, outage=value)


def _below_er(exc: BelowAsymptoticRegimeError) -> str:
    return f"below_asymptotic_regime;min_er_db={10.0 * exc.ln_bound / math.log(10.0):.6f}"


def _sim_point(er: float, est: SimEstimate) -> CurvePoint:
    """One simulated point; one without hits carries its rule-of-three bound."""
    note = (f"resolution_exhausted;p_upper_95={est.p_upper_95:.6e}"
            if est.resolution_exhausted else "")
    return CurvePoint(x=10.0 * math.log10(er), outage=est.p_hat, stderr=est.stderr, n=est.n,
                      hits=est.hits, note=note)


def asymptotic_curve(spec: ChannelSpec, scheme: SchemeKind, gamma_th: float,
                     er_grid: list[float], label: Optional[str] = None) -> Curve:
    """Closed-form curve over an Er grid. At L = 1 every scheme is the exact
    lognormal CDF, so that curve's source is 'exact'."""
    params = derive_params(spec)
    qs = [OutageQuery(gamma_th, er) for er in er_grid]   # every point's input checks first
    pts = tuple(_closed_form_point(10.0 * math.log10(q.er),
                                   partial(outage_asym, params, scheme, q), _below_er)
                for q in qs)
    return Curve(label=label or f"{scheme.value}-asym-L{spec.L}-rho{spec.rho:g}",
                 scheme=scheme.value, source="exact" if spec.L == 1 else "asymptotic",
                 L=spec.L, rho=spec.rho, sigma_G=spec.sigma_G, gamma_th=gamma_th, points=pts)


def simulated_curves(spec: ChannelSpec, schemes: list[SchemeKind], gamma_th: float,
                     er_grid: list[float], cfg: SimConfig, tag: str = "") -> list[Curve]:
    """Monte Carlo curves '<scheme><tag>-sim' of several schemes on one channel,
    in scheme order, all counted from one stream drawn at the first grid power."""
    from ..montecarlo import sweep
    estimates = sweep(derive_params(spec), schemes, gamma_th, er_grid, cfg)
    return [Curve(label=f"{s.value}{tag}-sim", scheme=s.value, source="simulation",
                  L=spec.L, rho=spec.rho, sigma_G=spec.sigma_G, gamma_th=gamma_th,
                  points=tuple(map(_sim_point, er_grid, estimates[s])))
            for s in schemes]


def _y_grid(cfg: dict) -> list[float]:
    import numpy as np

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
    moment-matched lognormal ('fw'), or the exact log-space quadrature
    ('quadrature', two branches only)."""
    sources = {"asym": "asymptotic", "fw": "baseline", "quadrature": "exact"}
    if method not in sources:
        raise DomainError(f"unknown sum-CDF method {method!r}; expected fw/asym/quadrature")
    ChannelSpec(L=L, rho=rho, sigma_G=sigma_G, mu_G=mu_G)   # one channel check for every method
    if method == "asym":
        pts = [_closed_form_point(y, partial(sum_lognormal_cdf_asym, L, rho, mu_G, sigma_G, y),
                                  lambda exc: "beyond_tail_region") for y in y_grid]
    elif method == "fw":
        pts = [CurvePoint(x=y, outage=fenton_wilkinson_cdf(L, rho, mu_G, sigma_G, y))
               for y in y_grid]
    else:
        if L != 2:
            raise DomainError("quadrature sum-CDF is implemented for L = 2 only")
        from ..oracles import sum2_cdf_quadrature
        pts = [CurvePoint(x=y, outage=sum2_cdf_quadrature(mu_G, sigma_G, rho, y)) for y in y_grid]
    return Curve(label=label or f"sumcdf-{method}", scheme="egc", source=sources[method],
                 L=L, rho=rho, sigma_G=sigma_G, gamma_th=None, points=tuple(pts), x_kind="y")


def figure_curves(name: str, samples: Optional[int] = None,
                  seed: int = 1) -> tuple[dict, list[Curve]]:
    """Build all curves of a preset. For outage presets, `samples` adds
    simulated curves next to the closed forms; sum-CDF presets have none, so
    asking them for samples is a domain error."""
    preset = load_preset(name)
    meta = {"preset": name, "description": preset["description"]}
    curves: list[Curve] = []
    if preset["kind"] == "outage":
        gamma_th = float(preset["gamma_th"])
        er_grid = er_grid_from(preset["er_db"])
        schemes = [SchemeKind.parse(s) for s in preset["schemes"]]
        cfg = None
        if samples is not None:
            from ..montecarlo import SimConfig
            cfg = SimConfig(samples, seed)
        meta["gamma_th"] = f"{gamma_th:g}"
        for ch in preset["channels"]:
            spec = ChannelSpec(L=int(ch["L"]), rho=float(ch["rho"]),
                               sigma_G=float(ch["sigma_G"]), Er=1.0)
            tag = f"-L{spec.L}-rho{spec.rho:g}-sg{spec.sigma_G:g}"
            sims = simulated_curves(spec, schemes, gamma_th, er_grid, cfg, tag) if cfg else []
            for i, scheme in enumerate(schemes):
                curves.append(asymptotic_curve(spec, scheme, gamma_th, er_grid,
                                               label=f"{scheme.value}{tag}-asym"))
                if cfg is not None:
                    curves.append(sims[i])
        if "baseline_single_branch" in preset:
            spec = ChannelSpec(L=1, rho=0.0, Er=1.0,
                               sigma_G=float(preset["baseline_single_branch"]["sigma_G"]))
            curves.append(asymptotic_curve(spec, SchemeKind.SC, gamma_th, er_grid,
                                           label="single-branch-exact"))
        if cfg is not None:
            meta.update(samples=str(samples), seed=str(seed))
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
