"""Rebuild reference.json, the stored outputs the workloads check against:

  * closed_form: the closed_form_deep curves for every jitter level the seed
    can pick, computed by the package as it is when this script runs;
  * mc: Monte Carlo estimates with REF_SAMPLES samples for every (channel,
    dB) point that mc_sweep simulates.

Run from the repository root (a few minutes on two cores):

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from logndiv import asymptotics, montecarlo, presets
from logndiv.channel import ChannelSpec, derive_params
from logndiv.schemes import SchemeKind

import workloads as w

REF_SAMPLES = 20_000_000
REF_SEED = 0x5EED_F00D


def closed_form() -> dict:
    out = {}
    for L in w.CF_L:
        for rho in w.CF_RHO:
            for v, (sg, g) in enumerate(w.CF_VARIANTS):
                params = derive_params(ChannelSpec(L=L, rho=rho, sigma_G=sg, Er=1.0))
                for scheme in w.CF_SCHEMES:
                    out[w.cf_key(scheme, L, rho, v)] = w._log10_curve(scheme, params, g)
    for rho in w.SUM_RHO:
        for v, s2 in enumerate(w.SUM_SIGMA_SQ):
            for method in w.SUM_METHODS:
                c = presets.sumcdf_curve(w.SUM_L, rho, 0.0, math.sqrt(s2), list(w.SUM_Y), method)
                out[w.sum_key(method, rho, v)] = [p.outage for p in c.points]
    return out


def mc_points() -> dict:
    points = {}
    for name in w.SWEEP_PRESETS:
        pre = presets.load_preset(name)
        for ch in pre["channels"]:
            L, rho, sg = int(ch["L"]), float(ch["rho"]), float(ch["sigma_G"])
            for er in presets.er_grid_from(pre["er_db"]):
                points[w.mc_key(L, rho, sg, 10.0 * math.log10(er))] = (L, rho, sg, er)
    return points


def estimate(job) -> dict:
    i, (L, rho, sg, er) = job
    params = derive_params(ChannelSpec(L=L, rho=rho, sigma_G=sg, Er=er))
    schemes = [SchemeKind(k) for k in w.MC_SCHEMES]
    est = montecarlo.simulate_outage_multi(
        params, schemes, asymptotics.OutageQuery(w.GAMMA_TH, er),
        montecarlo.SimConfig(REF_SAMPLES, REF_SEED + i))
    return {"n": REF_SAMPLES, "hits": {k.value: e.hits for k, e in est.items()}}


def main() -> int:
    ref = {"closed_form": closed_form()}
    points = mc_points()
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        results = list(pool.map(estimate, enumerate(points.values())))
    ref["mc"] = dict(zip(points, results))
    with open(w.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {w.REFERENCE}: {len(ref['closed_form'])} curves, {len(ref['mc'])} MC points",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
