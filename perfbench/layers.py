"""What the traced run wraps, and how the per-layer metrics follow from the
recorded spans. Span names are "<module>.<what>"; the module is the layer."""

from __future__ import annotations

import math
from collections import defaultdict

from logndiv import (asymptotics, baselines, channel, cli, curves, montecarlo, oracles,
                     presets, schemes, special_fn, verify_suites)

import common
from tracer import Target, Tracer

_LN_1E15 = math.log(1e-15)   # ncx2 log-CDF calls below this are "deep"
RESOLVED_HITS = 30           # an MC point with fewer hits is not resolved


def command_name(argv: list[str]) -> str:
    if argv[0] == "figure":
        return f"figure_{argv[1]}"
    if argv[0] == "verify":
        return f"verify_{argv[argv.index('--suite') + 1]}"
    return argv[0]


def _cli(args, kwargs, result, exc):
    return {"command": command_name(args[0] if args else kwargs["argv"])}


def _preset(args, kwargs, result, exc):
    return {"preset": args[0] if args else kwargs["name"]}


def _text(args, kwargs, result, exc):
    return {"bytes": len(result.encode()) if exc is None else 0}


def _useful_linear(args, kwargs, result, exc):
    return {"useful": exc is None and result <= 1.0}


def _useful_log10(args, kwargs, result, exc):
    return {"useful": exc is None and result <= 0.0}


def _ncx2(args, kwargs, result, exc):
    return {"deep": exc is None and result < _LN_1E15}


def _rows(args, kwargs, item, exc):
    return {"rows": int(item.shape[0])}


def _combine(args, kwargs, result, exc):
    return {"scheme": args[0].value, "rows": int(args[1].shape[0])}


def targets() -> list[Target]:
    out = [
        Target(cli, "main", "cli.main", tag=_cli),
        Target(presets, "figure_curves", "presets.figure_curves", tag=_preset),
        Target(presets, "sumcdf_curve", "presets.sumcdf_curve"),
        Target(curves, "curves_to_text", "curves.to_text", tag=_text),
        *[Target(verify_suites, f"run_{s}", f"verify_suites.{s}") for s in common.SUITES],
    ]
    for kind in ("sc", "egc", "mrc"):
        out.append(Target(asymptotics, f"{kind}_outage_asym", f"asymptotics.{kind}",
                          tag=_useful_linear))
        out.append(Target(asymptotics, f"{kind}_outage_asym_log10", f"asymptotics.{kind}",
                          tag=_useful_log10))
    out += [
        Target(asymptotics, "sum_lognormal_cdf_asym", "asymptotics.sumcdf", tag=_useful_linear),
        Target(asymptotics, "sum_lognormal_cdf_asym_log10", "asymptotics.sumcdf",
               tag=_useful_log10),
        Target(special_fn, "noncentral_chi2_cdf_log", "special_fn.ncx2_log", tag=_ncx2),
        Target(special_fn, "reg_gamma_lower_log", "special_fn.reg_gamma_lower_log",
               kind="count"),
        Target(oracles, "sum2_cdf_quadrature", "oracles.sum2_quad"),
        Target(baselines, "fenton_wilkinson_cdf", "baselines.fw"),
        Target(channel, "iter_latent_batches", "channel.draw_mix", kind="gen", tag=_rows),
        Target(schemes, "combiner_snr", "schemes.combine", tag=_combine),
        Target(montecarlo, "simulate_outage_multi", "montecarlo.simulate_multi"),
        Target(montecarlo, "simulate_outage", "montecarlo.simulate"),
        Target(montecarlo, "sweep", "montecarlo.sweep"),
    ]
    return out


# Where a metric comes from when the traced workload never reaches its
# layer: one traced pass of the workload that exercises it.
HOME = {"cli": "cli_cold", "presets": "cli_cold", "curves": "cli_cold",
        "verify_suites": "cli_cold", "asymptotics": "closed_form_deep",
        "special_fn": "closed_form_deep", "oracles": "closed_form_deep",
        "baselines": "closed_form_deep", "channel": "mc_sweep", "schemes": "mc_sweep",
        "montecarlo": "mc_sweep"}


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def derive(tracer: Tracer, phase: str, passes: int, requested: int,
           points: list) -> dict[str, float]:
    """Per-layer metrics from the spans of one phase. `passes` traced
    passes ran in it; its ops asked for `requested` MC samples and produced
    the MC `points` (key, scheme, n, hits). A metric whose layer the phase
    never reached is left out."""
    self_t = tracer.self_times()
    spans = defaultdict(list)
    for s in tracer.spans:
        if tracer.phase_of_op.get(s.op) == phase:
            spans[s.name].append(s)

    def dur(ss):
        return sum(s.t1 - s.t0 for s in ss)

    def where(name, key, value):
        return [s for s in spans[name] if s.attrs and s.attrs.get(key) == value]

    m: dict[str, float] = {}

    def put(metric, ss, scale, per=None):
        if ss:
            m[metric] = dur(ss) * scale / (len(ss) if per is None else per)

    for c in common.CLI_COMMANDS:
        put(f"cli.main_ms.{c}", where("cli.main", "command", c), 1e3)
    for p in common.PRESETS:
        put(f"presets.figure_curves_ms.{p}", where("presets.figure_curves", "preset", p), 1e3)
    put("curves.to_text_ms", spans["curves.to_text"], 1e3)
    if spans["curves.to_text"]:
        m["curves.bytes_written"] = sum(s.attrs["bytes"] for s in spans["curves.to_text"]) / passes
    for s in common.SUITES:
        put(f"verify_suites.{s}_ms", spans[f"verify_suites.{s}"], 1e3)

    asym = [s for k in ("sc", "egc", "mrc", "sumcdf") for s in spans[f"asymptotics.{k}"]]
    for k in ("sc", "egc", "mrc", "sumcdf"):
        put(f"asymptotics.{k}_us_per_point", spans[f"asymptotics.{k}"], 1e6)
    if asym:
        m["asymptotics.self_us_per_point"] = sum(self_t[s.sid] for s in asym) * 1e6 / len(asym)
        m["asymptotics.below_regime_ratio"] = sum(s.attrs["useful"] for s in asym) / len(asym)

    ncx2 = spans["special_fn.ncx2_log"]
    put("special_fn.ncx2_log_us_shallow", [s for s in ncx2 if not s.attrs["deep"]], 1e6)
    put("special_fn.ncx2_log_us_deep", [s for s in ncx2 if s.attrs["deep"]], 1e6)
    if ncx2:
        m["special_fn.gamma_evals_per_ncx2"] = (
            tracer.counts[phase]["special_fn.reg_gamma_lower_log"] / len(ncx2))
    put("oracles.sum2_quad_ms_per_point", spans["oracles.sum2_quad"], 1e3)
    put("baselines.fw_us_per_point", spans["baselines.fw"], 1e6)

    draws = [s for s in spans["channel.draw_mix"] if s.attrs]
    rows = sum(s.attrs["rows"] for s in draws)
    if rows:
        m["channel.draw_mix_ns_per_sample"] = dur(spans["channel.draw_mix"]) * 1e9 / rows
        m["channel.samples_drawn"] = rows / passes
        for k in ("sc", "egc", "mrc"):
            ss = where("schemes.combine", "scheme", k)
            put(f"schemes.combine_ns_per_sample_{k}", ss, 1e9,
                per=sum(s.attrs["rows"] for s in ss))
        mc = [s for n in ("montecarlo.simulate_multi", "montecarlo.simulate", "montecarlo.sweep")
              for s in spans[n]]
        m["montecarlo.self_ns_per_sample"] = sum(self_t[s.sid] for s in mc) * 1e9 / rows
        m["montecarlo.draws_per_requested_sample"] = rows / requested
    if points:
        m["montecarlo.resolved_point_ratio"] = (
            sum(h >= RESOLVED_HITS for _, _, _, h in points) / len(points))
    return m


def self_by_layer(tracer: Tracer, phase: str) -> dict[str, float]:
    """Total self time (s) per layer in one phase; "bench" is the op time
    outside every wrapped function."""
    self_t = tracer.self_times()
    out: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        if tracer.phase_of_op.get(s.op) == phase:
            out[layer(s.name)] += self_t[s.sid]
    return dict(out)

