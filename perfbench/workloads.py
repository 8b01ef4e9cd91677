"""Op lists and output checks of the workloads that run inside one process.

Every workload is one closed-loop client that issues ops one at a time. An
op is a zero-argument call into the public logndiv API; its check returns
None, or one line saying why the output is wrong. Inputs derive only from
the run seed and, for Monte Carlo ops, the pass and op index.

Closed-form outputs are compared with values stored in reference.json;
Monte Carlo outputs are checked statistically against stored high-sample
estimates, so a change of the random streams stays legal. Run
make_reference.py to rebuild the file.

Each builder imports only the logndiv modules its ops call, and whatever
only the checks need is imported when a check first runs, after set-up has
been timed; so set-up time covers what the workload's own ops import.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import common

REFERENCE = Path(__file__).with_name("reference.json")

# closed_form_deep: SC/EGC/MRC log10 curves per (L, rho) cell over 0..300 dB.
CF_L = (2, 3, 4, 8)
CF_RHO = (0.0, 0.1, 0.5, 0.9)
CF_SCHEMES = ("sc", "egc", "mrc")
CF_DB = tuple(range(0, 301, 20))
# (sigma_G, gamma_th) levels about two percent apart. The cost of a deep
# cell can still differ by half between levels, so no level is fixed for a
# whole run: the seed picks each cell's level in pass 0 and every pass moves
# each cell on to the next level. A run then covers all levels about equally
# often, and its cost hardly depends on the seed.
CF_VARIANTS = ((0.98, 0.1), (0.99, 0.095), (1.01, 0.105), (1.02, 0.1))
# Sum-CDF curves of two branches; the sigma_G^2 level of each rho rotates
# in the same way.
SUM_L = 2
SUM_RHO = (0.0, 0.5)
SUM_SIGMA_SQ = (0.40, 0.45, 0.50, 0.55)
SUM_METHODS = ("asym", "fw", "quadrature")
SUM_Y = tuple(float(y) for y in np.geomspace(1e-6, 3.0, 16))
CF_RTOL = 1e-9        # recomputed vs. stored values
GL_RTOL = 1e-9        # adaptive quadrature vs. tensor Gauss-Legendre at rho = 0
GL_Y_INDEX = (0, 7, 15)

# Monte Carlo workload.
GAMMA_TH = 0.1
MC_SCHEMES = ("sc", "egc", "mrc")
SWEEP_PRESETS = ("fig4", "fig6")
# Samples per grid point of a sweep. A whole preset call is one op, so this
# keeps an op near 0.4 s and a run near 80 ops. Each point is one partial
# batch: the multi-batch loop and full 1e6-row batches of `simulate` and the
# convergence test are not measured.
SWEEP_SAMPLES = 20_000
ALPHA = 1e-9      # false-failure probability of one statistical check


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    requested: int = 0                                  # MC samples asked for
    points: Optional[Callable[[Any], list]] = None      # MC (key, scheme, n, hits)


@dataclass
class Workload:
    name: str
    ops: Callable[[int], list[Op]]     # the fixed op list of pass p
    warmup: Callable[[], None]
    ops_per_pass: int


def cf_key(scheme: str, L: int, rho: float, v: int) -> str:
    return f"{scheme}|L{L}|rho{rho:g}|v{v}"


def sum_key(method: str, rho: float, v: int) -> str:
    return f"sumcdf-{method}|L{SUM_L}|rho{rho:g}|v{v}"


def mc_key(L: int, rho: float, sigma_G: float, db: float) -> str:
    return f"L{L}|rho{rho:g}|sg{sigma_G:g}|db{round(db, 6):g}"


def cf_variants(seed: int) -> tuple[dict, dict]:
    """Seed -> jitter level in pass 0 per closed-form cell and per sum-CDF
    rho; pass p uses level (that + p) modulo the number of levels."""
    rng = random.Random(f"closed_form_deep/{seed}")
    cells = {(L, rho): rng.randrange(len(CF_VARIANTS)) for L in CF_L for rho in CF_RHO}
    sums = {rho: rng.randrange(len(SUM_SIGMA_SQ)) for rho in SUM_RHO}
    return cells, sums


def op_seed(seed: int, pass_index: int, op_index: int) -> int:
    return random.Random(f"{seed}/{pass_index}/{op_index}").getrandbits(63)


@functools.cache
def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Statistical checks
# ---------------------------------------------------------------------------

def same_rate(h1: int, n1: int, h2: int, n2: int) -> bool:
    """Exact conditional test that two binomial counts share one rate: given
    k = h1 + h2 hits, h1 is Binomial(k, n1 / (n1 + n2)) under that rate.
    Valid for any count, including the empty deep-tail points."""
    from scipy.special import bdtr, bdtrc

    k = h1 + h2
    if k == 0:
        return True
    f = n1 / (n1 + n2)
    lower = float(bdtr(h1, k, f))
    upper = float(bdtrc(h1 - 1, k, f)) if h1 > 0 else 1.0
    return 2.0 * min(lower, upper) >= ALPHA


def check_points(points: list) -> Optional[str]:
    ref_mc = load_reference()["mc"]
    for key, scheme, n, hits in points:
        ref = ref_mc.get(key)
        if ref is None:
            return f"no stored estimate for {key}"
        rh = ref["hits"][scheme]
        if not same_rate(hits, n, rh, ref["n"]):
            return f"{key} {scheme}: {hits}/{n} hits against stored {rh}/{ref['n']}"
    return None


# ---------------------------------------------------------------------------
# Closed-form checks
# ---------------------------------------------------------------------------

def _check_values(ref: list, out: list, log10: bool) -> Optional[str]:
    if len(out) != len(ref):
        return f"{len(out)} points, stored {len(ref)}"
    for i, (a, b) in enumerate(zip(out, ref)):
        if (a is None) != (b is None):
            return f"point {i}: {a!r}, stored {b!r} (regime annotation differs)"
        if a is not None:
            scale = max(1.0, abs(b)) if log10 else abs(b)
            if not abs(a - b) <= CF_RTOL * scale:
                return f"point {i}: {a!r}, stored {b!r}"
    vals = [a for a in out if a is not None]
    step = [b - a for a, b in zip(vals, vals[1:])]
    if log10 and any(d > 1e-12 * max(1.0, abs(v)) for d, v in zip(step, vals)):
        return "log10 outage increases with Er"
    if not log10 and any(d < 0.0 for d in step):
        return "sum CDF decreases with y"
    return None


def _log10_curve(scheme: str, params, gamma_th: float) -> list:
    from logndiv import asymptotics
    from logndiv.errors import BelowAsymptoticRegimeError

    fn = getattr(asymptotics, f"{scheme}_outage_asym_log10")
    out = []
    for db in CF_DB:
        try:
            out.append(fn(params, asymptotics.OutageQuery(gamma_th, 10.0 ** (db / 10.0))))
        except BelowAsymptoticRegimeError:
            out.append(None)
    return out


def closed_form_deep(seed: int, outdir: Path) -> Workload:
    from logndiv import presets
    from logndiv.channel import ChannelSpec, derive_params

    cells, sums = cf_variants(seed)

    def curve_op(scheme, L, rho, v):
        sg, g = CF_VARIANTS[v]
        params = derive_params(ChannelSpec(L=L, rho=rho, sigma_G=sg, Er=1.0))
        key = cf_key(scheme, L, rho, v)
        return Op(f"{scheme}-L{L}-rho{rho:g}", lambda: _log10_curve(scheme, params, g),
                  lambda out: _check_values(load_reference()["closed_form"][key], out,
                                            log10=True))

    def sum_op(method, rho, v, cross_check):
        sg = math.sqrt(SUM_SIGMA_SQ[v])
        key = sum_key(method, rho, v)

        def call():
            c = presets.sumcdf_curve(SUM_L, rho, 0.0, sg, list(SUM_Y), method)
            return [p.outage for p in c.points]

        def check(out):
            from logndiv import oracles

            bad = _check_values(load_reference()["closed_form"][key], out, log10=False)
            if bad or not cross_check:
                return bad
            for i in GL_Y_INDEX:
                gl = oracles.sum2_cdf_tensor_gl(0.0, sg, SUM_Y[i])
                if not abs(out[i] - gl) <= GL_RTOL * gl:
                    return f"y={SUM_Y[i]:.3g}: quadrature {out[i]!r}, tensor GL {gl!r}"
            return None
        return Op(f"sumcdf-{method}-rho{rho:g}", call, check)

    def ops(p: int) -> list[Op]:
        out = [curve_op(s, L, rho, (cells[(L, rho)] + p) % len(CF_VARIANTS))
               for L in CF_L for rho in CF_RHO for s in CF_SCHEMES]
        # The rho = 0 quadrature curve is cross-checked against an
        # independent integrator once per run; it costs more than the op.
        out += [sum_op(m, rho, (sums[rho] + p) % len(SUM_SIGMA_SQ),
                       p == 0 and rho == 0.0 and m == "quadrature")
                for rho in SUM_RHO for m in SUM_METHODS]
        return out

    def warmup():
        _log10_curve("egc", derive_params(ChannelSpec(L=3, rho=0.5, sigma_G=1.0, Er=1.0)), 0.1)

    return Workload("closed_form_deep", ops, warmup, len(ops(1)))


# ---------------------------------------------------------------------------
# Monte Carlo workload
# ---------------------------------------------------------------------------

def _sweep_points(result) -> list:
    _, cs = result
    return [(mc_key(c.L, c.rho, c.sigma_G, p.x), c.scheme, p.n, p.hits)
            for c in cs if c.source == "simulation" for p in c.points]


def mc_sweep(seed: int, outdir: Path) -> Workload:
    from logndiv import presets

    shape = {}
    for name in SWEEP_PRESETS:
        pre = presets.load_preset(name)
        shape[name] = (len(pre["channels"]) * len(pre["schemes"]),
                       len(presets.er_grid_from(pre["er_db"])))

    def sweep_op(name, s):
        curves_n, grid_n = shape[name]

        def check(result):
            pts = _sweep_points(result)
            if len(pts) != curves_n * grid_n:
                return f"{len(pts)} simulated points, expected {curves_n * grid_n}"
            if any(n != SWEEP_SAMPLES for _, _, n, _ in pts):
                return "a point reports another sample count than requested"
            return check_points(pts)
        return Op(f"figure_curves-{name}",
                  lambda: presets.figure_curves(name, samples=SWEEP_SAMPLES, seed=s),
                  check, requested=curves_n * grid_n * SWEEP_SAMPLES, points=_sweep_points)

    def ops(p: int) -> list[Op]:
        return [sweep_op(name, op_seed(seed, p, i)) for i, name in enumerate(SWEEP_PRESETS)]

    def warmup():
        presets.figure_curves("fig4", samples=SWEEP_SAMPLES, seed=op_seed(seed, -1, 0))

    return Workload("mc_sweep", ops, warmup, len(SWEEP_PRESETS))


# ---------------------------------------------------------------------------
# CLI, in process (the traced form of cli_cold)
# ---------------------------------------------------------------------------

def check_cli_output(name: str, path: Path) -> Optional[str]:
    """Output check shared by the subprocess and in-process CLI ops: the
    verify report passes, and a curve file survives a read_curves
    round-trip byte for byte."""
    from logndiv import curves

    if not path.is_file():
        return "no output file"
    text = path.read_text()
    if name == "verify_all":
        if not json.loads(text).get("all_passed"):
            return "verify report: not every check passed"
        return None
    meta, cs = curves.read_curves(io.StringIO(text))
    if not cs:
        return "no curves in the file"
    if curves.curves_to_text(cs, meta) != text:
        return "read_curves round-trip changed the bytes"
    return None


def cli_in_process(seed: int, outdir: Path) -> Workload:
    from logndiv import cli

    outdir = outdir / "cli-inproc"
    outdir.mkdir(parents=True, exist_ok=True)
    first: dict[str, bytes] = {}

    def cli_op(name, argv, fname):
        path = outdir / fname

        def call():
            path.unlink(missing_ok=True)   # a file left by an earlier op must not pass
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv + ["--out", str(path)])

        def check(code):
            if code != 0:
                return f"exit code {code}"
            if not path.is_file():
                return "no output file"
            data = path.read_bytes()
            if first.setdefault(name, data) != data:
                return "bytes differ from an identical earlier invocation"
            return check_cli_output(name, path)
        return Op(name, call, check)

    commands = common.cli_commands(seed)

    def ops(p: int) -> list[Op]:
        return [cli_op(*c) for c in commands]

    def warmup():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["figure", "fig4", "--out", str(outdir / "warmup.csv")])

    return Workload("cli_cold", ops, warmup, len(commands))


BUILDERS = {"cli_cold": cli_in_process, "closed_form_deep": closed_form_deep,
            "mc_sweep": mc_sweep}


def build(name: str, seed: int, outdir: Path) -> Workload:
    return BUILDERS[name](seed, outdir)
