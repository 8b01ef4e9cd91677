"""Standard-library-only pieces shared by the orchestrator (run.py) and the
in-process worker (worker.py): workload names, metric names and units, the
CLI command list, op-latency statistics and the child-process environment."""

from __future__ import annotations

import math
import os
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("cli_cold", "closed_form_deep", "mc_sweep")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Nearest-rank percentile reported as op_tail_ms. Each leaves at least ten
# ops beyond it in the smallest run the benchmark makes (min_ops(p) ops,
# enforced by the pass loops). Since pass_metrics ranks each op of the list
# by its mean latency, the percentile always picks the same op of the list:
# the 2nd-cheapest of 7 for cli_cold, the 3rd-costliest of 54 for
# closed_form_deep and the costlier of 2 for mc_sweep.
TAIL_P = {"cli_cold": 0.25, "closed_form_deep": 0.96, "mc_sweep": 0.70}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

CLI_COMMANDS = ("figure_fig4", "figure_fig5", "figure_fig6", "figure_fig7",
                "verify_all", "asymptotic", "sumcdf")
PRESETS = ("fig4", "fig5", "fig6", "fig7")
SUITES = ("lemma", "kkt", "subset", "derivatives", "limits")

PER_LAYER = {
    "import.total_ms": "ms",
    "import.numpy_ms": "ms",
    "import.scipy_ms": "ms",
    "import.logndiv_self_ms": "ms",
    **{f"cli.main_ms.{c}": "ms" for c in CLI_COMMANDS},
    **{f"presets.figure_curves_ms.{p}": "ms" for p in PRESETS},
    "curves.to_text_ms": "ms",
    "curves.bytes_written": "bytes",
    **{f"verify_suites.{s}_ms": "ms" for s in SUITES},
    "asymptotics.sc_us_per_point": "us",
    "asymptotics.egc_us_per_point": "us",
    "asymptotics.mrc_us_per_point": "us",
    "asymptotics.sumcdf_us_per_point": "us",
    "asymptotics.self_us_per_point": "us",
    "asymptotics.below_regime_ratio": "ratio",
    "special_fn.ncx2_log_us_shallow": "us",
    "special_fn.ncx2_log_us_deep": "us",
    "special_fn.gamma_evals_per_ncx2": "count",
    "oracles.sum2_quad_ms_per_point": "ms",
    "baselines.fw_us_per_point": "us",
    "channel.draw_mix_ns_per_sample": "ns",
    "channel.samples_drawn": "count",
    "schemes.combine_ns_per_sample_sc": "ns",
    "schemes.combine_ns_per_sample_egc": "ns",
    "schemes.combine_ns_per_sample_mrc": "ns",
    "montecarlo.self_ns_per_sample": "ns",
    "montecarlo.draws_per_requested_sample": "ratio",
    "montecarlo.resolved_point_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_share": "ratio",
}


def cli_commands(seed: int) -> list[tuple[str, list[str], str]]:
    """(name, argv without --out, output file name) for each closed-form CLI
    command of cli_cold. The seed jitters sigma_G of the two parameterised
    commands within a few percent, which leaves their cost unchanged."""
    rng = random.Random(f"cli/{seed}")
    sg = (0.95, 1.0, 1.05)[rng.randrange(3)]
    ssg = (0.6, 0.65, 0.7)[rng.randrange(3)]
    return [
        ("figure_fig4", ["figure", "fig4"], "fig4.csv"),
        ("figure_fig5", ["figure", "fig5"], "fig5.csv"),
        ("figure_fig6", ["figure", "fig6"], "fig6.csv"),
        ("figure_fig7", ["figure", "fig7"], "fig7.csv"),
        ("verify_all", ["verify", "--suite", "all"], "verify.json"),
        ("asymptotic", ["asymptotic", "--L", "3", "--rho", "0.5", "--sigma-g", f"{sg:g}",
                        "--gamma-th", "0.1", "--scheme", "egc", "--er-db", "0:300:5"],
         "asymptotic.csv"),
        ("sumcdf", ["sumcdf", "--L", "2", "--rho", "0.5", "--mu-g", "0", "--sigma-g",
                    f"{ssg:g}", "--y", "0.05:3:0.05", "--method", "quadrature"],
         "sumcdf.csv"),
    ]


def min_ops(p: float) -> int:
    """Smallest op count that leaves at least ten ops beyond the
    nearest-rank p-th percentile."""
    n = 11
    while n - math.ceil(p * n) < 10:
        n += 1
    return n


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def pass_metrics(walls: list[float], pass_lats: list[list[float]], p_tail: float) -> dict:
    """wall_s, op_p50_ms and op_tail_ms of a run of whole passes.

    The machine's speed drifts by up to 40 % over tens of seconds, which a
    median over passes turns into a jump from one speed to the other. So
    wall_s is the mean pass time, and each op of the fixed list counts with
    its mean latency over the passes, once per pass, in the percentiles."""
    means = [statistics.fmean(col) for col in zip(*pass_lats)]
    lats = means * len(pass_lats)
    return {
        "wall_s": statistics.fmean(walls),
        "op_p50_ms": statistics.median(lats) * 1e3,
        "op_tail_ms": percentile(lats, p_tail) * 1e3,
    }


def child_env() -> dict:
    """Environment for every child interpreter: the package from this
    checkout's src/, and single-threaded BLAS/OpenMP so that the load stays
    one client on the two cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    env.pop("LOGNDIV_SEED", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def require_source() -> None:
    """Exit with code 2 unless the package source is present in this
    checkout; the benchmark never falls back to an installed copy."""
    if not (SRC / "logndiv" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'logndiv'}", file=sys.stderr)
        sys.exit(2)
