"""Measure the benchmark's baseline and write perfbench/baseline.json.

    python3 perfbench/baseline.py

For every workload it makes RUNS untraced runs of BENCHMARK.json's
run_seconds, one per seed 1..RUNS, and records each end-to-end metric's
values, median, quartiles and spread (interquartile distance over median,
from statistics.quantiles(n=4)). Between them it makes FIXED_RUNS runs at
the default seed, whose spread shows how much of the other spread is the
machine's rather than the inputs'. It then makes one traced run per
workload at the default seed and records the per-layer metrics. The file
also records the seeds, the tail percentiles and which end-to-end metric
each layer metric should move, on which workload. It takes about half an
hour on two cores.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
RUNS = 10
FIXED_RUNS = RUNS // 2   # one after each odd-seeded run

# Layer metric (prefix) -> (end-to-end metrics it should move, workloads).
LAYER_MAP = {
    "import.*": (["setup_s", "op_p50_ms"], ["cli_cold", "setup_s of every workload"]),
    "cli.main_ms.*": (["op_p50_ms"], ["cli_cold"]),
    "presets.figure_curves_ms.*, curves.*": (["op_p50_ms"], ["cli_cold"]),
    "verify_suites.*": (["op_p50_ms"], ["cli_cold"]),
    "asymptotics.*_us_per_point": (["wall_s", "op_p50_ms"], ["closed_form_deep"]),
    "asymptotics.below_regime_ratio": (["wall_s"], ["closed_form_deep"]),
    "special_fn.*": (["wall_s", "op_tail_ms"], ["closed_form_deep"]),
    "oracles.sum2_quad_ms_per_point, baselines.fw_us_per_point":
        (["wall_s"], ["closed_form_deep"]),
    "channel.*": (["wall_s", "peak_rss_mb"], ["mc_sweep"]),
    "schemes.*": (["wall_s", "op_p50_ms"], ["mc_sweep"]),
    "montecarlo.self_ns_per_sample": (["wall_s"], ["mc_sweep"]),
    "montecarlo.draws_per_requested_sample": (["wall_s"], ["mc_sweep"]),
    "montecarlo.resolved_point_ratio": (["wall_s"], ["mc_sweep"]),
    "trace.overhead_ratio": ([], ["all"]),
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    r = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=common.ROOT, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{r.stderr[-2000:]}")
    lines = r.stdout.strip().splitlines()
    return {"record": json.loads(lines[0])["run_record"], "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    seconds = json.loads((common.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    end_to_end, per_layer, accounting, record = {}, {}, {}, None
    for w in common.WORKLOADS:
        values: dict[str, list[float]] = {}
        fixed: dict[str, list[float]] = {}
        for seed in range(1, RUNS + 1):
            out = run(w, seed, seconds, 0)
            record = record or out["record"]
            for k, v in out["result"]["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            if seed % 2:
                out = run(w, common.DEFAULT_SEED, seconds, 0)
                for k, v in out["result"]["metrics"].items():
                    fixed.setdefault(k, []).append(v["value"])
        end_to_end[w] = {}
        for k, vs in values.items():
            end_to_end[w][k] = {"unit": common.END_TO_END[k], **summarise(vs),
                                "fixed_seed": summarise(fixed[k])}
            print(f"{w} {k}: median {end_to_end[w][k]['median']:.4g}, spread "
                  f"{end_to_end[w][k]['spread']:.3f} (at one seed "
                  f"{end_to_end[w][k]['fixed_seed']['spread']:.3f})", file=sys.stderr)
        traced = run(w, common.DEFAULT_SEED, seconds, 1)["result"]["metrics"]
        per_layer[w] = {k: v["value"] for k, v in traced.items()}
        summary = common.OUT / f"trace-{w}-seed{common.DEFAULT_SEED}.json"
        accounting[w] = {k: v for k, v in json.loads(summary.read_text()).items()
                         if k not in ("workload", "seed")}

    baseline = {
        "machine": {k: record[k] for k in ("nproc", "cpu_model", "python", "numpy", "scipy",
                                           "git_revision")},
        "seeds": {"default": common.DEFAULT_SEED, "held_out": common.HELD_OUT_SEED,
                  "baseline_runs": list(range(1, RUNS + 1)),
                  "fixed_seed_runs": FIXED_RUNS},
        "run_seconds": seconds,
        "tail_percentile": common.TAIL_P,
        "layer_to_end_to_end": {k: {"moves": m, "on": on} for k, (m, on) in LAYER_MAP.items()},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace_accounting": accounting,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
