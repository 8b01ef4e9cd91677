"""In-process workload runner, started by run.py in a fresh interpreter.

It imports what the workload's ops call, runs one untimed warm-up op and
prints READY; run.py times set-up up to that line. The tracer, and whatever
only the output checks need, is imported after that line. It then runs the
workload's op list in whole passes until --seconds have gone by (and at
least as many passes as the tail percentile needs), checks every output,
and prints one JSON line.

With --trace 1 it runs every op untraced and traced in turn, fills per-layer
metrics of layers the workload never reaches from one traced pass of the
workload that does, and writes the spans to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

import common

sys.path.insert(0, str(common.SRC))

import workloads   # noqa: E402  (its builders need the package on sys.path)

# Uncovered share of the traced time accepted where tracing adds less than
# this. trace.overhead_ratio is the quotient of two noisy timings and reads
# below 1 at times, so it cannot bound a small uncovered share by itself.
UNCOVERED_FLOOR = 0.01


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ops, outs) -> None:
        for op, (out, err) in zip(ops, outs):
            self.attempted += 1
            reason = err
            if reason is None:
                try:
                    reason = op.check(out)
                except Exception as exc:  # a check that cannot run fails the op
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"{op.name}: {reason}")


def run_pass(ops, tracer=None):
    """Run one pass; returns (wall seconds, per-op seconds, [(output, error)])."""
    lat, outs = [], []
    t_pass = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                with tracer.op_span(op.name):
                    out = op.call()
            outs.append((out, None))
        except Exception as exc:  # an op that raises is a failed op
            outs.append((None, f"{type(exc).__name__}: {exc}"))
        lat.append(perf_counter() - t0)
    return perf_counter() - t_pass, lat, outs


def untraced(wl, seconds: float) -> dict:
    p_tail = common.TAIL_P[wl.name]
    min_passes = math.ceil(common.min_ops(p_tail) / wl.ops_per_pass)
    walls, pass_lats, tally = [], [], Tally()
    start = perf_counter()
    p = 0
    while p < min_passes or perf_counter() - start < seconds:
        ops = wl.ops(p)
        wall, lat, outs = run_pass(ops)
        walls.append(wall)
        pass_lats.append(lat)
        tally.check(ops, outs)
        p += 1
    metrics = {
        **common.pass_metrics(walls, pass_lats, p_tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"attempted": tally.attempted, "failed": tally.failed, "reasons": tally.reasons,
            "passes": p, "metrics": metrics}


def _mc_info(ops, outs) -> tuple[int, list]:
    requested, points = 0, []
    for op, (out, err) in zip(ops, outs):
        requested += op.requested
        if op.points is not None and err is None:
            points += op.points(out)
    return requested, points


def traced(wl, seconds: float, seed: int, outdir: Path) -> dict:
    """Each op runs twice back to back, untraced and then traced, so that
    the overhead ratio compares runs made under the same machine load."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    targets = layers.targets()
    tally = Tally()
    wall = {False: 0.0, True: 0.0}
    requested, points = 0, []
    start = perf_counter()
    passes = 0
    while passes < 1 or perf_counter() - start < seconds:
        ops = wl.ops(passes)
        outs = {False: [], True: []}
        for op in ops:
            for on in (False, True):
                if on:
                    with tracer.installed(targets):
                        w, _, out = run_pass([op], tracer)
                else:
                    w, _, out = run_pass([op])
                wall[on] += w
                outs[on] += out
        tally.check(ops, outs[False])
        tally.check(ops, outs[True])
        r, pts = _mc_info(ops, outs[True])
        requested, points = requested + r, points + pts
        passes += 1

    metrics = layers.derive(tracer, "main", passes, requested, points)
    missing = [m for m in common.PER_LAYER
               if m not in metrics and not m.startswith(("import.", "trace."))]
    for home in dict.fromkeys(layers.HOME[layers.layer(m)] for m in missing):
        probe = workloads.build(home, seed, outdir)
        probe.warmup()
        ops = probe.ops(0)
        tracer.phase = f"probe:{home}"
        with tracer.installed(targets):
            _, _, outs = run_pass(ops, tracer)
        tally.check(ops, outs)
        got = layers.derive(tracer, tracer.phase, 1, *_mc_info(ops, outs))
        for m in missing:
            if layers.HOME[layers.layer(m)] == home and m in got:
                metrics[m] = got[m]
    overhead = wall[True] / wall[False]
    metrics["trace.overhead_ratio"] = overhead

    # Self-time accounting of the traced passes. "bench" is the op time
    # that no wrapped function covers: the benchmark's own op code and any
    # program code outside the wrapped functions. The wrapped layers account
    # for the untraced wall time when the uncovered share of the traced
    # time is no larger than the share tracing added, or than
    # UNCOVERED_FLOOR where tracing adds less.
    selfs = layers.self_by_layer(tracer, "main")
    uncovered = selfs.pop("bench", 0.0)
    covered = sum(selfs.values())
    metrics["trace.uncovered_share"] = uncovered / wall[True]

    absent = [m for m in common.PER_LAYER if m not in metrics and not m.startswith("import.")]
    if absent:
        raise RuntimeError(f"traced run produced no value for {absent}")

    summary = {
        "workload": wl.name, "seed": seed, "passes": passes,
        "untraced_wall_s": wall[False] / passes,
        "traced_wall_s": wall[True] / passes,
        "overhead_ratio": overhead,
        "layer_self_s_per_pass": {k: v / passes
                                  for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])},
        "uncovered_s_per_pass": uncovered / passes,
        "uncovered_share": uncovered / wall[True],
        "layers_over_untraced_wall": covered / wall[False],
        "layers_account_for_untraced_wall":
            uncovered / wall[True] <= max(overhead - 1.0, UNCOVERED_FLOOR),
    }
    stem = outdir / f"trace-{wl.name}-seed{seed}"
    tracer.write(stem.with_suffix(".jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")
    print("layer self time per traced pass: " + ", ".join(
        f"{k} {v * 1e3:.1f} ms" for k, v in summary["layer_self_s_per_pass"].items())
        + f"; uncovered {summary['uncovered_s_per_pass'] * 1e3:.1f} ms"
        + f" ({summary['uncovered_share']:.2%} of traced time)"
        + f"; layers / untraced wall = {summary['layers_over_untraced_wall']:.3f}"
        + f", overhead ratio = {overhead:.3f}"
        + "; layers account for the untraced wall time: "
        + f"{summary['layers_account_for_untraced_wall']}", file=sys.stderr)
    return {"attempted": tally.attempted, "failed": tally.failed, "reasons": tally.reasons,
            "passes": passes, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    outdir = common.OUT
    outdir.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed, outdir)
    wl.warmup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced(wl, args.seconds, args.seed, outdir)
    else:
        result = untraced(wl, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
