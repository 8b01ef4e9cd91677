"""logndiv benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it uses the package under src/ of that
checkout and nothing installed. Workloads (each one closed-loop client
issuing one op at a time):

  cli_cold          each op is a fresh `python -m logndiv.cli` process running
                    one closed-form command (figure fig4..fig7, verify, ...)
  closed_form_deep  SC/EGC/MRC log10 curves to 300 dB and sum-CDF curves, in
                    one warmed process
  mc_sweep          presets.figure_curves("fig4" | "fig6", samples=N)

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run. Any
failed op (nonzero exit, exception or failed output check) makes "correct"
false and the exit code 1. Run details go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import statistics
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import common

CHILD_TIMEOUT = 170.0      # seconds; no single child may take longer
SETUP_SAMPLES = 5          # set-up is measured this many times per run, half
                           # before and half after the timed passes, so that
                           # the median spans more of the machine's speed drift
IMPORTTIME_SAMPLES = 3


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    that is not a repository has none."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def run_record(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "git_revision": _git_revision(), "loadavg_start": list(os.getloadavg()),
        "started_unix": time.time(),
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def run_timed(cmd: list[str], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run a child to completion; returns (wall seconds, exit code, peak RSS
    in MB of that child alone)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=common.child_env(), cwd=common.ROOT,
                            stdout=stdout, stderr=stderr)
    killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def start_worker(args, setup_only: bool):
    """Start worker.py; returns (seconds until it printed READY, process)."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=common.child_env(), cwd=common.ROOT,
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    killer.start()
    proc.killer = killer
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish_worker(proc)
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return ready, proc


def finish_worker(proc) -> str:
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        proc.killer.cancel()
        proc.stdout.close()
    return rest


def prime() -> None:
    """One untimed CLI invocation while the package has no bytecode cache
    yet, so that the caches exist before anything is timed."""
    if (common.SRC / "logndiv" / "__pycache__").is_dir():
        return
    out = common.OUT / "prime.csv"
    _, code, _ = run_timed([sys.executable, "-m", "logndiv.cli", "figure", "fig4",
                            "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"untimed CLI invocation failed with exit code {code}")


# ---------------------------------------------------------------------------
# Import breakdown (-X importtime)
# ---------------------------------------------------------------------------

def parse_importtime(text: str) -> dict[str, float]:
    """import.* metrics (ms) from `python -X importtime -c "import logndiv.cli"`.

    The total is the cumulative time of the top-level logndiv imports; each
    package's share is the self time of its own modules, so the shares are
    disjoint."""
    total = 0
    own = {"numpy": 0, "scipy": 0, "logndiv": 0}
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        package = name.strip().split(".", 1)[0]
        if package in own:
            own[package] += int(fields[0])
        if package == "logndiv" and not name.startswith("  "):
            total += int(fields[1])
    return {"import.total_ms": total / 1e3, "import.numpy_ms": own["numpy"] / 1e3,
            "import.scipy_ms": own["scipy"] / 1e3, "import.logndiv_self_ms": own["logndiv"] / 1e3}


def import_breakdown() -> dict[str, float]:
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        r = subprocess.run([sys.executable, "-X", "importtime", "-c", "import logndiv.cli"],
                           env=common.child_env(), cwd=common.ROOT, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT)
        if r.returncode != 0:
            raise RuntimeError(f"importtime probe failed: {r.stderr[-500:]}")
        samples.append(parse_importtime(r.stderr))
    return {k: statistics.median([s[k] for s in samples]) for k in samples[0]}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def cli_cold(args) -> dict:
    """Each op is a fresh CLI process. At least two passes run, so that every
    command has a byte-identical twin from an identical invocation."""
    def setup_samples(n):
        return [run_timed([sys.executable, "-c", "import logndiv.cli"])[0] for _ in range(n)]

    setups = setup_samples(SETUP_SAMPLES // 2)
    commands = common.cli_commands(args.seed)
    p_tail = common.TAIL_P["cli_cold"]
    min_passes = max(2, -(-common.min_ops(p_tail) // len(commands)))
    walls, pass_lats, rss, runs = [], [], [], []
    start = time.perf_counter()
    p = 0
    while p < min_passes or time.perf_counter() - start < args.seconds:
        pdir = common.OUT / "cli" / f"pass{p}"
        shutil.rmtree(pdir, ignore_errors=True)   # no file of an earlier run may pass
        pdir.mkdir(parents=True)
        t_pass = time.perf_counter()
        lats = []
        for name, argv, fname in commands:
            with open(pdir / f"{name}.err", "wb") as err:
                wall, code, peak = run_timed(
                    [sys.executable, "-m", "logndiv.cli", *argv, "--out", str(pdir / fname)],
                    stderr=err)
            lats.append(wall)
            rss.append(peak)
            runs.append((name, fname, p, code))
        walls.append(time.perf_counter() - t_pass)
        pass_lats.append(lats)
        p += 1
    setups += setup_samples(SETUP_SAMPLES - len(setups))

    # Checks run after timing; they import the package into this process.
    sys.path.insert(0, str(common.SRC))
    import workloads
    failed, reasons = 0, []
    for name, fname, p_i, code in runs:
        path = common.OUT / "cli" / f"pass{p_i}" / fname
        first = common.OUT / "cli" / "pass0" / fname
        if code != 0:
            reason = f"exit code {code}"
        elif not path.is_file():
            reason = "no output file"
        elif first.is_file() and path.read_bytes() != first.read_bytes():
            reason = "bytes differ from the identical invocation of pass 0"
        else:
            reason = workloads.check_cli_output(name, path)
        if reason:
            failed += 1
            reasons.append(f"{name} (pass {p_i}): {reason}")
    metrics = {
        "setup_s": statistics.median(setups),
        **common.pass_metrics(walls, pass_lats, p_tail),
        "peak_rss_mb": max(rss),
    }
    return {"attempted": len(runs), "failed": failed, "reasons": reasons[:5],
            "passes": p, "metrics": metrics}


def in_process(args) -> dict:
    """Set-up samples from fresh workers that stop once ready, before and
    after one worker that also runs the timed passes."""
    def setup_samples(n):
        out = []
        for _ in range(n):
            ready, proc = start_worker(args, setup_only=True)
            finish_worker(proc)
            out.append(ready)
        return out

    setups = setup_samples(SETUP_SAMPLES // 2)
    ready, proc = start_worker(args, setup_only=False)
    setups.append(ready)
    out = finish_worker(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    setups += setup_samples(SETUP_SAMPLES - len(setups))
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def traced_run(args) -> dict:
    _, proc = start_worker(args, setup_only=False)
    out = finish_worker(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"traced worker failed with exit code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"].update(import_breakdown())
    return result


# ---------------------------------------------------------------------------

def check_declared_metrics() -> None:
    """BENCHMARK.json, when present, must declare exactly the metrics and
    units this benchmark prints."""
    path = common.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    for key, ours in (("end_to_end", common.END_TO_END), ("per_layer", common.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != ours:
            raise RuntimeError(f"BENCHMARK.json {key} differs from perfbench/common.py: "
                               f"{sorted(set(declared.items()) ^ set(ours.items()))}")


def main() -> int:
    ap = argparse.ArgumentParser(description="logndiv benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    common.require_source()
    check_declared_metrics()
    common.OUT.mkdir(exist_ok=True)

    record = run_record(args)
    print(json.dumps({"run_record": record}), flush=True)
    prime()
    if args.trace:
        result = traced_run(args)
        names = common.PER_LAYER
    elif args.workload == "cli_cold":
        result = cli_cold(args)
        names = common.END_TO_END
    else:
        result = in_process(args)
        names = common.END_TO_END

    if set(result["metrics"]) != set(names):
        raise RuntimeError(f"metric set mismatch: {sorted(set(result['metrics']) ^ set(names))}")
    for reason in result["reasons"]:
        print(f"failed op: {reason}", file=sys.stderr)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": names[k]} for k in names},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (common.OUT / name).write_text(json.dumps(
        {"run_record": record, "passes": result["passes"], "result": line}, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
