"""The ssls benchmark: four workloads, end-to-end metrics, outside-in spans.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/ssls. Each workload runs
in a fresh worker process (perfbench/worker.py) so that its peak memory is
its own. With --trace 0 the last line of stdout is a JSON object whose
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
the per-layer ones. --workload all runs the four in turn and prefixes each
metric with its workload's name. NOTES.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Workload name -> rows of its generated CSV (mc generates no CSV).
WORKLOADS = {"estimate-ols-1e5": 100_000, "estimate-gbm-1e4": 10_000,
             "discover-ols-1e5": 100_000, "mc-calibration-gbm": 0}
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"]
SETUP_RUNS = 5
BUDGET_S = 175.0  # one invocation must end within 180 s
SETUP_CODE = ("import time; t = time.perf_counter(); import ssls.cli; "
              "ssls.cli.build_parser(); print(time.perf_counter() - t)")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict[str, str]:
    """Thread pools capped at nproc; ssls imported from this checkout's src."""
    env = dict(os.environ)
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = cap + 1
        env[var] = str(min(max(current, 1), cap))
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env) -> float:
    """Median over fresh interpreters of `import ssls.cli; build_parser()`;
    one more run first compiles the bytecode and is discarded."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def highest_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return "none (fewer than 11 samples)"
    p = 100 * (n - 10) // n
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f"p{p} = {value:.4f} s"


def run_workload(name: str, seed: int, seconds: int, trace: int, env,
                 started: float) -> dict:
    import dgp  # after the thread caps: it imports numpy

    workdir = ROOT / ".perfbench" / name
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    for stale in ("result.json", "spans.json"):
        (workdir / stale).unlink(missing_ok=True)
    if WORKLOADS[name]:
        dgp.write_csv(workdir / "input.csv", dgp.draw(WORKLOADS[name], seed))
    setup_s = None if trace else measure_setup(env)
    left = BUDGET_S - (time.perf_counter() - started)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--deadline", str(max(left - 30.0, 1.0)), "--workdir", str(workdir)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(left, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{name}: worker exited with code {proc.returncode}")
    result = json.loads((workdir / "result.json").read_text())
    result["setup_s"] = setup_s
    return result


def end_to_end(r: dict) -> dict[str, tuple[float, str]]:
    wall = r["wall_s"]
    return {
        "setup_s": (r["setup_s"], "s"),
        "wall_s": (statistics.median(wall), "s"),
        "reps_per_s": (r["reps_per_op"] * len(wall) / sum(wall), "1/s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }


def per_layer(r: dict) -> dict[str, tuple[float, str]]:
    return {name: (r["layers"].get(name, 0.0), unit) for name, unit in tracing.METRICS}


def summarize(r: dict, trace: int) -> list[str]:
    lines = [f"{r['workload']} seed={r['seed']}: failed_ratio = {r['failed']}/"
             f"{r['attempted']} = {r['failed'] / max(r['attempted'], 1):.4g}"]
    lines += [f"  error: {e}" for e in r["errors"]]
    if r["wall_s"]:
        lines.append(f"  wall_s samples = {len(r['wall_s'])}, highest percentile: "
                     f"{highest_percentile(r['wall_s'])}")
    if trace and r.get("traced_wall_s"):
        lines.append(f"  traced operations = {len(r['traced_wall_s'])}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.perf_counter()
    if not (SRC / "ssls" / "__init__.py").is_file():
        print(f"error: no ssls sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    os.environ.update({var: env[var] for var in THREAD_VARS})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        run_started = started if len(names) == 1 else time.perf_counter()
        r = run_workload(name, args.seed, args.seconds, args.trace, env, run_started)
        attempted += r["attempted"]
        failed += r["failed"]
        for line in summarize(r, args.trace):
            print(line)
        prefix = "" if len(names) == 1 else name + "."
        ok = r["wall_s"] and (not args.trace or r.get("layers"))
        values = (per_layer(r) if args.trace else end_to_end(r)) if ok else {}
        for metric, (value, unit) in values.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
            print(f"  {metric} = {value:.6g} {unit}")
        env_record = {"nproc": nproc(), "python": platform.python_version(),
                      "numpy": r["numpy"], **{v: env[v] for v in THREAD_VARS}}
    print("env: " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
