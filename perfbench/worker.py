"""One workload in one fresh process: a discarded warm-up operation, then a
closed loop of operations (one client, one operation at a time) until the
measuring window is over, each followed by its output check.

Run by run.py, which passes the inputs it generated in --workdir; the
result goes to <workdir>/result.json and, when traced, the spans to
<workdir>/spans.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import dgp
import tracing

MC_CELLS = [("gbm", 0.0, 0.0), ("gbm", 1.0, 0.0)]
MC_REPS = 8
MC_N = 1000
MIN_GROUP = 32  # power_min_n(0.5), the discover gate's default minimum
SMOOTH_ROWS = 400  # two arms x the default grid of 200
# Folds and k-means restarts use this fixed ssls seed so that the work does
# not depend on the workload seed; the workload seed draws the outcomes.
SSLS_SEED = "0"


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def data_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


class CliWorkload:
    """ssls.cli.main on the CSV in the work directory, checked from its files."""

    op_name = "cli.main"

    def __init__(self, name: str, workdir: Path):
        self.kind = name.split("-", 1)[0]
        self.n = data_rows(workdir / "input.csv")
        self.out = workdir / "out"
        argv = [self.kind, "--data", str(workdir / "input.csv"),
                "--outcome", "y", "--treatment", "a",
                "--covariates", ",".join(dgp.COVARIATES),
                "--folds", "2", "--repeats", "1", "--seed", SSLS_SEED,
                "--out-dir", str(self.out)]
        if name == "estimate-gbm-1e4":
            argv += ["--group", "g"]  # --learner-y defaults to gbm
        elif self.kind == "estimate":
            argv += ["--group", "g", "--learner-y", "ols"]
        else:
            argv += ["--groups", "4", "--learner-y", "ols"]
        self.argv = argv
        self.warm_argv = argv
        if self.n >= 100_000:
            # One operation takes 10-15 s here, too long to repeat within the
            # run's time budget. This warm-up loads the same CSV through the
            # same CLI and writers, with a constant known propensity, an ols
            # outcome and a 2-point smoothing grid, in about 2 s. Its peak
            # memory stays below that of the workload's own operations.
            self.warm_argv = ["estimate", *argv[1:argv.index("--out-dir")],
                              "--out-dir", str(workdir / "warm-up"), "--group", "g",
                              "--learner-y", "ols", "--propensity", "0.5",
                              "--grid-size", "2"]
        self.reps_per_op = 1
        self.first: dict[str, bytes] | None = None
        import ssls.cli
        self.cli = ssls.cli

    def run(self, argv=None):
        # The CLI reports progress on stderr; keep it out of the result.
        with contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main(argv or self.argv)

    def warm_up(self) -> None:
        rc = self.run(self.warm_argv)
        expect(rc == 0, f"warm-up exit code {rc}")

    def check(self, rc) -> None:
        expect(rc == 0, f"exit code {rc}")
        report = json.loads((self.out / "report.json").read_text())
        groups = report["effects"]["groups"]
        expect(len(groups) == 4, f"{len(groups)} groups")
        for g in groups:
            expect(math.isfinite(g["tau_hat"]), f"group {g['g']}: tau_hat not finite")
            expect(g["se"] > 0, f"group {g['g']}: se <= 0")
        if self.kind == "estimate":
            label_of = report["group_relabeling"]
            for value, label in label_of.items():
                g = groups[label - 1]
                tau = dgp.TAU[int(value) - 1]
                expect(abs(g["tau_hat"] - tau) <= 5 * g["se"],
                       f"group {value}: |{g['tau_hat']} - {tau}| > 5 se ({g['se']})")
            expect(data_rows(self.out / "residuals_raw.csv") == self.n,
                   "residuals_raw.csv row count")
            expect(data_rows(self.out / "residuals_smooth.csv") == SMOOTH_ROWS,
                   "residuals_smooth.csv row count")
            files = ["report.json"]
        else:
            n_est = report["n_estimation"]
            expect(report["n_clustering"] + n_est == self.n,
                   "n_clustering + n_estimation != n")
            expect(all(g["n_g"] >= MIN_GROUP for g in groups), "a group below 32 rows")
            expect(data_rows(self.out / "groups.csv") == n_est, "groups.csv row count")
            files = ["report.json", "groups.csv", "centroids.csv"]
        outputs = {f: (self.out / f).read_bytes() for f in files}
        if self.first is None:
            self.first = outputs
        expect(outputs == self.first, "output differs from the run's first operation")


class McWorkload:
    """run_calibration_study on criterion 03's cells, checked from its result."""

    op_name = "simulation.run_calibration_study"

    def __init__(self, seed: int):
        from ssls.simulation import run_calibration_study
        self.study = run_calibration_study
        self.seed = seed
        self.reps_per_op = MC_REPS * len(MC_CELLS)
        self.first = None

    def run(self):
        return self.study(MC_CELLS, reps=MC_REPS, n=MC_N, seed=self.seed, workers=1)

    def warm_up(self) -> None:
        self.check(self.run())

    def check(self, results) -> None:
        expect(len(results) == len(MC_CELLS), "one result per cell")
        for r in results:
            for name in ("bias", "ese", "ase"):
                expect(np.all(np.isfinite(getattr(r, name))), f"{name} not finite")
            expect(np.all(r.ase > 0), "ase <= 0")
            # ESE from 8 replicates is itself noisy (7 degrees of freedom);
            # the larger of ESE and ASE keeps a 5-sigma check from failing by
            # chance on about 1% of seeds.
            scale = np.maximum(r.ese, r.ase) / math.sqrt(r.reps)
            expect(np.all(np.abs(r.bias) <= 5 * scale),
                   f"{r.learner} sigma_a={r.sigma_a}: bias {r.bias} beyond 5 se")
        summary = [(r.bias.tolist(), r.ese.tolist(), r.ase.tolist(), r.coverage)
                   for r in results]
        if self.first is None:
            self.first = summary
        expect(summary == self.first, "same seed gave a different result")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--deadline", type=float, required=True,
                    help="seconds after which no new operation starts")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    started = time.perf_counter()
    workdir = Path(args.workdir)
    if args.workload.startswith("mc"):
        wl = McWorkload(args.seed)
        required = tracing.REQUIRED["mc"]
    else:
        wl = CliWorkload(args.workload, workdir)
        required = tracing.REQUIRED[wl.kind]
    tracer = tracing.Tracer()
    attempted = failed = 0
    errors: list[str] = []

    def attempt(op_id: int, traced: bool):
        nonlocal attempted, failed
        attempted += 1
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                if traced:
                    out = tracer.run_op(op_id, wl.op_name, wl.run)
                else:
                    out = wl.run()
                elapsed = time.perf_counter() - t0
            wl.check(out)
        except Exception as err:  # a failed operation is counted, not fatal
            failed += 1
            errors.append(f"op {op_id}: {type(err).__name__}: {err}")
            return None
        return elapsed

    attempted += 1
    try:
        wl.warm_up()  # not timed
    except Exception as err:
        failed += 1
        errors.append(f"warm-up: {type(err).__name__}: {err}")
    untraced: list[float] = []
    traced: list[tuple[int, float]] = []
    window = time.perf_counter()
    op_id = 0
    last = 0.0
    # At least two timed operations, so that a traced run has one of each.
    while (time.perf_counter() - window < args.seconds
           or len(untraced) + len(traced) < 2 and not failed):
        if time.perf_counter() - started + last > args.deadline:
            break
        op_id += 1
        use_trace = bool(args.trace) and op_id % 2 == 0
        t = attempt(op_id, use_trace)
        if t is None:
            continue
        last = t
        if use_trace:
            traced.append((op_id, t))
        else:
            untraced.append(t)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "wall_s": untraced,
        "reps_per_op": wl.reps_per_op,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
    }
    if args.trace:
        per_op = [tracer.op_metrics(i, required) for i, _ in traced]
        layers = tracing.median_metrics(per_op) if per_op else {}
        if untraced and traced:
            layers["trace.overhead_ratio"] = (
                statistics.median(t for _, t in traced) / statistics.median(untraced)
                - 1.0)
        result["layers"] = layers
        result["traced_wall_s"] = [t for _, t in traced]
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
