"""Outside-in spans around the calls into each ssls layer.

The wrappers replace names in the module that looks them up at call time
(``ssls.cli.load_csv``, ``ssls.estimator.fit_regression``, ...), so the
program itself is not changed. A span is ``{name, start, end, parent, op}``;
spans stay in memory and are written once at the end of a run. A span's
self time is its duration minus the durations of its direct children, and a
layer's self time sums that over the layer's spans, so the self times of all
layers add up to the operation's wall time.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager

# (module that looks the name up, attribute, span name). A name missing from
# its module is skipped; REQUIRED below catches a layer that then goes dark.
TARGETS = [
    ("ssls.cli", "load_csv", "data.load_csv"),
    ("ssls.cli", "make_crossfit_plan", "data.make_crossfit_plan"),
    ("ssls.cli", "repeated_ssls", "estimator.repeated_ssls"),
    ("ssls.cli", "estimate_dssls", "estimator.estimate_dssls"),
    ("ssls.cli", "crossfit_nuisance", "estimator.crossfit_nuisance"),
    ("ssls.cli", "simultaneous_cis", "inference.simultaneous_cis"),
    ("ssls.cli", "residual_series", "diagnostics.residual_series"),
    ("ssls.cli", "write_csv", "cli.write_csv"),
    ("ssls.cli", "write_json", "cli.write_json"),
    ("ssls.estimator", "make_crossfit_plan", "data.make_crossfit_plan"),
    ("ssls.estimator", "crossfit_nuisance", "estimator.crossfit_nuisance"),
    ("ssls.estimator", "estimate_ssls", "estimator.estimate_ssls"),
    ("ssls.estimator", "fit_regression", "learners.fit_regression"),
    ("ssls.estimator", "fit_propensity", "learners.fit_propensity"),
    ("ssls.estimator", "fit_kmeans", "clustering.fit_kmeans"),
    ("ssls.estimator", "gate_grouping", "clustering.gate_grouping"),
    ("ssls.learners", "linear_solve_spd", "transformed_ls.linear_solve_spd"),
    ("ssls.simulation", "draw_dgp1", "simulation.draw_dgp1"),
    ("ssls.simulation", "crossfit_nuisance", "estimator.crossfit_nuisance"),
    ("ssls.simulation", "estimate_ssls", "estimator.estimate_ssls"),
    ("ssls.simulation", "simultaneous_cis", "inference.simultaneous_cis"),
]

_CLI = ["cli.main", "cli.write_csv", "cli.write_json", "data.load_csv",
        "data.make_crossfit_plan", "estimator.crossfit_nuisance",
        "estimator.estimate_ssls", "learners.fit_regression",
        "learners.fit_propensity", "learners.predict",
        "transformed_ls.linear_solve_spd", "inference.simultaneous_cis"]

# Spans that must fire in every traced operation of a workload; a layer that
# runs there but is never seen fails the run instead of reading zero.
REQUIRED = {
    "estimate": _CLI + ["estimator.repeated_ssls", "diagnostics.residual_series"],
    "discover": _CLI + ["estimator.estimate_dssls", "clustering.fit_kmeans",
                        "clustering.gate_grouping"],
    "mc": ["simulation.run_calibration_study", "simulation.draw_dgp1",
           "data.make_crossfit_plan", "estimator.crossfit_nuisance",
           "estimator.estimate_ssls", "learners.fit_regression",
           "learners.fit_propensity", "learners.predict",
           "inference.simultaneous_cis"],
}

# (metric, unit) in output order; every one is reported on every workload,
# as 0 where its layer does not run.
METRICS = [
    ("cli.self_s", "s"),
    ("cli.write_csv.s", "s"),
    ("cli.write_csv.rows", "count"),
    ("cli.write_csv.mb", "MB"),
    ("cli.write_json.s", "s"),
    ("data.load_csv.s", "s"),
    ("data.load_csv.mb_per_s", "MB/s"),
    ("data.make_crossfit_plan.s", "s"),
    ("data.make_crossfit_plan.calls", "count"),
    ("estimator.self_s", "s"),
    ("estimator.crossfit_nuisance.s", "s"),
    ("estimator.crossfit_nuisance.calls", "count"),
    ("estimator.estimate_ssls.s", "s"),
    ("estimator.estimate_dssls.s", "s"),
    ("learners.fit_regression.s", "s"),
    ("learners.fit_regression.calls", "count"),
    ("learners.fit_propensity.s", "s"),
    ("learners.fit_propensity.calls", "count"),
    ("learners.predict.s", "s"),
    ("learners.train_rows", "count"),
    ("learners.gbm_trees", "count"),
    ("learners.logistic_nonconverged_ratio", "ratio"),
    ("transformed_ls.linear_solve_spd.calls", "count"),
    ("transformed_ls.linear_solve_spd.s", "s"),
    ("inference.simultaneous_cis.s", "s"),
    ("diagnostics.residual_series.s", "s"),
    ("diagnostics.weight_mb_computed", "MB"),
    ("clustering.fit_kmeans.s", "s"),
    ("clustering.lloyd_iters", "count"),
    ("clustering.gate_grouping.s", "s"),
    ("simulation.draw_dgp1.s", "s"),
    ("simulation.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _gbm_trees(model) -> int:
    inner = getattr(model, "inner", model)  # propensity GBMs come clipped
    return len(getattr(inner, "trees", ()))


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "op": self._op}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(span, args, result)
            return result
        return traced

    def _after_fit(self, span, args, result):
        span["train_rows"] = len(args[1])
        span["gbm_trees"] = _gbm_trees(result)
        if type(args[0]).__name__ == "LogisticSpec":
            span["logistic_nonconverged"] = int(not result.converged)
        result.predict = self.wrap("learners.predict", result.predict)

    def _hooks(self):
        def csv_written(span, args, result):
            span["rows"] = len(args[1])
            span["bytes"] = os.path.getsize(args[0])

        def csv_read(span, args, result):
            span["bytes"] = os.path.getsize(args[0])

        def kmeans(span, args, result):
            span["lloyd_iters"] = len(result.inertia_path)

        def smoother(span, args, result):
            # Computed, not measured: w and w*w are grid x n_arm float64
            # matrices in each arm.
            span["weight_bytes"] = sum(2 * rs.grid.size * rs.x.size * 8
                                       for rs in result.values())

        return {"cli.write_csv": csv_written, "data.load_csv": csv_read,
                "clustering.fit_kmeans": kmeans,
                "diagnostics.residual_series": smoother,
                "learners.fit_regression": self._after_fit,
                "learners.fit_propensity": self._after_fit}

    @contextmanager
    def installed(self):
        hooks = self._hooks()
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hooks.get(name)))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run_op(self, op_id: int, name: str, fn, *args):
        self._op = op_id
        return self.wrap(name, fn)(*args)

    def op_metrics(self, op_id: int, required: list[str]) -> dict[str, float]:
        ids = [i for i, s in enumerate(self.spans) if s["op"] == op_id]
        spans = [self.spans[i] for i in ids]
        missing = sorted(set(required) - {s["name"] for s in spans})
        if missing:
            raise RuntimeError(f"traced operation {op_id}: no span for {missing}")
        child_s = dict.fromkeys(ids, 0.0)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]

        def named(name):
            return [s for s in spans if s["name"] == name]

        def total_s(name):
            return sum(s["end"] - s["start"] for s in named(name))

        def count(name, key=None):
            group = named(name)
            return len(group) if key is None else sum(s.get(key, 0) for s in group)

        def self_s(layer):
            return sum(self.spans[i]["end"] - self.spans[i]["start"] - child_s[i]
                       for i in ids if self.spans[i]["name"].split(".", 1)[0] == layer)

        fits = named("learners.fit_regression") + named("learners.fit_propensity")
        logistic = [s["logistic_nonconverged"] for s in fits
                    if "logistic_nonconverged" in s]
        load_s = total_s("data.load_csv")
        return {
            "cli.self_s": self_s("cli"),
            "cli.write_csv.s": total_s("cli.write_csv"),
            "cli.write_csv.rows": count("cli.write_csv", "rows"),
            "cli.write_csv.mb": count("cli.write_csv", "bytes") / 1e6,
            "cli.write_json.s": total_s("cli.write_json"),
            "data.load_csv.s": load_s,
            "data.load_csv.mb_per_s": (count("data.load_csv", "bytes") / 1e6 / load_s
                                       if load_s > 0 else 0.0),
            "data.make_crossfit_plan.s": total_s("data.make_crossfit_plan"),
            "data.make_crossfit_plan.calls": count("data.make_crossfit_plan"),
            "estimator.self_s": self_s("estimator"),
            "estimator.crossfit_nuisance.s": total_s("estimator.crossfit_nuisance"),
            "estimator.crossfit_nuisance.calls": count("estimator.crossfit_nuisance"),
            "estimator.estimate_ssls.s": total_s("estimator.estimate_ssls"),
            "estimator.estimate_dssls.s": total_s("estimator.estimate_dssls"),
            "learners.fit_regression.s": total_s("learners.fit_regression"),
            "learners.fit_regression.calls": count("learners.fit_regression"),
            "learners.fit_propensity.s": total_s("learners.fit_propensity"),
            "learners.fit_propensity.calls": count("learners.fit_propensity"),
            "learners.predict.s": total_s("learners.predict"),
            "learners.train_rows": sum(s["train_rows"] for s in fits),
            "learners.gbm_trees": sum(s["gbm_trees"] for s in fits),
            "learners.logistic_nonconverged_ratio": (sum(logistic) / len(logistic)
                                                     if logistic else 0.0),
            "transformed_ls.linear_solve_spd.calls":
                count("transformed_ls.linear_solve_spd"),
            "transformed_ls.linear_solve_spd.s":
                total_s("transformed_ls.linear_solve_spd"),
            "inference.simultaneous_cis.s": total_s("inference.simultaneous_cis"),
            "diagnostics.residual_series.s": total_s("diagnostics.residual_series"),
            "diagnostics.weight_mb_computed":
                count("diagnostics.residual_series", "weight_bytes") / 1e6,
            "clustering.fit_kmeans.s": total_s("clustering.fit_kmeans"),
            "clustering.lloyd_iters": count("clustering.fit_kmeans", "lloyd_iters"),
            "clustering.gate_grouping.s": total_s("clustering.gate_grouping"),
            "simulation.draw_dgp1.s": total_s("simulation.draw_dgp1"),
            "simulation.self_s": self_s("simulation"),
        }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
