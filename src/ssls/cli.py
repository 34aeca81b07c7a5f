"""Command-line front end.

Subcommands: estimate (groupwise effects + inference on a CSV), discover
(data-driven grouping then estimation), simulate (Monte-Carlo studies),
diagnose (residual diagnostics), power (minimum group size).

Exit codes: 0 success, 2 input/config error, 3 statistical gate failure,
1 internal error. All outputs are deterministic given --seed: JSON carries
full float precision, CSV is formatted to 6 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .clustering import KMeansSpec
from .data import CrossFitPlan, csv_rows, load_csv
from .diagnostics import covariate_column, flag_regions, residual_series
from .errors import (
    ClusteringDegenerate,
    DomainError,
    GroupTooSmall,
    OneArmOnly,
    SslsError,
)
# Bound under the public name, through which perfbench/tracing.py times the
# estimator stage; it also returns the first split's nuisance fit.
from .estimator import SslsConfig, estimate_dssls
from .estimator import _repeated_runs as repeated_ssls
from .inference import Contrast, glh_test, power_min_n, simultaneous_cis
from .learners import KnownPropensity, learner_spec
from .simulation import (
    run_diagnostic_once,
    run_power_study,
    run_calibration_study,
    run_robustness_study,
)

GATE_ERRORS = (GroupTooSmall, OneArmOnly, ClusteringDegenerate)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6g}"
    return str(value)


def _quote(cell: str, alone: bool) -> str:
    """cell as csv.writer writes it (QUOTE_MINIMAL): quoted when it holds a
    comma, a double quote or a line break, or is empty and alone on its row."""
    if (alone and not cell) or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _column_format(values, alone: bool) -> tuple[str, list]:
    """A column's %-format and the values it takes: %.6g for a float array,
    %d for an integer or bool array, else the quoted _fmt strings by %s."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return "%.6g", values.tolist()
    if isinstance(values, np.ndarray) and values.dtype.kind in "biu":
        return "%d", values.tolist()
    return "%s", [_quote(_fmt(v), alone) for v in values]


def write_csv(path: Path, columns: dict) -> None:
    """Write equal-length columns headed by their names, with csv.writer's
    quoting and \\r\\n line ends, in one write; no rows, an empty file."""
    alone = len(columns) == 1
    formatted = [_column_format(v, alone) for v in columns.values()]
    cells = [values for _, values in formatted]
    with open(path, "w", newline="") as fh:
        if cells and cells[0]:
            template = ",".join(fmt for fmt, _ in formatted) + "\r\n"
            fh.write(",".join(_quote(str(name), alone) for name in columns) + "\r\n"
                     + "".join([template % row for row in zip(*cells, strict=True)]))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _propensity_column(raw: str | None) -> str | None:
    """The CSV column --propensity names; None when it is absent or a number."""
    try:
        float(raw)
    except (TypeError, ValueError):
        return raw
    return None


def _resolve_propensity(raw: str | None, column: np.ndarray | None):
    """--propensity as a KnownPropensity: the column load_csv read for it, or
    the literal constant; None when the flag is absent."""
    if column is not None:
        return KnownPropensity(column)
    return None if raw is None else KnownPropensity(float(raw))


def _load(args, need_group: bool):
    covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
    if not covariates:
        raise DomainError("--covariates must name at least one column")
    dataset, grouping, mapping, column = load_csv(
        args.data,
        outcome=args.outcome,
        treatment=args.treatment,
        covariates=covariates,
        group=args.group if need_group else None,
        propensity=_propensity_column(args.propensity),
    )
    if need_group and grouping is None:
        raise DomainError("--group is required for this subcommand")
    known = _resolve_propensity(args.propensity, column)
    return dataset, grouping, mapping, covariates, known


def _build_config(args, known: KnownPropensity | None) -> SslsConfig:
    if not 0.0 < args.alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    plan = CrossFitPlan(
        n_folds=args.folds,
        stratified=args.stratified,
        repeats=args.repeats,
        seed=args.seed,
    )
    return SslsConfig(
        regression_spec=learner_spec(args.learner_y, "outcome"),
        propensity_spec=(known if known is not None
                         else learner_spec(args.learner_e or "logistic", "propensity")),
        plan=plan,
    )


def _write_residuals(out_dir: Path, suffix: str, xcol, residuals, arm, labels,
                     series: dict) -> None:
    """Write residuals_raw{suffix}.csv, one row per observation, and
    residuals_smooth{suffix}.csv, one row per grid point of each arm."""
    write_csv(out_dir / f"residuals_raw{suffix}.csv", {
        "x": xcol, "residual": residuals, "arm": arm.astype(np.int64),
        "group": labels,
    })
    write_csv(out_dir / f"residuals_smooth{suffix}.csv", {
        "x_grid": np.concatenate([series[t].grid for t in (0, 1)]),
        "curve": np.concatenate([series[t].smooth for t in (0, 1)]),
        "arm": np.repeat([0, 1], [series[t].grid.size for t in (0, 1)]),
    })


def _residual_outputs(out_dir: Path, dataset, grouping, effects,
                      args) -> tuple[float, dict]:
    """Write the raw and smoothed residual CSVs; return the bandwidth used
    and the smoothed series."""
    xcol = covariate_column(dataset, args.diag_covariate)
    span = float(xcol.max() - xcol.min())
    bandwidth = args.bandwidth if args.bandwidth is not None else max(0.05 * span, 1e-12)
    series = residual_series(
        effects, dataset, covariate_index=args.diag_covariate,
        bandwidth=bandwidth, grid_size=args.grid_size,
    )
    _write_residuals(out_dir, "", xcol, effects.residuals, dataset.a,
                     grouping.labels, series)
    return bandwidth, series


def _load_contrast(path: str, n_groups: int) -> Contrast:
    """The --contrast file: rows of K with a trailing m0 column. A cell that
    does not parse or is not finite is named by its row and column."""
    rows = [row for row in csv_rows(path) if row]
    if not rows or any(len(row) != n_groups + 1 for row in rows):
        raise DomainError(
            f"contrast file must have {n_groups} K columns plus a trailing m0 column"
        )
    mat = np.empty((len(rows), n_groups + 1))
    for i, row in enumerate(rows):
        for j, raw in enumerate(row):
            try:
                mat[i, j] = float(raw)
            except ValueError:
                raise SslsError(f"{path}: cannot parse '{raw.strip()}' at row "
                                f"{i + 1}, column {j + 1}") from None
    if not np.isfinite(mat).all():
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise SslsError(f"{path}: non-finite value at row {i + 1}, column {j + 1}")
    return Contrast(mat[:, :-1], mat[:, -1])


def _nuisance_quality(dataset, nf) -> dict:
    """Out-of-fold fit quality of the outcome model on the first split.

    There is no pass/fail rule here; a large value warns that the residual
    diagnostics ride on a poorly fitted conditional mean.
    """
    return {
        "outcome_oof_mse": float(np.mean((dataset.y - nf.m_hat) ** 2)),
        "outcome_variance": float(np.var(dataset.y)),
        "note": "out-of-fold MSE of the fitted conditional mean on the first "
                "split; no pass/fail rule is attached",
    }


def cmd_estimate(args) -> int:
    dataset, grouping, mapping, covariates, known = _load(args, need_group=True)
    cfg = _build_config(args, known)
    contrast = (_load_contrast(args.contrast, grouping.n_groups)
                if args.contrast else None)
    effects, nf0 = repeated_ssls(dataset, grouping, cfg)
    report = simultaneous_cis(effects, alpha=args.alpha)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    payload = {
        "command": "estimate",
        "data": str(args.data),
        "columns": {
            "outcome": args.outcome,
            "treatment": args.treatment,
            "group": args.group,
            "covariates": covariates,
            "propensity": args.propensity,
        },
        "group_relabeling": {str(k): v for k, v in mapping.items()},
        "plan": {
            "n_folds": args.folds,
            "stratified": args.stratified,
            "repeats": args.repeats,
            "seed": args.seed,
            "aggregation": "componentwise-median" if args.repeats > 1 else "single-run",
            "variance_adjustment": "none",
            "note": "repeated-split medians are reported unadjusted; rerun with "
                    "another seed to gauge split-to-split stability",
        },
        "effects": effects.to_dict(),
        "inference": report.to_dict(),
        "nuisance_quality": _nuisance_quality(dataset, nf0),
    }
    if contrast is not None:
        glh = glh_test(effects, contrast, alpha=args.alpha)
        payload["contrast_test"] = {
            "statistic": glh.statistic,
            "rank": glh.rank,
            "p_value": glh.p_value,
            "critical_value": glh.critical_value,
            "reject": glh.reject,
        }
    write_json(out_dir / "report.json", payload)
    write_csv(out_dir / "groups.csv", report.csv_columns())
    _residual_outputs(out_dir, dataset, grouping, effects, args)
    print(f"wrote {out_dir}/report.json with {effects.n_groups} groups", file=sys.stderr)
    return 0


def cmd_discover(args) -> int:
    dataset, _, _, covariates, known = _load(args, need_group=False)
    cfg = _build_config(args, known)
    spec = KMeansSpec(
        n_groups=args.groups,
        seed=args.seed,
        min_group_size=args.min_group_size,
    )
    result = estimate_dssls(dataset, spec, cfg)
    report = simultaneous_cis(result.effects, alpha=args.alpha)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    write_csv(out_dir / "groups.csv", {
        "row": result.estimation_indices, "label": result.grouping.labels,
    })
    clusterer = result.clusterer
    assert clusterer is not None
    raw = clusterer.centroids * clusterer.col_scale + clusterer.col_mean
    write_csv(out_dir / "centroids.csv", {
        "label": np.arange(1, clusterer.n_groups + 1),
        **{name: raw[:, j] for j, name in enumerate(covariates)},
    })
    payload = {
        "command": "discover",
        "n_total": dataset.n,
        "n_clustering": int(len(result.clustering_indices)),
        "n_estimation": int(len(result.estimation_indices)),
        "effects": result.effects.to_dict(),
        "inference": report.to_dict(),
    }
    write_json(out_dir / "report.json", payload)
    print(f"wrote {out_dir}/report.json with {args.groups} discovered groups",
          file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.study == "calibration":
        learners = [s.strip() for s in args.learners.split(",") if s.strip()]
        sigmas_a = [float(v) for v in args.sigma_a.split(",")]
        sigmas_y = [float(v) for v in args.sigma_y.split(",")]
        grid = [(lrn, sa, sy)
                for lrn in learners
                for sa in sigmas_a
                for sy in sigmas_y]
        results = run_calibration_study(grid, reps=args.reps, n=args.n,
                                   seed=args.seed, workers=args.workers)
        rows = [(r.learner, r.sigma_a, r.sigma_y, g + 1, r.bias[g], r.ese[g],
                 r.ase[g], r.ese_ase_ratio[g], r.coverage, r.reps)
                for r in results for g in range(len(r.bias))]
        header = ("learner", "sigma_a", "sigma_y", "group", "bias", "ese", "ase",
                  "ese_ase_ratio", "coverage", "reps")
        write_csv(out_dir / "calibration.csv", dict(zip(header, zip(*rows))))
        for r in results:
            print(f"calibration {r.learner} sA={r.sigma_a} sY={r.sigma_y}: "
                  f"{r.runtime:.1f}s", file=sys.stderr)
    elif args.study == "power":
        distances = [float(v) for v in args.distances.split(",")]
        points = run_power_study(distances=distances, reps=args.reps, n=args.n,
                                 seed=args.seed, workers=args.workers)
        write_csv(out_dir / "power.csv", {
            "distance": [p.distance for p in points],
            "power": [p.rejection_rate for p in points],
            "reps": [p.reps for p in points],
        })
    elif args.study == "robustness":
        rows = [(row.n, int(row.constant_propensity), g + 1, row.bias[g],
                 row.mc_se[g], row.reps)
                for flag in (True, False)
                for row in run_robustness_study(reps=args.reps, seed=args.seed,
                                                constant_propensity=flag,
                                                workers=args.workers)
                for g in range(len(row.bias))]
        header = ("n", "constant_propensity", "group", "bias", "mc_se", "reps")
        write_csv(out_dir / "robustness.csv", dict(zip(header, zip(*rows))))
    elif args.study == "diagnostic":
        for tag, run in run_diagnostic_once(n=args.n, seed=args.seed).items():
            _write_residuals(out_dir, f"_{tag}", run.dataset.x[:, 0], run.residuals,
                             run.dataset.a, run.grouping.labels, run.series)
    else:
        raise DomainError(f"unknown study '{args.study}'")
    return 0


def cmd_diagnose(args) -> int:
    dataset, grouping, _, _, known = _load(args, need_group=True)
    cfg = _build_config(args, known)
    effects, nf0 = repeated_ssls(dataset, grouping, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bandwidth, series = _residual_outputs(out_dir, dataset, grouping, effects, args)
    flags = {
        str(arm): [[lo, hi] for lo, hi in flag_regions(rs, args.flag_multiplier)]
        for arm, rs in series.items()
    }
    write_json(out_dir / "flags.json", {
        "command": "diagnose",
        "covariate_index": args.diag_covariate,
        "bandwidth": bandwidth,
        "flag_multiplier": args.flag_multiplier,
        "flagged_regions": flags,
        "nuisance_quality": _nuisance_quality(dataset, nf0),
    })
    return 0


def cmd_power(args) -> int:
    n = power_min_n(args.ztilde, alpha=args.alpha, power=args.power)
    print(f"minimum group size: {n} "
          f"(z_tilde={args.ztilde}, alpha={args.alpha}, power={args.power})")
    return 0


def _add_common_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV path (header required)")
    p.add_argument("--outcome", required=True, help="outcome column name")
    p.add_argument("--treatment", required=True, help="0/1 treatment column name")
    p.add_argument("--covariates", required=True,
                   help="comma-separated covariate column names")
    p.add_argument("--group", help="group column name")
    p.add_argument("--propensity",
                   help="known propensity: column name or literal constant in (0,1)")
    p.add_argument("--learner-y", default="gbm",
                   help="outcome learner: ols, ridge[:lam], cart, gbm")
    p.add_argument("--learner-e", default=None,
                   help="propensity learner: logistic, cart, gbm "
                        "(ignored when --propensity is given)")
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--stratified", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="stratify fold splits by group (default on)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="ssls-out")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="residual smoother bandwidth "
                        "(default: 5%% of the covariate range)")
    p.add_argument("--grid-size", type=int, default=200)
    p.add_argument("--diag-covariate", type=int, default=0)
    p.add_argument("--flag-multiplier", type=float, default=8.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssls",
        description="Groupwise treatment effect estimation via cross-fitted "
                    "least squares",
    )
    parser.add_argument("--config", help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate groupwise effects on a CSV")
    _add_common_data_flags(p_est)
    p_est.add_argument("--contrast",
                       help="CSV of contrast rows: G columns of K then m0")
    p_est.set_defaults(fn=cmd_estimate)

    p_disc = sub.add_parser("discover", help="discover groups, then estimate")
    _add_common_data_flags(p_disc)
    p_disc.add_argument("--groups", type=int, required=True,
                        help="number of groups to discover")
    p_disc.add_argument("--min-group-size", type=int, default=None)
    p_disc.set_defaults(fn=cmd_discover)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo study")
    p_sim.add_argument("--study", required=True,
                       choices=["calibration", "power", "robustness", "diagnostic"])
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--n", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--learners", default="oracle",
                       help="comma-separated learners for calibration")
    p_sim.add_argument("--sigma-a", default="0,1",
                       help="comma-separated treatment random-effect scales (calibration study)")
    p_sim.add_argument("--sigma-y", default="0",
                       help="comma-separated outcome random-effect scales (calibration study)")
    p_sim.add_argument("--distances", default="0,0.4,0.8,1.2,1.6,2.0",
                       help="comma-separated distances for the power study")
    p_sim.add_argument("--out-dir", default="ssls-out")
    p_sim.set_defaults(fn=cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="residual diagnostics on a CSV")
    _add_common_data_flags(p_diag)
    p_diag.set_defaults(fn=cmd_diagnose)

    p_pow = sub.add_parser("power", help="minimum group size for a target power")
    p_pow.add_argument("--ztilde", type=float, required=True,
                       help="standardized effect size, must be > 0")
    p_pow.add_argument("--alpha", type=float, default=0.05)
    p_pow.add_argument("--power", type=float, default=0.8)
    p_pow.set_defaults(fn=cmd_power)
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Flags beat the JSON config file, which beats built-in defaults: the
    file's values go in as flags just after the subcommand, so that every
    explicit flag, in any spelling, comes later and overrides them."""
    top = argparse.ArgumentParser(prog="ssls", add_help=False)
    top.add_argument("--config")
    top.add_argument("rest", nargs=argparse.REMAINDER)
    parsed, other = top.parse_known_args(argv)
    if parsed.config is None:
        return argv
    with open(parsed.config) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise DomainError(f"{parsed.config}: a config file must hold a JSON object, "
                          f"not {type(values).__name__}")
    extra: list[str] = []
    for key, value in values.items():
        flag = key.replace("_", "-")
        if isinstance(value, bool):
            extra.append(f"--{flag}" if value else f"--no-{flag}")
        else:
            extra += [f"--{flag}", str(value)]
    return other + parsed.rest[:1] + extra + parsed.rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        return args.fn(args)
    except GATE_ERRORS as err:
        print(f"gate failure: {err}", file=sys.stderr)
        return 3
    except (SslsError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # pragma: no cover - internal failure
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
