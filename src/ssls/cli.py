"""Command-line front end.

Subcommands: estimate, also named diagnose (groupwise effects, inference and
residual diagnostics on a CSV), discover (data-driven grouping then
estimation), simulate (Monte-Carlo studies), power (minimum group size).

Exit codes: 0 success, 2 input/config error, 3 statistical gate failure,
1 internal error. All outputs are deterministic given --seed: JSON carries
full float precision, CSV is formatted to 6 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from pathlib import Path

import numpy as np

from .clustering import KMeansSpec
from .data import CrossFitPlan, csv_rows, load_csv, parse_number
from .diagnostics import (
    check_covariate_index,
    check_sd_multiplier,
    check_smoother,
    covariate_column,
    flag_regions,
    residual_series,
)
from .errors import (
    ClusteringDegenerate,
    DomainError,
    GroupTooSmall,
    OneArmOnly,
    SslsError,
)
from .estimator import SslsConfig, estimate_dssls, repeated_ssls
from .inference import Contrast, check_alpha, glh_test, power_min_n, simultaneous_cis
from .learners import KnownPropensity, learner_spec
from .simulation import (
    run_diagnostic_once,
    run_power_study,
    run_calibration_study,
    run_robustness_study,
)

GATE_ERRORS = (GroupTooSmall, OneArmOnly, ClusteringDegenerate)
SCHEMA = 1  # report.json's layout; one up whenever a field is renamed or removed


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


def per_row(columns: dict) -> list[dict]:
    """One {name: cell} dict per row of equal-length columns; each cell is
    the Python int, float or bool that numpy's tolist gives."""
    return [dict(zip(columns, row))
            for row in zip(*(np.asarray(v).tolist() for v in columns.values()))]


def write_json(path: Path, payload: dict) -> None:
    """payload as indented JSON, its keys in the order they were inserted."""
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _propensity_column(raw: str | None) -> str | None:
    """The CSV column --propensity names; None when it is absent or a number."""
    try:
        float(raw)
    except (TypeError, ValueError):
        return raw
    return None


def _load(args, estimate: bool):
    """Check every setting, then read the CSV: the dataset, the grouping, its
    relabeling, the covariate names and the SslsConfig. Of the settings only
    a known propensity column waits for the data, so a bad setting fails
    before the file is read. Only estimate takes --group and smoother settings."""
    covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
    if not covariates:
        raise DomainError("--covariates must name at least one column")
    check_alpha(args.alpha)
    regression = learner_spec(args.learner_y, "outcome")
    column = _propensity_column(args.propensity)
    if args.propensity is None:
        propensity = learner_spec(args.learner_e or "logistic", "propensity")
    elif column is None:
        propensity = KnownPropensity(float(args.propensity))
    plan = CrossFitPlan(args.n_folds, args.stratified, args.repeats, args.seed)
    if estimate:
        check_covariate_index(args.diag_covariate, len(covariates))
        check_smoother(args.bandwidth, args.grid_size)
        check_sd_multiplier(args.flag_multiplier)
    dataset, grouping, mapping, values = load_csv(
        args.data,
        outcome=args.outcome,
        treatment=args.treatment,
        covariates=covariates,
        group=args.group,
        propensity=column,
    )
    if column is not None:
        propensity = KnownPropensity(values)
    return dataset, grouping, mapping, covariates, SslsConfig(regression, propensity, plan)


def _residual_tables(suffix: str, xcol, residuals, arm, labels, series: dict) -> dict:
    """residuals_raw{suffix}.csv, one row per observation, and
    residuals_smooth{suffix}.csv, one row per grid point of each arm, as
    {file name: columns}."""
    return {
        f"residuals_raw{suffix}.csv": {"x": xcol, "residual": residuals,
                                       "arm": arm.astype(np.int64), "group": labels},
        f"residuals_smooth{suffix}.csv": {
            "x_grid": np.concatenate([series[t].grid for t in (0, 1)]),
            "curve": np.concatenate([series[t].smooth for t in (0, 1)]),
            "arm": np.repeat([0, 1], [series[t].grid.size for t in (0, 1)]),
        },
    }


def _float_list(flag: str, text: str) -> list[float]:
    """The comma-separated numbers of a simulate list flag; a DomainError
    names the flag, its value and the first item that is not a number."""
    try:
        return [float(item) for item in text.split(",")]
    except ValueError as err:
        raise DomainError(f"{flag} {text!r}: {err}") from None


def _load_contrast(path: str, n_groups: int) -> Contrast:
    """The --contrast file: rows of K with a trailing m0 column, each cell read
    by parse_number. A cell that does not parse or is not finite is named by
    its row and column, and the file line the row starts on."""
    numbered = [record for record in csv_rows(path) if record[1]]
    lines, rows = [line for line, _ in numbered], [row for _, row in numbered]
    if not rows or any(len(row) != n_groups + 1 for row in rows):
        raise DomainError(
            f"contrast file must have {n_groups} K columns plus a trailing m0 column"
        )
    mat = np.empty((len(rows), n_groups + 1))
    for i, row in enumerate(rows):
        for j, raw in enumerate(row):
            try:
                mat[i, j] = parse_number(raw)
            except ValueError:
                raise SslsError(f"{path}: cannot parse '{raw.strip()}' at row "
                                f"{i + 1}, column {j + 1} (line {lines[i]})") from None
    if not np.isfinite(mat).all():
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise SslsError(f"{path}: non-finite value at row {i + 1}, column {j + 1} "
                        f"(line {lines[i]})")
    return Contrast(mat[:, :-1], mat[:, -1])


def _nuisance_quality(y, nf) -> dict:
    """Out-of-fold fit quality of the outcome model on the first split.

    There is no pass/fail rule here; a large value warns that the residual
    diagnostics ride on a poorly fitted conditional mean.
    """
    return {
        "outcome_oof_mse": float(np.mean((y - nf.m_hat) ** 2)),
        "outcome_variance": float(np.var(y)),
        "note": "out-of-fold MSE of the fitted conditional mean on the first "
                "split; no pass/fail rule is attached",
    }


def _report(args, covariates, inference, y, nf, **extra) -> dict:
    """report.json of estimate and discover: the blocks both commands write,
    then the command's own. y is the outcome of the rows estimated on, and
    nf their first split's nuisance fit."""
    residuals = inference.effects.residuals
    return {
        "schema": SCHEMA,
        "command": args.command,
        "data": str(args.data),
        "columns": {
            "outcome": args.outcome,
            "treatment": args.treatment,
            "group": args.group,
            "covariates": covariates,
            "propensity": args.propensity,
        },
        "plan": {
            "n_folds": args.n_folds,
            "stratified": args.stratified,
            "repeats": args.repeats,
            "seed": args.seed,
            "aggregation": "componentwise-median" if args.repeats > 1 else "single-run",
            "variance_adjustment": "none",
            "note": "repeated-split medians are reported unadjusted; rerun with "
                    "another seed to gauge split-to-split stability",
        },
        "effects": {
            "n_effective": int(inference.effects.n_effective),
            "alpha": inference.alpha,
            "z_crit": inference.z_crit,
            "q_crit": inference.q_crit,
            "groups": per_row(inference.table),
            "residual_summary": {"mean": float(np.mean(residuals)),
                                 "sd": float(np.std(residuals)),
                                 "min": float(np.min(residuals)),
                                 "max": float(np.max(residuals))},
        },
        "nuisance_quality": _nuisance_quality(y, nf),
        **extra,
    }


def cmd_estimate(args) -> int:
    """estimate, also run as diagnose: one cross-fitted run, then report.json
    with its diagnostics block, groups.csv and the residual CSVs, all
    computed before the first is written."""
    dataset, grouping, mapping, covariates, cfg = _load(args, estimate=True)
    contrast = (_load_contrast(args.contrast, grouping.n_groups)
                if args.contrast else None)
    effects, nf0 = repeated_ssls(dataset, grouping, cfg)
    report = simultaneous_cis(effects, alpha=args.alpha)
    xcol = covariate_column(dataset, args.diag_covariate)
    span = float(xcol.max() - xcol.min())
    bandwidth = args.bandwidth if args.bandwidth is not None else max(0.05 * span, 1e-12)
    series = residual_series(effects, dataset, covariate_index=args.diag_covariate,
                             bandwidth=bandwidth, grid_size=args.grid_size)
    extra = {"group_relabeling": {str(k): v for k, v in mapping.items()}}
    if contrast is not None:
        glh = glh_test(effects, contrast, alpha=args.alpha)
        extra["contrast_test"] = {name: getattr(glh, name) for name in
                                  ("statistic", "rank", "p_value", "critical_value", "reject")}
    extra["diagnostics"] = {
        "covariate_index": args.diag_covariate,
        "bandwidth": bandwidth,
        "flag_multiplier": args.flag_multiplier,
        "flagged_regions": {
            str(arm): [[lo, hi] for lo, hi in flag_regions(rs, args.flag_multiplier)]
            for arm, rs in series.items()
        },
        "nan_grid_points": {str(arm): int(np.isnan(rs.smooth).sum())
                            for arm, rs in series.items()},
    }
    payload = _report(args, covariates, report, dataset.y, nf0, **extra)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "report.json", payload)
    write_csv(out_dir / "groups.csv", report.table)
    for name, columns in _residual_tables("", xcol, effects.residuals, dataset.a,
                                          grouping.labels, series).items():
        write_csv(out_dir / name, columns)
    print(f"wrote {out_dir}/report.json with {effects.n_groups} groups", file=sys.stderr)
    return 0


def cmd_discover(args) -> int:
    spec = KMeansSpec(
        n_groups=args.groups,
        seed=args.seed,
        min_group_size=args.min_group_size,
    )
    dataset, _, _, covariates, cfg = _load(args, estimate=False)
    result = estimate_dssls(dataset, spec, cfg)
    est_idx = result.estimation_indices
    # estimate_dssls fits k-means, and so sets clusterer, whenever its
    # cluster_spec is not callable; a KMeansSpec is not.
    clusterer = result.clusterer
    converged = clusterer.restart_converged
    payload = _report(args, covariates, simultaneous_cis(result.effects, alpha=args.alpha),
                      dataset.y[est_idx], result.nuisance,
                      n_total=dataset.n,
                      n_clustering=int(len(result.clustering_indices)),
                      n_estimation=int(len(est_idx)),
                      clustering={
                          "n_restarts": len(converged),
                          "restart": clusterer.restart,
                          "lloyd_iterations": len(clusterer.inertia_path),
                          "converged": converged[clusterer.restart],
                          "inertia": clusterer.inertia,
                          "max_iter": spec.max_iter,
                          "restarts_at_max_iter": converged.count(False),
                      })
    raw = clusterer.centroids * clusterer.col_scale + clusterer.col_mean

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "groups.csv", {"row": est_idx, "label": result.grouping.labels})
    write_csv(out_dir / "centroids.csv", {
        "label": np.arange(1, clusterer.n_groups + 1),
        **{name: raw[:, j] for j, name in enumerate(covariates)},
    })
    write_json(out_dir / "report.json", payload)
    print(f"wrote {out_dir}/report.json with {args.groups} discovered groups",
          file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    """Run one study, then write its CSVs, so that a bad setting writes nothing."""
    if args.study == "calibration":
        learners = [s.strip() for s in args.learners.split(",") if s.strip()]
        if not learners:
            raise DomainError("--learners must name at least one learner")
        sigmas = [_float_list(flag, text) for flag, text in
                  (("--sigma-a", args.sigma_a), ("--sigma-y", args.sigma_y))]
        results = run_calibration_study(list(product(learners, *sigmas)),
                                        reps=args.reps, n=args.n, seed=args.seed,
                                        workers=args.workers)
        rows = [(r.learner, r.sigma_a, r.sigma_y, g + 1, r.bias[g], r.ese[g],
                 r.ase[g], r.ese_ase_ratio[g], r.coverage, r.reps)
                for r in results for g in range(len(r.bias))]
        header = ("learner", "sigma_a", "sigma_y", "group", "bias", "ese", "ase",
                  "ese_ase_ratio", "coverage", "reps")
        tables = {"calibration.csv": dict(zip(header, zip(*rows)))}
        for r in results:
            print(f"calibration {r.learner} sA={r.sigma_a} sY={r.sigma_y}: "
                  f"{r.runtime:.1f}s", file=sys.stderr)
    elif args.study == "power":
        distances = _float_list("--distances", args.distances)
        points = run_power_study(distances=distances, reps=args.reps, n=args.n,
                                 seed=args.seed, workers=args.workers)
        tables = {"power.csv": {
            "distance": [p.distance for p in points],
            "power": [p.rejection_rate for p in points],
            "reps": [p.reps for p in points],
        }}
    elif args.study == "robustness":
        rows = [(row.n, int(row.constant_propensity), g + 1, row.bias[g],
                 row.mc_se[g], row.reps)
                for flag in (True, False)
                for row in run_robustness_study(reps=args.reps, seed=args.seed,
                                                constant_propensity=flag,
                                                workers=args.workers)
                for g in range(len(row.bias))]
        header = ("n", "constant_propensity", "group", "bias", "mc_se", "reps")
        tables = {"robustness.csv": dict(zip(header, zip(*rows)))}
    else:  # diagnostic, the last of the parser's choices
        tables = {}
        for tag, run in run_diagnostic_once(n=args.n, seed=args.seed).items():
            tables.update(_residual_tables(f"_{tag}", run.dataset.x[:, 0], run.residuals,
                                           run.dataset.a, run.grouping.labels,
                                           run.series))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, columns in tables.items():
        write_csv(out_dir / name, columns)
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
    p.add_argument("--propensity",
                   help="known propensity: column name or literal constant in (0,1)")
    p.add_argument("--learner-y", default="gbm",
                   help="outcome learner: ols, ridge[:lam], cart, gbm")
    p.add_argument("--learner-e", default=None,
                   help="propensity learner: logistic, cart, gbm "
                        "(ignored when --propensity is given)")
    p.add_argument("--folds", type=int, default=2, dest="n_folds")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--stratified", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="stratify fold splits by group (default on)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="ssls-out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssls",
        description="Groupwise treatment effect estimation via cross-fitted "
                    "least squares",
    )
    parser.add_argument("--config", help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", aliases=["diagnose"],
                           help="estimate groupwise effects on a CSV, with "
                                "residual diagnostics (diagnose is another name)")
    _add_common_data_flags(p_est)
    p_est.add_argument("--group", required=True, help="group column name")
    p_est.add_argument("--contrast",
                       help="CSV of contrast rows: G columns of K then m0")
    p_est.add_argument("--bandwidth", type=float, default=None,
                       help="residual smoother bandwidth "
                            "(default: 5%% of the covariate range)")
    p_est.add_argument("--grid-size", type=int, default=200)
    p_est.add_argument("--diag-covariate", type=int, default=0)
    p_est.add_argument("--flag-multiplier", type=float, default=8.0)
    p_est.set_defaults(fn=cmd_estimate)

    p_disc = sub.add_parser("discover", help="discover groups, then estimate",
                            allow_abbrev=False)  # --group is refused, not read as --groups
    _add_common_data_flags(p_disc)
    p_disc.add_argument("--groups", type=int, required=True,
                        help="number of groups to discover")
    p_disc.add_argument("--min-group-size", type=int, default=None)
    p_disc.set_defaults(fn=cmd_discover, group=None)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo study")
    p_sim.add_argument("--study", required=True,
                       choices=["calibration", "power", "robustness", "diagnostic"])
    p_sim.add_argument("--reps", type=int, default=100,
                       help="replicates per cell (not diagnostic, which draws once)")
    p_sim.add_argument("--n", type=int, default=1000,
                       help="sample size (not robustness, which runs 1000 and 5000)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int,
                       help="processes that run replicates (default: the usable CPUs; "
                            "not diagnostic)")
    p_sim.add_argument("--learners", default="oracle",
                       help="comma-separated learners (calibration only)")
    p_sim.add_argument("--sigma-a", default="0,1",
                       help="comma-separated treatment random-effect scales (calibration only)")
    p_sim.add_argument("--sigma-y", default="0",
                       help="comma-separated outcome random-effect scales (calibration only)")
    p_sim.add_argument("--distances", default="0,0.4,0.8,1.2,1.6,2.0",
                       help="comma-separated distances from tau0 (power only)")
    p_sim.add_argument("--out-dir", default="ssls-out")
    p_sim.set_defaults(fn=cmd_simulate)

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
