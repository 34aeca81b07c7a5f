"""Data-generating processes and Monte-Carlo studies.

Every study derives one independent stream per repetition from
(seed, study, cell, rep), so results are identical no matter how reps are
scheduled: they are jobs of parallel.fork_join on `workers` processes, by
default the usable CPUs. Each replicate runs estimator.single_run, the
pipelines' own split-and-estimate step. The diagnostic study analyzes each
draw under both the correct and the misspecified grouping, which share one
cross-fit of the nuisances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .data import CrossFitPlan, Dataset, Grouping
from .diagnostics import flag_regions, flagged_fraction, residual_series
from .errors import DomainError
from .estimator import SslsConfig, estimate_ssls, single_run
from .inference import maxt_critical, simultaneous_cis
from .learners import KnownPropensity, OlsSpec, learner_spec
from .parallel import fork_join
from .rng import Stream


def logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


# ---------------------------------------------------------------------------
# Data-generating processes


@dataclass(frozen=True)
class Dgp1Config:
    """Four-group design: two normal covariates, three binary, logistic
    treatment, quadratic outcome, optional group-level random effects."""

    n: int = 1000
    sigma_a: float = 0.0
    sigma_y: float = 0.0
    tau: tuple = (1.0, 2.0, 3.0, 4.0)
    seed: int = 0

    def __post_init__(self):
        if self.n < 8:
            raise DomainError("n must be at least 8 to populate four groups")


@dataclass(frozen=True)
class Dgp1Truth:
    """Fixed-effect truth for oracle nuisances. The random effects nu/xi are
    the realized group-level draws; the oracle functions deliberately omit
    them, mirroring an analyst who models covariates but not the cluster
    noise."""

    tau: np.ndarray
    nu: np.ndarray
    xi: np.ndarray

    @staticmethod
    def group_of(x: np.ndarray) -> np.ndarray:
        return (1 + (x[:, 4] == 1.0) + 2 * (x[:, 0] >= 0.0)).astype(np.int64)

    @staticmethod
    def treatment_index(x: np.ndarray) -> np.ndarray:
        return 0.5 + 0.5 * x[:, 0] + 0.5 * x[:, 1] - 0.5 * x[:, 2] - x[:, 3] + x[:, 4]

    def propensity(self, x: np.ndarray) -> np.ndarray:
        return logistic(self.treatment_index(x))

    @staticmethod
    def control_mean(x: np.ndarray) -> np.ndarray:
        return (5.0 + x[:, 0] ** 2 - 2.0 * x[:, 0] * x[:, 1]
                - 2.0 * x[:, 2] - 2.0 * x[:, 3] + 4.0 * x[:, 4])

    def outcome_mean(self, x: np.ndarray) -> np.ndarray:
        g = self.group_of(x)
        return self.control_mean(x) + self.propensity(x) * self.tau[g - 1]


def draw_dgp1(cfg: Dgp1Config, stream: Optional[Stream] = None):
    """One draw: returns (Dataset, Grouping, Dgp1Truth)."""
    s = stream if stream is not None else Stream(cfg.seed).child("dgp1")
    n = cfg.n
    x = np.column_stack([
        s.child("x1").normal(n),
        s.child("x2").normal(n),
        s.child("x3").bernoulli(0.5, n).astype(np.float64),
        s.child("x4").bernoulli(0.5, n).astype(np.float64),
        s.child("x5").bernoulli(0.5, n).astype(np.float64),
    ])
    tau = np.asarray(cfg.tau, dtype=np.float64)
    nu = cfg.sigma_a * s.child("nu").normal(len(tau))
    xi = cfg.sigma_y * s.child("xi").normal(len(tau))
    truth = Dgp1Truth(tau=tau, nu=nu, xi=xi)
    labels = truth.group_of(x)
    p_treat = logistic(truth.treatment_index(x) + nu[labels - 1])
    a = s.child("a").bernoulli(p_treat).astype(np.float64)
    eps = s.child("eps").normal(n)
    y = truth.control_mean(x) + tau[labels - 1] * a + xi[labels - 1] + eps
    grouping = Grouping(labels, len(tau))
    return Dataset(y, a, x), grouping, truth


@dataclass(frozen=True)
class DgpDiagConfig:
    """Single uniform covariate, fair-coin treatment, quadratic outcome with
    a two-group step effect; each draw is analyzed under that grouping and
    under a three-group rule whose middle band straddles the true effect
    boundary."""

    n: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.n < 4:
            raise DomainError("n must be at least 4")


def diag_true_groups(x: np.ndarray) -> np.ndarray:
    return (1 + (x > 0.5)).astype(np.int64)


def diag_wrong_groups(x: np.ndarray) -> np.ndarray:
    return (1 + (x > 0.25) + (x > 0.75)).astype(np.int64)


@dataclass(frozen=True)
class DgpDiagTruth:
    noise_sd: float = 0.1

    @staticmethod
    def effect(x: np.ndarray) -> np.ndarray:
        return diag_true_groups(x).astype(np.float64)

    def outcome_mean(self, x: np.ndarray) -> np.ndarray:
        xcol = x[:, 0] if x.ndim == 2 else x
        return xcol**2 + 0.5 * self.effect(xcol)

    def propensity(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        return np.full(n, 0.5)


def draw_dgp_diag(cfg: DgpDiagConfig, stream: Optional[Stream] = None):
    """One draw: returns (Dataset, {"correct": Grouping, "misspecified":
    Grouping}, DgpDiagTruth). Both groupings label the same rows; the outcome
    is always generated under the true two-group effect."""
    s = stream if stream is not None else Stream(cfg.seed).child("dgp-diag")
    n = cfg.n
    x = s.child("x").uniform(n)
    a = s.child("a").bernoulli(0.5, n).astype(np.float64)
    truth = DgpDiagTruth()
    y = truth.effect(x) * a + x**2 + truth.noise_sd * s.child("eps").normal(n)
    groupings = {}
    for tag, rule in (("correct", diag_true_groups), ("misspecified", diag_wrong_groups)):
        labels = rule(x)
        groupings[tag] = Grouping(labels, int(labels.max()))
    return Dataset(y, a, x[:, None]), groupings, truth


@dataclass(frozen=True)
class BlobConfig:
    """Two well-separated Gaussian blobs in the plane with groupwise effects;
    the spacing is in units of the within-blob standard deviation."""

    n: int = 900
    spacing: float = 7.0
    tau: tuple = (1.0, 3.0)
    treat_prob: float = 0.5
    seed: int = 0


def draw_blobs(cfg: BlobConfig, stream: Optional[Stream] = None):
    s = stream if stream is not None else Stream(cfg.seed).child("blobs")
    n = cfg.n
    blob = s.child("blob").bernoulli(0.5, n)
    x = s.child("x").normal(2 * n).reshape(n, 2) + cfg.spacing * blob[:, None]
    a = s.child("a").bernoulli(cfg.treat_prob, n).astype(np.float64)
    tau = np.asarray(cfg.tau, dtype=np.float64)
    y = 0.5 * x[:, 0] + tau[blob] * a + s.child("eps").normal(n)
    labels = (blob + 1).astype(np.int64)
    grouping = Grouping(labels, 2)
    return Dataset(y, a, x), grouping, tau


# ---------------------------------------------------------------------------
# Study plumbing


# Every replicate cross-fits on the plan's default two unstratified folds,
# which single_run draws from the replicate's own "plan" stream.
_REP_PLAN = CrossFitPlan()


@dataclass(frozen=True)
class StudyResult:
    """One calibration-study cell: per-group bias/ESE/ASE and the rate at which
    all simultaneous intervals covered the truth."""

    learner: str
    sigma_a: float
    sigma_y: float
    bias: np.ndarray
    ese: np.ndarray
    ase: np.ndarray
    ese_ase_ratio: np.ndarray
    coverage: float
    reps: int
    runtime: float = field(compare=False, default=0.0)


def _calibration_rep(seed, cell_index, learner, sigma_a, sigma_y, n, alpha, rep):
    stream = Stream(seed).child("calibration").child(cell_index).child(rep)
    cfg1 = Dgp1Config(n=n, sigma_a=sigma_a, sigma_y=sigma_y)
    d, grouping, truth = draw_dgp1(cfg1, stream=stream.child("data"))
    cfg = SslsConfig(learner_spec(learner, "outcome", truth),
                     learner_spec(learner, "propensity", truth), _REP_PLAN)
    ge, _ = single_run(d, grouping, cfg, seed=stream.child("plan").key)
    report = simultaneous_cis(ge, alpha=alpha)
    covers = bool(
        np.all((report.ci_simul_lo <= truth.tau) & (truth.tau <= report.ci_simul_hi))
    )
    return ge.tau_hat, ge.se(), covers


def run_calibration_study(
    cells: Sequence[tuple[str, float, float]],
    reps: int = 500,
    n: int = 1000,
    seed: int = 0,
    alpha: float = 0.05,
    workers: Optional[int] = None,
) -> list[StudyResult]:
    """Monte-Carlo bias/ESE/ASE/coverage over (learner, sigma_a, sigma_y) cells."""
    if reps < 2:
        raise DomainError("reps must be >= 2 (the ESE needs a spread)")
    results = []
    for cell_index, (learner, sigma_a, sigma_y) in enumerate(cells):
        t0 = time.perf_counter()
        rep_fn = partial(_calibration_rep, seed, cell_index, learner, sigma_a,
                         sigma_y, n, alpha)
        rows = fork_join(rep_fn, reps, workers)
        tau_hats = np.stack([r[0] for r in rows])
        ases = np.stack([r[1] for r in rows])
        covers = np.asarray([r[2] for r in rows])
        tau_true = np.asarray(Dgp1Config().tau)
        ese = tau_hats.std(axis=0, ddof=1)
        ase = ases.mean(axis=0)
        results.append(
            StudyResult(
                learner=learner,
                sigma_a=sigma_a,
                sigma_y=sigma_y,
                bias=tau_hats.mean(axis=0) - tau_true,
                ese=ese,
                ase=ase,
                ese_ase_ratio=ese / ase,
                coverage=float(covers.mean()),
                reps=reps,
                runtime=time.perf_counter() - t0,
            )
        )
    return results


@dataclass(frozen=True)
class PowerPoint:
    distance: float
    rejection_rate: float
    reps: int


def _power_rep(seed, point_index, distance, tau0, n, alpha, learner, rep):
    stream = Stream(seed).child("power").child(point_index).child(rep)
    tau0 = np.asarray(tau0, dtype=np.float64)
    if distance > 0:
        direction = stream.child("alt").normal(len(tau0))
        direction /= np.linalg.norm(direction)
        tau_alt = tau0 + distance * direction
    else:
        tau_alt = tau0
    cfg1 = Dgp1Config(n=n, sigma_a=0.0, sigma_y=0.0, tau=tuple(tau_alt))
    d, grouping, truth = draw_dgp1(cfg1, stream=stream.child("data"))
    cfg = SslsConfig(learner_spec(learner, "outcome", truth),
                     learner_spec(learner, "propensity", truth), _REP_PLAN)
    ge, _ = single_run(d, grouping, cfg, seed=stream.child("plan").key)
    t_stats = (ge.tau_hat - tau0) / ge.se()
    return bool(np.max(np.abs(t_stats)) > maxt_critical(alpha, len(tau0)))


def run_power_study(
    tau0: Sequence[float] = (1.0, 2.0, 3.0, 4.0),
    distances: Sequence[float] = (0.0, 0.4, 0.8, 1.2, 1.6, 2.0),
    reps: int = 200,
    n: int = 1000,
    seed: int = 0,
    alpha: float = 0.05,
    learner: str = "oracle",
    workers: Optional[int] = None,
) -> list[PowerPoint]:
    """Rejection rate of the maxT test against alternatives at each L2
    distance from tau0 (random sphere directions); distance 0 is the size."""
    if reps < 1:
        raise DomainError("reps must be >= 1 (a rejection rate needs a replicate)")
    points = []
    for point_index, distance in enumerate(distances):
        rep_fn = partial(_power_rep, seed, point_index, float(distance), tuple(tau0),
                         n, alpha, learner)
        rejections = fork_join(rep_fn, reps, workers)
        points.append(
            PowerPoint(
                distance=float(distance),
                rejection_rate=float(np.mean(rejections)),
                reps=reps,
            )
        )
    return points


# ---------------------------------------------------------------------------
# Within-group heterogeneity robustness study


@dataclass(frozen=True)
class RobustnessRow:
    n: int
    constant_propensity: bool
    bias: np.ndarray
    mc_se: np.ndarray
    reps: int


def _robustness_rep(seed, n, constant_propensity, delta_scale, rep):
    stream = Stream(seed).child("robustness").child(int(constant_propensity)).child(rep)
    x = stream.child("x").normal(2 * n).reshape(n, 2)
    labels = (1 + (x[:, 1] >= 0.0)).astype(np.int64)
    tau = np.array([1.0, 2.0])
    if constant_propensity:
        e_true = np.where(labels == 1, 0.4, 0.6)
    else:
        e_true = logistic(0.5 + x[:, 0])
    a = stream.child("a").bernoulli(e_true).astype(np.float64)
    delta = delta_scale * x[:, 0]  # mean zero within each group
    y = (1.0 + x[:, 0] + x[:, 1] + a * (tau[labels - 1] + delta)
         + stream.child("eps").normal(n))
    d = Dataset(y, a, x)
    grouping = Grouping(labels, 2)
    cfg = SslsConfig(OlsSpec(), KnownPropensity(e_true), _REP_PLAN)
    ge, _ = single_run(d, grouping, cfg, seed=stream.child("plan").key)
    return ge.tau_hat - tau


def run_robustness_study(
    n_grid: Sequence[int] = (1000, 5000),
    reps: int = 500,
    delta_scale: float = 1.0,
    seed: int = 0,
    constant_propensity: bool = True,
    workers: Optional[int] = None,
) -> list[RobustnessRow]:
    """Bias of the groupwise estimator when the within-group effect varies
    (outcome gains a treated-arm term with zero group mean). With the
    propensity constant inside each group the estimator stays centered on
    the group average; the non-constant arm is the negative control."""
    if reps < 2:
        raise DomainError("reps must be >= 2 (the Monte-Carlo SE needs a spread)")
    rows = []
    for n in n_grid:
        rep_fn = partial(_robustness_rep, seed, n, constant_propensity, delta_scale)
        errors = np.stack(fork_join(rep_fn, reps, workers))
        rows.append(
            RobustnessRow(
                n=n,
                constant_propensity=constant_propensity,
                bias=errors.mean(axis=0),
                mc_se=errors.std(axis=0, ddof=1) / np.sqrt(reps),
                reps=reps,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Diagnostic study


@dataclass(frozen=True)
class DiagnosticRun:
    residuals: np.ndarray
    series: dict
    flags: dict
    grouping: Grouping
    dataset: Dataset


def run_diagnostic_once(
    n: int = 10000,
    bandwidth: float = 0.05,
    grid_size: int = 200,
    seed: int = 0,
    learner: str = "gbm",
    sd_multiplier: float = 8.0,
) -> dict[str, DiagnosticRun]:
    """Estimate on one draw of the diagnostic design under the correct and
    the misspecified grouping, and smooth residuals per arm. The folds are
    unstratified, so both groupings share one cross-fit of the nuisances."""
    stream = Stream(seed).child("diag-study")
    d, groupings, truth = draw_dgp_diag(DgpDiagConfig(n=n, seed=seed),
                                        stream=stream.child("data"))
    cfg = SslsConfig(learner_spec(learner, "outcome", truth),
                     learner_spec(learner, "propensity", truth), _REP_PLAN)
    ge, nf = single_run(d, groupings["correct"], cfg, seed=stream.child("plan").key)
    effects = {"correct": ge,
               "misspecified": estimate_ssls(d, groupings["misspecified"], nf)}
    runs = {}
    for tag, ge in effects.items():
        series = residual_series(ge, d, covariate_index=0, bandwidth=bandwidth,
                                 grid_size=grid_size)
        flags = {arm: flag_regions(rs, sd_multiplier) for arm, rs in series.items()}
        runs[tag] = DiagnosticRun(residuals=ge.residuals, series=series, flags=flags,
                                  grouping=groupings[tag], dataset=d)
    return runs


def _diag_rep(seed, n, bandwidth, grid_size, learner, sd_multiplier, rep):
    runs = run_diagnostic_once(
        n=n, bandwidth=bandwidth, grid_size=grid_size,
        seed=Stream(seed).child("diag-reps").child(rep).key, learner=learner,
        sd_multiplier=sd_multiplier,
    )
    overlap = any(
        lo < 0.75 and hi > 0.25
        for flags in runs["misspecified"].flags.values()
        for lo, hi in flags
    )
    small = max(
        flagged_fraction(rs, sd_multiplier) for rs in runs["correct"].series.values()
    ) < 0.05
    return overlap, small


@dataclass(frozen=True)
class DiagnosticStudyResult:
    misspecified_overlap_rate: float
    correct_small_flag_rate: float
    reps: int


def run_diagnostic_study(
    reps: int = 50,
    n: int = 10000,
    bandwidth: float = 0.05,
    grid_size: int = 200,
    seed: int = 0,
    learner: str = "gbm",
    sd_multiplier: float = 8.0,
    workers: Optional[int] = None,
) -> DiagnosticStudyResult:
    """Across reps: how often the wrong grouping is flagged in its
    misspecified band, and how often the right grouping stays clean."""
    if reps < 1:
        raise DomainError("reps must be >= 1 (a rate needs a replicate)")
    rep_fn = partial(_diag_rep, seed, n, bandwidth, grid_size, learner, sd_multiplier)
    rows = fork_join(rep_fn, reps, workers)
    return DiagnosticStudyResult(
        misspecified_overlap_rate=float(np.mean([r[0] for r in rows])),
        correct_small_flag_rate=float(np.mean([r[1] for r in rows])),
        reps=reps,
    )
