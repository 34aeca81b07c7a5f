"""Learners: exact fits, invariants, failure modes, Monte-Carlo checks."""

import dataclasses
import warnings

import numpy as np
import pytest

from ssls import learners
from ssls.data import CrossFitPlan, Dataset
from ssls.errors import (
    DomainError,
    NonConvergenceWarning,
    OneArmOnly,
    PropensityOutOfRange,
    SingularDesign,
    TooFewSamples,
)
from ssls.learners import (
    CartSpec,
    GbmSpec,
    KnownPropensity,
    LogisticSpec,
    OlsSpec,
    OracleSpec,
    RidgeSpec,
    fit_propensity,
    fit_regression,
)
from ssls.estimator import CLIP, SslsConfig, crossfit_nuisance
from ssls.rng import Stream
from ssls.simulation import DgpDiagConfig, Dgp1Config, draw_dgp1, draw_dgp_diag


def test_ols_exact_line():
    x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    y = 2.0 * x[:, 0]
    model = fit_regression(OlsSpec(), x, y)
    assert model.intercept == pytest.approx(0.0, abs=1e-10)
    assert model.coef[0] == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(model.predict(x), y, atol=1e-10)


def test_ols_normal_equation_residual():
    s = Stream(1)
    x = s.normal(50 * 3).reshape(50, 3)
    y = s.normal(50) * 4.0
    model = fit_regression(OlsSpec(), x, y)
    design = np.column_stack([np.ones(50), x])
    beta = np.concatenate([[model.intercept], model.coef])
    resid = design.T @ (design @ beta - y)
    scale = np.abs(design.T @ y).max()
    assert np.linalg.norm(resid) <= 1e-8 * max(scale, 1.0)


def test_ols_singular_design():
    x = np.ones((10, 2))  # two identical constant columns, collinear with intercept
    y = np.arange(10.0)
    with pytest.raises(SingularDesign):
        fit_regression(OlsSpec(), x, y)


@pytest.mark.parametrize("spec, scale", [(OlsSpec(), 1e160), (RidgeSpec(1e308), 1.0),
                                         (RidgeSpec(1e308), 1e160)])
def test_overflowing_gram_matrix_is_a_singular_design(spec, scale):
    # finite covariates whose X'X (penalty included) overflows float64 are
    # named as such, with no numpy warning or LinAlgError on the way
    x = scale * Stream(3).normal(40).reshape(20, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularDesign, match="overflows float64"):
            fit_regression(spec, x, np.arange(20.0))


def test_ridge_handles_singular_design():
    x = np.column_stack([np.arange(10.0), np.arange(10.0)])
    y = np.arange(10.0)
    model = fit_regression(RidgeSpec(1.0), x, y)
    assert np.isfinite(model.predict(x)).all()


def test_ridge_limits_to_ols():
    s = Stream(2)
    x = s.normal(80 * 4).reshape(80, 4)
    y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + s.normal(80)
    ols = fit_regression(OlsSpec(), x, y)
    ridge = fit_regression(RidgeSpec(1e-10), x, y)
    assert np.allclose(ridge.coef, ols.coef, atol=1e-6)
    assert ridge.intercept == pytest.approx(ols.intercept, abs=1e-6)


def test_cart_single_split():
    x = np.array([[-1.0]] * 10 + [[1.0]] * 10)
    y = (x[:, 0] > 0).astype(float)
    model = fit_regression(CartSpec(max_depth=1, min_leaf=2), x, y)
    assert model.predict(np.array([[-0.5]]))[0] == 0.0
    assert model.predict(np.array([[0.5]]))[0] == 1.0
    assert model.threshold[0] == pytest.approx(0.0)


@pytest.mark.parametrize("lo, hi", [(1e308, 1.5e308), (-1.5e308, -1e308)])
def test_cart_split_between_huge_values_has_a_finite_threshold(lo, hi):
    # lo + hi overflows; the threshold must still fall between them
    x = np.array([[lo]] * 10 + [[hi]] * 10)
    y = (x[:, 0] == hi).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_regression(CartSpec(max_depth=1, min_leaf=2), x, y)
        assert np.array_equal(model.predict(x), y)
    assert lo < model.threshold[0] < hi


def test_cart_leaf_means():
    s = Stream(3)
    x = s.normal(200 * 2).reshape(200, 2)
    y = s.normal(200)
    model = fit_regression(CartSpec(max_depth=3, min_leaf=10), x, y)
    pred = model.predict(x)
    # every training point predicts the mean of its leaf's training targets
    for leaf_value in np.unique(pred):
        members = pred == leaf_value
        assert y[members].mean() == pytest.approx(leaf_value, abs=1e-12)


def test_cart_tie_breaks_lowest_feature():
    # two identical features: the split must use feature 0
    col = np.array([-1.0] * 10 + [1.0] * 10)
    x = np.column_stack([col, col])
    y = (col > 0).astype(float)
    model = fit_regression(CartSpec(max_depth=1, min_leaf=2), x, y)
    assert model.feature[0] == 0


def test_cart_too_few():
    with pytest.raises(TooFewSamples):
        fit_regression(CartSpec(min_leaf=10), np.zeros((5, 1)), np.zeros(5))
    # a propensity tree needs as many rows, rather than predicting a constant
    x, a = np.arange(12.0)[:, None], np.array([0.0, 1.0] * 6)
    for spec in (CartSpec(), GbmSpec()):
        with pytest.raises(TooFewSamples, match="12 rows is too few"):
            fit_propensity(spec, x, a)
        fit_propensity(dataclasses.replace(spec, min_leaf=6), x, a)  # the boundary holds


def test_gbm_training_mse_non_increasing():
    s = Stream(4)
    x = s.normal(300 * 3).reshape(300, 3)
    y = x[:, 0] ** 2 + s.normal(300)
    model = fit_regression(GbmSpec(n_trees=50), x, y)
    path = model.train_mse_path
    assert all(b <= a + 1e-12 for a, b in zip(path, path[1:]))


def test_gbm_beats_mean_baseline_on_dgp():
    d, _, _ = draw_dgp1(Dgp1Config(n=1000), stream=Stream(5).child("gbm"))
    model = fit_regression(GbmSpec(), d.x, d.y)
    train_mse = model.train_mse_path[-1]
    assert train_mse < np.var(d.y)


def test_oracle_regression_passthrough():
    fn = lambda x: x[:, 0] * 3.0 + 1.0
    model = fit_regression(OracleSpec(fn), np.zeros((2, 1)), np.zeros(2))
    x = np.array([[1.0], [2.0]])
    assert np.allclose(model.predict(x), [4.0, 7.0])


@pytest.mark.parametrize("bad", [0.0, 1.0, np.nan, np.inf, -np.inf])
def test_known_propensity_range(bad):
    with pytest.raises(PropensityOutOfRange) as err:
        KnownPropensity(bad)
    assert err.value.row is None
    with pytest.raises(PropensityOutOfRange) as err:
        KnownPropensity(np.array([0.5, 0.2, bad, 0.7]))
    assert err.value.row == 2


def _known_e_hat(value):
    d, g, _ = draw_dgp1(Dgp1Config(n=60), stream=Stream(2).child("known"))
    cfg = SslsConfig(OlsSpec(), KnownPropensity(value), CrossFitPlan(seed=1))
    return crossfit_nuisance(d, cfg, g).e_hat


def test_known_constant_propensity():
    assert np.allclose(_known_e_hat(0.9), 0.9)


def test_known_clips():
    assert np.allclose(_known_e_hat(0.999), 0.99)


@pytest.mark.parametrize("spec", [CartSpec(min_leaf=2), GbmSpec(n_trees=5, min_leaf=2),
                                  OracleSpec(lambda x: 0.25 + 0.5 * (x[:, 0] > 0))])
def test_one_spec_serves_either_role(spec):
    # a propensity fit is the regression fit of a on x, unclipped
    x = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]] * 2)
    a = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0] * 2)
    e = fit_propensity(spec, x, a).predict(x)
    m = fit_regression(spec, x, a).predict(x)
    assert np.array_equal(e, m)


def test_spec_in_the_wrong_role_raises_type_error():
    x, a = np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 1.0, 0.0, 1.0])
    for spec in (OlsSpec(), RidgeSpec()):
        with pytest.raises(TypeError, match="unknown propensity spec"):
            fit_propensity(spec, x, a)
    with pytest.raises(TypeError, match="unknown regression spec"):
        fit_regression(LogisticSpec(), x, a)


def test_learner_names_map_to_one_spec_per_learner():
    truth = draw_dgp1(Dgp1Config(n=8), stream=Stream(1).child("t"))[2]
    expected = {
        ("ols", "outcome"): OlsSpec(), ("Ridge", "outcome"): RidgeSpec(),
        ("ridge:0.5", "outcome"): RidgeSpec(0.5), ("logistic", "propensity"): LogisticSpec(),
        ("oracle", "outcome"): OracleSpec(truth.outcome_mean),
        ("oracle", "propensity"): OracleSpec(truth.propensity),
    }
    for role in ("outcome", "propensity"):
        expected[("CART", role)], expected[("gbm", role)] = CartSpec(), GbmSpec()
    for (name, role), spec in expected.items():
        assert learners.learner_spec(name, role, truth) == spec
    for name, role in [("logistic", "outcome"), ("ols", "propensity"),
                       ("oracle", "outcome"), ("ridge", "propensity"),
                       ("ridgefoo", "outcome")]:
        with pytest.raises(DomainError, match=f"unknown {role} learner '{name}'"):
            learners.learner_spec(name, role)
    for name, message in [("ridge:abc", "ridge penalty must be a number, got 'abc'"),
                          ("ridge:nan", "ridge penalty must be finite, got nan"),
                          ("ridge:inf", "ridge penalty must be finite, got inf"),
                          ("ridge:-1", "ridge penalty must be >= 0")]:
        with pytest.raises(DomainError) as err:
            learners.learner_spec(name, "outcome")
        assert str(err.value) == message


def test_known_propensity_is_not_fitted():
    with pytest.raises(ValueError, match="cross-fitting"):
        fit_propensity(KnownPropensity(0.9), np.zeros((3, 1)), np.array([1.0, 0, 1]))


def test_logistic_balanced_intercept_only():
    # a balanced against symmetric x: the MLE is intercept-only at logit(1/2)
    x = np.array([[-1.0], [1.0], [-1.0], [1.0]])
    a = np.array([0.0, 1.0, 1.0, 0.0])
    model = fit_propensity(LogisticSpec(), x, a)
    assert np.allclose(model.predict(x), 0.5, atol=1e-6)


def test_logistic_one_arm():
    with pytest.raises(OneArmOnly):
        fit_propensity(LogisticSpec(), np.zeros((6, 1)), np.ones(6))


def test_logistic_loglik_non_decreasing_and_mc_consistency():
    # large-sample MLE recovery of the treatment model coefficients
    d, _, truth = draw_dgp1(Dgp1Config(n=10000), stream=Stream(6).child("logit"))
    model = fit_propensity(LogisticSpec(), d.x, d.a)
    fitted = np.concatenate([[model.intercept], model.coef])
    target = np.array([0.5, 0.5, 0.5, -0.5, -1.0, 1.0])
    assert np.abs(fitted - target).max() < 0.1
    assert model.converged


def test_logistic_stopping_rule_is_scale_aware():
    # at n = 1e4 a gradient-norm bound sits below the rounding of the
    # log-likelihood; the Newton decrement stops the fit whatever n is,
    # repeating every row 20 times leaves the MLE where it was, and the
    # rounding floor keeps even tol = 0 reachable
    def fit(x, a, spec=LogisticSpec()):
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonConvergenceWarning)
            model = fit_propensity(spec, x, a)
        assert model.converged
        return np.concatenate([[model.intercept], model.coef])

    designs = [draw_dgp1(Dgp1Config(n=10000), stream=Stream(seed).child("logit"))[0]
               for seed in range(10)]
    fits = [fit(d.x, d.a) for d in designs]
    x, a = np.repeat(designs[6].x, 20, axis=0), np.repeat(designs[6].a, 20)
    assert np.abs(fit(x, a) - fits[6]).max() <= 1e-8
    assert np.abs(fit(x, a, LogisticSpec(tol=0.0)) - fits[6]).max() <= 1e-8


def test_logistic_nonconvergence_warns_but_returns():
    # stop well before the decrement tolerance is reachable; the fit at the
    # last iterate is still returned and usable
    x = np.array([[-2.0]] * 8 + [[2.0]] * 8)
    a = np.array([0.0] * 8 + [1.0] * 8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_propensity(LogisticSpec(max_iter=2), x, a)
    assert any(issubclass(w.category, NonConvergenceWarning) for w in caught)
    assert model.converged is False
    p = model.predict(x)
    assert p.min() >= 0.01 and p.max() <= 0.99
    assert (p[:8] < 0.5).all() and (p[8:] > 0.5).all()


def test_logistic_loglik_non_decreasing_in_iterations():
    # step-halving only ever accepts improving steps, so the likelihood at
    # the k-iteration fit is monotone in k
    d, _, _ = draw_dgp1(Dgp1Config(n=400), stream=Stream(8).child("ll"))

    def loglik(model):
        eta = model.intercept + d.x @ model.coef
        return float(d.a @ eta - np.logaddexp(0.0, eta).sum())

    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        for k in range(1, 8):
            values.append(loglik(fit_propensity(LogisticSpec(max_iter=k), d.x, d.a)))
    assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("spec", [
    KnownPropensity(0.999), KnownPropensity(np.linspace(0.001, 0.999, 200)),
    LogisticSpec(), CartSpec(), GbmSpec(n_trees=30),
    OracleSpec(lambda x: 1.0 / (1.0 + np.exp(-4.0 * x[:, 0]))),
], ids=["known-scalar", "known-column", "logistic", "cart", "gbm", "oracle"])
def test_crossfit_clips_every_propensity_once(spec):
    # cross-fitting clips each e_hat once, whether it is known or predicted
    # out of fold by the unclipped propensity fit on the fold's complement
    s = Stream(7)
    x = s.normal(200).reshape(200, 1)
    a = (x[:, 0] + 0.5 * s.normal(200) > 1.0).astype(float)  # leaf means hit 0 and 1
    d = Dataset(y=x[:, 0] + a, a=a, x=x)
    nf = crossfit_nuisance(d, SslsConfig(OlsSpec(), spec, CrossFitPlan(seed=1)))
    raw = np.broadcast_to(getattr(spec, "values", 0.0), 200).copy()
    for k in np.unique(nf.fold_of):
        test = nf.fold_of == k
        if not isinstance(spec, KnownPropensity):
            raw[test] = fit_propensity(spec, x[~test], a[~test]).predict(x[test])
    assert ((raw < CLIP) | (raw > 1.0 - CLIP)).any()  # the clip binds
    assert np.array_equal(nf.e_hat, np.clip(raw, CLIP, 1.0 - CLIP))
    assert nf.e_hat.min() >= CLIP and nf.e_hat.max() <= 1.0 - CLIP


def test_gbm_shrinkage_validation():
    with pytest.raises(ValueError):
        GbmSpec(shrinkage=0.0)
    with pytest.raises(ValueError):
        GbmSpec(shrinkage=1.5)


_BAD_TREE_SETTINGS = [("min_leaf", 0), ("min_leaf", -3), ("max_depth", -1),
                      ("n_trees", -1), ("shrinkage", 0.0), ("shrinkage", 1.5),
                      ("shrinkage", np.nan)]


# One spec class serves both roles; the propensity-role cases keep the ids
# they had when that role had spec classes of its own (CartProbSpec and
# GbmProbSpec), and build from the spec the propensity slot is handed.
_TREE_SPEC_ROLES = [("CartSpec", "cart", "outcome"),
                    ("CartProbSpec", "cart", "propensity"),
                    ("GbmSpec", "gbm", "outcome"),
                    ("GbmProbSpec", "gbm", "propensity")]


@pytest.mark.parametrize("name, role, field, bad", [
    pytest.param(name, role, field, bad, id=f"{case}-{field}-{bad}")
    for case, name, role in _TREE_SPEC_ROLES
    for field, bad in _BAD_TREE_SETTINGS
    if hasattr(learners.learner_spec(name, role), field)
])
def test_tree_spec_validated_at_construction(name, role, field, bad):
    spec = learners.learner_spec(name, role)
    # DomainError is a ValueError too, so older callers still catch it
    with pytest.raises(DomainError, match=field):
        dataclasses.replace(spec, **{field: bad})
    # the boundary holds
    assert getattr(dataclasses.replace(spec, **{field: 1}), field) == 1


# ---------------------------------------------------------------------------
# The tree grower before per-fit presort facts and leaf ids from growth,
# kept verbatim as the oracle for bit-identical trees.


def _oracle_best_split_sorted(x, y, sorted_ids, min_leaf):
    n, p = sorted_ids.shape
    if n < 2 * min_leaf:
        return None
    ys = y[sorted_ids]
    total = ys[:, 0].sum()
    total_sq = (ys[:, 0] ** 2).sum()
    parent_sse = total_sq - total * total / n
    if parent_sse <= 1e-12 * max(total_sq, 1e-300):
        return None  # node is pure up to rounding
    ks = np.arange(min_leaf, n - min_leaf + 1)
    if ks.size == 0:
        return None
    xs = x[sorted_ids, np.arange(p)[None, :]]
    cum = np.cumsum(ys, axis=0)
    cum_sq = np.cumsum(ys * ys, axis=0)
    left_n = ks[:, None].astype(np.float64)
    left_sum = cum[ks - 1, :]
    left_sq = cum_sq[ks - 1, :]
    sse_left = left_sq - left_sum * left_sum / left_n
    right_n = n - left_n
    right_sum = total - left_sum
    right_sq = total_sq - left_sq
    sse_right = right_sq - right_sum * right_sum / right_n
    gains = parent_sse - sse_left - sse_right
    valid = xs[ks - 1, :] < xs[ks, :]
    gains = np.where(valid, gains, -np.inf)
    flat = int(np.argmax(gains.T))  # feature-major: lowest feature, then lowest k
    j, i = divmod(flat, ks.size)
    gain = float(gains[i, j])
    if not gain > 0.0:
        return None
    k = int(ks[i])
    return j, 0.5 * (xs[k - 1, j] + xs[k, j]), gain


def _oracle_grow_tree(x, y, max_depth, min_leaf, presort=None):
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    if presort is None:
        presort = np.argsort(x, axis=0, kind="stable")
    p = x.shape[1]
    root = new_node()
    stack = [(root, presort, 0)]
    while stack:
        node, sorted_ids, depth = stack.pop()
        member_rows = sorted_ids[:, 0]
        value[node] = float(y[member_rows].mean())
        if depth >= max_depth or sorted_ids.shape[0] < 2 * min_leaf:
            continue
        split = _oracle_best_split_sorted(x, y, sorted_ids, min_leaf)
        if split is None:
            continue
        j, thr, _ = split
        go_left = x[:, j] <= thr
        sel = go_left[sorted_ids]
        m_left = int(sel[:, 0].sum())
        left_ids = sorted_ids.T[sel.T].reshape(p, m_left).T
        right_ids = sorted_ids.T[~sel.T].reshape(p, sorted_ids.shape[0] - m_left).T
        feature[node] = j
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((left[node], left_ids, depth + 1))
        stack.append((right[node], right_ids, depth + 1))
    return learners._TreeModel(
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(value, dtype=np.float64),
    )


def _oracle_fit_gbm(x, y, spec):
    base = float(y.mean())
    fitted = np.full(y.shape[0], base)
    trees = []
    mse_path = [float(np.mean((y - fitted) ** 2))]
    presort = np.argsort(x, axis=0, kind="stable")
    for _ in range(spec.n_trees):
        tree = _oracle_grow_tree(x, y - fitted, spec.max_depth, spec.min_leaf,
                                 presort=presort)
        fitted = fitted + spec.shrinkage * tree.predict(x)
        trees.append(tree)
        mse_path.append(float(np.mean((y - fitted) ** 2)))
    return learners._GbmModel(base, trees, spec.shrinkage, np.asarray(mse_path))


_TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


def _oracle_designs():
    """(name, x, target) on which the oracle and the grower are compared: the
    CART and GBM test designs, DGP1, the diagnostic DGP, and random designs
    with rounded or binary columns, so that cuts between tied values occur."""
    s = Stream(3)
    yield "cart", s.normal(200 * 2).reshape(200, 2), s.normal(200)
    s = Stream(4)
    x = s.normal(300 * 3).reshape(300, 3)
    yield "gbm", x, x[:, 0] ** 2 + s.normal(300)
    d, _, _ = draw_dgp1(Dgp1Config(n=600), stream=Stream(5).child("oracle"))
    yield "dgp1-y", d.x, d.y
    yield "dgp1-a", d.x, d.a
    d, _, _ = draw_dgp_diag(DgpDiagConfig(n=800), stream=Stream(6).child("oracle"))
    yield "diag", d.x, d.y
    for seed in range(3):
        s = Stream(900 + seed)
        x = s.normal(400 * 4).reshape(400, 4)
        x[:, 1] = np.round(x[:, 1], 1)
        x[:, 2] = (x[:, 2] > 0.3).astype(float)
        x[:, 3] = np.round(2.0 * x[:, 3])
        target = x[:, 0] * x[:, 2] + x[:, 3] + s.normal(400)
        yield f"random-{seed}", x, target
        yield f"random-{seed}-binary", x, (target > 0.5).astype(float)
    # two-valued and constant columns, which the search treats apart
    s = Stream(910)
    x = s.normal(400 * 5).reshape(400, 5)
    x[:, 0] = (x[:, 0] > 0.2).astype(float)
    x[:, 2] = np.where(x[:, 2] > -0.4, 3.0, -1.5)
    x[:, 3] = 2.5
    x[:, 4] = np.where(np.arange(400) % 50 == 7, 7.0, 2.0)  # lower block of 8 rows
    target = 2.0 * x[:, 0] - x[:, 2] + x[:, 1] ** 2 + s.normal(400)
    yield "two-valued-0", x, target
    yield "two-valued-0-binary", x, (target > 1.0).astype(float)
    yield "small-lower-block", x[:, [1, 4]], (x[:, 4] == 2.0) + x[:, 1] + s.normal(400)
    yield "all-two-valued", x[:, [0, 3, 2]], target
    yield "constant-0", x[:, [3, 1, 2]], target
    # integer targets: the two-valued column and the continuous column that
    # cuts between its blocks tie exactly on gain, in either feature order
    b = x[:, 0]
    c = b + 0.1 * np.round(s.normal(400) > 0.0)
    target = 3.0 * b + np.round(s.normal(400))
    yield "tie-continuous-first", np.column_stack([c, b, x[:, 1]]), target
    yield "tie-two-valued-first", np.column_stack([b, c, x[:, 1]]), target
    # squares of the targets overflow, so every gain is NaN
    yield "overflow", x, 1e155 * target
    yield "overflow-two-valued", x[:, [0, 3, 2]], 1e155 * target


@pytest.mark.parametrize("max_depth", [1, 2, 3])
@pytest.mark.parametrize("min_leaf", [1, 5, 10])
def test_tree_grower_bit_identical_to_oracle(max_depth, min_leaf):
    # every two-valued column takes its own block-scored cut, and the trees
    # are those of the oracle's scan of every cut
    held_out = Stream(11).normal(60 * 5).reshape(60, 5)
    with np.errstate(over="ignore", invalid="ignore"):
        _compare_with_oracle(max_depth, min_leaf, held_out)


def test_presort_classes_features():
    # continuous first, then two-valued, then constant, each by feature index
    x = np.column_stack([np.arange(8.0) % 3, [2.0, 5.0] * 4, np.ones(8),
                         [1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
    pre = learners._presort(x, 1)
    assert (pre.order.tolist(), pre.n_cont, pre.low, pre.pos0) == ([0, 1, 3, 2], 1, [4, 5], 0)
    assert pre.ids[1].tolist() == [0, 2, 4, 6, 1, 3, 5, 7]
    pre = learners._presort(x[:, ::-1], 1)
    assert (pre.order.tolist(), pre.pos0) == ([3, 0, 2, 1], 1)


def _compare_with_oracle(max_depth, min_leaf, held_out):
    for name, x, target in _oracle_designs():
        x_new = held_out[:, :x.shape[1]]
        cart = fit_regression(CartSpec(max_depth, min_leaf), x, target)
        want = _oracle_grow_tree(x, target, max_depth, min_leaf)
        for field in _TREE_FIELDS:
            assert np.array_equal(getattr(cart, field), getattr(want, field)), (name, field)
        assert np.array_equal(cart.predict(x_new), want.predict(x_new)), name

        spec = GbmSpec(n_trees=15, max_depth=max_depth, min_leaf=min_leaf)
        gbm = fit_regression(spec, x, target)
        want = _oracle_fit_gbm(x, target, spec)
        assert gbm.base == want.base
        assert np.array_equal(gbm.train_mse_path, want.train_mse_path), name
        for got_tree, want_tree in zip(gbm.trees, want.trees, strict=True):
            for field in _TREE_FIELDS:
                assert np.array_equal(getattr(got_tree, field),
                                      getattr(want_tree, field)), (name, field)
        assert np.array_equal(gbm.predict(x_new), want.predict(x_new)), name


def test_gbm_fitted_values_come_from_growth(monkeypatch):
    # _fit_gbm updates its fitted values from the leaf ids growth returns:
    # no tree ever predicts the training rows, and the residuals each stage
    # fits are bit for bit those of base + sum of shrinkage * tree.predict(x)
    d, _, _ = draw_dgp1(Dgp1Config(n=500), stream=Stream(12).child("leaf"))
    spec = GbmSpec(n_trees=25, max_depth=3, min_leaf=5)
    predict_calls = []
    targets = []
    tree_predict = learners._TreeModel.predict
    grow = learners._grow_tree
    monkeypatch.setattr(learners._TreeModel, "predict",
                        lambda self, x: predict_calls.append(1) or tree_predict(self, x))
    monkeypatch.setattr(learners, "_grow_tree",
                        lambda y, *rest: targets.append(y.copy()) or grow(y, *rest))
    model = fit_regression(spec, d.x, d.y)
    monkeypatch.undo()
    assert predict_calls == []

    fitted = np.full(d.n, model.base)
    for stage, tree in enumerate(model.trees):
        assert np.array_equal(targets[stage], d.y - fitted), stage
        fitted = fitted + spec.shrinkage * tree.predict(d.x)
    assert model.train_mse_path[-1] == float(np.mean((d.y - fitted) ** 2))
    assert np.array_equal(model.predict(d.x), fitted)


def test_columnwise_predict_equals_the_row_subset_walk(monkeypatch):
    # shallow trees predict by comparing whole columns; the row-subset walk
    # that larger trees keep must give the same bits, also on rows that sit
    # exactly on a threshold and on NaN covariates
    s = Stream(13)
    x = s.normal(600 * 3).reshape(600, 3)
    x[:, 2] = np.round(x[:, 2])
    y = x[:, 0] * x[:, 1] + x[:, 2] + s.normal(600)
    trees = [fit_regression(CartSpec(depth, 2), x, y) for depth in range(1, 9)]
    trees.append(fit_regression(CartSpec(3, 2), x, np.full(600, 1.5)))  # one leaf
    assert trees[-1].feature.size == 1
    assert trees[-2].feature.size > learners._COLUMNWISE_MAX_NODES
    held_out = s.normal(200 * 3).reshape(200, 3)
    for tree in trees:
        on_cut = held_out.copy()
        for node in np.flatnonzero(tree.feature >= 0):
            on_cut[node % 200, tree.feature[node]] = tree.threshold[node]
        on_cut[:5, 0] = np.nan
        for rows in (on_cut, on_cut[:1], on_cut[:0]):
            monkeypatch.setattr(learners, "_COLUMNWISE_MAX_NODES", 0)
            walk = tree.predict(rows)
            monkeypatch.setattr(learners, "_COLUMNWISE_MAX_NODES", 10**9)
            columns = tree.predict(rows)
            assert columns.dtype == walk.dtype and columns.shape == (rows.shape[0],)
            assert np.array_equal(columns, walk), tree.feature.size
