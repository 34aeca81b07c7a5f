"""Core data model: validation, fold plans, CSV ingestion."""

import numpy as np
import pytest

from ssls.data import (
    CrossFitPlan,
    Dataset,
    Grouping,
    GroupSource,
    load_csv,
    make_crossfit_plan,
    relabel_dense,
    validate_dataset,
)
from ssls.errors import (
    EmptyGroup,
    LengthMismatch,
    NonBinaryTreatment,
    NonFinite,
    PropensityOutOfRange,
    SslsError,
    TooFewSamples,
)
from ssls.learners import KnownPropensity


def small_dataset():
    return Dataset(
        y=[1.0, 2.0, 3.0, 4.0],
        a=[0, 1, 0, 1],
        x=[[0.1], [0.2], [0.3], [0.4]],
    )


def test_validate_ok():
    validate_dataset(small_dataset(), Grouping([1, 1, 2, 2], 2))


def test_validate_non_binary_treatment():
    d = Dataset(y=[1, 2, 3, 4], a=[0, 1, 2, 0], x=np.zeros((4, 1)))
    with pytest.raises(NonBinaryTreatment):
        validate_dataset(d, Grouping([1, 1, 2, 2], 2))


def test_validate_empty_group():
    with pytest.raises(EmptyGroup) as err:
        validate_dataset(small_dataset(), Grouping([1, 1, 1, 1], 2))
    assert err.value.group == 2


def test_validate_length_mismatch():
    d = Dataset(y=[1, 2, 3, 4], a=[0, 1, 0, 1], x=np.zeros((4, 1)))
    with pytest.raises(LengthMismatch):
        validate_dataset(d, Grouping([1, 1, 2], 2))


def test_validate_non_finite():
    x = np.zeros((4, 2))
    x[2, 1] = np.nan
    d = Dataset(y=[1, 2, 3, 4], a=[0, 1, 0, 1], x=x)
    with pytest.raises(NonFinite) as err:
        validate_dataset(d, Grouping([1, 1, 2, 2], 2))
    assert (err.value.row, err.value.col) == (2, 1)


def test_validate_non_finite_outcome():
    for bad in (np.nan, np.inf):
        d = Dataset(y=[1.0, bad, 3.0, 4.0], a=[0, 1, 0, 1], x=np.zeros((4, 1)))
        with pytest.raises(NonFinite, match="outcome") as err:
            validate_dataset(d, Grouping([1, 1, 2, 2], 2))
        assert (err.value.row, err.value.col) == (1, None)


def test_validate_propensity_range():
    with pytest.raises(PropensityOutOfRange) as err:
        KnownPropensity([0.5, 1.0, 0.5, 0.5])
    assert err.value.row == 1


def test_plan_even_split():
    plan = make_crossfit_plan(10, CrossFitPlan(n_folds=2, seed=1))
    assert sorted(len(f) for f in plan.folds) == [5, 5]


def test_plan_odd_split():
    plan = make_crossfit_plan(9, CrossFitPlan(n_folds=2, seed=1))
    assert sorted(len(f) for f in plan.folds) == [4, 5]


def test_plan_partition_is_bijection():
    for n, k in [(10, 2), (9, 3), (101, 5)]:
        plan = make_crossfit_plan(n, CrossFitPlan(n_folds=k, seed=3))
        union = np.concatenate(plan.folds)
        assert np.array_equal(np.sort(union), np.arange(n))


def test_plan_deterministic():
    a = make_crossfit_plan(57, CrossFitPlan(n_folds=3, seed=11))
    b = make_crossfit_plan(57, CrossFitPlan(n_folds=3, seed=11))
    for fa, fb in zip(a.folds, b.folds):
        assert np.array_equal(fa, fb)
    c = make_crossfit_plan(57, CrossFitPlan(n_folds=3, seed=12))
    assert any(not np.array_equal(fa, fc) for fa, fc in zip(a.folds, c.folds))


def test_plan_stratified_even_groups():
    g = Grouping([1, 1, 1, 1, 2, 2, 2, 2], 2)
    plan = make_crossfit_plan(8, CrossFitPlan(n_folds=2, stratified=True, seed=5), g)
    for fold in plan.folds:
        labels = g.labels[fold]
        assert (labels == 1).sum() == 2
        assert (labels == 2).sum() == 2


def test_plan_stratified_within_one_of_each_group():
    rng = np.random.default_rng(0)
    labels = rng.integers(1, 5, size=103)
    labels[:4] = [1, 2, 3, 4]
    g = Grouping(labels, 4)
    for k in (2, 3):
        plan = make_crossfit_plan(103, CrossFitPlan(n_folds=k, stratified=True, seed=2), g)
        for grp in range(1, 5):
            counts = [(g.labels[f] == grp).sum() for f in plan.folds]
            assert max(counts) - min(counts) <= 1


def test_plan_too_few():
    with pytest.raises(TooFewSamples):
        make_crossfit_plan(1, CrossFitPlan(n_folds=2))


def test_plan_stratified_requires_grouping():
    with pytest.raises(ValueError):
        make_crossfit_plan(10, CrossFitPlan(n_folds=2, stratified=True))


def test_relabel_dense():
    labels, mapping = relabel_dense(["b", "a", "b", "c"])
    assert mapping == {"a": 1, "b": 2, "c": 3}
    assert labels.tolist() == [2, 1, 2, 3]
    labels, mapping = relabel_dense(["10", "2", "10"])
    assert mapping == {"2": 1, "10": 2}


def test_grouping_helpers():
    g = Grouping([1, 2, 2, 3], 3)
    assert g.counts().tolist() == [1, 2, 1]
    ind = g.indicator()
    assert ind.shape == (4, 3)
    assert ind.sum() == 4


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(
        "y,a,grp,x1,x2,ps\n"
        "1.5,1,old,0.1,2.0,0.9\n"
        "2.0,0,young,0.2,1.0,0.85\n"
        "0.5,1,old,0.3,0.0,0.9\n"
    )
    d, g, mapping, ps = load_csv(str(path), outcome="y", treatment="a",
                                 covariates=["x1", "x2"], group="grp", propensity="ps")
    assert d.n == 3
    assert d.x.shape == (3, 2)
    assert mapping == {"old": 1, "young": 2}
    assert g.labels.tolist() == [1, 2, 1]
    assert ps.tolist() == [0.9, 0.85, 0.9]


def test_load_csv_missing_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,a,x1\n1.0,1,\n2.0,0,0.5\n")
    with pytest.raises(SslsError) as err:
        load_csv(str(path), outcome="y", treatment="a", covariates=["x1"])
    assert "x1" in str(err.value) and "row 2" in str(err.value)


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,x1\n1.0,0.5\n")
    with pytest.raises(SslsError) as err:
        load_csv(str(path), outcome="y", treatment="a", covariates=["x1"])
    assert "'a'" in str(err.value)


def test_load_csv_non_binary(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,a,x1\n1.0,2,0.5\n")
    with pytest.raises(NonBinaryTreatment):
        load_csv(str(path), outcome="y", treatment="a", covariates=["x1"])


def test_dataset_subset_and_se():
    d = small_dataset()
    sub = d.subset(np.array([0, 2]))
    assert sub.y.tolist() == [1.0, 3.0]
    assert sub.a.tolist() == [0.0, 0.0]


def test_group_source_enum():
    g = Grouping([1, 2], 2, GroupSource.FITTED)
    assert g.source is GroupSource.FITTED
