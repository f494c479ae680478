"""Tests for experiments.harness — the Spark-distributed Monte-Carlo
runner and its local fallback."""
from __future__ import annotations

import uuid

import numpy as np
import pandas as pd
import pytest

from repro.core.groupby import build_groupby_data
from repro.core.proxy_select import combined_proxy_trial
from repro.experiments import tables as T
from repro.experiments.harness import (
    combined_condition,
    estimates_matrix,
    group_condition,
    run_conditions,
    run_group_trials,
    run_trials,
    scalar_condition,
)
from repro.simulate import datasets as D


class TestLocalTrials:
    def test_columns_and_rows(self, toy_strata):
        out = run_trials(None, kind="abae", data=toy_strata, n_budget=300, n_trials=20)
        assert list(out.columns) == ["trial", "estimate", "lo", "hi", "calls"]
        assert len(out) == 20
        assert (out["calls"] <= 300).all()

    def test_trials_are_distinct(self, toy_strata):
        out = run_trials(None, kind="abae", data=toy_strata, n_budget=300, n_trials=20)
        assert out["estimate"].nunique() > 1

    def test_seed_offset_reproducible(self, toy_strata):
        a = run_trials(None, kind="abae", data=toy_strata, n_budget=300, n_trials=5, base_seed=7)
        b = run_trials(None, kind="abae", data=toy_strata, n_budget=300, n_trials=5, base_seed=7)
        assert a["estimate"].tolist() == b["estimate"].tolist()

    def test_uniform_kind(self, toy_strata):
        values = np.concatenate([v for v, _ in toy_strata])
        labels = np.concatenate([l for _, l in toy_strata])
        out = run_trials(
            None, kind="uniform", data=(values, labels), n_budget=200, n_trials=10
        )
        assert (out["calls"] == 200).all()

    def test_noreuse_kind(self, toy_strata):
        out = run_trials(
            None, kind="abae_noreuse", data=toy_strata, n_budget=300, n_trials=5
        )
        assert len(out) == 5

    def test_with_ci(self, toy_strata):
        out = run_trials(
            None, kind="abae", data=toy_strata, n_budget=300, n_trials=5,
            with_ci=True, n_boot=100,
        )
        assert (out["lo"] <= out["hi"]).all()

    def test_without_ci_nan(self, toy_strata):
        out = run_trials(None, kind="abae", data=toy_strata, n_budget=300, n_trials=3)
        assert out["lo"].isna().all()

    def test_unknown_kind_raises(self, toy_strata):
        with pytest.raises(ValueError):
            run_trials(None, kind="bogus", data=toy_strata, n_budget=10, n_trials=1)


class TestLocalGroupTrials:
    @pytest.fixture(scope="class")
    def gb(self):
        ds = D.synthetic_groupby_multi(n=5000)
        return ds, build_groupby_data(ds.pdf, list(ds.proxy_cols), 3)

    def test_rows_per_trial(self, gb):
        ds, data = gb
        out = run_group_trials(
            None, kind="groupby_multi", data=data, n_budget=1000, n_trials=4,
            n_groups=4,
        )
        assert len(out) == 16
        assert set(out["group"]) == set(range(4))

    def test_uniform_kinds(self, gb):
        ds, _ = gb
        pop = (ds.pdf["value"].to_numpy(float), ds.pdf["group"].to_numpy())
        for kind in ("uniform_single", "uniform_multi"):
            out = run_group_trials(
                None, kind=kind, data=pop, n_budget=800, n_trials=3, n_groups=4
            )
            assert len(out) == 12

    def test_estimates_matrix_pivot(self, gb):
        ds, data = gb
        out = run_group_trials(
            None, kind="groupby_multi", data=data, n_budget=1000, n_trials=5,
            n_groups=4,
        )
        m = estimates_matrix(out, 4)
        assert m.shape == (5, 4)

    def test_unknown_kind_raises(self, gb):
        _, data = gb
        with pytest.raises(ValueError):
            run_group_trials(
                None, kind="nope", data=data, n_budget=10, n_trials=1, n_groups=4
            )


@pytest.mark.spark
class TestDistributedTrials:
    def test_spark_matches_local_exactly(self, spark, toy_strata):
        """Distribution must not change results: same seeds ⇒ same
        estimates, Spark or not."""
        loc = run_trials(
            None, kind="abae", data=toy_strata, n_budget=300, n_trials=16, base_seed=3
        )
        dist = run_trials(
            spark, kind="abae", data=toy_strata, n_budget=300, n_trials=16, base_seed=3
        )
        assert loc["estimate"].tolist() == dist["estimate"].tolist()

    def test_spark_group_trials_match_local(self, spark):
        ds = D.synthetic_groupby_multi(n=5000)
        data = build_groupby_data(ds.pdf, list(ds.proxy_cols), 3)
        loc = run_group_trials(
            None, kind="groupby_multi", data=data, n_budget=1000, n_trials=8,
            n_groups=4, base_seed=11,
        )
        dist = run_group_trials(
            spark, kind="groupby_multi", data=data, n_budget=1000, n_trials=8,
            n_groups=4, base_seed=11,
        )
        assert loc["estimate"].tolist() == dist["estimate"].tolist()

    def test_spark_with_ci(self, spark, toy_strata):
        out = run_trials(
            spark, kind="abae", data=toy_strata, n_budget=300, n_trials=8,
            with_ci=True, n_boot=100,
        )
        assert (out["lo"] <= out["hi"]).all()


@pytest.fixture(scope="module")
def mixed_batch(toy_strata):
    """One condition of each trial family, with each condition's expected
    frame from a separate local run on the same seeds."""
    pop = (
        np.concatenate([v for v, _ in toy_strata]),
        np.concatenate([l for _, l in toy_strata]),
    )
    gds = D.synthetic_groupby_multi(n=5000)
    gdata = build_groupby_data(gds.pdf, list(gds.proxy_cols), 3)
    gpop = (gds.pdf["value"].to_numpy(float), gds.pdf["group"].to_numpy())
    cdata = T._combined_payload(D.synthetic_combine(n=5000))

    scalar = [
        dict(kind="abae", data=toy_strata, n_budget=300, n_trials=6, base_seed=5,
             with_ci=True, n_boot=50),
        dict(kind="uniform", data=pop, n_budget=200, n_trials=9, base_seed=8),
    ]
    group = [
        dict(kind="groupby_multi", data=gdata, n_budget=800, n_trials=4,
             n_groups=4, base_seed=2),
        dict(kind="uniform_single", data=gpop, n_budget=800, n_trials=7,
             n_groups=4, base_seed=2),
    ]
    conds = [scalar_condition(**kw) for kw in scalar]
    conds += [group_condition(**kw) for kw in group]
    conds.append(
        combined_condition(data=cdata, n_budget=600, n_trials=5, k=4,
                           pilot_frac=0.5, base_seed=13)
    )
    expected = [run_trials(None, **kw) for kw in scalar]
    expected += [run_group_trials(None, **kw) for kw in group]
    expected.append(
        pd.DataFrame(
            {
                "trial": np.arange(5),
                "estimate": [
                    combined_proxy_trial(*cdata, 600, np.random.default_rng(13 + i),
                                         k=4, pilot_frac=0.5)
                    for i in range(5)
                ],
            }
        )
    )
    return conds, expected


class TestRunConditions:
    def test_mixed_batch_matches_separate_runs(self, mixed_batch):
        conds, expected = mixed_batch
        for out, exp in zip(run_conditions(None, conds), expected, strict=True):
            pd.testing.assert_frame_equal(out[list(exp.columns)], exp, check_exact=True)

    def test_unknown_kind_raises(self, toy_strata):
        cond = scalar_condition(kind="uniform", data=None, n_budget=1, n_trials=1)
        with pytest.raises(ValueError):
            run_conditions(None, [cond._replace(kind="bogus")])


@pytest.mark.spark
class TestDistributedConditions:
    def test_spark_batch_matches_local_exactly(self, spark, mixed_batch):
        """Combined-proxy trials included: one interleaved Spark job gives
        bit-identical frames, sorted by trial, to the local loop."""
        conds, _ = mixed_batch
        local = run_conditions(None, conds)
        dist = run_conditions(spark, conds)
        for a, b in zip(local, dist, strict=True):
            pd.testing.assert_frame_equal(a, b, check_exact=True)

    def test_one_spark_job_per_table_call(self, spark):
        sc = spark.sparkContext
        group = f"table-fig2-{uuid.uuid4().hex}"
        sc.setJobGroup(group, "table_fig2, two datasets, two budgets")
        try:
            t = T.table_fig2(
                spark, datasets=("night_street", "taipei"), budgets=(4000, 10000),
                scale=0.02, n_trials=8,
            )
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert len(t) == 4
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1
