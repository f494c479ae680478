"""Integration tests for the end-to-end Spark query path (core.abae):
budget metering and enforcement, correctness against the DuckDB
oracle, and parity with Algorithm 1 run locally over the same
sampling order."""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.abae import _ranked, abae_query, uniform_query
from repro.core.sampler import two_stage
from repro.oracle import assert_equivalent
from repro.simulate.oracles import BudgetExceededError, SimulatedOracle

pytestmark = pytest.mark.spark


@pytest.fixture(scope="module")
def ns_df(spark, night_street):
    df = night_street.to_spark(spark).persist()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def small_pdf(night_street):
    """A few thousand rows: small enough to collect the whole ranking."""
    return night_street.pdf[["id", "proxy", "value", "label"]].head(3000)


class TestAbaeQuery:
    def test_budget_respected(self, ns_df, night_street):
        oracle = SimulatedOracle("label")
        res = abae_query(ns_df, n_budget=800, oracle=oracle, seed=1)
        assert res.oracle_calls <= 800
        assert oracle.calls == res.oracle_calls

    def test_oracle_touches_only_sampled_rows(self, ns_df, night_street):
        """The defining property: far fewer oracle calls than records."""
        oracle = SimulatedOracle("label")
        abae_query(ns_df, n_budget=500, oracle=oracle, seed=2)
        assert oracle.calls <= 500 < len(night_street.pdf)

    def test_estimate_near_truth(self, ns_df, night_street):
        truth = night_street.ground_truth()
        oracle = SimulatedOracle("label")
        res = abae_query(ns_df, n_budget=2000, oracle=oracle, seed=3)
        assert res.estimate == pytest.approx(truth, rel=0.2)

    def test_ci_contains_estimate(self, ns_df):
        oracle = SimulatedOracle("label")
        res = abae_query(ns_df, n_budget=1000, oracle=oracle, seed=4, n_boot=300)
        lo, hi = res.ci
        assert lo <= res.estimate <= hi

    def test_deterministic_in_seed(self, ns_df):
        r1 = abae_query(ns_df, n_budget=600, oracle=SimulatedOracle("label"), seed=5)
        r2 = abae_query(ns_df, n_budget=600, oracle=SimulatedOracle("label"), seed=5)
        assert r1.estimate == r2.estimate

    def test_different_seeds_differ(self, ns_df):
        r1 = abae_query(ns_df, n_budget=600, oracle=SimulatedOracle("label"), seed=6)
        r2 = abae_query(ns_df, n_budget=600, oracle=SimulatedOracle("label"), seed=7)
        assert r1.estimate != r2.estimate

    def test_allocation_is_simplex(self, ns_df):
        res = abae_query(ns_df, n_budget=600, oracle=SimulatedOracle("label"), seed=8)
        assert res.allocation.sum() == pytest.approx(1.0)
        assert np.all(res.allocation >= 0)

    def test_samples_match_call_count(self, ns_df):
        res = abae_query(ns_df, n_budget=700, oracle=SimulatedOracle("label"), seed=9)
        assert sum(v.size for v, _ in res.samples) == res.oracle_calls

    def test_unbiased_across_seeds(self, ns_df, night_street):
        truth = night_street.ground_truth()
        ests = [
            abae_query(
                ns_df, n_budget=1000, oracle=SimulatedOracle("label"), seed=s
            ).estimate
            for s in range(12)
        ]
        assert np.mean(ests) == pytest.approx(truth, rel=0.1)

    def test_budget_below_k_raises_before_any_call(self, ns_df):
        oracle = SimulatedOracle("label")
        with pytest.raises(ValueError, match="below K"):
            abae_query(ns_df, n_budget=3, oracle=oracle, k=5, seed=1)
        assert oracle.calls == 0

    def test_budget_equal_to_k_draws_nothing_in_stage2(self, ns_df):
        oracle = SimulatedOracle("label")
        res = abae_query(ns_df, n_budget=5, oracle=oracle, k=5, seed=1)
        assert res.oracle_calls == oracle.calls == 5
        assert [v.size for v, _ in res.samples] == [1] * 5

    def test_oracle_budget_enforced_before_udf(self, ns_df):
        """ORACLE LIMIT on the Spark path: the driver refuses a draw the
        oracle's budget cannot pay for, before the UDF labels a row."""
        oracle = SimulatedOracle("label", budget=100)
        with pytest.raises(BudgetExceededError):
            abae_query(ns_df, n_budget=1000, oracle=oracle, seed=1)
        assert oracle.calls == 0

    def test_parity_with_local_two_stage(self, spark, small_pdf):
        """The Spark drawer is Algorithm 1's drawer over the collected
        ranking: a local drawer that follows the same order must give
        the identical estimate, allocation and per-stratum samples."""
        k, seed, budget = 4, 13, 400
        df = spark.createDataFrame(small_pdf)
        order = (
            _ranked(df, k, "proxy", "id", seed)
            .select("stratum", "_rank", "value", "label")
            .toPandas()
            .sort_values(["stratum", "_rank"])
        )
        strata = [
            (g["value"].to_numpy(dtype=float), g["label"].to_numpy())
            for _, g in order.groupby("stratum")
        ]
        taken = [0] * k

        def draw(counts):
            out = []
            for i, (v, l) in enumerate(strata):
                rows = slice(taken[i], taken[i] + counts[i])
                out.append((v[rows], l[rows]))
                taken[i] += counts[i]
            return out

        local = two_stage(draw, k, budget)
        res = abae_query(df, n_budget=budget, oracle=SimulatedOracle("label"), k=k, seed=seed)
        assert res.estimate == local.estimate
        assert res.oracle_calls == local.oracle_calls
        np.testing.assert_array_equal(res.allocation, local.allocation)
        for (v, l), (lv, ll) in zip(res.samples, local.samples, strict=True):
            np.testing.assert_array_equal(v, lv)
            np.testing.assert_array_equal(l, ll)

    def test_independent_of_input_partitioning(self, spark, small_pdf):
        df = spark.createDataFrame(small_pdf)
        one, seven = (
            abae_query(
                df.repartition(n), n_budget=500, oracle=SimulatedOracle("label"),
                seed=3, n_boot=200,
            )
            for n in (1, 7)
        )
        assert one.estimate == seven.estimate
        assert one.ci == seven.ci
        for (v1, l1), (v7, l7) in zip(one.samples, seven.samples, strict=True):
            np.testing.assert_array_equal(v1, v7)
            np.testing.assert_array_equal(l1, l7)


class TestUniformQuery:
    def test_budget_exact(self, ns_df):
        oracle = SimulatedOracle("label")
        res = uniform_query(ns_df, n_budget=900, oracle=oracle, seed=1)
        assert res.oracle_calls == 900

    def test_oracle_budget_enforced_before_udf(self, ns_df):
        oracle = SimulatedOracle("label", budget=100)
        with pytest.raises(BudgetExceededError):
            uniform_query(ns_df, n_budget=1000, oracle=oracle, seed=1)
        assert oracle.calls == 0

    def test_estimate_near_truth(self, ns_df, night_street):
        truth = night_street.ground_truth()
        res = uniform_query(
            ns_df, n_budget=3000, oracle=SimulatedOracle("label"), seed=2
        )
        assert res.estimate == pytest.approx(truth, rel=0.25)

    def test_matches_duckdb_on_same_sample(self, spark, night_street):
        """The uniform sample's aggregate must equal DuckDB's answer
        over the identical hash-selected sample — result equality, not
        just plausibility."""
        pdf = night_street.pdf
        df = night_street.to_spark(spark)
        w_expr = F.xxhash64(F.col("id"), F.lit(11))
        sampled = (
            df.withColumn("_h", w_expr)
            .orderBy("_h", "id")
            .limit(500)
            .select("id", "value", "label")
        )
        agg = sampled.filter(F.col("label") == 1).agg(
            F.avg("value").alias("mu"), F.count(F.lit(1)).alias("n_pos")
        )
        sample_pdf = sampled.toPandas()
        assert_equivalent(
            agg,
            "SELECT avg(value) AS mu, count(*) AS n_pos FROM s WHERE label = 1",
            s=sample_pdf,
        )


class TestExhaustiveGroundTruthParity:
    """The μ that every estimator targets, computed by Spark, must
    equal DuckDB's answer — on all six surrogates."""

    @pytest.mark.parametrize(
        "name",
        [
            "night_street",
            "taipei",
            "celeba",
            "amazon_posters",
            "trec05p",
            "amazon_office",
        ],
    )
    def test_ground_truth(self, spark, real_datasets, name):
        ds = real_datasets[name]
        pdf = ds.pdf[["id", "value", "label"]].head(5000)
        df = spark.createDataFrame(pdf)
        agg = df.filter(F.col("label") == 1).agg(F.avg("value").alias("mu"))
        assert_equivalent(
            agg, "SELECT avg(value) AS mu FROM t WHERE label = 1", t=pdf
        )
