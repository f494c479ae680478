"""Smoke + shape tests for experiments.tables: each evaluation table
runs end-to-end (tiny scale/trials) and reports the expected rows, and
headline orderings hold where trials suffice."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.experiments import tables as T
from repro.simulate import datasets as D

pytestmark = [pytest.mark.spark, pytest.mark.slow]

FAST = dict(scale=0.05, n_trials=30)
TWO_SETS = ("night_street", "amazon_posters")


class TestFig2:
    @pytest.fixture(scope="class")
    def fig2(self, spark):
        return T.table_fig2(
            spark, datasets=TWO_SETS, budgets=(4000, 10000), **FAST
        )

    def test_rows(self, fig2):
        assert len(fig2) == 4
        assert set(fig2["dataset"]) == set(TWO_SETS)

    def test_columns(self, fig2):
        for c in ("budget", "rmse_uniform", "rmse_abae", "improvement", "truth"):
            assert c in fig2.columns

    def test_abae_wins_overall(self, fig2):
        # With only 30 trials individual cells are noisy; the mean
        # improvement across cells must still favor ABAE.
        assert fig2["improvement"].mean() > 1.0

    def test_rmse_decreases_with_budget(self, fig2):
        for name in TWO_SETS:
            sub = fig2[fig2.dataset == name].sort_values("budget")
            assert sub["rmse_abae"].iloc[-1] < sub["rmse_abae"].iloc[0]


class TestFig3:
    def test_low_budget_rows(self, spark):
        t = T.table_fig3(spark, datasets=("night_street",), **FAST)
        assert (t["table"] == "fig3").all()
        assert len(t) == len(T.LOW_BUDGETS)


class TestFig4:
    def test_qerror_table(self, spark):
        t = T.table_fig4(spark, datasets=("taipei",), budgets=(10000,), **FAST)
        assert {"qerror_uniform", "qerror_abae", "relerr_uniform", "relerr_abae"} <= set(
            t.columns
        )
        assert (t["qerror_abae"] >= 0).all()


class TestFig5:
    def test_ci_table(self, spark):
        t = T.table_fig5(
            spark, datasets=("night_street",), budgets=(10000,),
            scale=0.05, n_trials=20, n_boot=200,
        )
        assert (t["ci_width_abae"] > 0).all()
        assert t["coverage_abae"].between(0.7, 1.0).all()
        assert t["coverage_uniform"].between(0.7, 1.0).all()


class TestFig6:
    def test_multipred_table(self, spark):
        t = T.table_fig6(spark, budgets=(10000,), **FAST)
        assert set(t["dataset"]) == {"night_street_multipred", "synthetic_multipred"}
        for c in ("rmse_uniform", "rmse_abae_single_proxy", "rmse_abae_multipred"):
            assert (t[c] > 0).all()


class TestFig7And8:
    def test_groupby_single_table(self, spark):
        t = T.table_fig7(spark, norm_budgets=(500,), scale=0.02, n_trials=20)
        assert {"max_rmse_uniform", "max_rmse_abae"} <= set(t.columns)
        assert len(t) == 2

    def test_groupby_multi_table(self, spark):
        t = T.table_fig8(spark, norm_budgets=(500,), scale=0.02, n_trials=20)
        assert len(t) == 2
        # multi-oracle gains are the paper's largest; even 20 trials
        # should show ABAE ahead on the synthetic set
        syn = t[t.dataset == "synthetic_groupby_multi"].iloc[0]
        assert syn["max_rmse_abae"] < syn["max_rmse_uniform"]


class TestFig9:
    def test_lesion_table(self, spark):
        t = T.table_fig9(spark, datasets=("night_street",), **FAST)
        row = t.iloc[0]
        assert row["rmse_abae"] > 0
        # Full ABAE ≤ no-reuse (the Fig. 9 ordering), loose with 30 trials.
        assert row["rmse_abae"] <= row["rmse_no_reuse"] * 1.3


class TestFig10And11:
    def test_k_sensitivity(self, spark):
        t = T.table_fig10(spark, datasets=("night_street",), ks=(2, 5, 8), **FAST)
        assert len(t) == 3
        assert (t["rmse_uniform"] > 0).all()

    def test_c_sensitivity(self, spark):
        t = T.table_fig11(spark, datasets=("night_street",), cs=(0.3, 0.5), **FAST)
        assert len(t) == 2


class TestFig12:
    def test_combine_table(self, spark):
        t = T.table_fig12(spark, budgets=(10000,), **FAST)
        assert set(t["dataset"]) == {"trec05p_proxies", "synthetic_combine"}
        for c in ("rmse_uniform", "rmse_abae_single", "rmse_abae_combined"):
            assert (t[c] > 0).all()

    def test_combined_trials_spark_matches_local(self, spark):
        """Combined-proxy trials come back sorted by trial, bit-identical
        to the local loop."""
        ds = D.synthetic_combine(n=5000)
        loc, dist = (T._combined_proxy_trials(s, ds, 600, 24, 5, 0.5, 7)
                     for s in (None, spark))
        pd.testing.assert_frame_equal(loc, dist, check_exact=True)

    def test_reruns_are_identical(self, spark):
        """Sorted trials make the RMSE sum in a fixed order."""
        a, b = (T.table_fig12(spark, budgets=(4000,), scale=0.02, n_trials=20)
                for _ in range(2))
        pd.testing.assert_frame_equal(a, b, check_exact=True)


class TestTable2:
    def test_inventory(self):
        t = T.table2_datasets(scale=0.02)
        assert len(t) == 6
        assert (t["surrogate_size"] <= t["paper_size"]).all()
        assert t["positive_rate"].between(0.01, 0.5).all()
