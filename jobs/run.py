"""Reproduce one evaluation table of the paper and print its rows.

    python jobs/run.py --table fig2 --scale 0.1 --trials 200 --seed 0
    spark-submit jobs/run.py --table fig5 --scale 0.1

``--table`` is one of the keys of ``TABLES`` (DESIGN.md §4 indexes
them; EXPERIMENTS.md records paper-vs-measured). Table 2 is a dataset
inventory: it starts no Spark session and ignores ``--trials`` and
``--seed``.
"""
from __future__ import annotations

import argparse

import pandas as pd
from pyspark.sql import SparkSession

from repro.experiments import tables as T

#: --table key → (table function, title of the figure it reproduces).
TABLES = {
    "table2": (T.table2_datasets, "Table 2 — dataset inventory"),
    "fig2": (T.table_fig2, "Fig. 2 — sampling budget vs RMSE (ABAE vs uniform, six datasets)"),
    "fig3": (T.table_fig3, "Fig. 3 — low sampling budgets vs RMSE"),
    "fig4": (T.table_fig4, "Fig. 4 — budget vs normalized Q-error and relative error"),
    "fig5": (T.table_fig5, "Fig. 5 — budget vs bootstrap CI width and coverage"),
    "fig6": (T.table_fig6, "Fig. 6 — multi-predicate queries (ABAE-MultiPred)"),
    "fig7": (T.table_fig7, "Fig. 7 — group-by with a single group-key oracle (max RMSE)"),
    "fig8": (T.table_fig8, "Fig. 8 — group-by with one oracle per group (max RMSE)"),
    "fig9": (T.table_fig9, "Fig. 9 — lesion study (sample reuse, two-stage allocation)"),
    "fig10": (T.table_fig10, "Fig. 10 — sensitivity to the number of strata K"),
    "fig11": (T.table_fig11, "Fig. 11 — sensitivity to the Stage-1 fraction C"),
    "fig12": (T.table_fig12, "Fig. 12 — combining proxies via logistic regression"),
}


def build_session(app: str) -> SparkSession:
    """SparkSession for a standalone job run (mirrors conftest.py)."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", "64")
        .getOrCreate()
    )


def run_table(name: str, scale: float, trials: int, seed: int) -> pd.DataFrame:
    """The rows of table ``name``, with a Spark session for the run
    unless the table needs none."""
    fn, _ = TABLES[name]
    if fn is T.table2_datasets:
        return fn(scale=scale)
    spark = build_session(f"abae_{name}")
    try:
        return fn(spark, scale=scale, n_trials=trials, seed=seed)
    finally:
        spark.stop()


def print_table(df: pd.DataFrame, title: str) -> None:
    """Print the result rows the way the paper's figure reports them."""
    print(f"\n=== {title} ===")
    with pd.option_context("display.width", 200, "display.max_columns", 50):
        print(df.to_string(index=False, float_format=lambda v: f"{v:.4f}"))


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--table", required=True, choices=TABLES)
    p.add_argument("--scale", type=float, default=0.1, help="dataset scale factor")
    p.add_argument("--trials", type=int, default=200, help="Monte-Carlo trials per condition")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    table = run_table(args.table, args.scale, args.trials, args.seed)
    print_table(table, TABLES[args.table][1])


if __name__ == "__main__":
    main()
