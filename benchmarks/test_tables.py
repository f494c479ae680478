"""Benchmark: every evaluation table of the paper, one case each.

Bench scale: datasets at SF=0.1 of paper sizes, 60–150 Monte-Carlo
trials per condition (paper: full size, 1000 trials). Each case prints
the table rows and saves them to ``results/<name>.csv`` for
EXPERIMENTS.md.
"""
import pytest

from repro.experiments import tables as T

# results/<name>.csv → (table function, arguments, rows in the table)
CASES = {
    "table2_datasets": (T.table2_datasets, dict(scale=0.1), 6),
    "fig2_rmse": (T.table_fig2, dict(scale=0.1, n_trials=100), 30),
    "fig3_low_budgets": (T.table_fig3, dict(scale=0.1, n_trials=100), 18),
    "fig4_qerror": (T.table_fig4, dict(scale=0.1, n_trials=100), 30),
    "fig5_ci": (T.table_fig5, dict(scale=0.1, n_trials=60), 30),
    "fig6_multipred": (T.table_fig6, dict(scale=0.1, n_trials=100), 10),
    "fig7_groupby_single": (T.table_fig7, dict(scale=0.1, n_trials=150), 8),
    "fig8_groupby_multi": (T.table_fig8, dict(scale=0.1, n_trials=100), 8),
    "fig9_lesion": (T.table_fig9, dict(scale=0.1, n_trials=100), 6),
    "fig10_k": (T.table_fig10, dict(scale=0.1, n_trials=100), 54),
    "fig11_c": (T.table_fig11, dict(scale=0.1, n_trials=100), 30),
    "fig12_combine": (T.table_fig12, dict(scale=0.1, n_trials=150), 10),
}


@pytest.mark.parametrize("name", CASES)
def test_table(benchmark, request, save_table, name):
    fn, kwargs, n_rows = CASES[name]
    # Table 2 is a dataset inventory and runs no trials.
    args = () if fn is T.table2_datasets else (request.getfixturevalue("spark"),)
    table = benchmark.pedantic(lambda: fn(*args, **kwargs), rounds=1, iterations=1)
    save_table(table, name)
    assert len(table) == n_rows
