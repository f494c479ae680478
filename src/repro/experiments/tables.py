"""Per-table experiment definitions for the evaluation section.

Each ``table_*`` function reproduces the numbers behind one evaluation
figure/table of the paper (see DESIGN.md §4 for the index) and returns
a tidy pandas DataFrame whose rows are what the paper plots. Jobs under
``jobs/`` print these; EXPERIMENTS.md records paper-vs-measured.

All functions take the SparkSession first plus knobs for scale /
budgets / trial count, defaulting to bench-friendly values (paper:
scale=1, 1000 trials). Each builds its list of conditions first and
runs all of them in one ``experiments.harness.run_conditions`` call,
which is one Spark job per table call.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.groupby import build_groupby_data
from repro.experiments import metrics as M
# run_trials / run_group_trials stay importable from this module, where
# perfbench's traced run looks them up.
from repro.experiments.harness import (  # noqa: F401
    combined_condition,
    estimates_matrix,
    group_condition,
    run_conditions,
    run_group_trials,
    run_trials,
    scalar_condition,
)
from repro.simulate import datasets as D

DEFAULT_BUDGETS = (2000, 4000, 6000, 8000, 10000)
LOW_BUDGETS = (500, 750, 1000)


def _cond_seed(*parts) -> int:
    """Deterministic per-condition seed offset.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED),
    which would make reruns non-reproducible; crc32 of the repr is
    stable across runs and machines.
    """
    import zlib

    return zlib.crc32(repr(parts).encode()) % 100_000


def _effective_budget(n_records: int, budget: int) -> int:
    """Clamp the budget at 60% of the (scaled) population so without-
    replacement sampling stays meaningful at small scales. At the
    paper's scale=1 the clamp never binds (max paper ratio ≈ 28%)."""
    return min(budget, int(0.6 * n_records))


def _scaled_budgets(budgets, scale: float) -> list[int]:
    """Shrink the paper's budgets with the dataset scale so the
    sampling fraction — which drives the ABAE-vs-uniform shape —
    matches the paper's. Deduplicates after flooring so a tiny scale
    cannot collapse the sweep into repeated conditions."""
    out = []
    for b in budgets:
        v = max(150, int(b * min(scale, 1.0)))
        while v in out:
            v += 50
        out.append(v)
    return out


def _run(spark, conds: dict) -> dict:
    """Run a table's keyed conditions in one batch; frames by key."""
    return dict(zip(conds, run_conditions(spark, list(conds.values()))))


def _sweep(
    spark,
    names,
    budgets,
    methods,
    *,
    scale,
    n_trials,
    k,
    c,
    seed,
    with_ci=False,
    n_boot=500,
):
    """Shared budget×dataset×method sweep; returns per-condition trial
    frames plus ground truths."""
    conds = {}
    truths = {}
    for name in names:
        ds = D.load(name, scale=scale)
        truths[name] = ds.ground_truth()
        strata = ds.strata(k)
        pop = ds.population()
        for budget in budgets:
            eb = _effective_budget(len(ds.pdf), budget)
            for method in methods:
                data = strata if method.startswith("abae") else pop
                conds[(name, budget, method)] = scalar_condition(
                    kind=method,
                    data=data,
                    n_budget=eb,
                    n_trials=n_trials,
                    base_seed=seed + _cond_seed(name, budget, method),
                    stage1_frac=c,
                    with_ci=with_ci,
                    n_boot=n_boot,
                )
    return _run(spark, conds), truths


def table_fig2(
    spark: SparkSession,
    *,
    datasets=D.REAL_WORLD,
    budgets=DEFAULT_BUDGETS,
    scale: float = 0.1,
    n_trials: int = 200,
    k: int = 5,
    c: float = 0.5,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 2: sampling budget vs RMSE, ABAE vs uniform, six datasets."""
    budgets = _scaled_budgets(budgets, scale)
    trials, truths = _sweep(
        spark, datasets, budgets, ("uniform", "abae"),
        scale=scale, n_trials=n_trials, k=k, c=c, seed=seed,
    )
    rows = []
    for name in datasets:
        for budget in budgets:
            r_uni = M.rmse(trials[(name, budget, "uniform")]["estimate"], truths[name])
            r_abae = M.rmse(trials[(name, budget, "abae")]["estimate"], truths[name])
            rows.append(
                {
                    "table": "fig2",
                    "dataset": name,
                    "budget": budget,
                    "rmse_uniform": r_uni,
                    "rmse_abae": r_abae,
                    "improvement": r_uni / r_abae if r_abae > 0 else float("inf"),
                    "truth": truths[name],
                }
            )
    return pd.DataFrame(rows)


def table_fig3(spark: SparkSession, **kw) -> pd.DataFrame:
    """Fig. 3: the same comparison at low budgets (500–1000)."""
    kw.setdefault("budgets", LOW_BUDGETS)
    df = table_fig2(spark, **kw)
    return df.assign(table="fig3")


def table_fig4(
    spark: SparkSession,
    *,
    datasets=D.REAL_WORLD,
    budgets=DEFAULT_BUDGETS,
    scale: float = 0.1,
    n_trials: int = 200,
    k: int = 5,
    c: float = 0.5,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 4: budget vs normalized Q-error (plus relative error —
    the text reports 14–70% and 13–76% gains)."""
    budgets = _scaled_budgets(budgets, scale)
    trials, truths = _sweep(
        spark, datasets, budgets, ("uniform", "abae"),
        scale=scale, n_trials=n_trials, k=k, c=c, seed=seed,
    )
    rows = []
    for name in datasets:
        for budget in budgets:
            e_uni = trials[(name, budget, "uniform")]["estimate"]
            e_abae = trials[(name, budget, "abae")]["estimate"]
            rows.append(
                {
                    "table": "fig4",
                    "dataset": name,
                    "budget": budget,
                    "qerror_uniform": M.normalized_qerror(e_uni, truths[name]),
                    "qerror_abae": M.normalized_qerror(e_abae, truths[name]),
                    "relerr_uniform": M.relative_error(e_uni, truths[name]),
                    "relerr_abae": M.relative_error(e_abae, truths[name]),
                }
            )
    return pd.DataFrame(rows)


def table_fig5(
    spark: SparkSession,
    *,
    datasets=D.REAL_WORLD,
    budgets=DEFAULT_BUDGETS,
    scale: float = 0.1,
    n_trials: int = 100,
    k: int = 5,
    c: float = 0.5,
    n_boot: int = 500,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 5: budget vs bootstrap CI width (α=0.05) + coverage."""
    budgets = _scaled_budgets(budgets, scale)
    trials, truths = _sweep(
        spark, datasets, budgets, ("uniform", "abae"),
        scale=scale, n_trials=n_trials, k=k, c=c, seed=seed,
        with_ci=True, n_boot=n_boot,
    )
    rows = []
    for name in datasets:
        for budget in budgets:
            t_uni = trials[(name, budget, "uniform")]
            t_abae = trials[(name, budget, "abae")]
            rows.append(
                {
                    "table": "fig5",
                    "dataset": name,
                    "budget": budget,
                    "ci_width_uniform": M.ci_width(t_uni["lo"], t_uni["hi"]),
                    "ci_width_abae": M.ci_width(t_abae["lo"], t_abae["hi"]),
                    "coverage_uniform": M.ci_coverage(t_uni["lo"], t_uni["hi"], truths[name]),
                    "coverage_abae": M.ci_coverage(t_abae["lo"], t_abae["hi"], truths[name]),
                }
            )
    return pd.DataFrame(rows)


def table_fig6(
    spark: SparkSession,
    *,
    budgets=DEFAULT_BUDGETS,
    scale: float = 0.1,
    n_trials: int = 200,
    k: int = 5,
    c: float = 0.5,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 6: multi-predicate queries (night-street cars ∧ red-light,
    joint p≈0.17, and the synthetic 5-strata/2-predicate set).
    ABAE-MultiPred stratifies by the ∧-combined score (product)."""
    budgets = _scaled_budgets(budgets, scale)
    sets = {
        "night_street_multipred": D.night_street_multipred(scale=scale),
        "synthetic_multipred": D.synthetic_multipred(n=max(5000, int(50_000 * scale * 10))),
    }
    labels = ("uniform", "abae_single_proxy", "abae_multipred")
    conds, truths = {}, {}
    for name, ds in sets.items():
        truths[name] = ds.ground_truth()
        data = {
            "uniform": ds.population(),
            "abae_single_proxy": ds.strata(k, proxy_col="proxy_0"),  # one predicate's proxy
            "abae_multipred": ds.strata(k, proxy_col="proxy"),       # combined score
        }
        for budget in budgets:
            for label in labels:
                conds[(name, budget, label)] = scalar_condition(
                    kind="uniform" if label == "uniform" else "abae",
                    data=data[label],
                    n_budget=_effective_budget(len(ds.pdf), budget),
                    n_trials=n_trials,
                    base_seed=seed + _cond_seed(name, budget, label),
                    stage1_frac=c,
                )
    trials = _run(spark, conds)
    rows = []
    for name in sets:
        for budget in budgets:
            e = {
                label: M.rmse(trials[(name, budget, label)]["estimate"], truths[name])
                for label in labels
            }
            rows.append(
                {
                    "table": "fig6", "dataset": name, "budget": budget,
                    "rmse_uniform": e["uniform"],
                    "rmse_abae_single_proxy": e["abae_single_proxy"],
                    "rmse_abae_multipred": e["abae_multipred"],
                    "improvement": (
                        e["uniform"] / e["abae_multipred"]
                        if e["abae_multipred"] > 0 else float("inf")
                    ),
                }
            )
    return pd.DataFrame(rows)


def _groupby_table(
    spark, table, sets, kind_abae, kind_uniform, norm_budgets, n_trials, k, c, seed
):
    conds = {}
    for name, ds in sets.items():
        data = build_groupby_data(ds.pdf, list(ds.proxy_cols), k)
        pop = (ds.pdf["value"].to_numpy(float), ds.pdf["group"].to_numpy())
        for nb in norm_budgets:
            total = _effective_budget(len(ds.pdf), nb * ds.n_groups)
            conds[(name, nb, "a")] = group_condition(
                kind=kind_abae, data=data, n_budget=total,
                n_trials=n_trials, n_groups=ds.n_groups,
                base_seed=seed + _cond_seed(name, nb, "a"), stage1_frac=c,
            )
            conds[(name, nb, "u")] = group_condition(
                kind=kind_uniform, data=pop, n_budget=total,
                n_trials=n_trials, n_groups=ds.n_groups,
                base_seed=seed + _cond_seed(name, nb, "u"),
            )
    trials = _run(spark, conds)
    rows = []
    for name, ds in sets.items():
        truths = ds.group_truths()
        for nb in norm_budgets:
            m_abae, m_uni = (
                M.max_group_rmse(estimates_matrix(trials[(name, nb, m)], ds.n_groups), truths)
                for m in ("a", "u")
            )
            rows.append(
                {
                    "table": table, "dataset": name, "normalized_budget": nb,
                    "max_rmse_uniform": m_uni, "max_rmse_abae": m_abae,
                    "improvement": m_uni / m_abae if m_abae > 0 else float("inf"),
                }
            )
    return pd.DataFrame(rows)


def table_fig7(
    spark: SparkSession,
    *,
    norm_budgets=(500, 1000, 1500, 2000),
    scale: float = 0.1,
    n_trials: int = 100,
    k: int = 5,
    c: float = 0.5,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 7: group-by with a single group-key oracle; max RMSE over
    groups vs per-group-normalized budget."""
    sets = {
        "celeba_groupby": D.celeba_groupby(scale=scale),
        "synthetic_groupby_single": D.synthetic_groupby_single(
            n=max(20_000, int(100_000 * scale * 10))
        ),
    }
    return _groupby_table(
        spark, "fig7", sets, "groupby_single", "uniform_single", norm_budgets,
        n_trials, k, c, seed,
    )


def table_fig8(
    spark: SparkSession,
    *,
    norm_budgets=(500, 1000, 1500, 2000),
    scale: float = 0.1,
    n_trials: int = 100,
    k: int = 5,
    c: float = 0.5,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 8: group-by with one oracle per group."""
    sets = {
        "celeba_groupby": D.celeba_groupby(scale=scale),
        "synthetic_groupby_multi": D.synthetic_groupby_multi(
            n=max(20_000, int(100_000 * scale * 10))
        ),
    }
    return _groupby_table(
        spark, "fig8", sets, "groupby_multi", "uniform_multi", norm_budgets,
        n_trials, k, c, seed,
    )


def table_fig9(
    spark: SparkSession,
    *,
    datasets=D.REAL_WORLD,
    budget: int = 10_000,
    scale: float = 0.1,
    n_trials: int = 200,
    k: int = 5,
    c: float = 0.5,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 9: lesion — full ABAE vs ABAE w/o sample reuse vs uniform,
    N=10,000."""
    (budget,) = _scaled_budgets((budget,), scale)
    trials, truths = _sweep(
        spark, datasets, (budget,), ("abae", "abae_noreuse", "uniform"),
        scale=scale, n_trials=n_trials, k=k, c=c, seed=seed,
    )
    rows = []
    for name in datasets:
        r = {
            m: M.rmse(trials[(name, budget, m)]["estimate"], truths[name])
            for m in ("abae", "abae_noreuse", "uniform")
        }
        rows.append(
            {
                "table": "fig9", "dataset": name, "budget": budget,
                "rmse_abae": r["abae"], "rmse_no_reuse": r["abae_noreuse"],
                "rmse_uniform": r["uniform"],
            }
        )
    return pd.DataFrame(rows)


def _sensitivity(spark, table, datasets, param, values, *, budget, scale,
                 n_trials, k, c, seed):
    """Figs. 10/11: ABAE RMSE as one knob (``param`` = "k" or "c") takes
    each of ``values``, against a uniform baseline at the same budget."""
    (budget,) = _scaled_budgets((budget,), scale)
    conds, truths, budgets = {}, {}, {}
    for name in datasets:
        ds = D.load(name, scale=scale)
        truths[name] = ds.ground_truth()
        eb = budgets[name] = _effective_budget(len(ds.pdf), budget)
        conds[(name, "u")] = scalar_condition(
            kind="uniform", data=ds.population(), n_budget=eb,
            n_trials=n_trials, base_seed=seed + _cond_seed(name, "u"),
        )
        strata = {kv: ds.strata(kv) for kv in (values if param == "k" else (k,))}
        for v in values:
            knobs = {"k": k, "c": c, param: v}
            conds[(name, v)] = scalar_condition(
                kind="abae", data=strata[knobs["k"]], n_budget=eb,
                n_trials=n_trials, base_seed=seed + _cond_seed(name, v),
                stage1_frac=knobs["c"],
            )
    trials = _run(spark, conds)
    rows = []
    for name in datasets:
        r_uni = M.rmse(trials[(name, "u")]["estimate"], truths[name])
        for v in values:
            rows.append(
                {
                    "table": table, "dataset": name, param: v, "budget": budgets[name],
                    "rmse_abae": M.rmse(trials[(name, v)]["estimate"], truths[name]),
                    "rmse_uniform": r_uni,
                }
            )
    return pd.DataFrame(rows)


def table_fig10(
    spark: SparkSession,
    *,
    datasets=D.REAL_WORLD,
    ks=tuple(range(2, 11)),
    budget: int = 10_000,
    scale: float = 0.1,
    n_trials: int = 100,
    c: float = 0.5,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 10: sensitivity to the number of strata K (2–10)."""
    return _sensitivity(
        spark, "fig10", datasets, "k", ks, budget=budget, scale=scale,
        n_trials=n_trials, k=None, c=c, seed=seed,
    )


def table_fig11(
    spark: SparkSession,
    *,
    datasets=D.REAL_WORLD,
    cs=(0.1, 0.3, 0.5, 0.7, 0.9),
    budget: int = 10_000,
    scale: float = 0.1,
    n_trials: int = 100,
    k: int = 5,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 11: sensitivity to the Stage-1 budget fraction C."""
    return _sensitivity(
        spark, "fig11", datasets, "c", cs, budget=budget, scale=scale,
        n_trials=n_trials, k=k, c=None, seed=seed,
    )


def _combined_payload(ds):
    """(scores by proxy name, values, labels) for a combined-proxy trial."""
    pdf = ds.pdf
    return (
        {cname: pdf[cname].to_numpy(float) for cname in ds.proxy_cols if cname != "proxy"},
        pdf["value"].to_numpy(float),
        pdf["label"].to_numpy(),
    )


def _combined_proxy_trials(spark, ds, budget, n_trials, k, c, base_seed):
    """Fig. 12 ABAE-with-combined-proxy trials of one condition, as
    columns trial, estimate: the pilot that fits the logistic merge
    doubles as Stage 1 (§3.4 sample reuse); see
    ``core.proxy_select.combined_proxy_trial``."""
    cond = combined_condition(
        data=_combined_payload(ds), n_budget=budget, n_trials=n_trials, k=k,
        pilot_frac=c, base_seed=base_seed,
    )
    (out,) = run_conditions(spark, [cond])
    return out[["trial", "estimate"]]


def table_fig12(
    spark: SparkSession,
    *,
    budgets=DEFAULT_BUDGETS,
    scale: float = 0.1,
    n_trials: int = 100,
    k: int = 5,
    c: float = 0.5,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 12: uniform vs single-proxy ABAE vs ABAE with the logistic
    proxy combination, on the trec05p keyword-proxy surrogate and the
    synthetic noisy-Bernoulli-proxy set."""
    budgets = _scaled_budgets(budgets, scale)
    sets = {
        "trec05p_proxies": D.trec05p_proxies(scale=max(scale, 0.05)),
        "synthetic_combine": D.synthetic_combine(n=max(5000, int(50_000 * scale * 10))),
    }
    conds = {}
    for name, ds in sets.items():
        pop = ds.population()
        strata_single = ds.strata(k, proxy_col=ds.proxy_cols[1])
        combined = _combined_payload(ds)
        for budget in budgets:
            eb = _effective_budget(len(ds.pdf), budget)
            conds[(name, budget, "u")] = scalar_condition(
                kind="uniform", data=pop, n_budget=eb, n_trials=n_trials,
                base_seed=seed + _cond_seed(name, budget, "u"),
            )
            conds[(name, budget, "s")] = scalar_condition(
                kind="abae", data=strata_single, n_budget=eb, n_trials=n_trials,
                base_seed=seed + _cond_seed(name, budget, "s"), stage1_frac=c,
            )
            conds[(name, budget, "c")] = combined_condition(
                data=combined, n_budget=eb, n_trials=n_trials, k=k, pilot_frac=c,
                base_seed=seed + _cond_seed(name, budget, "c"),
            )
    trials = _run(spark, conds)
    rows = []
    for name, ds in sets.items():
        truth = ds.ground_truth()
        for budget in budgets:
            rmse = {
                m: M.rmse(trials[(name, budget, m)]["estimate"], truth)
                for m in ("u", "s", "c")
            }
            rows.append(
                {
                    "table": "fig12", "dataset": name,
                    "budget": _effective_budget(len(ds.pdf), budget),
                    "rmse_uniform": rmse["u"],
                    "rmse_abae_single": rmse["s"],
                    "rmse_abae_combined": rmse["c"],
                }
            )
    return pd.DataFrame(rows)


def table2_datasets(scale: float = 0.1) -> pd.DataFrame:
    """Table 2: dataset inventory — paper sizes vs surrogate sizes,
    predicate positive rates, and oracle/proxy substitutions."""
    meta = {
        "night_street": ("At least one car", "Mask R-CNN", "TASTI"),
        "taipei": ("At least one car", "Mask R-CNN", "TASTI"),
        "celeba": ("Blonde hair", "Human labels", "MobileNetV2"),
        "amazon_posters": ("Contains woman", "MT-CNN+VGGFace", "MobileNetV2"),
        "trec05p": ("Is spam", "Human labels", "Keyword-based"),
        "amazon_office": ("Strong positive sentiment", "FlairNLP BERT", "NLTK"),
    }
    rows = []
    for name, (pred, target, proxy) in meta.items():
        ds = D.load(name, scale=scale)
        rows.append(
            {
                "table": "table2",
                "dataset": name,
                "paper_size": D.PAPER_SIZES[name],
                "surrogate_size": len(ds.pdf),
                "positive_rate": float(ds.pdf["label"].mean()),
                "predicate": pred,
                "paper_target_dnn": target,
                "paper_proxy": proxy,
                "ground_truth_mu": ds.ground_truth(),
            }
        )
    return pd.DataFrame(rows)
