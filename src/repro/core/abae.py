"""End-to-end ABAE over a Spark DataFrame (single predicate).

This is the query-processing path: the full dataset only ever flows
through *cheap* Catalyst operators (proxy stratification, seeded rank,
filters); the expensive oracle UDF touches **only sampled rows**, which
is the entire point of the paper. The dataflow is:

1. ``add_stratum`` — exact proxy-quantile strata (Algorithm 1 Init).
2. A deterministic per-stratum sampling order via ``xxhash64(id, seed)``
   ranked within each stratum (window partitioned by stratum ⇒ runs in
   parallel across strata). The ranked frame is persisted, so both
   draws filter the cached ranking instead of recomputing it.
3. ``sampler.two_stage`` — the same Algorithm 1 as the Monte-Carlo
   kernel — drives the sampling. Each of its two draws filters every
   stratum's next rank range (Stage 1 ranks 1..N₁/K, Stage 2 the next
   ⌊N₂·T̂_k⌋ ranks: without replacement, with sample reuse), applies
   the oracle UDF and collects the labelled rows, ordered by
   (stratum, rank) so the answer does not depend on partitioning.
4. The plug-in estimates, the allocation of Proposition 1 and the
   combined answer are computed on the driver from the ≤ N collected
   rows; optional bootstrap CI (Algorithm 2) over the same rows.

Before each draw the driver checks the rows it is about to label
against the oracle's budget, so an ``ORACLE LIMIT`` is refused before
the UDF runs, not after.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.bootstrap import bootstrap_ci
from repro.core.estimator import plugin_estimates
from repro.core.sampler import two_stage
from repro.core.stratify import add_stratum
from repro.simulate.oracles import SimulatedOracle


@dataclass
class ABAEQueryResult:
    """Result of an ABAE Spark query.

    Attributes:
        estimate: the approximate answer μ̂_all.
        ci: (lower, upper) bootstrap CI, or None if no CI requested.
        oracle_calls: oracle invocations actually spent.
        p_hat/mu_hat/sigma_hat: final per-stratum plug-in estimates.
        allocation: Stage-2 allocation T̂.
        samples: per-stratum sampled (values, labels), for reuse.
    """

    estimate: float
    ci: tuple[float, float] | None
    oracle_calls: int
    p_hat: np.ndarray
    mu_hat: np.ndarray
    sigma_hat: np.ndarray
    allocation: np.ndarray
    samples: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def _ranked(df: DataFrame, k: int, proxy_col: str, id_col: str, seed: int) -> DataFrame:
    """Stratify and attach a deterministic per-stratum sampling rank.

    ``xxhash64(id, seed)`` is a pure function of the row, so the rank
    is stable across stages and re-evaluations (unlike ``rand()``).
    """
    out = add_stratum(df, k, proxy_col=proxy_col, id_col=id_col)
    w = Window.partitionBy("stratum").orderBy(
        F.xxhash64(F.col(id_col), F.lit(seed)), F.col(id_col)
    )
    return out.withColumn("_rank", F.row_number().over(w))


def _rank_drawer(ranked: DataFrame, k: int, oracle: SimulatedOracle, value_col: str):
    """A ``two_stage`` drawer over ``_ranked``'s output: each call labels
    the next ``counts[i]`` ranks of every stratum i, and only those."""
    taken = np.zeros(k, dtype=np.int64)

    def draw(counts):
        counts = np.asarray(counts, dtype=np.int64)
        oracle.check_budget(int(counts.sum()))
        sel = F.lit(False)
        for i in np.flatnonzero(counts):
            sel = sel | (
                (F.col("stratum") == int(i))
                & F.col("_rank").between(int(taken[i]) + 1, int(taken[i] + counts[i]))
            )
        taken[:] += counts
        pdf = (
            oracle.apply(ranked.filter(sel))
            .select("stratum", "_rank", value_col, "oracle_label")
            .toPandas()
            .sort_values(["stratum", "_rank"])
        )
        out = []
        for i in range(k):
            sub = pdf[pdf["stratum"] == i]
            out.append(
                (sub[value_col].to_numpy(dtype=float), sub["oracle_label"].to_numpy())
            )
        return out

    return draw


def abae_query(
    df: DataFrame,
    *,
    n_budget: int,
    oracle: SimulatedOracle,
    k: int = 5,
    stage1_frac: float = 0.5,
    proxy_col: str = "proxy",
    value_col: str = "value",
    id_col: str = "id",
    seed: int = 0,
    n_boot: int = 0,
    alpha: float = 0.05,
) -> ABAEQueryResult:
    """Answer ``SELECT AVG(value) WHERE O(x) ORACLE LIMIT n_budget``
    with ABAE on a Spark DataFrame. See module docstring for dataflow.
    """
    ranked = _ranked(df, k, proxy_col, id_col, seed).persist()
    try:
        res = two_stage(
            _rank_drawer(ranked, k, oracle, value_col), k, n_budget,
            stage1_frac=stage1_frac,
        )
    finally:
        ranked.unpersist()
    final = [plugin_estimates(v, l) for v, l in res.samples]
    ci = None
    if n_boot > 0:
        ci = bootstrap_ci(
            res.samples, np.random.default_rng(seed + 7), n_boot=n_boot, alpha=alpha
        )
    return ABAEQueryResult(
        estimate=res.estimate,
        ci=ci,
        oracle_calls=oracle.calls,
        p_hat=np.array([e.p_hat for e in final]),
        mu_hat=np.array([e.mu_hat for e in final]),
        sigma_hat=np.array([e.sigma_hat for e in final]),
        allocation=res.allocation,
        samples=res.samples,
    )


def uniform_query(
    df: DataFrame,
    *,
    n_budget: int,
    oracle: SimulatedOracle,
    value_col: str = "value",
    id_col: str = "id",
    seed: int = 0,
    n_boot: int = 0,
    alpha: float = 0.05,
) -> ABAEQueryResult:
    """Uniform-sampling baseline as a Spark query: take the first
    ``n_budget`` ranks of a seeded hash ordering (a uniform without-
    replacement sample), label them with the oracle, average the
    positives.

    The sample is selected with a rank window + filter rather than
    ``orderBy().limit()``: the latter compiles to TakeOrderedAndProject
    whose projection evaluates the oracle UDF outside a task, losing
    the accumulator updates that meter the oracle budget.
    """
    w = Window.orderBy(F.xxhash64(F.col(id_col), F.lit(seed)), F.col(id_col))
    sampled = (
        df.withColumn("_rank", F.row_number().over(w))
        .filter(F.col("_rank") <= n_budget)
    )
    oracle.check_budget(n_budget)
    pdf = oracle.apply(sampled).select(value_col, "oracle_label").toPandas()
    v = pdf[value_col].to_numpy(dtype=float)
    l = pdf["oracle_label"].to_numpy()
    est = plugin_estimates(v, l)
    ci = None
    if n_boot > 0:
        ci = bootstrap_ci(
            [(v, l)], np.random.default_rng(seed + 7), n_boot=n_boot, alpha=alpha
        )
    return ABAEQueryResult(
        estimate=est.mu_hat,
        ci=ci,
        oracle_calls=oracle.calls,
        p_hat=np.array([est.p_hat]),
        mu_hat=np.array([est.mu_hat]),
        sigma_hat=np.array([est.sigma_hat]),
        allocation=np.array([]),
        samples=[(v, l)],
    )
