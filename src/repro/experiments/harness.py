"""Spark-parallel Monte-Carlo trial harness.

The paper runs every condition 1,000 times. A single trial is a cheap
numpy kernel (core.sampler / core.groupby / core.proxy_select); the
fleet of trials is embarrassingly parallel. At bench scale a trial
costs 0.1–12 ms, so the fixed cost of a Spark job per condition (≈0.3 s
in local mode on 4 cores) would dominate. ``run_conditions`` therefore runs every
(condition, trial) task of an evaluation table in **one** Spark job:

* the tasks are interleaved round-robin across conditions, so each
  partition gets an even mix of cheap and expensive trials;
* each distinct payload (per-stratum arrays, a population, group-by
  data) is broadcast once;
* ``spark.range(n_tasks)`` is split into one partition per core, with no
  shuffle (each task has a fixed cost, so more partitions were slower),
  and ``mapInPandas`` returns generic
  ``(cond, trial, group, estimate, lo, hi, calls)`` rows;
* the driver splits the rows per condition, sorted by (trial, group).

Trial ``i`` of a condition draws from ``default_rng(base_seed + i)``, so
results do not depend on the partitioning. With ``spark=None`` the same
per-task function runs in a local loop. ``run_trials`` and
``run_group_trials`` are one-condition calls of the runner.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Any, NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.bootstrap import bootstrap_ci
from repro.core.groupby import (
    groupby_multi_trial,
    groupby_single_trial,
    groupby_uniform_trial,
)
from repro.core.proxy_select import combined_proxy_trial
from repro.core.sampler import abae_trial, uniform_trial

SCALAR_KINDS = ("abae", "abae_noreuse", "uniform")
GROUP_KINDS = ("groupby_single", "groupby_multi", "uniform_single", "uniform_multi")
COMBINED_KIND = "combined_proxy"

COLUMNS = ["cond", "trial", "group", "estimate", "lo", "hi", "calls"]
SCHEMA = (
    "cond long, trial long, group long, estimate double, lo double, "
    "hi double, calls long"
)


class Condition(NamedTuple):
    """One experimental condition: ``n_trials`` trials of ``kind`` on
    ``data``, trial i seeded with ``base_seed + i``. ``params`` are the
    kind's knobs (see :func:`_trial_rows`)."""

    kind: str
    data: Any
    params: dict
    base_seed: int
    n_trials: int


def scalar_condition(
    *,
    kind: str,
    data: Any,
    n_budget: int,
    n_trials: int,
    base_seed: int = 0,
    stage1_frac: float = 0.5,
    with_ci: bool = False,
    n_boot: int = 1000,
    alpha: float = 0.05,
) -> Condition:
    """A scalar-estimate condition; arguments as for :func:`run_trials`."""
    if kind not in SCALAR_KINDS:
        raise ValueError(f"kind must be one of {SCALAR_KINDS}, got {kind!r}")
    params = dict(
        n_budget=n_budget, stage1_frac=stage1_frac, with_ci=with_ci,
        n_boot=n_boot, alpha=alpha,
    )
    return Condition(kind, data, params, base_seed, n_trials)


def group_condition(
    *,
    kind: str,
    data: Any,
    n_budget: int,
    n_trials: int,
    n_groups: int,
    base_seed: int = 0,
    stage1_frac: float = 0.5,
) -> Condition:
    """A group-by condition; arguments as for :func:`run_group_trials`."""
    if kind not in GROUP_KINDS:
        raise ValueError(f"kind must be one of {GROUP_KINDS}, got {kind!r}")
    params = dict(n_budget=n_budget, n_groups=n_groups, stage1_frac=stage1_frac)
    return Condition(kind, data, params, base_seed, n_trials)


def combined_condition(
    *,
    data: tuple[dict[str, np.ndarray], np.ndarray, np.ndarray],
    n_budget: int,
    n_trials: int,
    k: int,
    pilot_frac: float,
    base_seed: int = 0,
) -> Condition:
    """A Fig.-12 combined-proxy condition; ``data`` is (scores by proxy
    name, values, labels), see ``core.proxy_select.combined_proxy_trial``."""
    params = dict(n_budget=n_budget, k=k, pilot_frac=pilot_frac)
    return Condition(COMBINED_KIND, data, params, base_seed, n_trials)


def _trial_rows(
    kind: str, data: Any, p: dict, rng: np.random.Generator
) -> list[tuple[int, float, float, float, int]]:
    """One trial of ``kind`` (validated by :func:`run_conditions`): rows
    of (group, estimate, lo, hi, calls)."""
    nan = float("nan")
    if kind in SCALAR_KINDS:
        if kind == "uniform":
            res = uniform_trial(*data, p["n_budget"], rng)
        else:
            res = abae_trial(
                data, p["n_budget"], rng, stage1_frac=p["stage1_frac"],
                reuse=(kind == "abae"),
            )
        lo = hi = nan
        if p["with_ci"]:
            lo, hi = bootstrap_ci(res.samples, rng, n_boot=p["n_boot"], alpha=p["alpha"])
        return [(0, res.estimate, lo, hi, res.oracle_calls)]
    if kind in GROUP_KINDS:
        if kind == "groupby_single":
            res = groupby_single_trial(data, p["n_budget"], rng, stage1_frac=p["stage1_frac"])
        elif kind == "groupby_multi":
            res = groupby_multi_trial(data, p["n_budget"], rng, stage1_frac=p["stage1_frac"])
        else:
            values, groups = data
            res = groupby_uniform_trial(
                values, groups, p["n_budget"], rng, p["n_groups"],
                per_group_oracle=(kind == "uniform_multi"),
            )
        return [
            (g, float(res.estimates[g]), nan, nan, res.oracle_calls)
            for g in range(p["n_groups"])
        ]
    est = combined_proxy_trial(
        *data, p["n_budget"], rng, k=p["k"], pilot_frac=p["pilot_frac"]
    )
    # The combined-proxy kernel spends at most the budget and does not
    # report its exact spend.
    return [(0, est, nan, nan, p["n_budget"])]


def _interleave(conditions: Sequence[Condition]) -> np.ndarray:
    """Task list as (cond, trial) rows, round-robin across conditions."""
    longest = max((c.n_trials for c in conditions), default=0)
    return np.array(
        [
            (ci, i)
            for i in range(longest)
            for ci, c in enumerate(conditions)
            if i < c.n_trials
        ],
        dtype=np.int64,
    ).reshape(-1, 2)


def run_conditions(
    spark: SparkSession | None, conditions: Sequence[Condition]
) -> list[pd.DataFrame]:
    """Run every trial of every condition; one Spark job in all.

    Returns one frame per condition, in order, with columns trial,
    group, estimate, lo, hi, calls, sorted by (trial, group). Scalar
    and combined-proxy trials have one row with group 0; ``lo``/``hi``
    are NaN unless a CI was asked for.
    """
    for c in conditions:
        if c.kind not in (*SCALAR_KINDS, *GROUP_KINDS, COMBINED_KIND):
            raise ValueError(f"unknown trial kind: {c.kind!r}")
    tasks = _interleave(conditions)
    # Conditions that share a payload object share one broadcast.
    slot: dict[int, int] = {}
    payloads = []
    for c in conditions:
        if id(c.data) not in slot:
            slot[id(c.data)] = len(payloads)
            payloads.append(c.data)
    meta = [(c.kind, slot[id(c.data)], c.params, c.base_seed) for c in conditions]

    def task_rows(t: int, data: list) -> Iterator[tuple]:
        ci, i = (int(x) for x in tasks[t])
        kind, s, params, base_seed = meta[ci]
        rng = np.random.default_rng(base_seed + i)
        for row in _trial_rows(kind, data[s], params, rng):
            yield (ci, i, *row)

    if spark is None or len(tasks) == 0:
        rows = [r for t in range(len(tasks)) for r in task_rows(t, payloads)]
        out = pd.DataFrame(rows, columns=COLUMNS)
    else:
        sc = spark.sparkContext
        bcs = [sc.broadcast(d) for d in payloads]

        def worker(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            data = [b.value for b in bcs]
            for batch in batches:
                rows = [r for t in batch["id"] for r in task_rows(int(t), data)]
                yield pd.DataFrame(rows, columns=COLUMNS)

        n_part = min(len(tasks), sc.defaultParallelism)
        out = (
            spark.range(0, len(tasks), numPartitions=n_part)
            .mapInPandas(worker, schema=SCHEMA)
            .toPandas()
        )
        for b in bcs:
            b.unpersist()

    parts = dict(tuple(out.sort_values(COLUMNS[:3]).groupby("cond")))
    empty = out.iloc[:0]
    return [
        parts.get(ci, empty).drop(columns="cond").reset_index(drop=True)
        for ci in range(len(conditions))
    ]


def run_trials(
    spark: SparkSession | None,
    *,
    kind: str,
    data: Any,
    n_budget: int,
    n_trials: int,
    base_seed: int = 0,
    stage1_frac: float = 0.5,
    with_ci: bool = False,
    n_boot: int = 1000,
    alpha: float = 0.05,
) -> pd.DataFrame:
    """Run ``n_trials`` independent trials of a scalar-estimate method.

    Args:
        spark: session for distributed execution, or None for local.
        kind: "abae" | "abae_noreuse" | "uniform".
        data: per-stratum arrays for ABAE kinds, (values, labels) for
            uniform.
        n_budget: oracle budget per trial.
        n_trials: number of Monte-Carlo repetitions.
        base_seed: trial i uses seed ``base_seed + i``.
        with_ci: also compute a bootstrap CI per trial (Algorithm 2).

    Returns:
        DataFrame with columns trial, estimate, lo, hi, calls.
    """
    cond = scalar_condition(
        kind=kind, data=data, n_budget=n_budget, n_trials=n_trials,
        base_seed=base_seed, stage1_frac=stage1_frac, with_ci=with_ci,
        n_boot=n_boot, alpha=alpha,
    )
    (out,) = run_conditions(spark, [cond])
    return out[["trial", "estimate", "lo", "hi", "calls"]]


def run_group_trials(
    spark: SparkSession | None,
    *,
    kind: str,
    data: Any,
    n_budget: int,
    n_trials: int,
    n_groups: int,
    base_seed: int = 0,
    stage1_frac: float = 0.5,
) -> pd.DataFrame:
    """Run group-by trials; returns one row per (trial, group).

    Args:
        kind: "groupby_single" | "groupby_multi" (ABAE-GroupBy) or
            "uniform_single" | "uniform_multi" (baseline).
        data: :class:`GroupByData` for ABAE kinds, (values, groups)
            arrays for the uniform kinds.
        n_budget: total oracle budget per trial (already multiplied by
            the number of groups — the figures normalize by G).
    """
    cond = group_condition(
        kind=kind, data=data, n_budget=n_budget, n_trials=n_trials,
        n_groups=n_groups, base_seed=base_seed, stage1_frac=stage1_frac,
    )
    (out,) = run_conditions(spark, [cond])
    return out[["trial", "group", "estimate", "calls"]]


def estimates_matrix(df: pd.DataFrame, n_groups: int) -> np.ndarray:
    """Pivot run_group_trials output to a (n_trials, n_groups) matrix."""
    return (
        df.pivot(index="trial", columns="group", values="estimate")
        .sort_index()[list(range(n_groups))]
        .to_numpy()
    )
