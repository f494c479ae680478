"""Two-stage ABAE sampling (Algorithm 1) and the Monte-Carlo baselines.

``two_stage`` is Algorithm 1, written once. It asks a *drawer* for
records and does everything else on the driver:

* Stage 1 draws N₁/K records per stratum and forms plug-in estimates
  p̂_k, σ̂_k (``estimator.plugin_estimates``).
* Stage 2 draws ⌊N₂·T̂_k⌋ further records with T̂_k ∝ √p̂_k σ̂_k
  (Proposition 1).
* With sample reuse (the default, and critical per the Fig. 9 lesion),
  the final estimates use the union of both stages' draws.

A drawer labels the next records of each stratum in that stratum's
fixed sampling order, so the two stages never draw a record twice
(sampling without replacement across stages). There are two drawers:

* ``abae_trial`` (the Monte-Carlo kernel) walks one random permutation
  per stratum of per-stratum ``(values, labels)`` numpy arrays (see
  ``core.stratify.strata_arrays``).
* ``core.abae.abae_query`` (the Spark query) walks a per-stratum
  ``xxhash64(id, seed)`` rank and labels only the drawn rows.

Baselines: ``uniform_trial`` (the paper's main comparison) and
``abae_trial(..., reuse=False)`` (the Fig. 9 lesion).
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import optimal_allocation, stage2_counts
from repro.core.estimator import StratumEstimate, combine, plugin_estimates


@dataclass
class TrialResult:
    """Outcome of one sampling trial.

    Attributes:
        estimate: μ̂_all, the approximate answer.
        oracle_calls: number of oracle invocations spent.
        samples: per-stratum (values, labels) of *all* draws made, in
            draw order — the input to the bootstrap (Algorithm 2).
        stage1: per-stratum Stage-1 plug-in estimates.
        allocation: T̂ used for Stage 2 (empty for uniform sampling).
    """

    estimate: float
    oracle_calls: int
    samples: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    stage1: list[StratumEstimate] = field(default_factory=list)
    allocation: np.ndarray = field(default_factory=lambda: np.array([]))


def split_budget(n_budget: int, k: int, stage1_frac: float) -> tuple[int, int]:
    """(per-stratum Stage-1 draws, total Stage-2 budget).

    The paper allocates a fraction C of the budget to Stage 1, split
    evenly across the K strata; Stage 2 gets the remainder.
    """
    if not 0.0 < stage1_frac < 1.0:
        raise ValueError(f"stage1_frac must be in (0,1), got {stage1_frac}")
    n1_per = max(1, int(n_budget * stage1_frac) // k)
    n2 = n_budget - n1_per * k
    return n1_per, max(0, n2)


def two_stage(
    draw: Callable[[np.ndarray], list[tuple[np.ndarray, np.ndarray]]],
    k: int,
    n_budget: int,
    *,
    stage1_frac: float = 0.5,
    reuse: bool = True,
) -> TrialResult:
    """Algorithm 1 (``ABAESample``) over K strata served by ``draw``.

    Args:
        draw: ``draw(counts)`` labels the next ``counts[i]`` records of
            stratum i in that stratum's sampling order (fewer if the
            stratum runs out) and returns per-stratum ``(values, labels)``.
        k: number of strata K.
        n_budget: total oracle budget N (the ``ORACLE LIMIT``).
        stage1_frac: fraction C of budget given to Stage 1.
        reuse: reuse Stage-1 samples in the final estimates (lesion
            study disables this).

    Raises:
        ValueError: ``n_budget < k``. Stage 1 needs one draw per
            stratum, so such a budget cannot be kept; nothing is drawn.
    """
    if n_budget < k:
        raise ValueError(
            f"oracle budget {n_budget} is below K={k}: Stage 1 needs a draw per stratum"
        )
    n1_per, n2 = split_budget(n_budget, k, stage1_frac)
    first = draw(np.full(k, n1_per, dtype=np.int64))
    stage1 = [plugin_estimates(v, l) for v, l in first]
    t_hat = optimal_allocation(
        np.array([e.p_hat for e in stage1]), np.array([e.sigma_hat for e in stage1])
    )
    second = draw(stage2_counts(t_hat, n2))

    samples = [
        (np.concatenate([v1, v2]), np.concatenate([l1, l2]))
        for (v1, l1), (v2, l2) in zip(first, second)
    ]
    final = [plugin_estimates(*s) for s in (samples if reuse else second)]
    return TrialResult(
        estimate=combine([e.p_hat for e in final], [e.mu_hat for e in final]),
        oracle_calls=sum(v.size for v, _ in samples),
        samples=samples,
        stage1=stage1,
        allocation=t_hat,
    )


def abae_trial(
    strata: list[tuple[np.ndarray, np.ndarray]],
    n_budget: int,
    rng: np.random.Generator,
    *,
    stage1_frac: float = 0.5,
    reuse: bool = True,
    oracle=None,
) -> TrialResult:
    """Run one ABAE trial (Algorithm 1, ``ABAESample``) on numpy strata.

    Each stratum's sampling order is one permutation drawn from ``rng``.

    Args:
        strata: per-stratum (values, labels) arrays.
        n_budget: total oracle budget N.
        rng: the trial's random generator (seeded by the harness).
        stage1_frac: fraction C of budget given to Stage 1.
        reuse: reuse Stage-1 samples in the final estimates (lesion
            study disables this).
        oracle: optional ``SimulatedOracle`` to charge invocations to.
    """
    perms = [rng.permutation(vals.size) for vals, _ in strata]
    taken = [0] * len(strata)

    def draw(counts):
        out = []
        for i, (vals, labs) in enumerate(strata):
            idx = perms[i][taken[i] : taken[i] + counts[i]]
            taken[i] += idx.size
            labels = labs[idx] if oracle is None else oracle.call(labs[idx])
            out.append((vals[idx], labels))
        return out

    return two_stage(draw, len(strata), n_budget, stage1_frac=stage1_frac, reuse=reuse)


def uniform_trial(
    values: np.ndarray,
    labels: np.ndarray,
    n_budget: int,
    rng: np.random.Generator,
    *,
    oracle=None,
) -> TrialResult:
    """Uniform sampling baseline: draw N records without replacement
    from the whole dataset and average the statistic over positives."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    n = min(n_budget, values.size)
    idx = rng.choice(values.size, size=n, replace=False)
    v, l = values[idx], labels[idx]
    if oracle is not None:
        l = oracle.call(l)
    est = plugin_estimates(v, l)
    return TrialResult(estimate=est.mu_hat, oracle_calls=n, samples=[(v, l)])


def deterministic_draw_trial(
    strata: list[tuple[np.ndarray, np.ndarray]],
    t: np.ndarray,
    n_budget: int,
    rng: np.random.Generator,
) -> TrialResult:
    """The §4.2 idealized setting: known allocation T, and the draws
    from stratum k are taken directly from its positive records
    (B_k = ⌈p_k·T_k·N⌉ deterministic positive draws). Used by tests to
    verify Propositions 1–2 numerically."""
    k = len(strata)
    final_p = np.zeros(k)
    final_mu = np.zeros(k)
    calls = 0
    for i, (vals, labs) in enumerate(strata):
        pos = vals[labs == 1]
        p_k = pos.size / vals.size if vals.size else 0.0
        b_k = int(np.ceil(p_k * t[i] * n_budget))
        final_p[i] = p_k
        if b_k == 0 or pos.size == 0:
            continue
        b_k = min(b_k, pos.size)
        take = rng.choice(pos.size, size=b_k, replace=False)
        calls += b_k
        final_mu[i] = float(pos[take].mean())
    return TrialResult(estimate=combine(final_p, final_mu), oracle_calls=calls)
