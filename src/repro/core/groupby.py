"""ABAE-GroupBy (§3.2, §4.5): minimax-error group-by aggregation.

A group-by query has G groups; each group g has its own proxy, which
induces its own stratification of the dataset. ABAE-GroupBy:

1. pilot-samples to estimate per-(stratification, group, stratum)
   quantities p̂, σ̂, μ̂;
2. computes within-stratification allocations T̂_{l,k} (Prop. 1, for
   the stratification's own group);
3. splits the Stage-2 budget across stratifications with weights Λ
   minimizing the *maximum* per-group MSE — Eq. 10 (single oracle that
   returns the group key; estimates shared across stratifications and
   combined by inverse-variance weighting) or Eq. 11 (one oracle per
   group; only l = g informs group g) — solved by Nelder–Mead;
4. runs Stage 2 and combines estimates (with sample reuse).

Baseline: uniform sampling with the same total oracle budget.

Oracle-call accounting: in the single-oracle setting one invocation
labels a record for every group, and repeated draws of the same record
across stratifications are cached (counted once).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocation import mse_for_allocation, optimal_allocation
from repro.core.estimator import combine, plugin_estimates
from repro.optimize.nelder_mead import minimize_on_simplex


@dataclass
class GroupByData:
    """Per-stratification strata arrays for a group-by query.

    Attributes:
        strata: ``strata[l][k] = (values, groups, ids)`` — stratum k of
            the stratification induced by group l's proxy. ``groups``
            holds the hidden group key (−1 = no group); ``ids`` are
            global record ids (for single-oracle call caching).
        n_groups: G.
    """

    strata: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]
    n_groups: int

    @property
    def k(self) -> int:
        return len(self.strata[0])


def build_groupby_data(pdf, proxy_cols: list[str], k: int) -> GroupByData:
    """Build :class:`GroupByData` from a surrogate dataset frame with
    ``value``, ``group`` and per-group proxy columns."""
    from repro.core.stratify import stratify_indices

    values = pdf["value"].to_numpy(dtype=float)
    groups = pdf["group"].to_numpy(dtype=np.int64)
    ids = pdf["id"].to_numpy(dtype=np.int64)
    strata = []
    for col in proxy_cols:
        s = stratify_indices(pdf[col].to_numpy(), k, ids=ids)
        strata.append(
            [(values[s == i], groups[s == i], ids[s == i]) for i in range(k)]
        )
    return GroupByData(strata=strata, n_groups=len(proxy_cols))


@dataclass
class GroupTrialResult:
    """Per-group estimates plus the oracle-call spend of one trial."""

    estimates: np.ndarray
    oracle_calls: int
    allocation: np.ndarray


def _err_coef(p: np.ndarray, sigma: np.ndarray, t: np.ndarray) -> float:
    """Err(g): MSE × N for allocation t (the Eq. 10/11 inner sum).

    Unsampleable configurations (t_k = 0 where the group lives) return
    a large-but-finite coefficient so Nelder–Mead stays numeric.
    """
    c = mse_for_allocation(p, sigma, t, 1)
    return min(c, 1e12)


def solve_minimax_multi(coefs: np.ndarray, n2: int) -> np.ndarray:
    """Eq. 11: min over Λ of max_g coef_g/(Λ_g·N₂), via Nelder–Mead.

    (The closed form Λ_g ∝ coef_g is used by tests as the oracle.)
    """
    coefs = np.maximum(np.asarray(coefs, dtype=float), 1e-12)

    def objective(lam: np.ndarray) -> float:
        lam = np.maximum(lam, 1e-12)
        return float(np.max(coefs / (lam * n2)))

    return minimize_on_simplex(objective, coefs.size)


def solve_minimax_single(coef_lg: np.ndarray, n2: int) -> np.ndarray:
    """Eq. 10: min over Λ of max_g (Σ_l (coef_{l,g}/(Λ_l·N₂))⁻¹)⁻¹.

    ``coef_lg[l, g]`` is the Err coefficient of group g's estimate when
    sampling via stratification l.
    """
    coef_lg = np.maximum(np.asarray(coef_lg, dtype=float), 1e-12)
    n_l, n_g = coef_lg.shape

    def objective(lam: np.ndarray) -> float:
        lam = np.maximum(lam, 1e-12)
        inv_var = (lam[:, None] * n2) / coef_lg  # (l, g) precision terms
        return float(np.max(1.0 / inv_var.sum(axis=0)))

    return minimize_on_simplex(objective, n_l)


def groupby_multi_trial(
    data: GroupByData,
    n_budget: int,
    rng: np.random.Generator,
    *,
    stage1_frac: float = 0.5,
    oracle=None,
) -> GroupTrialResult:
    """One ABAE-GroupBy trial, multiple-oracle setting (Eq. 11).

    Budget accounting: every draw from stratification g costs one call
    to group-g's oracle. Stage 1 spends (stage1_frac·N)/G per group,
    split evenly over its strata; Stage 2 splits the rest by Λ.
    """
    g_n, k = data.n_groups, data.k
    per_group_s1 = int(n_budget * stage1_frac) // g_n
    n1_per = max(1, per_group_s1 // k)

    perms = [[rng.permutation(b[0].size) for b in data.strata[l]] for l in range(g_n)]
    coefs = np.zeros(g_n)
    t_hats = []
    p1 = np.zeros((g_n, k))
    s1 = np.zeros((g_n, k))
    calls = 0
    for l in range(g_n):
        for ki, (vals, grps, _) in enumerate(data.strata[l]):
            take = perms[l][ki][: min(n1_per, vals.size)]
            calls += take.size
            est = plugin_estimates(vals[take], grps[take] == l)
            p1[l, ki], s1[l, ki] = est.p_hat, est.sigma_hat
        t_hats.append(optimal_allocation(p1[l], s1[l]))
        coefs[l] = _err_coef(p1[l], s1[l], t_hats[l])

    n2 = n_budget - calls
    lam = solve_minimax_multi(coefs, max(n2, 1))

    estimates = np.zeros(g_n)
    for l in range(g_n):
        budget_l = int(lam[l] * n2)
        extra = np.floor(t_hats[l] * budget_l).astype(int)
        p_fin = np.zeros(k)
        mu_fin = np.zeros(k)
        for ki, (vals, grps, _) in enumerate(data.strata[l]):
            n1_i = min(n1_per, vals.size)
            n2_i = min(int(extra[ki]), vals.size - n1_i)
            idx = perms[l][ki][: n1_i + n2_i]
            calls += n2_i
            est = plugin_estimates(vals[idx], grps[idx] == l)
            p_fin[ki], mu_fin[ki] = est.p_hat, est.mu_hat
        estimates[l] = combine(p_fin, mu_fin)
    if oracle is not None:
        oracle._charge(calls)
    return GroupTrialResult(estimates=estimates, oracle_calls=calls, allocation=lam)


def groupby_single_trial(
    data: GroupByData,
    n_budget: int,
    rng: np.random.Generator,
    *,
    stage1_frac: float = 0.5,
    oracle=None,
) -> GroupTrialResult:
    """One ABAE-GroupBy trial, single-oracle setting (Eq. 10).

    One oracle invocation reveals the full group key, so a sampled
    record informs *every* group; estimates from all stratifications
    are merged by inverse-variance weighting. Records drawn through
    more than one stratification are oracle-labeled once (cached).
    """
    g_n, k = data.n_groups, data.k
    n1_per = max(1, int(n_budget * stage1_frac) // (g_n * k))

    perms = [[rng.permutation(b[0].size) for b in data.strata[l]] for l in range(g_n)]
    seen: set[int] = set()

    # ---- Stage 1: n1_per per (stratification, stratum) bin ----
    p1 = np.zeros((g_n, g_n, k))  # (l, g, k)
    s1 = np.zeros((g_n, g_n, k))
    for l in range(g_n):
        for ki, (vals, grps, ids) in enumerate(data.strata[l]):
            take = perms[l][ki][: min(n1_per, vals.size)]
            seen.update(ids[take].tolist())
            for g in range(g_n):
                est = plugin_estimates(vals[take], grps[take] == g)
                p1[l, g, ki], s1[l, g, ki] = est.p_hat, est.sigma_hat

    t_hats = [optimal_allocation(p1[l, l], s1[l, l]) for l in range(g_n)]
    coef_lg = np.zeros((g_n, g_n))
    for l in range(g_n):
        for g in range(g_n):
            coef_lg[l, g] = _err_coef(p1[l, g], s1[l, g], t_hats[l])

    n2 = n_budget - len(seen)
    lam = solve_minimax_single(coef_lg, max(n2, 1))

    # ---- Stage 2 draws (with Stage-1 reuse per bin) ----
    samp: list[list[tuple[np.ndarray, np.ndarray]]] = [
        [((np.empty(0), np.empty(0)))] * k for _ in range(g_n)
    ]
    for l in range(g_n):
        extra = np.floor(t_hats[l] * int(lam[l] * n2)).astype(int)
        for ki, (vals, grps, ids) in enumerate(data.strata[l]):
            n1_i = min(n1_per, vals.size)
            n2_i = min(int(extra[ki]), vals.size - n1_i)
            idx = perms[l][ki][: n1_i + n2_i]
            seen.update(ids[idx].tolist())
            samp[l][ki] = (vals[idx], grps[idx])

    # ---- Inverse-variance combination across stratifications ----
    # Eq. 10 weighs each stratification's estimate by its (plug-in)
    # variance. At finite budgets the per-bin σ̂ are too noisy to weigh
    # with (a bin with one positive has σ̂ = 0 and would absorb all the
    # weight), so we use the *pooled* per-group σ̂ over every labeled
    # draw — stable, since a single oracle call labels every group —
    # and the realized positive-draw counts, which also credits the
    # Stage-1 reuse that Eq. 10's asymptotic form drops.
    all_v = np.concatenate([v for l in range(g_n) for (v, _) in samp[l]])
    all_g = np.concatenate([gr for l in range(g_n) for (_, gr) in samp[l]])
    estimates = np.zeros(g_n)
    for g in range(g_n):
        pooled = plugin_estimates(all_v, all_g == g)
        sig_g = pooled.sigma_hat
        num = den = 0.0
        for l in range(g_n):
            p_f = np.zeros(k)
            mu_f = np.zeros(k)
            b_pos = np.zeros(k)
            for ki in range(k):
                v, gr = samp[l][ki]
                est = plugin_estimates(v, gr == g)
                p_f[ki], mu_f[ki], b_pos[ki] = est.p_hat, est.mu_hat, est.n_pos
            p_all = p_f.sum()
            if p_all <= 0 or b_pos.sum() < 3 or sig_g <= 0:
                continue
            w = p_f / p_all
            var_lg = float(sig_g**2 * (w**2 / np.maximum(b_pos, 0.5)).sum())
            num += combine(p_f, mu_f) / var_lg
            den += 1.0 / var_lg
        if den > 0:
            estimates[g] = num / den
        elif sig_g == 0.0 and pooled.n_pos > 0:
            estimates[g] = pooled.mu_hat
    if oracle is not None:
        oracle._charge(len(seen))
    return GroupTrialResult(
        estimates=estimates, oracle_calls=len(seen), allocation=lam
    )


def groupby_uniform_trial(
    values: np.ndarray,
    groups: np.ndarray,
    n_budget: int,
    rng: np.random.Generator,
    n_groups: int,
    *,
    per_group_oracle: bool = False,
) -> GroupTrialResult:
    """Uniform-sampling baseline for group-by queries.

    Single oracle: N uniform draws, each labeled with its group key.
    Multiple oracles: the budget is split evenly — N/G uniform draws
    per group oracle, which can only answer membership in that group.
    """
    values = np.asarray(values, dtype=float)
    groups = np.asarray(groups)
    estimates = np.zeros(n_groups)
    if per_group_oracle:
        per = max(1, n_budget // n_groups)
        calls = 0
        for g in range(n_groups):
            idx = rng.choice(values.size, size=min(per, values.size), replace=False)
            calls += idx.size
            estimates[g] = plugin_estimates(values[idx], groups[idx] == g).mu_hat
    else:
        idx = rng.choice(values.size, size=min(n_budget, values.size), replace=False)
        calls = idx.size
        for g in range(n_groups):
            estimates[g] = plugin_estimates(values[idx], groups[idx] == g).mu_hat
    return GroupTrialResult(
        estimates=estimates, oracle_calls=calls, allocation=np.array([])
    )
