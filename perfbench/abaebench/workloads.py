"""The two workloads. Each takes its seed, passes the program only
generated inputs, and checks every operation's output.

A workload has a ``setup`` (timed into ``setup_s``, warm-up included)
and a ``round``: one turn of a closed loop with one client, which the
runner repeats until the run's time is up. Every round of a run uses
the same seeds, so repeated rounds must reproduce their digests.

* ``query`` — the analyst's path: ``abae_query`` then ``uniform_query``
  over a persisted night_street surrogate (scale 0.1, 97,313 rows). The
  query path and the oracle UDF carry the load; the harness does none.
* ``tables`` — the researcher's path: ``table_fig2`` and
  ``table_fig12`` (harness fixed cost per condition, no bootstrap),
  ``table_fig5`` (``bootstrap_ci``), ``table_fig7`` and ``table_fig8``
  (``run_group_trials``, the group-by kernels and Nelder–Mead).
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from abaebench.stats import digest, geomean, median, tail

SCALE = 0.1
#: Bootstrap replicates of the tables (their default) and of the query.
TABLE_BETA = 500
QUERY_BETA = 1000
#: Trials per condition in a table workload's warm-up round.
WARM_TRIALS = 8
#: Accepted share of 95% ABAE CIs that contain the truth.
COVERAGE_BAND = (0.85, 0.99)


@dataclass
class Op:
    """One timed operation and the outcome of its checks."""

    name: str
    seconds: float
    estimates: int
    digest: str
    #: Operations with equal keys ran on equal inputs and seeds.
    key: tuple
    problems: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)


@dataclass
class Round:
    ops: list[Op]

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.ops)

    @property
    def estimates(self) -> int:
        return sum(o.estimates for o in self.ops)


def median_round_s(rounds: list[Round]) -> float:
    """A round's time at the median: the sum over a round's operations
    of each operation's median time across ``rounds``. Every round of a
    run makes the same operations in the same order. A slow operation
    in one round moves this less than it moves that round's time.
    """
    return sum(
        median([r.ops[j].seconds for r in rounds]) for j in range(len(rounds[0].ops))
    )


def _finite(x) -> bool:
    return x is not None and math.isfinite(float(x))


class QueryWorkload:
    """Closed loop, one client: a round is ``abae_query`` then
    ``uniform_query``.

    Every query uses one per-query seed drawn from the workload seed, so
    each repeat must give the same answer as the first.
    """

    name = "query"
    budget = 1000
    k = 5
    beta = QUERY_BETA
    #: Operations: one query each, so a failure counts one query.
    ops_per_round = 2

    def __init__(self, spark, seed: int):
        self.spark = spark
        rng = np.random.default_rng(seed % (1 << 32))
        self.warm_seed, self.seed = (int(s) for s in rng.integers(0, 2**31 - 1, 2))
        self.first: dict[tuple[str, int], float] = {}
        self.df = None
        self.to_spark_s = None

    def setup(self, runner) -> None:
        import time

        from repro.simulate import datasets as D

        ds = D.night_street(scale=SCALE)
        t = time.perf_counter()
        self.df = ds.to_spark(self.spark).persist()
        self.df.count()
        self.to_spark_s = time.perf_counter() - t
        # Warm-up: Python worker start-up and the first queries' slowdown.
        for _ in range(2):
            self._abae(self.warm_seed, runner, check=False)
            self._uniform(self.warm_seed, runner, check=False)

    def round(self, i: int, runner) -> Round:
        return Round(ops=[self._abae(self.seed, runner),
                          self._uniform(self.seed, runner)])

    def _abae(self, seed, runner, check=True) -> Op:
        from repro.core.abae import abae_query
        from repro.simulate.oracles import SimulatedOracle

        oracle = SimulatedOracle()
        res, dt = runner.op(
            "abae.abae_query",
            lambda: abae_query(
                self.df, n_budget=self.budget, oracle=oracle, k=self.k,
                seed=seed, n_boot=self.beta,
            ),
        )
        return self._checked("abae_query", seed, res, oracle, dt, check, runner)

    def _uniform(self, seed, runner, check=True) -> Op:
        from repro.core.abae import uniform_query
        from repro.simulate.oracles import SimulatedOracle

        oracle = SimulatedOracle()
        res, dt = runner.op(
            "abae.uniform_query",
            lambda: uniform_query(
                self.df, n_budget=self.budget, oracle=oracle, seed=seed
            ),
        )
        return self._checked("uniform_query", seed, res, oracle, dt, check, runner)

    def _checked(self, name, seed, res, oracle, dt, check, runner) -> Op:
        collected = int(sum(v.size for v, _ in res.samples))
        calls = int(oracle.calls)
        problems = []
        if not 0 < calls <= self.budget:
            problems.append(f"oracle calls {calls} outside (0, {self.budget}]")
        if calls != collected:
            problems.append(f"accumulator {calls} != rows collected {collected}")
        if not _finite(res.estimate):
            problems.append(f"estimate {res.estimate} not finite")
        if res.ci is not None and not (
            _finite(res.ci[0]) and _finite(res.ci[1]) and res.ci[0] <= res.ci[1]
        ):
            problems.append(f"CI {res.ci} not a finite interval")
        key = (name, seed)
        if check and key in self.first and self.first[key] != res.estimate:
            problems.append(
                f"seed {seed} gave {res.estimate!r}, first {self.first[key]!r}"
            )
        if check:
            self.first.setdefault(key, res.estimate)
        runner.note(metering_gap=calls - collected)
        return Op(
            name=name,
            seconds=dt,
            estimates=1,
            digest=digest([name, seed, float(res.estimate)]),
            key=(name, seed),
            problems=problems if check else [],
            values={"calls": calls, "estimate": float(res.estimate)},
        )

    def report(self, rounds: list[Round]) -> dict:
        out = {}
        for name in ("abae_query", "uniform_query"):
            xs = [o.seconds for r in rounds for o in r.ops if o.name == name]
            t = tail(xs)
            out[f"{name}_p50_s"] = median(xs)
            out[f"{name}_tail_s"] = t.value if t else None
            out[f"{name}_tail_percentile"] = t.percentile if t else None
            out[f"{name}_samples"] = len(xs)
        calls = [o.values["calls"] for r in rounds for o in r.ops]
        out["oracle_calls_per_query"] = sum(calls) / len(calls)
        return out


@dataclass(frozen=True)
class TableCall:
    fn: str
    kwargs: dict
    rows: int
    trials: int


@dataclass(frozen=True)
class Check:
    """A figure computed from some of a round's tables. If ``ok`` is
    given and fails, every table the figure draws on fails."""

    name: str
    tables: tuple[str, ...]
    value: Callable[[dict], float]
    ok: Callable[[float], bool] | None = None
    rule: str = ""


def _ratio_rows(df, num: str, den: str) -> list[float]:
    return list(df[num].to_numpy(float) / df[den].to_numpy(float))


def _below_one(v) -> bool:
    return v < 1


def _in_band(v) -> bool:
    return COVERAGE_BAND[0] <= v <= COVERAGE_BAND[1]


class TablesWorkload:
    """The researcher's path: one round calls each table of ``calls``
    once, at the run's seed. Each table call is one operation.

    * ``table_fig2`` and ``table_fig12``: many cheap conditions, where
      the harness's fixed cost per condition dominates
      (``run_trials``, ``_combined_proxy_trials``); no bootstrap.
    * ``table_fig5``: few conditions, many trials with a CI each, so
      ``bootstrap_ci`` does most of its work here.
    * ``table_fig7`` and ``table_fig8``: the only load on
      ``run_group_trials``, the group-by kernels and Nelder–Mead.
    """

    name = "tables"
    beta = TABLE_BETA
    calls = (
        TableCall(
            "table_fig2",
            {"datasets": ("night_street", "taipei"), "budgets": (4000,),
             "n_trials": 100},
            rows=2, trials=2 * 2 * 100,
        ),
        TableCall(
            "table_fig12", {"budgets": (6000,), "n_trials": 100},
            rows=2, trials=2 * 3 * 100,
        ),
        TableCall(
            "table_fig5",
            {"datasets": ("night_street",), "budgets": (4000,),
             "n_trials": 300, "n_boot": TABLE_BETA},
            rows=1, trials=2 * 300,
        ),
        TableCall(
            "table_fig7", {"norm_budgets": (1000,), "n_trials": 100},
            rows=2, trials=2 * 2 * 100,
        ),
        TableCall(
            "table_fig8", {"norm_budgets": (1000,), "n_trials": 100},
            rows=2, trials=2 * 2 * 100,
        ),
    )
    # EXPERIMENTS.md: ABAE beats uniform on Fig. 2, on CI width and on
    # group-by; Fig. 12's combined proxy only ties, so it is reported
    # but not ordered.
    checks = (
        Check("rmse_ratio", ("table_fig2",),
              lambda f: geomean(_ratio_rows(f["table_fig2"], "rmse_abae",
                                            "rmse_uniform")),
              _below_one, "< 1"),
        Check("fig12_combined_rmse_ratio", ("table_fig12",),
              lambda f: geomean(_ratio_rows(f["table_fig12"], "rmse_abae_combined",
                                            "rmse_uniform"))),
        Check("ci_width_ratio", ("table_fig5",),
              lambda f: geomean(_ratio_rows(f["table_fig5"], "ci_width_abae",
                                            "ci_width_uniform")),
              _below_one, "< 1"),
        Check("ci_coverage", ("table_fig5",),
              lambda f: float(f["table_fig5"]["coverage_abae"].mean()),
              _in_band, f"in {list(COVERAGE_BAND)}"),
        Check("groupby_rmse_ratio", ("table_fig7", "table_fig8"),
              lambda f: geomean(
                  _ratio_rows(f["table_fig7"], "max_rmse_abae", "max_rmse_uniform")
                  + _ratio_rows(f["table_fig8"], "max_rmse_abae", "max_rmse_uniform")
              ),
              _below_one, "< 1"),
    )
    ops_per_round = len(calls)

    def __init__(self, spark, seed: int):
        self.spark = spark
        # The tables seed trial i of a condition with seed + offset + i,
        # so nearby workload seeds would share most of their trials.
        rng = np.random.default_rng(seed % (1 << 32))
        self.warm_seed, self.seed = (int(s) for s in rng.integers(0, 10**9, 2))

    def setup(self, runner) -> None:
        # Warm-up: every Spark job of a round, at another seed and with
        # few trials, takes the Python worker start-up and the
        # first-round slowdown out of the timing.
        self._round(self.warm_seed, runner, check=False, n_trials=WARM_TRIALS)

    def round(self, i: int, runner) -> Round:
        return self._round(self.seed, runner)

    def _round(self, seed: int, runner, check=True, **override) -> Round:
        from repro.experiments import tables

        frames, ops = {}, {}
        for call in self.calls:
            fn = getattr(tables, call.fn)
            kwargs = {**call.kwargs, **override}
            df, dt = runner.op(
                f"tables.{call.fn}",
                lambda: fn(self.spark, scale=SCALE, seed=seed, **kwargs),
            )
            problems = []
            if len(df) != call.rows:
                problems.append(f"{len(df)} rows, expected {call.rows}")
            num = df.select_dtypes("number").to_numpy(dtype=float)
            if not np.isfinite(num).all():
                problems.append("non-finite values")
            frames[call.fn] = df
            ops[call.fn] = Op(
                name=call.fn, seconds=dt, estimates=call.trials,
                digest=digest([seed, *map(float, num.ravel())]),
                key=(call.fn, seed), problems=problems,
            )
        for c in self.checks if check else ():
            if any(ops[t].problems for t in c.tables):
                continue
            v = c.value(frames)
            ops[c.tables[0]].values[c.name] = v
            if c.ok is not None and not c.ok(v):
                for t in c.tables:
                    ops[t].problems.append(f"{c.name} {v} not {c.rule}")
        return Round(ops=list(ops.values()))

    def report(self, rounds: list[Round]) -> dict:
        out = {"trials_per_s": rounds[0].estimates / median_round_s(rounds)}
        out["table_s"] = {
            o.name: [r.ops[j].seconds for r in rounds]
            for j, o in enumerate(rounds[0].ops)
        }
        for o in rounds[0].ops:
            out.update(o.values)
        return out


WORKLOADS = {w.name: w for w in (QueryWorkload, TablesWorkload)}
