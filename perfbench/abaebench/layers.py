"""Per-layer measurements for the traced run.

Three sources, all measured from outside the program:

* Spans (``spans.Tracer``) around the driver-side calls a workload's
  load makes into ``repro``: table functions, the trial runners,
  dataset generators, the query path's bootstrap.
* Spark's status tracker, read per operation under a job group the
  benchmark sets: jobs, stages run, tasks and failed tasks.
* Probes: isolated calls into a layer on the driver. Kernels run inside
  Spark's Python workers, out of reach of driver spans, so their time
  per call is measured by calling them here on the very inputs the
  load's conditions used. A layer a workload does not load is probed
  on a fixed input, so every workload reports every layer.

Busy shares are computed, not traced: calls × time per call ÷ (wall ×
cores), over the traced rounds.
"""
from __future__ import annotations

import time

import numpy as np

from abaebench.stats import median

PROBE_BUDGET = 1000
PROBE_K = 5


def load_targets():
    """Driver-side attributes to span during traced rounds."""
    from repro.core import abae
    from repro.experiments import tables
    from repro.simulate import datasets as D

    def trials(a, kw):
        return {
            "kind": kw["kind"], "data": kw["data"], "n_budget": kw["n_budget"],
            "n_trials": kw["n_trials"], "stage1_frac": kw.get("stage1_frac", 0.5),
            "with_ci": kw.get("with_ci", False), "n_boot": kw.get("n_boot", 1000),
            "n_groups": kw.get("n_groups"),
        }

    def combined(a, kw):
        _, ds, budget, n_trials, k, c, _seed = a
        return {"ds": ds, "n_budget": budget, "n_trials": n_trials, "k": k, "c": c}

    targets = [
        (tables, "run_trials", "harness.run_trials", trials),
        (tables, "run_group_trials", "harness.run_group_trials", trials),
        (tables, "_combined_proxy_trials", "tables._combined_proxy_trials", combined),
        (tables, "build_groupby_data", "groupby.build_groupby_data", None),
        (D.Dataset, "strata", "stratify.strata_arrays", None),
        (abae, "bootstrap_ci", "bootstrap.bootstrap_ci",
         lambda a, kw: {"n_boot": kw.get("n_boot")}),
    ]
    for fn in DATASET_GENERATORS:
        targets.append((D, fn, f"datasets.{fn}", None))
    return targets


DATASET_GENERATORS = (
    "load", "night_street_multipred", "synthetic_multipred", "celeba_groupby",
    "synthetic_groupby_single", "synthetic_groupby_multi", "trec05p_proxies",
    "synthetic_combine",
)


# ---------------------------------------------------------------------------
# Spark status tracker
# ---------------------------------------------------------------------------

def job_stats(sc, group: str) -> dict:
    """Jobs, stages run, tasks and failed tasks of one job group."""
    _drain_listener_bus(sc)
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages = tasks = failed = 0
    for j in jobs:
        info = st.getJobInfo(j)
        for sid in info.stageIds if info else ():
            s = st.getStageInfo(sid)
            ran = s.numCompletedTasks + s.numFailedTasks if s else 0
            if ran:  # skipped stages (reused shuffle output) ran no task
                stages += 1
                tasks += s.numCompletedTasks
                failed += s.numFailedTasks
    return {
        "spark_jobs": len(jobs), "spark_stages": stages,
        "spark_tasks": tasks, "failed_tasks": failed,
    }


def _drain_listener_bus(sc) -> None:
    """Status is filled from Spark's listener bus, which lags the jobs;
    wait until it has delivered every event posted so far."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def _median_s(fn, reps: int) -> float:
    xs = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        xs.append(time.perf_counter() - t)
    return median(xs)


def _kernel_ms(fn, reps: int, seed: int) -> float:
    """Median ms of ``fn(rng)`` over ``reps`` fresh generators."""
    xs = []
    for i in range(reps):
        rng = np.random.default_rng(seed + i)
        t = time.perf_counter()
        fn(rng)
        xs.append(1000.0 * (time.perf_counter() - t))
    return median(xs)


def scalar_trial(kind, data, n_budget, stage1_frac, rng):
    from repro.core.sampler import abae_trial, uniform_trial

    if kind == "uniform":
        return uniform_trial(*data, n_budget, rng)
    return abae_trial(data, n_budget, rng, stage1_frac=stage1_frac,
                      reuse=(kind == "abae"))


def bootstrap_ms(kind, data, n_budget, stage1_frac, n_boot, reps, seed) -> float:
    """Median ms of ``bootstrap_ci`` on real trial samples."""
    from repro.core.bootstrap import bootstrap_ci

    samples = [
        scalar_trial(kind, data, n_budget, stage1_frac,
                     np.random.default_rng(seed + 7919 * i)).samples
        for i in range(reps)
    ]
    it = iter(samples)
    return _kernel_ms(
        lambda rng: bootstrap_ci(next(it), rng, n_boot=n_boot), reps, seed
    )


def group_trial(kind, data, n_budget, n_groups, stage1_frac, rng):
    from repro.core.groupby import (
        groupby_multi_trial,
        groupby_single_trial,
        groupby_uniform_trial,
    )

    if kind == "groupby_single":
        return groupby_single_trial(data, n_budget, rng, stage1_frac=stage1_frac)
    if kind == "groupby_multi":
        return groupby_multi_trial(data, n_budget, rng, stage1_frac=stage1_frac)
    values, groups = data
    return groupby_uniform_trial(
        values, groups, n_budget, rng, n_groups,
        per_group_oracle=(kind == "uniform_multi"),
    )


def combined_trial(ds, n_budget, k, c, rng):
    from repro.core.proxy_select import combined_proxy_trial

    pdf = ds.pdf
    scores = {n: pdf[n].to_numpy(float) for n in ds.proxy_cols if n != "proxy"}
    return combined_proxy_trial(
        scores, pdf["value"].to_numpy(float), pdf["label"].to_numpy(),
        n_budget, rng, k=k, pilot_frac=c,
    )


class Layers:
    """Per-layer metrics of one traced run."""

    def __init__(self, runner, workload):
        self.runner = runner
        self.wl = workload
        self.spark = runner.spark
        self.seed = runner.seed
        self.cores = runner.env["cores"]
        self.out: dict[str, float] = {}

    # -- load-derived ---------------------------------------------------
    def from_load(self, spans, wall: float) -> None:
        """Kernel times and busy shares from the spans of the traced
        rounds, which took ``wall`` seconds in all."""
        cap = wall * self.cores
        ms = {}  # per-kernel lists of (calls, ms per call)

        def add(metric, calls, per_call_ms):
            ms.setdefault(metric, []).append((calls, per_call_ms))

        for i, s in enumerate(spans):
            a = s.attrs
            seed = self.seed + 101 * i
            if s.name == "harness.run_trials":
                reps = 15
                t = _kernel_ms(
                    lambda rng: scalar_trial(a["kind"], a["data"], a["n_budget"],
                                             a["stage1_frac"], rng),
                    reps, seed,
                )
                metric = "uniform" if a["kind"] == "uniform" else "abae"
                add(f"sampler.{metric}_trial_ms", a["n_trials"], t)
                if a["with_ci"]:
                    b = bootstrap_ms(a["kind"], a["data"], a["n_budget"],
                                     a["stage1_frac"], a["n_boot"], reps, seed)
                    add("bootstrap.bootstrap_ci_ms", a["n_trials"], b)
            elif s.name == "harness.run_group_trials":
                t = _kernel_ms(
                    lambda rng: group_trial(a["kind"], a["data"], a["n_budget"],
                                            a["n_groups"], a["stage1_frac"], rng),
                    10, seed,
                )
                add(f"groupby.{a['kind']}_trial_ms", a["n_trials"], t)
            elif s.name == "tables._combined_proxy_trials":
                t = _kernel_ms(
                    lambda rng: combined_trial(a["ds"], a["n_budget"], a["k"],
                                               a["c"], rng),
                    10, seed,
                )
                add("proxy_select.combined_proxy_trial_ms", a["n_trials"], t)
            elif s.name == "bootstrap.bootstrap_ci":
                add("bootstrap.bootstrap_ci_ms", 1, 1000.0 * s.seconds)

        def busy(metrics):
            return sum(c * t for m in metrics for c, t in ms.get(m, ())) / 1000.0 / cap

        self.out["sampler.busy_share"] = busy(
            ["sampler.abae_trial_ms", "sampler.uniform_trial_ms"]
        )
        self.out["bootstrap.busy_share"] = busy(["bootstrap.bootstrap_ci_ms"])
        self.out["proxy_select.busy_share"] = busy(
            ["proxy_select.combined_proxy_trial_ms"]
        )
        self.out["groupby.busy_share"] = busy(
            [m for m in ms if m.startswith("groupby.")]
        )
        for m in (
            "sampler.abae_trial_ms", "sampler.uniform_trial_ms",
            "bootstrap.bootstrap_ci_ms", "proxy_select.combined_proxy_trial_ms",
            "groupby.groupby_single_trial_ms", "groupby.groupby_multi_trial_ms",
        ):
            if m in ms:
                self.out[m] = median([t for _, t in ms[m]])

        # harness.fixed_share needs the probed fixed cost; see probe().
        self._runner_calls = sum(
            s.name in ("harness.run_trials", "harness.run_group_trials",
                       "tables._combined_proxy_trials")
            for s in spans
        )
        self._wall = wall
        gen = [s for s in spans if s.name.startswith("datasets.")]
        self.out["datasets.load_share"] = sum(s.seconds for s in gen) / wall

    def from_ops(self, op_spans) -> None:
        """Spark job counts per operation, from the job-group stats."""
        def mean_of(name, key):
            xs = [s.attrs[key] for s in op_spans if s.name == name]
            return sum(xs) / len(xs) if xs else None

        for op, keys in (
            ("abae.abae_query", ("spark_jobs", "spark_stages", "spark_tasks")),
            ("abae.uniform_query", ("spark_jobs", "spark_tasks")),
        ):
            for key in keys:
                v = mean_of(op, key)
                if v is not None:
                    self.out[f"{op}.{key}"] = v
        table_jobs = [s.attrs["spark_jobs"] for s in op_spans
                      if s.name.startswith("tables.table_")]
        if table_jobs:
            self.out["tables.spark_jobs"] = sum(table_jobs) / len(table_jobs)
        self.out["spark.failed_tasks"] = sum(s.attrs["failed_tasks"] for s in op_spans)
        gaps = [s.attrs["metering_gap"] for s in op_spans if "metering_gap" in s.attrs]
        if gaps:
            self.out["oracles.metering_gap"] = sum(gaps)

    # -- probes ---------------------------------------------------------
    def probe(self) -> None:
        """Measure, in isolation, what the load did not provide."""
        from repro.core.stratify import add_stratum
        from repro.experiments.harness import run_group_trials, run_trials
        from repro.simulate import datasets as D
        from repro.simulate.oracles import SimulatedOracle

        out, runner, spark = self.out, self.runner, self.spark
        n = self.cores

        out["harness.run_trials.fixed_s"] = _median_s(
            lambda: run_trials(spark, kind="uniform",
                               data=(np.zeros(64), np.ones(64, dtype=np.int64)),
                               n_budget=1, n_trials=n),
            3,
        )
        out["harness.run_group_trials.fixed_s"] = _median_s(
            lambda: run_group_trials(spark, kind="uniform_single",
                                     data=(np.ones(64), np.zeros(64, dtype=np.int64)),
                                     n_budget=1, n_trials=n, n_groups=1),
            3,
        )
        out["harness.fixed_share"] = (
            self._runner_calls * out["harness.run_trials.fixed_s"] / self._wall
        )

        ds = D.night_street(scale=0.1)
        out["datasets.load_s"] = _median_s(lambda: D.load("night_street", scale=0.1), 3)
        out["stratify.strata_arrays_s"] = _median_s(lambda: ds.strata(PROBE_K), 3)
        strata = ds.strata(PROBE_K)
        seed = self.seed

        df = getattr(self.wl, "df", None)
        if df is None:
            t = time.perf_counter()
            df = ds.to_spark(spark).persist()
            df.count()
            out["datasets.to_spark_s"] = time.perf_counter() - t
        else:
            out["datasets.to_spark_s"] = self.wl.to_spark_s
        try:
            if "abae.abae_query.spark_jobs" not in out:
                self._probe_queries(df)
            out["stratify.add_stratum_s"] = _median_s(
                lambda: add_stratum(df, PROBE_K).groupBy("stratum").count().collect(), 3
            )

            def label():
                from pyspark.sql import functions as F

                rows = SimulatedOracle().apply(
                    df.filter(F.col("id") < PROBE_BUDGET)
                ).select("oracle_label").collect()
                if len(rows) != PROBE_BUDGET:
                    raise RuntimeError(f"labelled {len(rows)} rows, not {PROBE_BUDGET}")

            out["oracles.apply_s"] = _median_s(label, 3)
        finally:
            if df is not getattr(self.wl, "df", None):
                df.unpersist()

        if "tables.spark_jobs" not in out:
            from repro.experiments import tables

            _, _ = runner.op(
                "tables.table_fig2",
                lambda: tables.table_fig2(spark, datasets=("trec05p",),
                                          budgets=(2000,), n_trials=n, seed=seed),
            )
            out["tables.spark_jobs"] = runner.last_attrs["spark_jobs"]

        if "sampler.abae_trial_ms" not in out:
            out["sampler.abae_trial_ms"] = _kernel_ms(
                lambda rng: scalar_trial("abae", strata, PROBE_BUDGET, 0.5, rng), 30, seed
            )
        if "sampler.uniform_trial_ms" not in out:
            pop = ds.population()
            out["sampler.uniform_trial_ms"] = _kernel_ms(
                lambda rng: scalar_trial("uniform", pop, PROBE_BUDGET, 0.5, rng), 30, seed
            )
        if "bootstrap.bootstrap_ci_ms" not in out:
            out["bootstrap.bootstrap_ci_ms"] = bootstrap_ms(
                "abae", strata, PROBE_BUDGET, 0.5, self.wl.beta, 15, seed
            )
        if "proxy_select.combined_proxy_trial_ms" not in out:
            tp = D.trec05p_proxies(scale=0.1)
            out["proxy_select.combined_proxy_trial_ms"] = _kernel_ms(
                lambda rng: combined_trial(tp, 600, PROBE_K, 0.5, rng), 10, seed
            )
        self._probe_groupby(seed)

    def _probe_queries(self, df) -> None:
        from repro.core.abae import abae_query, uniform_query
        from repro.simulate.oracles import SimulatedOracle

        runner = self.runner
        for name, keys, fn in (
            ("abae.abae_query", ("spark_jobs", "spark_stages", "spark_tasks"),
             lambda o: abae_query(
                df, n_budget=PROBE_BUDGET, oracle=o, k=PROBE_K, seed=self.seed,
                n_boot=PROBE_BUDGET)),
            ("abae.uniform_query", ("spark_jobs", "spark_tasks"),
             lambda o: uniform_query(
                df, n_budget=PROBE_BUDGET, oracle=o, seed=self.seed)),
        ):
            oracle = SimulatedOracle()
            res, _ = runner.op(name, lambda: fn(oracle))
            collected = int(sum(v.size for v, _ in res.samples))
            stats = runner.last_attrs
            for key in keys:
                self.out[f"{name}.{key}"] = stats[key]
            self.out["oracles.metering_gap"] = (
                self.out.get("oracles.metering_gap", 0) + oracle.calls - collected
            )
            self.out["spark.failed_tasks"] += stats["failed_tasks"]

    def _probe_groupby(self, seed) -> None:
        """Group-by kernels on their first load condition, or on
        celeba_groupby at 1000 per group; the minimax solvers are
        spanned inside driver-side trials."""
        from repro.core import groupby as G
        from repro.simulate import datasets as D

        ds = D.celeba_groupby(scale=0.1)
        data = G.build_groupby_data(ds.pdf, list(ds.proxy_cols), PROBE_K)
        budget = PROBE_BUDGET * ds.n_groups
        tracer = self.runner.tracer
        for kind in ("groupby_single", "groupby_multi"):
            metric = f"groupby.{kind}_trial_ms"
            if metric not in self.out:
                self.out[metric] = _kernel_ms(
                    lambda rng: group_trial(kind, data, budget, ds.n_groups, 0.5, rng),
                    10, seed,
                )
            solver = f"solve_minimax_{kind.split('_')[1]}"
            before = len(tracer.spans)
            with tracer.patched([(G, solver, f"groupby.{solver}", None)]):
                for i in range(10):
                    group_trial(kind, data, budget, ds.n_groups, 0.5,
                                np.random.default_rng(seed + i))
            xs = [s.seconds for s in tracer.spans[before:]
                  if s.name == f"groupby.{solver}"]
            self.out[f"groupby.{solver}_ms"] = 1000.0 * median(xs)
