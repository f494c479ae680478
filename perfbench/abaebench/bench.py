"""One benchmark run: set up, loop rounds for the run's time, check,
report.

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` interleaves untraced and traced rounds: traced rounds span
the driver-side calls into every layer and read Spark's job counts, the
untraced ones give the baseline for the tracing overhead, and probes
after the loop fill in the layers the load does not reach.

Standard output: one ``report`` line with the environment, the
workload's own figures (query latencies with their tails, trials/s,
RMSE and CI ratios), the checks that failed and the digests; then, as
the last line, the result: correct, attempted, failed and the metrics
that BENCHMARK.json lists for the mode.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from abaebench import launch
from abaebench.layers import Layers, job_stats, load_targets
from abaebench.spans import Tracer
from abaebench.stats import Tally, digest, valid_name, valid_unit
from abaebench.workloads import WORKLOADS, median_round_s


class Runner:
    """Times operations; in traced rounds also spans them and counts
    their Spark jobs under a job group of their own."""

    def __init__(self, spark, env: dict, seed: int, tracer: Tracer):
        self.spark = spark
        self.sc = spark.sparkContext
        self.env = env
        self.seed = seed
        self.tracer = tracer
        self.last_attrs: dict = {}
        self._groups = 0

    def op(self, name: str, fn):
        group = None
        if self.tracer.enabled:
            self._groups += 1
            group = f"perfbench-{self._groups}"
            self.sc.setJobGroup(group, name)
        with self.tracer.span(name) as attrs:
            t = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t
        if group:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
            attrs.update(job_stats(self.sc, group))
        self.last_attrs = attrs
        return out, dt

    def note(self, **attrs) -> None:
        """Attach counts to the operation that just ended."""
        self.last_attrs.update(attrs)


def _digests(rounds, state_path, key):
    """Digest per operation key (equal keys, equal inputs), whether each
    recurrence within the run repeated it, and whether the run's digest
    repeats the last run with the same workload and seed."""
    first, repeats, mismatches = {}, 0, []
    for op in (op for r in rounds for op in r.ops):
        if op.key not in first:
            first[op.key] = op.digest
            continue
        repeats += 1
        if first[op.key] != op.digest:
            mismatches.append(f"{op.key}: {first[op.key]} then {op.digest}")
    run_digest = digest(sorted(f"{k}={v}" for k, v in first.items()))
    try:
        with open(state_path) as fh:
            state = json.load(fh)
    except (OSError, ValueError):
        state = {}
    prev = state.get(key)
    state[key] = run_digest
    with open(state_path, "w") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
    return {
        "run": run_digest,
        "within_run_repeats": repeats,
        "within_run_mismatches": mismatches,
        "repeats_previous_run": None if prev is None else prev == run_digest,
    }


#: Driver-side operations whose Spark jobs are counted per call.
OP_SPANS = ("abae.abae_query", "abae.uniform_query")
#: Rounds a run may attempt after its time is up while it still lacks
#: the rounds it needs.
EXTRA_ATTEMPTS = 10


#: Rounds a run completes even past its time, so that every operation's
#: median has a middle sample.
MIN_ROUNDS = 3


def _loop(wl, runner, tracer, args, tally):
    """Run rounds until ``args.seconds`` have passed and at least
    ``MIN_ROUNDS`` have completed. With tracing on, rounds go untraced,
    traced, traced, untraced, ... and at least four complete, so Spark's
    warm-up drift cancels out of the overhead.
    Returns (plain, traced) lists of (round, spans recorded in it)."""
    plain, traced = [], []
    need = 4 if args.trace else MIN_ROUNDS
    deadline = time.perf_counter() + args.seconds
    i = late = 0
    while time.perf_counter() < deadline or (
        len(plain) + len(traced) < need and late < EXTRA_ATTEMPTS
    ):
        late += time.perf_counter() >= deadline
        traced_round = bool(args.trace) and i % 4 in (1, 2)
        tracer.enabled = traced_round
        before = len(tracer.spans)
        try:
            with tracer.patched(load_targets()):
                rnd = wl.round(i, runner)
        except Exception:  # noqa: BLE001 - a failed round is counted, not fatal
            for _ in range(wl.ops_per_round):
                tally.record(f"round {i}", [traceback.format_exc(limit=3)])
            continue
        finally:
            tracer.enabled = False
            i += 1
        for op in rnd.ops:
            tally.record(op.name, op.problems)
        (traced if traced_round else plain).append((rnd, tracer.spans[before:]))
    if not plain or (args.trace and not traced):
        raise RuntimeError("rounds failed:\n" + "\n".join(tally.problems[:5]))
    return plain, traced


def _per_layer(runner, wl, tracer, plain, traced) -> dict:
    layers = Layers(runner, wl)
    spans = [s for _, ss in traced for s in ss]
    layers.from_load(spans, sum(r.seconds for r, _ in traced))
    layers.from_ops(
        [s for s in spans if s.name in OP_SPANS or s.name.startswith("tables.table_")]
    )
    tracer.enabled = True
    layers.probe()
    tracer.enabled = False
    overhead = (
        median_round_s([r for r, _ in traced]) / median_round_s([r for r, _ in plain])
        - 1.0
    )
    return {**layers.out, "trace.overhead_pct": 100.0 * overhead}


def run(args, spec: dict) -> tuple[dict, dict]:
    """One run; returns (report, result)."""
    root = launch.repo_root()
    work = root / launch.WORK_DIR
    env = launch.prepare_env(root)
    t0 = time.perf_counter()
    spark = launch.start_spark()
    try:
        spark_s = time.perf_counter() - t0
        tracer = Tracer(args.workload, enabled=False)
        runner = Runner(spark, env, args.seed, tracer)
        wl = WORKLOADS[args.workload](spark, args.seed)
        wl.setup(runner)
        setup_s = time.perf_counter() - t0

        tally = Tally()
        plain, traced = _loop(wl, runner, tracer, args, tally)
        rounds = [r for r, _ in plain + traced]
        plain_rounds = [r for r, _ in plain]
        report = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": launch.environment(spark, env),
            "setup": {"spark_start_s": spark_s, "workload_setup_s": setup_s - spark_s},
            "rounds": len(rounds),
            "figures": wl.report(plain_rounds),
            "failed_frac": tally.failed_frac,
            "problems": tally.problems[:20],
            "digests": _digests(
                rounds, work / "digests.json", f"{args.workload}:{args.seed}"
            ),
        }
        if args.trace:
            metrics = _per_layer(runner, wl, tracer, plain, traced)
            span_file = work / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(span_file)
            report["spans"] = {"file": str(span_file.relative_to(root)),
                               "count": len(tracer.spans)}
        else:
            round_s = median_round_s(plain_rounds)
            metrics = {
                "setup_s": setup_s,
                "peak_rss_mb": launch.peak_rss_mb(spark),
                "ok_frac": tally.ok_frac,
                "round_p50_s": round_s,
                "estimates_per_s": plain_rounds[0].estimates / round_s,
            }
        report["peak_rss_mb"] = launch.peak_rss_mb(spark)
    finally:
        launch.stop_spark(spark)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    bad = [m for m in listed if not (valid_name(m["name"]) and valid_unit(m["unit"]))]
    if bad:
        raise RuntimeError(f"invalid metric names or units in BENCHMARK.json: {bad}")
    if set(metrics) != {m["name"] for m in listed}:
        raise RuntimeError(
            f"metrics {sorted(metrics)} differ from BENCHMARK.json "
            f"{sorted(m['name'] for m in listed)}"
        )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in listed
        },
    }
    return report, result


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = launch.repo_root()
    try:
        with open(root / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        report, result = run(args, spec)
    except launch.MissingProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print("report: " + json.dumps(report, default=str), flush=True)
    print(json.dumps(result), flush=True)
    return 0
