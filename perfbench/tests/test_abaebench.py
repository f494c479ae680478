"""Tests for the benchmark's own rules (no Spark needed).

    python3 -m pytest perfbench/tests -q
"""
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve()
sys.path.insert(0, str(HERE.parents[1]))

from abaebench.spans import Tracer  # noqa: E402
from abaebench.stats import (  # noqa: E402
    TAIL_BEYOND,
    Tally,
    digest,
    geomean,
    tail,
    valid_name,
    valid_unit,
)
from abaebench.workloads import WORKLOADS, Op, Round, median_round_s  # noqa: E402

SPEC = json.loads((HERE.parents[2] / "BENCHMARK.json").read_text())


# -- tail percentile ----------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, TAIL_BEYOND])
def test_tail_needs_more_than_ten_samples(n):
    assert tail(range(n)) is None


def test_tail_has_exactly_ten_samples_beyond_it():
    xs = list(range(100, 0, -1))  # unsorted input
    t = tail(xs)
    assert t.n == 100
    assert t.percentile == 90.0
    assert sum(x > t.value for x in xs) == TAIL_BEYOND
    assert t.value == 90


def test_tail_percentile_rises_with_samples():
    assert tail(range(11)).percentile == pytest.approx(100 / 11)
    assert tail(range(20)).percentile == 50.0
    assert tail(range(1000)).percentile == 99.0


# -- failed_frac counting -----------------------------------------------------

def test_tally_counts_operations_not_checks():
    t = Tally()
    assert t.record("a", [])
    assert not t.record("b", ["calls > budget", "estimate not finite"])
    assert t.record("c", [])
    assert (t.attempted, t.failed) == (3, 1)
    assert t.failed_frac == pytest.approx(1 / 3)
    assert t.ok_frac == pytest.approx(2 / 3)
    assert t.problems == ["b: calls > budget", "b: estimate not finite"]


def test_tally_empty_is_not_a_failure():
    assert Tally().failed_frac == 0.0


# -- round time at the median ------------------------------------------------

def _round(*seconds):
    return Round(ops=[
        Op(name=f"op{j}", seconds=t, estimates=1, digest="", key=(j,))
        for j, t in enumerate(seconds)
    ])


def test_median_round_is_the_sum_of_operation_medians():
    rounds = [_round(1.0, 5.0), _round(2.0, 4.0), _round(3.0, 6.0)]
    assert median_round_s(rounds) == pytest.approx(2.0 + 5.0)


def test_one_slow_operation_does_not_move_the_median_round():
    # Two of three rounds each have one slow operation: their round
    # sums' median is 10.2 s, but each operation's median stays typical.
    slow = [_round(1.0, 2.0), _round(9.0, 2.1), _round(1.2, 9.0)]
    assert median_round_s(slow) == pytest.approx(1.2 + 2.1)
    assert sorted(r.seconds for r in slow)[1] == pytest.approx(10.2)


# -- geometric mean in rmse_ratio ---------------------------------------------

def test_geomean_of_ratios():
    assert geomean([0.5, 2.0]) == pytest.approx(1.0)
    assert geomean([0.8]) == pytest.approx(0.8)
    assert geomean([0.25, 0.5, 1.0]) == pytest.approx(0.5)


def test_geomean_is_not_the_arithmetic_mean():
    # Arithmetic mean 1.0 would call this a tie; the ratios say ABAE wins.
    assert geomean([0.1, 1.9]) == pytest.approx(math.sqrt(0.19))


@pytest.mark.parametrize("bad", [[], [0.0, 1.0], [-1.0], [math.inf], [math.nan]])
def test_geomean_rejects_bad_ratios(bad):
    with pytest.raises(ValueError):
        geomean(bad)


# -- digests ------------------------------------------------------------------

def test_digest_sees_the_last_bit():
    x = 0.1 + 0.2
    assert digest([1, x]) == digest([1, 0.1 + 0.2])
    assert digest([1, x]) != digest([1, 0.3])
    assert digest(["a", 1]) != digest(["a1"])


# -- spans --------------------------------------------------------------------

class _Layer:
    @staticmethod
    def work(x, scale=1):
        return x * scale


def test_spans_link_children_to_parents():
    t = Tracer("w", enabled=True)
    with t.span("outer"):
        with t.span("inner", n=3) as attrs:
            attrs["jobs"] = 2
    inner, outer = t.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert (inner.name, inner.parent) == ("inner", outer.id)
    assert inner.attrs == {"n": 3, "jobs": 2}
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert {s.workload for s in t.spans} == {"w"}


def test_patched_spans_calls_and_restores():
    orig = _Layer.work
    t = Tracer("w", enabled=True)
    keep = lambda args, kwargs: {"scale": kwargs.get("scale")}  # noqa: E731
    with t.patched([(_Layer, "work", "layer.work", keep)]):
        assert _Layer.work(2, scale=3) == 6
    assert _Layer.work is orig
    assert [(s.name, s.attrs) for s in t.spans] == [("layer.work", {"scale": 3})]


def test_disabled_tracer_records_and_patches_nothing():
    orig = _Layer.work
    t = Tracer("w", enabled=False)
    with t.patched([(_Layer, "work", "layer.work", None)]):
        assert _Layer.work is orig
        with t.span("x"):
            pass
    assert t.spans == []


# -- metric names and BENCHMARK.json ------------------------------------------

@pytest.mark.parametrize(
    "name", ["setup_s", "abae.abae_query.spark_jobs", "p50-s", "9lives"]
)
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize(
    "name", ["", "_x", ".x", "a b", "a/b", "p50%", "é", "x" * 65]
)
def test_invalid_names(name):
    assert not valid_name(name)


def test_units():
    for u in ("s", "ms", "1/s", "MB", "%", "count", "share"):
        assert valid_unit(u)
    assert not valid_unit("m s")
    assert not valid_unit("x" * 17)


def test_benchmark_json_follows_the_rules():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[k]]
    assert all(valid_name(n) for n in names)
    assert len({m["name"] for k in ("end_to_end", "per_layer") for m in SPEC[k]}) \
        == len(SPEC["end_to_end"]) + len(SPEC["per_layer"])
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert valid_unit(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert valid_unit(m["unit"]) and m["better"] in ("lower", "higher")
