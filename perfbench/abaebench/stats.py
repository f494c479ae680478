"""Summary statistics and bookkeeping shared by every workload.

Pure Python/numpy: importable without Spark, so the rules here are unit
tested on their own (``perfbench/tests``).
"""
from __future__ import annotations

import hashlib
import math
import re
import statistics
from dataclasses import dataclass, field

#: Names the benchmark reports: metric names, workload names.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units: ``s``, ``1/s``, ``MB``, ``%`` ...
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.fullmatch(unit))


def median(values) -> float:
    return float(statistics.median(values))


@dataclass(frozen=True)
class Tail:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it."""

    value: float
    percentile: float
    n: int


def tail(values) -> Tail | None:
    """Tail of ``values`` by the rule above; None when there are too few
    samples for any percentile to have ``TAIL_BEYOND`` beyond it.

    With n sorted samples the value at rank n-TAIL_BEYOND (1-based) has
    exactly TAIL_BEYOND samples after it and is the
    100·(n-TAIL_BEYOND)/n-th percentile: p90 at n=100, p50 at n=20.
    """
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return Tail(value=xs[rank - 1], percentile=100.0 * rank / n, n=n)


def geomean(values) -> float:
    """Geometric mean of positive, finite ratios (e.g. RMSE ratios)."""
    xs = [float(v) for v in values]
    if not xs:
        raise ValueError("geomean of no values")
    if any(not math.isfinite(v) or v <= 0 for v in xs):
        raise ValueError(f"geomean needs positive finite values, got {xs}")
    return math.exp(sum(math.log(v) for v in xs) / len(xs))


@dataclass
class Tally:
    """Operations attempted and failed. A failed check marks its
    operation failed but never aborts the run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, op: str, problems: list[str]) -> bool:
        """Count one operation; ``problems`` lists its failed checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed_frac


def digest(values) -> str:
    """Digest of a sequence of numbers and strings, exact to the last bit
    of every float (``float.hex``), so a byte-identical rerun repeats it
    and a last-digit difference does not."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, float):
            v = v.hex()
        h.update(repr(v).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]
