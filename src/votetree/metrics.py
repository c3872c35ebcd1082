"""Evaluation metrics: success rate, goal condition recall, executability."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .executor import ExecutionTrace
from .world import StatePredicate

logger = logging.getLogger(__name__)


def compute_gcr(achieved: Iterable[StatePredicate], target: Iterable[StatePredicate]) -> float:
    """Fraction of target conditions achieved: 1 - |g \\ g'| / |g|."""
    g = frozenset(target)
    if not g:
        raise ValueError("GCR is undefined for an empty target condition set")
    g_prime = frozenset(achieved)
    return 1.0 - len(g - g_prime) / len(g)


def compute_sr(gcrs: Sequence[float]) -> float:
    """Fraction of episodes achieving every goal condition (GCR exactly 1)."""
    if not gcrs:
        raise ValueError("SR is undefined for an empty episode list")
    return sum(1 for g in gcrs if g == 1.0) / len(gcrs)


def compute_exec(trace: ExecutionTrace) -> float:
    """Fraction of attempted commands that executed successfully."""
    if trace.attempted == 0:
        logger.warning("empty trace: no commands were attempted, Exec defined as 0")
        return 0.0
    return trace.succeeded / trace.attempted


def _pairwise_sum(values: Sequence[float]) -> float:
    """Float sum in numpy's pairwise order, so results match numpy to the last bit.

    Below 8 values a plain running sum; up to 128, eight interleaved
    accumulators combined as a balanced tree, then the tail; above that, the
    two halves (split at a multiple of 8) summed recursively.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        r = list(values[:8])
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[tail:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation, bit-identical to numpy's
    ``mean()`` and ``std()`` on a float64 array; ``nan`` for no values."""
    xs = [float(v) for v in values]
    if not xs:
        return math.nan, math.nan
    n = len(xs)
    mean = _pairwise_sum(xs) / n
    return mean, math.sqrt(_pairwise_sum([(x - mean) * (x - mean) for x in xs]) / n)


@dataclass(frozen=True)
class MetricsRow:
    """One table row: mean and std of each metric over repeated runs."""

    method_label: str
    sr_mean: float
    sr_std: float
    gcr_mean: float
    gcr_std: float
    exec_mean: float
    exec_std: float
    runs: int

    def as_dict(self) -> dict:
        return {
            "method": self.method_label,
            "sr_mean": self.sr_mean,
            "sr_std": self.sr_std,
            "gcr_mean": self.gcr_mean,
            "gcr_std": self.gcr_std,
            "exec_mean": self.exec_mean,
            "exec_std": self.exec_std,
            "runs": self.runs,
        }


def aggregate(method_label: str, per_rep: Sequence[dict]) -> MetricsRow:
    """Collapse per-repetition metrics into one mean +/- std row."""
    sr_m, sr_s = mean_std([r["sr"] for r in per_rep])
    gcr_m, gcr_s = mean_std([r["gcr"] for r in per_rep])
    ex_m, ex_s = mean_std([r["exec"] for r in per_rep])
    return MetricsRow(
        method_label=method_label,
        sr_mean=sr_m, sr_std=sr_s,
        gcr_mean=gcr_m, gcr_std=gcr_s,
        exec_mean=ex_m, exec_std=ex_s,
        runs=len(per_rep),
    )


def score(method_label: str, episodes: Iterable[dict]) -> tuple[MetricsRow, list[dict]]:
    """Per repetition, over tasks in ``task_index`` order: SR, mean GCR and mean
    Exec; then the row of their mean +/- std.  ``run_suite`` and ``votetree
    metrics`` both score here, so they agree to the bit."""
    by_rep: dict[int, list[dict]] = {}
    for record in episodes:
        by_rep.setdefault(record["rep"], []).append(record)
    per_rep = []
    for rep in sorted(by_rep):
        records = sorted(by_rep[rep], key=lambda r: r["task_index"])
        gcrs = [r["gcr"] for r in records]
        execs = [r["exec"] for r in records]
        per_rep.append(
            {
                "kind": "repetition",
                "rep": rep,
                "sr": compute_sr(gcrs),
                "gcr": sum(gcrs) / len(gcrs),
                "exec": sum(execs) / len(execs),
            }
        )
    return aggregate(method_label, per_rep), per_rep


def format_table(rows: Sequence[MetricsRow]) -> str:
    """Fixed-width summary table (deterministic formatting)."""
    header = f"{'method':40s}  {'SR':>13s}  {'GCR':>13s}  {'Exec':>13s}  {'runs':>4s}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.method_label:40s}  "
            f"{row.sr_mean:.3f} ±{row.sr_std:.3f}  "
            f"{row.gcr_mean:.3f} ±{row.gcr_std:.3f}  "
            f"{row.exec_mean:.3f} ±{row.exec_std:.3f}  "
            f"{row.runs:4d}"
        )
    return "\n".join(lines) + "\n"
