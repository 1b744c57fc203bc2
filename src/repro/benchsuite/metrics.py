"""Scoring: per-case TP/FP/FN and aggregate precision/recall/F-measure,
plus pipeline run-report summarization for the performance benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Set

from repro.benchsuite.groundtruth import BenchmarkCase, LeakPair


@dataclass
class CaseScore:
    case: str
    suite: str
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def symbols(self) -> str:
        """Table-I-style cell: filled squares TP, triangles FP, empty FN."""
        return (
            "■" * self.true_positives
            + "△" * self.false_positives
            + "□" * self.false_negatives
        ) or "-"


@dataclass
class ToolScore:
    tool: str
    cases: List[CaseScore] = field(default_factory=list)

    @property
    def true_positives(self) -> int:
        return sum(c.true_positives for c in self.cases)

    @property
    def false_positives(self) -> int:
        return sum(c.false_positives for c in self.cases)

    @property
    def false_negatives(self) -> int:
        return sum(c.false_negatives for c in self.cases)

    @property
    def precision(self) -> float:
        reported = self.true_positives + self.false_positives
        return self.true_positives / reported if reported else 1.0

    @property
    def recall(self) -> float:
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 1.0

    @property
    def f_measure(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def score_case(
    case: BenchmarkCase, reported: Iterable[LeakPair]
) -> CaseScore:
    reported_set = set(reported)
    tp = len(reported_set & case.expected)
    fp = len(reported_set - case.expected)
    fn = len(case.expected - reported_set)
    return CaseScore(
        case=case.name,
        suite=case.suite,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
    )


def score_tool(
    tool_name: str,
    cases: List[BenchmarkCase],
    results: Dict[str, Set[LeakPair]],
) -> ToolScore:
    """``results`` maps case name -> reported leak pairs."""
    score = ToolScore(tool=tool_name)
    for case in cases:
        score.cases.append(score_case(case, results.get(case.name, set())))
    return score


def summarize_run_report(report: Any) -> Dict[str, float]:
    """Flatten a pipeline :class:`~repro.pipeline.stats.RunReport` (or its
    dict form) into the key figures the Table 2 / Fig 5 benchmark tables
    print: per-stage wall time, cache hit rate, and every numeric field
    of the ``solver`` record (the construction/solving split, CDCL
    solver effort, and shared-encoding reuse: translations performed vs
    avoided, base clauses warm queries reused)."""
    from repro.pipeline.stats import RunReport

    if not isinstance(report, RunReport):
        report = RunReport.from_dict(report)
    data = report.to_dict()
    cache = data.get("cache", {})
    hits = cache.get("total_hits", 0)
    misses = cache.get("total_misses", 0)
    lookups = hits + misses
    summary: Dict[str, float] = {
        "jobs": float(data.get("jobs", 1)),
        "num_apps": float(data.get("num_apps", 0)),
        "num_bundles": float(data.get("num_bundles", 0)),
        "num_scenarios": float(data.get("num_scenarios", 0)),
        "num_policies": float(data.get("num_policies", 0)),
        "total_seconds": float(data.get("total_seconds", 0.0)),
        "cache_hits": float(hits),
        "cache_misses": float(misses),
        "cache_invalidations": float(cache.get("total_invalidations", 0)),
        "cache_hit_rate": (hits / lookups) if lookups else 0.0,
        "num_failures": float(len(data.get("failures", ()))),
        "num_degraded": float(len(data.get("degraded", ()))),
    }
    for name, value in data["solver"].items():
        if type(value) in (int, float):
            summary[name] = float(value)
    for stage in data.get("stages", ()):
        summary[f"stage_{stage['name']}_seconds"] = float(stage["seconds"])
    return summary
