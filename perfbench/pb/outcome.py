"""What a workload returns to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Outcome:
    #: Operations attempted / failed, output checks included.
    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics by their BENCHMARK.json names.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: The same measurements under their workload-specific names
    #: (``apps_per_s``, ``decide_p99_ms``, ...) with units, for the report.
    detail: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer rows (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Self seconds per span name over the traced wall, plus the wall.
    layer_seconds: Dict[str, float] = field(default_factory=dict)
    traced_wall: float = 0.0
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(f"FAILED: {message}")

    def op(self, ok: bool, message: str = "") -> None:
        """Count one attempted operation (failed when ``ok`` is false)."""
        self.attempted += 1
        if not ok:
            self.fail(message)
