"""Cost ledger: metered work attributed to who asked for it.

The metrics registry answers "how much work did this process do"; the
ledger answers "on whose behalf".  Every charge lands on a
``(trace_id, device, bundle, signature)`` key, so a served request, a
pipeline run, or a single signature inside a shared bundle each have an
auditable account of the solver conflicts, propagations, decisions,
clauses, cache traffic, PDP cache hits, and wall-clock they consumed.

Charges are posted by the *orchestrator* (pipeline parent process,
service event loop) from per-task stats payloads
(:meth:`repro.core.synthesis.SynthesisStats.charge`) and metrics deltas --
worker processes never touch the ledger, so serial and pooled runs
attribute identically and nothing here can perturb analysis output or
cache keys (see ``docs/OBSERVABILITY.md``: instrumentation never feeds
cache keys).

Follows the tracer/metrics pattern: a no-op :class:`NullCostLedger` is
installed by default.  A run or server installs a fresh live one with
``previous = set_cost_ledger(CostLedger())`` and puts ``previous`` back
when it is done, so no run reports another's accounts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Every meter the ledger tracks, in stable (rendering) order.
COST_FIELDS: Tuple[str, ...] = (
    "conflicts",
    "decisions",
    "propagations",
    "clauses_added",
    "translations_avoided",
    "cache_hits",
    "cache_misses",
    "pdp_cache_hits",
    "wall_seconds",
)

@dataclass(frozen=True)
class CostKey:
    """Attribution coordinates for one account in the ledger.

    Empty strings mean "not applicable at this grain": a pipeline run has
    no device and an extraction task has no signature.  Synthesis charges
    use ``signature='*'``: every signature of a bundle is solved on one
    shared solver, whose counters cannot be split per signature.
    """

    trace_id: str = ""
    device: str = ""
    bundle: str = ""
    signature: str = ""

    def to_dict(self) -> Dict[str, str]:
        return {
            "trace_id": self.trace_id,
            "device": self.device,
            "bundle": self.bundle,
            "signature": self.signature,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "CostKey":
        return CostKey(
            trace_id=str(data.get("trace_id", "")),
            device=str(data.get("device", "")),
            bundle=str(data.get("bundle", "")),
            signature=str(data.get("signature", "")),
        )


class CostLedger:
    """Thread-safe accumulator of charges keyed by :class:`CostKey`.

    ``capacity`` bounds distinct keys (a long-lived service sees a fresh
    trace id per request): when full, the oldest-charged keys are evicted
    so the resident set stays flat.  Totals queried per trace id are exact
    as long as the trace's entries have not been evicted, which holds for
    any in-flight request.  A per-trace index, kept in step with charges
    and evictions, makes that query cost only the trace's own accounts:
    the service asks it on every response.
    """

    enabled = True

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        # dict preserves insertion order -> cheap FIFO eviction.
        self._entries: Dict[CostKey, Dict[str, float]] = {}
        # trace id -> that trace's keys, in charge order (dict as an
        # ordered set), so a per-trace query never scans the ledger.
        self._by_trace: Dict[str, Dict[CostKey, None]] = {}
        self.evictions = 0

    def charge(self, key: CostKey, **amounts: float) -> None:
        """Add ``amounts`` (field=value) to ``key``'s account.

        Unknown fields raise: a typo'd meter name silently dropping
        charges would corrupt reconciliation invisibly.
        """
        for name in amounts:
            if name not in COST_FIELDS:
                raise KeyError(f"unknown cost field: {name!r}")
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                while len(self._entries) >= self.capacity:
                    oldest = next(iter(self._entries))
                    del self._entries[oldest]
                    trace_keys = self._by_trace[oldest.trace_id]
                    del trace_keys[oldest]
                    if not trace_keys:
                        del self._by_trace[oldest.trace_id]
                    self.evictions += 1
                entry = {field: 0.0 for field in COST_FIELDS}
                self._entries[key] = entry
                self._by_trace.setdefault(key.trace_id, {})[key] = None
            for name, value in amounts.items():
                entry[name] += float(value)

    def entries(self) -> List[Dict[str, Any]]:
        """Every account as ``{**key, **meters}`` dicts, charge order."""
        with self._lock:
            return [
                {**key.to_dict(), **dict(meters)}
                for key, meters in self._entries.items()
            ]

    def totals(
        self,
        trace_id: Optional[str] = None,
        device: Optional[str] = None,
    ) -> Dict[str, float]:
        """Sum of every meter over accounts matching the given filters."""
        totals = {field: 0.0 for field in COST_FIELDS}
        with self._lock:
            keys: Iterable[CostKey] = (
                self._entries
                if trace_id is None
                else self._by_trace.get(trace_id, ())
            )
            for key in keys:
                if device is not None and key.device != device:
                    continue
                meters = self._entries[key]
                for field in COST_FIELDS:
                    totals[field] += meters[field]
        return totals

    def top(self, n: int = 5, by: str = "conflicts") -> List[Dict[str, Any]]:
        """The ``n`` costliest accounts ranked by meter ``by``."""
        if by not in COST_FIELDS:
            raise KeyError(f"unknown cost field: {by!r}")
        ranked = sorted(
            self.entries(), key=lambda entry: entry[by], reverse=True
        )
        return ranked[: max(0, int(n))]

    def merge(self, entries: Iterable[Dict[str, Any]]) -> None:
        """Fold exported :meth:`entries` rows back in (report round-trip)."""
        for entry in entries:
            key = CostKey.from_dict(entry)
            amounts = {
                field: float(entry.get(field, 0) or 0) for field in COST_FIELDS
            }
            self.charge(key, **amounts)

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_trace.clear()
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class NullCostLedger(CostLedger):
    """The disabled ledger: accepts charges, records nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def charge(self, key: CostKey, **amounts: float) -> None:
        return None

    def merge(self, entries: Iterable[Dict[str, Any]]) -> None:
        return None


NULL_COST_LEDGER = NullCostLedger()
_ledger: CostLedger = NULL_COST_LEDGER


def get_cost_ledger() -> CostLedger:
    return _ledger


def set_cost_ledger(ledger: CostLedger) -> CostLedger:
    """Install ``ledger`` globally; returns the previous ledger."""
    global _ledger
    previous = _ledger
    _ledger = ledger
    return previous

