"""Cost ledger: attribution accounts, totals/top queries, capacity
eviction, thread safety, stats charging, and the null-ledger default."""

import random
import sys
import threading

import pytest

from repro.core.synthesis import SynthesisStats
from repro.obs import (
    COST_FIELDS,
    NULL_COST_LEDGER,
    CostKey,
    CostLedger,
    NullCostLedger,
    get_cost_ledger,
    set_cost_ledger,
)


def _key(trace="t1", **kwargs):
    return CostKey(trace_id=trace, **kwargs)


class TestCharging:
    def test_charge_accumulates_per_key(self):
        ledger = CostLedger()
        ledger.charge(_key(), conflicts=3, wall_seconds=0.5)
        ledger.charge(_key(), conflicts=2)
        ledger.charge(_key(bundle="b"), conflicts=10)
        (first, second) = ledger.entries()
        assert first["conflicts"] == 5 and first["wall_seconds"] == 0.5
        assert second["conflicts"] == 10 and second["bundle"] == "b"
        assert len(ledger) == 2

    def test_unknown_field_raises(self):
        ledger = CostLedger()
        with pytest.raises(KeyError):
            ledger.charge(_key(), confilcts=1)  # typo must not vanish

    def test_entries_carry_every_meter_and_the_key(self):
        ledger = CostLedger()
        ledger.charge(
            _key(device="phone", bundle="a,b", signature="collusion"),
            pdp_cache_hits=4,
        )
        (entry,) = ledger.entries()
        for field in COST_FIELDS:
            assert field in entry
        assert entry["trace_id"] == "t1"
        assert entry["device"] == "phone"
        assert entry["signature"] == "collusion"
        assert entry["pdp_cache_hits"] == 4

    def test_synthesis_stats_charge_maps_solver_counters(self):
        ledger = CostLedger()
        SynthesisStats(
            conflicts=7,
            decisions=20,
            propagations=100,
            num_clauses=50,
            translations_avoided=3,
            construction_seconds=0.25,
            solving_seconds=0.75,
        ).charge(ledger, _key())
        (entry,) = ledger.entries()
        assert entry["conflicts"] == 7
        assert entry["decisions"] == 20
        assert entry["propagations"] == 100
        assert entry["clauses_added"] == 50
        assert entry["translations_avoided"] == 3
        assert entry["wall_seconds"] == pytest.approx(1.0)


class TestQueries:
    def test_totals_filtered_by_trace_and_device(self):
        ledger = CostLedger()
        ledger.charge(_key("t1", device="a"), conflicts=1)
        ledger.charge(_key("t1", device="b"), conflicts=2)
        ledger.charge(_key("t2", device="a"), conflicts=4)
        assert ledger.totals()["conflicts"] == 7
        assert ledger.totals(trace_id="t1")["conflicts"] == 3
        assert ledger.totals(device="a")["conflicts"] == 5
        assert ledger.totals(trace_id="t2", device="a")["conflicts"] == 4
        assert ledger.totals(trace_id="absent")["conflicts"] == 0

    def test_top_ranks_by_requested_meter(self):
        ledger = CostLedger()
        ledger.charge(_key(bundle="cheap"), conflicts=1, wall_seconds=9.0)
        ledger.charge(_key(bundle="hot"), conflicts=100, wall_seconds=0.1)
        top = ledger.top(1, by="conflicts")
        assert [e["bundle"] for e in top] == ["hot"]
        assert [e["bundle"] for e in ledger.top(1, by="wall_seconds")] == [
            "cheap"
        ]
        with pytest.raises(KeyError):
            ledger.top(1, by="nonsense")

    def test_merge_round_trips_exported_entries(self):
        source = CostLedger()
        source.charge(_key(bundle="x"), conflicts=5, cache_misses=1)
        source.charge(_key("t2"), decisions=8)
        restored = CostLedger()
        restored.merge(source.entries())
        assert restored.entries() == source.entries()


class TestCapacity:
    def test_fifo_eviction_keeps_resident_set_flat(self):
        ledger = CostLedger(capacity=3)
        for i in range(5):
            ledger.charge(_key(f"t{i}"), conflicts=i)
        assert len(ledger) == 3
        assert ledger.evictions == 2
        traces = [e["trace_id"] for e in ledger.entries()]
        assert traces == ["t2", "t3", "t4"]  # oldest accounts went first

    def test_trace_totals_stay_exact_across_eviction(self):
        """Per-trace totals come from an index, not a scan: they must equal
        a scan of the resident accounts at every step, while FIFO eviction
        removes whole traces and parts of traces."""
        rng = random.Random(7)
        ledger = CostLedger(capacity=6)
        traces = [f"t{i}" for i in range(5)]
        for step in range(400):
            ledger.charge(
                _key(rng.choice(traces), device=rng.choice("ab"),
                     bundle=str(rng.randrange(3))),
                conflicts=rng.randrange(10), wall_seconds=rng.random(),
            )
            resident = ledger.entries()
            for trace in traces + ["absent"]:
                for device in (None, "a"):
                    expected = {field: 0.0 for field in COST_FIELDS}
                    for entry in resident:
                        if entry["trace_id"] != trace:
                            continue
                        if device is not None and entry["device"] != device:
                            continue
                        for field in COST_FIELDS:
                            expected[field] += entry[field]
                    assert ledger.totals(trace_id=trace, device=device) == (
                        expected
                    ), (step, trace, device)
        assert ledger.evictions > 0
        # The index holds exactly the resident traces -- nothing leaks.
        assert set(ledger._by_trace) == {
            e["trace_id"] for e in ledger.entries()
        }
        ledger.reset()
        assert ledger.totals(trace_id="t0")["conflicts"] == 0.0
        assert ledger._by_trace == {}

    def test_trace_index_survives_concurrent_eviction(self):
        """Threads racing charges through a small ledger (constant
        eviction) must leave the per-trace index equal to the resident
        accounts, and every resident charge visible in its trace's total."""
        ledger = CostLedger(capacity=8)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def work(i):
            for n in range(2000):
                ledger.charge(_key(f"t{n % 5}", bundle=f"{i}-{n % 3}"),
                              conflicts=1)

        try:
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(previous)
        resident = ledger.entries()
        assert len(resident) == 8 and ledger.evictions > 0
        assert set(ledger._by_trace) == {e["trace_id"] for e in resident}
        for trace in ledger._by_trace:
            expected = sum(
                e["conflicts"] for e in resident if e["trace_id"] == trace
            )
            assert ledger.totals(trace_id=trace)["conflicts"] == expected

    def test_reset_clears_accounts_and_eviction_count(self):
        ledger = CostLedger(capacity=1)
        ledger.charge(_key("a"), conflicts=1)
        ledger.charge(_key("b"), conflicts=1)
        assert ledger.evictions == 1
        ledger.reset()
        assert len(ledger) == 0 and ledger.evictions == 0

    def test_concurrent_charges_lose_nothing(self):
        ledger = CostLedger()
        per_thread = 500

        def work(i):
            for _ in range(per_thread):
                ledger.charge(_key(f"t{i % 2}"), conflicts=1)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ledger.totals()["conflicts"] == 4 * per_thread


class TestGlobalInstall:
    def test_null_ledger_is_default_and_inert(self):
        assert isinstance(NULL_COST_LEDGER, NullCostLedger)
        assert NULL_COST_LEDGER.enabled is False
        NULL_COST_LEDGER.charge(_key(), conflicts=99)
        SynthesisStats(conflicts=99).charge(NULL_COST_LEDGER, _key())
        NULL_COST_LEDGER.merge([{"trace_id": "x", "conflicts": 1}])
        assert NULL_COST_LEDGER.entries() == []
        assert NULL_COST_LEDGER.totals()["conflicts"] == 0

    def test_set_installs_and_restores(self):
        previous = get_cost_ledger()
        live = CostLedger()
        try:
            assert set_cost_ledger(live) is previous
            assert get_cost_ledger() is live
        finally:
            set_cost_ledger(previous)
        assert get_cost_ledger() is previous
