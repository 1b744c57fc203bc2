"""``SynthesisStats`` is the one counters record: engine runs fill it, the
cache stores its ``to_dict()``, the run report merges it and the cost
ledger bills it (``tests/obs/test_cost.py``).  These tests walk its
fields, so a counter added later is covered without editing them, and
pin its serialized form."""

import dataclasses

from repro.core.synthesis import SynthesisStats

NUMERIC = [
    f.name
    for f in dataclasses.fields(SynthesisStats)
    if type(f.default) in (int, float)
]

#: A ``to_dict()`` output in the stored-payload format: these 15 keys, in
#: this order, are what cached synthesis payloads hold.
PINNED = {
    "construction_seconds": 0.5,
    "solving_seconds": 1.25,
    "num_vars": 120,
    "num_clauses": 480,
    "conflicts": 4,
    "decisions": 57,
    "propagations": 845,
    "solver_calls": 9,
    "translations": 1,
    "translations_avoided": 4,
    "clauses_shared": 300,
    "learned_carried": 2,
    "exhausted": True,
    "backend": "fast",
    "per_signature": {
        "intent_hijack": {
            "construction_seconds": 0.0,
            "solving_seconds": 0.75,
            "scenarios": 2.0,
            "exhausted": 1.0,
        }
    },
}


def test_every_numeric_field_is_summed_and_round_trips():
    assert {"conflicts", "construction_seconds"} <= set(NUMERIC)
    assert "exhausted" not in NUMERIC  # bool: ORed, not summed
    for index, name in enumerate(NUMERIC):
        first = SynthesisStats(**{name: index + 1})
        second = SynthesisStats(**{name: 10 * (index + 1)})
        first.merge(second)
        assert getattr(first, name) == 11 * (index + 1), name
        restored = SynthesisStats.from_dict(first.to_dict())
        assert restored == first, name


def test_pinned_dict_decodes_and_reencodes_unchanged():
    stats = SynthesisStats.from_dict(PINNED)
    assert stats.exhausted is True and stats.backend == "fast"
    assert SynthesisStats.from_dict(stats.to_dict()) == stats
    assert stats.to_dict() == PINNED
    assert list(stats.to_dict()) == list(PINNED)
    # Decoding copies the per-signature entries.
    assert stats.per_signature["intent_hijack"] is not (
        PINNED["per_signature"]["intent_hijack"]
    )


def test_missing_keys_decode_to_defaults():
    assert SynthesisStats.from_dict({}) == SynthesisStats()
    partial = SynthesisStats.from_dict({"conflicts": 3})
    assert partial == SynthesisStats(conflicts=3)


def test_merge_folds_flags_and_backends():
    stats = SynthesisStats()
    stats.merge(SynthesisStats(backend="fast"))
    assert stats.backend == "fast" and not stats.exhausted
    stats.merge(SynthesisStats(exhausted=True))  # unknown backend: kept
    assert stats.backend == "fast" and stats.exhausted
    stats.merge(SynthesisStats(backend="reference"))
    assert stats.backend == "mixed" and stats.exhausted

