"""Cache-key stability: the single-pass encoder against its reference.

``canonical_json`` writes canonical JSON in one walk of the object tree.
Its contract is byte identity with the two-step reference form,
``json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))``:
every key already on disk must still be addressed.  The encoder sits
outside ``framework_fingerprint`` (editing it rotates no key by itself),
so the golden digests below are the only guard against a silent rotation.
"""

import dataclasses
import enum
import hashlib
import json
from typing import Any, FrozenSet, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchsuite.running_example import build_app1, build_app2
from repro.pipeline import AnalysisPipeline, PipelineCache
from repro.pipeline import executor as executor_mod
from repro.pipeline.cache import canonical, canonical_json, content_hash

#: A fixed stand-in for ``framework_fingerprint()``: the real one moves
#: with every edit to the analysis code, which is not what these pin.
FINGERPRINT = "f" * 64

#: ``content_hash`` values computed with the two-step encoder the
#: single-pass one replaced.  A change here rotates every persisted key.
GOLDEN = {
    "app1": "c1c89d56fbe5aac7a7af648fb8253b23091070024945e259aac4bfb0ce68545c",
    "app2": "76a8cea7c7356cbc643b5e38451023b967834e00504ce416414d902e94470f55",
    "extract_key": "a7d8a1c991a5571d03d3f15840c55d24d79b8f71b11c6a2a5976ed69922a1199",
    "shared_synthesis_key": "800d44d01d9574f279a4a7e6445bb1664444d7cdfccc2aea49c5baccb3c88377",
}


def _extract_key() -> dict:
    """Shaped like ``AnalysisPipeline.extract_apps``' key."""
    return {
        "task": "extract",
        "apk": build_app1(),
        "handle_dynamic_receivers": True,
        "fingerprint": FINGERPRINT,
    }


def _shared_synthesis_key() -> dict:
    """Shaped like the shared-encoding synthesis key of the executor and
    the service session (app hashes are the sorted app content keys)."""
    return {
        "task": "synthesis",
        "mode": "shared",
        "apps": sorted(["a" * 64, "0123456789abcdef" * 4]),
        "signatures": [
            "intent_hijack",
            "service_launch",
            "information_leak",
            "privilege_escalation",
        ],
        "params": {
            "scenarios_per_signature": 4,
            "minimal": True,
            "conflict_budget": None,
            "time_budget_seconds": 2.5,
        },
        "fingerprint": FINGERPRINT,
    }


def reference_json(obj: Any) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def reference_hash(obj: Any) -> str:
    return hashlib.sha256(reference_json(obj).encode("utf-8")).hexdigest()


class TestGoldenKeys:
    @pytest.mark.parametrize(
        "name,build",
        [
            ("app1", build_app1),
            ("app2", build_app2),
            ("extract_key", _extract_key),
            ("shared_synthesis_key", _shared_synthesis_key),
        ],
    )
    def test_digest_pinned(self, name, build):
        assert content_hash(build()) == GOLDEN[name]
        assert reference_hash(build()) == GOLDEN[name]


# ----------------------------------------------------------------------
# Differential: every shape canonical() accepts, rare ones included.


class Color(enum.Enum):
    RED = 1
    GREEN = "g"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    READ = "r"
    WRITE = "w"


class Tag(str):
    pass


class Count(int):
    pass


@dataclasses.dataclass(frozen=True)
class Leaf:
    name: str
    size: int
    tags: FrozenSet[str] = frozenset()


@dataclasses.dataclass
class Node:
    label: Any
    children: List[Any] = dataclasses.field(default_factory=list)
    zmeta: Any = None


TRICKY_TEXT = ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "☃",
               "\U0001f600", "\ud800", "a\"b", "", " ", "__map__"]

texts = st.one_of(
    st.text(max_size=8),
    st.sampled_from(TRICKY_TEXT),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"),
                     1e16, 5e-324]),
)
enums = st.sampled_from(list(Color) + list(Level) + list(Mode))
hashables = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), floats, texts,
        texts.map(Tag), st.integers().map(Count), enums,
        st.builds(Leaf, texts, st.integers(), st.frozensets(texts,
                                                            max_size=4)),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=6,
)
keys = st.one_of(texts, st.integers(), st.booleans(), floats, texts.map(Tag),
                 enums, st.none())
values = st.recursive(
    hashables,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
        st.dictionaries(keys, inner, max_size=4),
        st.sets(hashables, max_size=4),
        st.frozensets(texts, max_size=4),
        st.builds(Node, inner, st.lists(inner, max_size=3), inner),
    ),
    max_leaves=24,
)


class TestDifferential:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values)
    def test_matches_reference(self, obj):
        assert canonical_json(obj) == reference_json(obj)

    @pytest.mark.parametrize("build", [build_app1, build_app2, _extract_key,
                                       _shared_synthesis_key])
    def test_real_keys_match_reference(self, build):
        assert canonical_json(build()) == reference_json(build())

    def test_set_order_follows_escaped_text(self):
        # Elements sort by their escaped text: "\\u00e9" comes before
        # "z" although "é" > "z", and '\\"' comes after "A".
        obj = frozenset({"z", "é", "A", '"'})
        assert canonical_json(obj) == reference_json(obj)
        assert canonical_json(obj) == '["A","\\"","\\u00e9","z"]'

    def test_str_enum_is_not_a_plain_string(self):
        obj = {"m": Mode.READ, "s": frozenset({Mode.WRITE}), "t": (Mode.READ,)}
        assert canonical_json(obj) == reference_json(obj)
        assert '"__enum__":"Mode"' in canonical_json(obj)


class TestUnsupportedTypes:
    @pytest.mark.parametrize(
        "obj",
        [
            object(),
            b"bytes",
            Leaf,  # a dataclass *class* is not an instance
            {"a": [1, {"b": (2, object())}]},
            Node(label=Node(label="x", children=[1, {2}, (3, bytearray())])),
            frozenset({"a", object()}),
            {object(): 1},
            {1: [complex(1, 2)]},
        ],
        ids=["object", "bytes", "dataclass-class", "deep-in-map",
             "deep-in-dataclass", "in-set", "map-key", "map-value"],
    )
    def test_type_error(self, obj):
        with pytest.raises(TypeError):
            reference_json(obj)
        with pytest.raises(TypeError, match="cannot canonicalize"):
            canonical_json(obj)
        with pytest.raises(TypeError):
            content_hash(obj)


# ----------------------------------------------------------------------
# A cache filled under reference keys is still hit in full.


def _refuse(*args, **kwargs):
    raise AssertionError("analysis ran against a filled cache")


def test_cache_filled_under_reference_keys_still_hits(tmp_path, monkeypatch):
    def pipeline():
        return AnalysisPipeline(
            jobs=1, cache=PipelineCache(tmp_path), scenarios_per_signature=2
        )

    with monkeypatch.context() as patch:
        patch.setattr(executor_mod, "content_hash", reference_hash)
        cold = pipeline().run([[build_app1(), build_app2()]])
    lookups = cold.run_report.cache.total_misses
    assert lookups > 0 and cold.run_report.cache.total_hits == 0

    for worker in ("_extract_worker", "_shared_synthesis_worker"):
        monkeypatch.setattr(executor_mod, worker, _refuse)
    warm = pipeline().run([[build_app1(), build_app2()]])
    assert warm.run_report.failures == []
    assert warm.run_report.cache.total_misses == 0
    assert warm.run_report.cache.total_hits == lookups
    assert json.dumps(warm.findings_dict(), sort_keys=True) == json.dumps(
        cold.findings_dict(), sort_keys=True
    )
