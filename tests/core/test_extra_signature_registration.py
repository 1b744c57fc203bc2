"""Regression: signature names outside the built-in registry flow through
stats, reports and policy derivation without KeyError.

Early report plumbing keyed summaries on the original signature list;
registering an extra plugin (as PR 9 does four times over) must not
require touching stats aggregation, serialization, run-report degradation
summaries, or policy derivation.  This suite registers a synthetic
"fifth" signature with a never-before-seen name and pushes it through
every per-signature surface."""

import pytest

from repro.benchsuite.running_example import build_app1, build_app2
from repro.core.policy import derive_policies
from repro.core.synthesis import AnalysisAndSynthesisEngine, SynthesisStats
from repro.core.vulnerabilities import default_signatures
from repro.core.vulnerabilities.base import (
    ExploitScenario,
    VulnerabilitySignature,
)
from repro.statics import extract_bundle

EXOTIC = "exotic_fifth_signature"


class ExoticSignature(VulnerabilitySignature):
    """A plugin whose facts always rule it out (dead-gated goal)."""

    name = EXOTIC

    def instantiate(self, spec):
        return self.impossible()


@pytest.fixture(scope="module")
def bundle():
    return extract_bundle([build_app1(), build_app2()])


@pytest.fixture(scope="module", params=[False, True], ids=["per-sig", "shared"])
def result(request, bundle):
    engine = AnalysisAndSynthesisEngine(
        signatures=default_signatures() + [ExoticSignature()],
        scenarios_per_signature=2,
    )
    if request.param:
        return engine.run(bundle)
    return engine.run_per_signature(bundle)


def test_stats_record_the_extra_signature(result):
    assert EXOTIC in result.stats.per_signature
    entry = result.stats.per_signature[EXOTIC]
    assert entry.get("scenarios") == 0
    assert "exhausted" in entry


def test_stats_round_trip_and_merge_with_extra_signature(result):
    clone = SynthesisStats.from_dict(result.stats.to_dict())
    assert EXOTIC in clone.per_signature
    rollup = SynthesisStats()
    rollup.merge(clone)
    rollup.merge(clone)
    assert EXOTIC in rollup.per_signature
    assert rollup.to_dict()["per_signature"][EXOTIC] is not None


def test_unknown_vulnerability_name_derives_no_policy(bundle):
    scenario = ExploitScenario(
        vulnerability=EXOTIC,
        roles={"victim": "app1.example/Main"},
        intent={},
    )
    assert derive_policies([scenario], bundle) == []


def test_known_scenarios_unaffected_by_extra_registration(bundle, result):
    baseline = AnalysisAndSynthesisEngine(scenarios_per_signature=2).run(
        bundle
    )
    assert {s.vulnerability for s in result.scenarios} == {
        s.vulnerability for s in baseline.scenarios
    }
    assert not any(s.vulnerability == EXOTIC for s in result.scenarios)
