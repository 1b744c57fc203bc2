"""Pipeline and session synthesis cache entries are one currency.

``repro pipeline`` and the ``repro serve`` session both reach the
synthesis cache through ``repro.pipeline.executor.synthesize_cached``, so
a composition either of them has solved answers the other from a shared
``PipelineCache`` without a single synthesis, and both give the same
findings as a cold run."""

import json

import pytest

from repro.benchsuite.running_example import build_app1, build_app2
from repro.core import serialize
from repro.pipeline import AnalysisPipeline, PipelineCache
from repro.pipeline import executor as executor_mod
from repro.service.session import DeviceSession, SessionConfig, cold_analysis

CONFIG = SessionConfig(scenarios_per_signature=2)


def canon(data):
    return json.dumps(data, sort_keys=True)


def _refuse(*args, **kwargs):
    raise AssertionError("synthesis ran against a filled cache")


def _pipeline(cache_dir):
    return AnalysisPipeline(
        jobs=1,
        cache=PipelineCache(cache_dir),
        scenarios_per_signature=CONFIG.scenarios_per_signature,
    )


def _session(cache_dir, result):
    """A session holding the pipeline-extracted models of ``result``'s
    one bundle."""
    session = DeviceSession(
        "interchange", config=CONFIG, cache=PipelineCache(cache_dir)
    )
    for app in result.reports[0].bundle.apps:
        session.install(serialize.app_to_dict(app))
    return session


@pytest.fixture
def filled_by_pipeline(tmp_path):
    result = _pipeline(tmp_path).run([[build_app1(), build_app2()]])
    assert result.run_report.cache.misses.get("synthesis") == 1
    return tmp_path, result


def test_session_hits_entry_written_by_pipeline(filled_by_pipeline):
    cache_dir, result = filled_by_pipeline
    session = _session(cache_dir, result)
    answer = session.analyze()
    status = session.status()
    assert status["syntheses"] == 0
    assert (status["warm_hits"], status["warm_lookups"]) == (1, 1)
    assert canon(answer) == canon(
        cold_analysis(session.current_bundle().apps, CONFIG)
    )
    assert canon(answer) == canon(result.findings_dict()["bundles"][0])


def test_pipeline_hits_entry_written_by_session(tmp_path, monkeypatch):
    # Extract once (uncached) for the session's models; the pipeline run
    # below then pays extraction again but must not synthesize.
    extracted = _pipeline(tmp_path / "scratch").run(
        [[build_app1(), build_app2()]]
    )
    session = _session(tmp_path / "shared", extracted)
    answer = session.analyze()
    assert session.status()["syntheses"] == 1

    monkeypatch.setattr(executor_mod, "_shared_synthesis_worker", _refuse)
    result = _pipeline(tmp_path / "shared").run(
        [[build_app1(), build_app2()]]
    )
    report = result.run_report
    assert report.failures == []
    assert report.cache.misses.get("synthesis", 0) == 0
    assert report.cache.hits.get("synthesis") == 1
    assert canon(result.findings_dict()["bundles"][0]) == canon(answer)
    assert canon(answer) == canon(
        cold_analysis(session.current_bundle().apps, CONFIG)
    )
