"""Observability through the pipeline: run-report round-trips carrying
spans/metrics/cost, attach_observability, traced end-to-end runs, and
cross-process span propagation under both pool start methods."""

import importlib.util
import multiprocessing
import os
import pathlib

import pytest

from repro.benchsuite.running_example import build_app1, build_app2
from repro.obs import (
    NULL_COST_LEDGER,
    NULL_METRICS,
    NULL_TRACER,
    TRACE_ENV,
    CostLedger,
    InMemoryTracer,
    MetricsRegistry,
    enable_tracing,
    set_cost_ledger,
    set_metrics,
    set_tracer,
)
from repro.obs.trace import read_trace
from repro.pipeline import (
    AnalysisPipeline,
    NullCache,
    RunReport,
    attach_observability,
)


def check_trace_integrity(path, expect_roots=1):
    """Run the CI trace checker (tools/check_trace_integrity.py) in-process."""
    tool = (
        pathlib.Path(__file__).resolve().parents[2]
        / "tools"
        / "check_trace_integrity.py"
    )
    spec = importlib.util.spec_from_file_location("check_trace_integrity", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_trace(str(path), expect_roots=expect_roots)


@pytest.fixture
def observed():
    """Install a collecting tracer+registry; restore the no-ops after."""
    tracer = InMemoryTracer()
    registry = MetricsRegistry()
    prev_tracer = set_tracer(tracer)
    prev_metrics = set_metrics(registry)
    yield tracer, registry
    set_tracer(prev_tracer)
    set_metrics(prev_metrics)


class TestRunReportRoundTrip:
    def test_spans_and_metrics_survive_serialization(self):
        report = RunReport(jobs=2)
        report.add_stage("extract", 1.5)
        report.spans = {
            "pipeline.extract": {
                "count": 1, "total_seconds": 1.5,
                "self_seconds": 0.2, "max_seconds": 1.5,
            }
        }
        report.metrics = {
            "sat.conflicts": {"type": "counter", "value": 7},
            "ame.cfg_count": {
                "type": "histogram", "count": 2, "sum": 10.0,
                "min": 3, "max": 7, "mean": 5.0,
            },
        }
        restored = RunReport.loads(report.dumps())
        assert restored.spans == report.spans
        assert restored.metrics == report.metrics
        assert restored.to_dict() == report.to_dict()

    def test_fields_default_empty_for_old_reports(self):
        # Reports written before observability existed must still load.
        report = RunReport(jobs=1)
        data = report.to_dict()
        del data["spans"], data["metrics"]
        import json

        restored = RunReport.loads(json.dumps(data))
        assert restored.spans == {} and restored.metrics == {}


class TestAttachObservability:
    def test_folds_tracer_and_registry_into_report(self, observed):
        tracer, registry = observed
        with tracer.span("work"):
            pass
        registry.counter("sat.solver_calls").inc(3)
        report = attach_observability(RunReport(jobs=1))
        assert report.spans["work"]["count"] == 1
        assert report.metrics["sat.solver_calls"]["value"] == 3

    def test_noop_when_disabled(self):
        # Default no-op tracer/registry: the report stays untouched.
        report = attach_observability(RunReport(jobs=1))
        assert report.spans == {} and report.metrics == {}

    def test_reads_trace_file_when_given(self, tmp_path, observed):
        tracer, _ = observed
        with tracer.span("recorded"):
            pass
        from repro.obs.trace import write_trace

        path = tmp_path / "t.jsonl"
        write_trace(str(path), tracer.records)
        report = attach_observability(RunReport(jobs=1), trace_path=str(path))
        assert "recorded" in report.spans


class TestTracedPipelineRun:
    def test_spans_cover_every_stage_and_synthesis_call(self, observed):
        tracer, registry = observed
        apks = [build_app1(), build_app2()]
        pipeline = AnalysisPipeline(jobs=1, scenarios_per_signature=2)
        result = pipeline.run([apks])
        names = {r.name for r in tracer.records}
        # Every stage...
        for stage in (
            "pipeline.run", "pipeline.extract", "pipeline.synthesis",
            "pipeline.assemble",
        ):
            assert stage in names
        # ...every per-app extraction and the one per-bundle synthesis.
        per_app = [r for r in tracer.records if r.name == "pipeline.extract_app"]
        per_bundle = [
            r for r in tracer.records if r.name == "pipeline.synthesize_bundle"
        ]
        assert len(per_app) == 2
        assert len(per_bundle) == 1
        # The engine's spans nest under the worker span: one shared
        # bundle run, then one solve per signature inside it.
        bundle_ids = {r.span_id for r in per_bundle}
        inner = [r for r in tracer.records if r.name == "ase.bundle"]
        assert len(inner) == 1 and inner[0].parent_id in bundle_ids
        solves = [r for r in tracer.records if r.name == "ase.solve"]
        assert len(solves) == len(pipeline.signature_names)
        assert all(r.parent_id == inner[0].span_id for r in solves)
        # Aggregates landed in the run report, metrics included.
        report = result.run_report
        assert report.spans["pipeline.synthesize_bundle"]["count"] == 1
        assert report.metrics["ame.apps_extracted"]["value"] == 2
        assert registry.counter("ase.signature_runs").value == len(
            pipeline.signature_names
        )

    def test_observability_does_not_change_findings(self, observed):
        """Byte-identity guard: tracing, metrics, AND cost attribution all
        enabled must not change analysis output at all."""
        import json

        apks = [build_app1(), build_app2()]
        ledger = CostLedger()
        prev_ledger = set_cost_ledger(ledger)
        try:
            observed_result = AnalysisPipeline(
                jobs=1, scenarios_per_signature=2
            ).run([apks])
        finally:
            set_cost_ledger(prev_ledger)
        set_tracer(NULL_TRACER)
        set_metrics(NULL_METRICS)
        set_cost_ledger(NULL_COST_LEDGER)
        plain_result = AnalysisPipeline(
            jobs=1, scenarios_per_signature=2
        ).run([apks])
        assert json.dumps(
            observed_result.findings_dict(), sort_keys=True
        ) == json.dumps(plain_result.findings_dict(), sort_keys=True)
        # Attribution actually happened -- identity wasn't vacuous.
        assert ledger.totals()["cache_misses"] > 0


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
class TestCrossProcessPropagation:
    """Worker spans must join the orchestrator's trace whether workers
    inherit state (fork) or start from a fresh interpreter (spawn)."""

    def _traced_parallel_run(self, tmp_path, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {start_method!r} unavailable")
        path = tmp_path / "t.jsonl"
        tracer = enable_tracing(str(path))
        try:
            AnalysisPipeline(
                jobs=2,
                cache=NullCache(),
                scenarios_per_signature=2,
                start_method=start_method,
            ).run([[build_app1(), build_app2()]])
        finally:
            set_tracer(NULL_TRACER)
            tracer.close()
            os.environ.pop(TRACE_ENV, None)
        return read_trace(str(path))

    def test_worker_spans_parent_under_dispatch_span(
        self, tmp_path, start_method
    ):
        records = self._traced_parallel_run(tmp_path, start_method)
        by_id = {r.span_id: r for r in records}

        # Exactly one root: the orchestrator's pipeline.run span.
        roots = [r for r in records if r.parent_id is None]
        assert [r.name for r in roots] == ["pipeline.run"]
        assert roots[0].pid == os.getpid()

        # Work really crossed a process boundary...
        worker_spans = [r for r in records if r.pid != os.getpid()]
        assert worker_spans, "no spans from worker processes"

        # ...and every worker task span resolves to the orchestrator's
        # dispatch stage span, carrying the run's trace id.
        trace_id = roots[0].trace_id
        assert trace_id
        for record in worker_spans:
            assert record.trace_id == trace_id
            top = record
            while by_id[top.parent_id].pid != os.getpid():
                top = by_id[top.parent_id]
            dispatch = by_id[top.parent_id]
            assert dispatch.name in ("pipeline.extract", "pipeline.synthesis")

        # The CI checker agrees: no orphans, one root, one trace.
        assert check_trace_integrity(tmp_path / "t.jsonl") == []

    def test_every_span_carries_the_single_trace_id(
        self, tmp_path, start_method
    ):
        records = self._traced_parallel_run(tmp_path, start_method)
        trace_ids = {r.trace_id for r in records}
        assert len(trace_ids) == 1
        assert None not in trace_ids
