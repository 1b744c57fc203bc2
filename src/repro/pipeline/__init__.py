"""Parallel, content-addressed analysis/synthesis pipeline.

Fans SEPAR's two independent workload axes -- per-app model extraction and
per-(bundle, signature) synthesis -- across a process pool, backed by a
persistent cache keyed by content hashes of the inputs and the analysis
code.  See :mod:`repro.pipeline.executor` for the orchestration,
:mod:`repro.pipeline.cache` for the cache, and
:mod:`repro.pipeline.stats` for the machine-readable run report.
"""

from repro.pipeline.cache import (
    CACHE_DIR_ENV,
    CACHE_FORMAT_VERSION,
    NullCache,
    PipelineCache,
    canonical_json,
    content_hash,
    default_cache_dir,
    framework_fingerprint,
)
from repro.pipeline.executor import (
    AnalysisPipeline,
    FaultPolicy,
    PipelineResult,
    attach_observability,
)
from repro.pipeline.faults import FAULT_ENV, FAULT_STATE_ENV, InjectedFault
from repro.pipeline.stats import (
    CacheAccounting,
    RunReport,
    StageTiming,
    TaskFailure,
)

__all__ = [
    "AnalysisPipeline",
    "FaultPolicy",
    "TaskFailure",
    "InjectedFault",
    "FAULT_ENV",
    "FAULT_STATE_ENV",
    "PipelineResult",
    "attach_observability",
    "PipelineCache",
    "NullCache",
    "CacheAccounting",
    "RunReport",
    "StageTiming",
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "canonical_json",
    "content_hash",
    "default_cache_dir",
    "framework_fingerprint",
]
