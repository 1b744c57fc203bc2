"""The per-layer rows: names and units.

Every traced run prints every row (a row that the workload does not
exercise reads 0).  ``SECONDS_ROWS`` maps span names to the seconds-valued
row fed by the spans' self time; the per-call and per-request rows are
derived by the workload that exercises them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (row name, unit) in output order.
ROWS: List[Tuple[str, str]] = [
    ("statics.callgraph_s", "s"),
    ("statics.constprop_s", "s"),
    ("statics.taint_s", "s"),
    ("statics.intents_s", "s"),
    ("statics.permissions_s", "s"),
    ("pipeline.key_hash_s", "s"),
    ("pipeline.key_hash_calls", "count"),
    ("pipeline.cache_read_s", "s"),
    ("pipeline.deserialize_s", "s"),
    ("pipeline.cache_hit_ratio", "ratio"),
    ("pipeline.cache_write_s", "s"),
    ("pipeline.serialize_s", "s"),
    ("core.spec_s", "s"),
    ("relational.bounds_s", "s"),
    ("relational.translate_s", "s"),
    ("sat.tseitin_s", "s"),
    ("sat.feed_s", "s"),
    ("sat.vars", "count"),
    ("sat.clauses", "count"),
    ("sat.solve_s", "s"),
    ("sat.solve_calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("relational.minimize_s", "s"),
    ("relational.block_s", "s"),
    ("core.scenarios", "count"),
    ("core.assemble_s", "s"),
    ("core.detect_s", "s"),
    ("core.policy_derive_s", "s"),
    ("service.transport_us", "us"),
    ("service.conn_wait_us", "us"),
    ("service.codec_us", "us"),
    ("service.queue_hop_us", "us"),
    ("service.server_cpu_us_per_req", "us"),
    ("service.session_decide_us", "us"),
    ("service.resynth_ms", "ms"),
    ("service.warm_hit_ratio", "ratio"),
    ("enforcement.hook_us", "us"),
    ("enforcement.resolve_us", "us"),
    ("enforcement.pdp_decide_us", "us"),
    ("enforcement.audit_us", "us"),
    ("enforcement.pdp_cache_hit_ratio", "ratio"),
    ("enforcement.policy_swap_ms", "ms"),
    ("runtime.dispatch_us", "us"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_s", "s"),
]

#: span name -> row fed by the span's self time, for seconds-valued rows.
SECONDS_ROWS: Dict[str, str] = {
    "statics.callgraph": "statics.callgraph_s",
    "statics.constprop": "statics.constprop_s",
    "statics.taint": "statics.taint_s",
    "statics.intents": "statics.intents_s",
    "statics.permissions": "statics.permissions_s",
    "pipeline.key_hash": "pipeline.key_hash_s",
    "pipeline.cache_read": "pipeline.cache_read_s",
    "pipeline.deserialize": "pipeline.deserialize_s",
    "pipeline.cache_write": "pipeline.cache_write_s",
    "pipeline.serialize": "pipeline.serialize_s",
    "core.spec": "core.spec_s",
    "relational.bounds": "relational.bounds_s",
    "relational.translate": "relational.translate_s",
    "sat.tseitin": "sat.tseitin_s",
    "sat.feed": "sat.feed_s",
    "sat.solve": "sat.solve_s",
    "relational.minimize": "relational.minimize_s",
    "relational.block": "relational.block_s",
    "core.assemble": "core.assemble_s",
    "core.detect": "core.detect_s",
    "core.policy_derive": "core.policy_derive_s",
}


def empty_rows() -> Dict[str, float]:
    return {name: 0.0 for name, _unit in ROWS}
