"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

They drive ``perfbench/run.py`` as a subprocess, like the benchmark's
users do, with short measurement windows.  The injected-slowdown tests
add, through the benchmark-side wrapper, a busy-wait equal to one
layer's measured self time per call and check that the traced run
attributes the growth to that layer alone, that the predicted
end-to-end metric moves on its workload, and that a workload predicted
flat stays within the benchmark's bounds.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}
SECONDS = "4"


def run(workload, trace=0, seed=1, inject=(), seconds=SECONDS, cwd=ROOT,
        table=False):
    """The run's metrics (and its standard-error table when ``table``)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           *BENCH["command"][2:], "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    for spec in inject:
        cmd += ["--inject", spec]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr[-4000:]
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return (metrics, proc.stderr) if table else metrics


def host_factor(table):
    """How ``pb.hostspeed`` scaled a run's times: ``NOMINAL_S`` over the
    run's median probe.  An injected busy-wait is wall time, so it shows
    in the run's metrics scaled by this factor."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from pb.hostspeed import NOMINAL_S

    for line in table.splitlines():
        fields = line.split()
        if fields and fields[0] == "host_probe_p50_ms":
            return NOMINAL_S / (float(fields[1]) / 1e3)
    raise AssertionError("no host_probe_p50_ms in the run's table")


def worse_by(name, base, new):
    """Relative worsening of an end-to-end metric (positive = worse)."""
    if BOUNDS[name]["better"] == "lower":
        return new / base - 1.0
    return base / new - 1.0


def assert_only_row_grew(base, slowed, row, injected, rows, workload, span,
                         delay):
    """Every ``span`` of the slowed traced run holds its injected
    busy-wait of ``delay`` seconds in its own self time, so ``row`` holds
    all of ``injected``; no other row grew beyond what the host's speed
    drift explains.  The first two checks are exact: a comparison of
    ``row`` with the base run is not, since the host's speed can change
    twofold between two runs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from pb.trace import load_spans

    dump = ROOT / ".perfbench_out" / f"spans-{workload}-1.jsonl.gz"
    selfs = [s.self_time for s in load_spans(dump) if s.name == span]
    assert selfs and min(selfs) >= delay, (span, min(selfs or [0]), delay)
    assert slowed[row] >= injected, (row, slowed[row], injected)
    for name in rows:
        if name != row:
            assert slowed[name] <= 1.5 * base[name] + 0.1 * injected, (
                name, base[name], slowed[name])


@pytest.mark.parametrize("workload", ["audit_cold", "audit_warm",
                                      "device_service", "device_enforcement"])
def test_every_metric_and_row_is_reported(workload):
    metrics = run(workload)
    assert set(metrics) == set(BOUNDS)
    assert all(v > 0 for v in metrics.values())
    layers = run(workload, trace=1)
    assert set(layers) == {m["name"] for m in BENCH["per_layer"]}
    assert layers["trace.unattributed_s"] >= 0


def test_key_hash_slowdown_is_attributed_to_key_hashing():
    base = run("audit_warm", trace=1)
    calls = base["pipeline.key_hash_calls"]
    per_call = base["pipeline.key_hash_s"] / calls
    spec = f"pipeline.key_hash={per_call:.9f}"
    slowed = run("audit_warm", trace=1, inject=[spec])
    program_rows = [k for k in base if k.endswith("_s")
                    and not k.startswith("trace.")]
    assert_only_row_grew(base, slowed, "pipeline.key_hash_s",
                         per_call * slowed["pipeline.key_hash_calls"],
                         program_rows, "audit_warm", "pipeline.key_hash",
                         per_call)
    # The predicted end-to-end metric moves on its workload: hashing is
    # most of a warm pass, so doubling it costs far more than the bound.
    plain = run("audit_warm")
    hurt = run("audit_warm", inject=[spec])
    assert worse_by("throughput_per_s", plain["throughput_per_s"],
                    hurt["throughput_per_s"]) > BOUNDS["throughput_per_s"]["bound"]
    # A workload predicted flat stays within bounds.
    flat = run("device_enforcement")
    flat_hurt = run("device_enforcement", inject=[spec])
    for name in ("throughput_per_s", "latency_p50_ms"):
        assert worse_by(name, flat[name], flat_hurt[name]) <= BOUNDS[name]["bound"]


def test_key_hash_slowdown_moves_service_refresh():
    """The daemon's session keys its synthesis cache with ``content_hash``,
    so slower key hashing must show in refresh throughput.  Hashing is a
    small share of a refresh, so the delay per call is sized from the
    measured re-synthesis time, to make the predicted move plainly larger
    than the bound."""
    base = run("device_service", trace=1)
    delay = base["service.resynth_ms"] / 1e3 / 4
    spec = f"pipeline.key_hash={delay:.9f}"
    slowed = run("device_service", trace=1, inject=[spec])
    program_rows = [k for k in base if k.endswith("_s")
                    and not k.startswith("trace.")]
    assert_only_row_grew(base, slowed, "pipeline.key_hash_s",
                         delay * slowed["pipeline.key_hash_calls"],
                         program_rows, "device_service", "pipeline.key_hash",
                         delay)
    plain = run("device_service")
    hurt = run("device_service", inject=[spec])
    assert worse_by("throughput_per_s", plain["throughput_per_s"],
                    hurt["throughput_per_s"]) > BOUNDS["throughput_per_s"]["bound"]


def test_pdp_slowdown_is_attributed_to_the_pdp():
    base = run("device_enforcement", trace=1)
    # Two decisions per hooked call.
    per_decide = base["enforcement.pdp_decide_us"] / 2 / 1e6
    spec = f"enforcement.pdp_decide={per_decide:.9f}"
    slowed = run("device_enforcement", trace=1, inject=[spec])
    assert_only_row_grew(
        base, slowed, "enforcement.pdp_decide_us", 2 * per_decide * 1e6,
        ["enforcement.hook_us", "enforcement.resolve_us",
         "enforcement.audit_us", "runtime.dispatch_us"],
        "device_enforcement", "enforcement.pdp_decide", per_decide)
    # The predicted metric moves by most of the two injected waits, as
    # the host-scaled metrics show them.
    plain = run("device_enforcement")
    hurt, table = run("device_enforcement", inject=[spec], table=True)
    added_ms = hurt["latency_p50_ms"] - plain["latency_p50_ms"]
    assert added_ms >= 0.5 * 2 * per_decide * 1e3 * host_factor(table), (
        plain, hurt)
    flat = run("audit_warm")
    flat_hurt = run("audit_warm", inject=[spec])
    for name in ("throughput_per_s", "latency_p50_ms"):
        assert worse_by(name, flat[name], flat_hurt[name]) <= BOUNDS[name]["bound"]


@pytest.mark.parametrize("case, holds", [
    ("nested", True), ("overlap", False), ("outside", False)])
def test_layer_identity_catches_misattribution(case, holds):
    """Layer self times + unattributed time equal the measured wall only
    when the root spans sit, without overlapping, inside the windows."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from pb.outcome import Outcome
    from pb.trace import Span, layer_table
    from run import check_layers_add_up

    spans = []

    def span(name, start, end, parent=None):
        new = Span(len(spans) + 1, name, start,
                   parent.sid if parent else 0, None)
        new.end = end
        if parent:
            parent.child += end - start
        spans.append(new)
        return new

    windows = [(0.0, 1.0), (2.0, 3.0)]
    root = span("a", 0.0, 0.95)
    span("b", 0.2, 0.4, parent=root)
    span("c", 2.0, 2.95)
    if case == "overlap":  # the same time charged to two layers
        span("d", 2.5, 2.7)
    if case == "outside":  # work recorded outside the measured windows
        span("d", 1.2, 1.4)
    table, unattributed, bad = layer_table(spans, windows)
    assert bad == 0
    outcome = Outcome(layer_seconds=table,
                      layers={"trace.unattributed_s": unattributed},
                      traced_wall=2.0)
    check_layers_add_up(outcome)
    assert (outcome.failed == 0) == holds, outcome.notes


def test_same_seed_same_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from pb.audit import build_inputs, input_digest
    from pb.enforce import Device

    assert input_digest(build_inputs(5)) == input_digest(build_inputs(5))
    assert input_digest(build_inputs(5)) != input_digest(build_inputs(6))
    assert Device(5).digest() == Device(5).digest()


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "audit_cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
