"""``audit_cold`` and ``audit_warm``: the pipeline over seeded bundles.

Inputs (from the seed): market-corpus bundles of 20 apps (the paper's
Table II shape, scaled down from 50) and a few adversarial bundles with
planted attacks and near-miss decoys.  One *unit* is one bundle audited
by its own ``AnalysisPipeline.run`` call (``jobs=1``), which is what a
user asking for a bundle's report waits for.

- ``audit_cold``: every unit gets a fresh, empty disk cache, so AME
  extraction, translation, clause feed, solving, minimization and cache
  writes all do real work.
- ``audit_warm``: set-up audits every unit once into one disk cache;
  the measured passes re-audit freshly generated ``Apk`` objects against
  it, so extraction and synthesis are cache hits and the time goes to
  key hashing, cache reads, deserialization and report assembly.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from pb import common
from pb.hostspeed import HostSpeed
from pb.layers import SECONDS_ROWS, empty_rows
from pb.outcome import Outcome
from pb.trace import (
    CacheCounter,
    Patcher,
    Recorder,
    SolveCounter,
    install_layers,
    layer_table,
)

perf = time.perf_counter

MARKET_SCALE = 0.05  # a 200-app market corpus to draw the bundles from
#: Injection rates are raised over the paper's market calibration so
#: that every seed's corpus holds enough apps of each vulnerability kind
#: to give every bundle one of each.
INJECTION_BOOST = 3.0
BUNDLE_SIZE = 20
MARKET_BUNDLES = 2
#: Code-size profile of a market bundle, in instructions: the clean apps'
#: sizes at the 16 quantile midpoints of the generator's size distribution
#: (capped at its 90th percentile), pooled over the corpora of seeds
#: 2016-2019, and the median size, used for the vulnerable apps.
CLEAN_SIZES = (320, 400, 490, 570, 640, 700, 780, 900, 1100, 1280, 1480,
               1740, 1950, 2200, 2480, 2740)
TYPICAL_SIZE = 1000
ADVERSARIAL_BUNDLES = 2
ADVERSARIAL_APPS = 8
SCENARIOS = 2
SETUP_REPEATS = 3


@dataclass
class Unit:
    label: str  # "market0", "adversarial1", ...
    kind: str  # "market" | "adversarial"
    index: int  # bundle index within its kind
    apks: list


@dataclass
class Inputs:
    units: List[Unit]
    manifest: object  # GroundTruthManifest of the adversarial bundles


def app_size(apk) -> int:
    """Code volume of an app: its instruction count."""
    return sum(len(m.instructions) for m in apk.program.all_methods())


def stratified_bundles(apks, ledger, rng: random.Random, bundles: int,
                       size: int) -> List[list]:
    """Bundles with the same make-up and code volume for every seed.

    Each bundle takes one app of every injected vulnerability kind (any
    flagged app when a kind runs out), nearest to ``TYPICAL_SIZE``, and
    fills up with the clean apps nearest to ``CLEAN_SIZES``.  The seed
    still decides the corpus, and so which apps those are; what it no
    longer decides is how much code a bundle holds -- a 200-app corpus
    of the generator's long-tailed sizes otherwise varies by a quarter
    in its quantiles from seed to seed.
    """
    if size != len(CLEAN_SIZES) + 4:
        raise ValueError("bundle size does not match the size profile")
    sizes = {a.package: app_size(a) for a in apks}
    by_package = {a.package: a for a in apks}
    groups = [ledger.hijack_apps, ledger.launch_apps, ledger.leak_apps,
              ledger.escalation_apps]
    flagged = set().union(*groups)
    clean = sorted(p for p in sizes if p not in flagged)
    used: set = set()

    def nearest(pool, target: int):
        pool = [p for p in pool if p not in used]
        if not pool:
            raise RuntimeError("market corpus too small for the bundles")
        pick = min(pool, key=lambda p: (abs(sizes[p] - target), p))
        used.add(pick)
        return by_package[pick]

    out = []
    for _ in range(bundles):
        bundle = []
        for group in groups:
            pool = sorted(group - used) or sorted(flagged)
            bundle.append(nearest(pool, TYPICAL_SIZE))
        bundle.extend(nearest(clean, target) for target in CLEAN_SIZES)
        rng.shuffle(bundle)
        out.append(bundle)
    return out


def build_inputs(seed: int) -> Inputs:
    from repro.core.attack_generation import (
        AdversarialCorpusConfig,
        AdversarialCorpusGenerator,
    )
    from repro.workloads import CorpusConfig, CorpusGenerator
    from repro.workloads.corpus import REPOSITORIES

    repositories = {
        name: dataclasses.replace(
            profile,
            p_hijack=profile.p_hijack * INJECTION_BOOST,
            p_launch=profile.p_launch * INJECTION_BOOST,
            p_leak=profile.p_leak * INJECTION_BOOST,
            p_escalation=profile.p_escalation * INJECTION_BOOST,
        )
        for name, profile in REPOSITORIES.items()
    }
    generator = CorpusGenerator(CorpusConfig(
        seed=seed, scale=MARKET_SCALE, repositories=repositories))
    apks = generator.generate()
    market = stratified_bundles(apks, generator.ledger, random.Random(seed),
                                MARKET_BUNDLES, BUNDLE_SIZE)
    adversarial, manifest = AdversarialCorpusGenerator(
        AdversarialCorpusConfig(
            seed=seed,
            bundles=ADVERSARIAL_BUNDLES,
            apps_per_bundle=ADVERSARIAL_APPS,
        )
    ).generate()
    m = [Unit(f"market{i}", "market", i, b) for i, b in enumerate(market)]
    a = [Unit(f"adversarial{i}", "adversarial", i, b)
         for i, b in enumerate(adversarial)]
    # Interleaved so a time-bounded run covers both kinds.
    units = [m[0], a[0], m[1], a[1]]
    return Inputs(units=units, manifest=manifest)


def input_digest(inputs: Inputs) -> str:
    return common.digest(
        [[u.label, u.apks] for u in inputs.units] + [inputs.manifest.to_dict()]
    )


def audit_unit(unit: Unit, cache_root, windows=None) -> Tuple[float, object]:
    """Audit one bundle; returns (seconds, PipelineResult).  The call's
    ``(start, end)`` is appended to ``windows`` when given."""
    from repro.pipeline import AnalysisPipeline, PipelineCache

    t0 = perf()
    pipeline = AnalysisPipeline(
        jobs=1,
        cache=PipelineCache(cache_root),
        scenarios_per_signature=SCENARIOS,
        handle_dynamic_receivers=unit.kind == "adversarial",
    )
    result = pipeline.run([unit.apks])
    t1 = perf()
    if windows is not None:
        windows.append((t0, t1))
    return t1 - t0, result


def findings_text(result) -> str:
    return json.dumps(result.findings_dict(), sort_keys=True)


def planted_exact(unit: Unit, manifest, result) -> bool:
    """Planted attacks score P = R = 1.0 against the generator manifest."""
    from repro.benchsuite.groundtruth import findings_from_scenarios

    found = findings_from_scenarios([result.reports[0].scenarios])
    for signature in manifest.signatures():
        expected = {(0, app) for app in manifest.expected(signature, unit.index)}
        if found.get(signature, set()) != expected:
            return False
    return True


class _Checks:
    def __init__(self, outcome: Outcome, pins: common.PinCheck,
                 manifest) -> None:
        self.outcome = outcome
        self.pins = pins
        self.manifest = manifest
        self.reference: Dict[str, str] = {}

    def unit(self, unit: Unit, result) -> None:
        """One audited unit = one operation; any mismatch fails it."""
        text = findings_text(result)
        problems = []
        if result.run_report.failures or result.run_report.degraded:
            problems.append("pipeline reported failures or degraded tasks")
        if not self.pins.check(f"findings.{unit.label}", common.digest_json(
                json.loads(text))):
            problems.append("findings digest differs from the pinned one")
        if unit.kind == "adversarial" and not planted_exact(
                unit, self.manifest, result):
            problems.append("planted attacks not found exactly (P/R != 1)")
        expected = self.reference.get(unit.label)
        if expected is not None and text != expected:
            problems.append("findings differ from the cold audit's")
        self.reference.setdefault(unit.label, text)
        self.outcome.op(not problems, f"{unit.label}: " + "; ".join(problems))


def _setup_inputs(seed: int, outcome: Outcome,
                  speed: HostSpeed) -> Tuple[Inputs, float, common.PinCheck]:
    """Build the inputs SETUP_REPEATS times; returns the median time
    (host-scaled)."""
    pins = common.PinCheck("audit", seed)
    windows = []
    inputs = None
    with speed.ticking():
        for _ in range(SETUP_REPEATS):
            t0 = perf()
            inputs = build_inputs(seed)
            value = input_digest(inputs)
            windows.append((t0, perf()))
    times = [speed.scaled(*window) for window in windows]
    outcome.op(pins.check("inputs", value),
               "audit inputs differ from the pinned digest")
    if not pins.pinned:
        outcome.notes.append(f"seed {seed}: no pinned audit digests")
    return inputs, common.median(times), pins


def _metrics(outcome: Outcome, passes: List[List[Tuple[float, str, int]]],
             setup: float, speed: HostSpeed) -> None:
    """Throughput: the median over passes of apps audited per second.
    Latency: the time of a pass (every bundle of the inputs audited once,
    what re-auditing the device costs), p50 and p90 over the passes.
    Every bundle's time is host-scaled (``pb.hostspeed``)."""
    samples = [s for one in passes for s in one]
    apps = sum(n for _s, _k, n in samples)
    walls = [sum(s for s, _k, _n in one) * 1000.0 for one in passes]
    rates = [sum(n for _s, _k, n in one) / sum(s for s, _k, _n in one)
             for one in passes]
    market = [s * 1000.0 for s, kind, _n in samples if kind == "market"]
    outcome.metrics.update(
        setup_s=setup,
        peak_rss_mb=common.peak_rss_mb(),
        throughput_per_s=common.median(rates),
        latency_p50_ms=common.percentile(walls, 0.5),
        latency_tail_ms=common.percentile(walls, 0.9),
    )
    outcome.detail.update(
        apps_per_s=(common.median(rates), "1/s"),
        pass_p50_ms=(outcome.metrics["latency_p50_ms"], "ms"),
        pass_p90_ms=(outcome.metrics["latency_tail_ms"], "ms"),
        market_bundle_p50_ms=(common.percentile(market, 0.5), "ms"),
        apps_audited=(float(apps), "count"),
        bundles_audited=(float(len(samples)), "count"),
        passes=(float(len(passes)), "count"),
        host_probe_p50_ms=(common.median(speed.probes) * 1e3, "ms"),
    )


class _Passes:
    """Fresh ``Apk`` objects for every pass, without re-running the
    generators: a pickle snapshot of the inputs taken at set-up."""

    def __init__(self, inputs: Inputs) -> None:
        self._blob = pickle.dumps(inputs.units)

    def units(self) -> List[Unit]:
        return pickle.loads(self._blob)


def _timed(pass_fn, seconds: float, delays: Dict[str, float],
           speed: HostSpeed):
    """Whole passes until ``seconds`` have elapsed (at least one), each
    bundle's time host-scaled."""
    patcher = Patcher(Recorder(enabled=False), delays)
    install_layers(patcher)
    passes = []
    try:
        with speed.ticking():
            start = perf()
            while True:
                windows: List[Tuple[float, float]] = []
                samples = pass_fn(windows)
                passes.append([(window, kind, n) for window, (_s, kind, n)
                               in zip(windows, samples)])
                if perf() - start >= seconds:
                    break
    finally:
        patcher.restore()
    return [[(speed.scaled(*window), kind, n) for window, kind, n in one]
            for one in passes]


# ----------------------------------------------------------------------

def run_cold(seed: int, seconds: float, traced: bool,
             delays: Dict[str, float]) -> Outcome:
    outcome = Outcome()
    speed = HostSpeed()
    inputs, setup, pins = _setup_inputs(seed, outcome, speed)
    checks = _Checks(outcome, pins, inputs.manifest)
    passes = _Passes(inputs)
    outcome.detail["setup_input_s"] = (setup, "s")
    with common.Scratch("audit_cold") as scratch:
        # Settle one-time process costs (lazy imports, the analysis-code
        # fingerprint) outside the measurement, as a long-lived process would.
        warmup: List[Tuple[float, float]] = []
        with speed.ticking():
            audit_unit(min(inputs.units, key=lambda u: len(u.apks)),
                       scratch.fresh_dir("w"), warmup)
        setup += speed.scaled(*warmup[0])

        def cold_pass(windows=None):
            samples = []
            for unit in passes.units():
                elapsed, result = audit_unit(unit, scratch.fresh_dir("c"),
                                             windows)
                samples.append((elapsed, unit.kind, len(unit.apks)))
                checks.unit(unit, result)
            return samples

        if not traced:
            _metrics(outcome, _timed(cold_pass, seconds, delays, speed),
                     setup, speed)
            return outcome
        # Traced: one untraced pass, then the identical pass traced.
        outcome_layers(outcome, f"audit_cold-{seed}", cold_pass(), cold_pass,
                       passes=1, delays=delays)
    return outcome


def run_warm(seed: int, seconds: float, traced: bool,
             delays: Dict[str, float]) -> Outcome:
    outcome = Outcome()
    speed = HostSpeed()
    inputs, setup, pins = _setup_inputs(seed, outcome, speed)
    checks = _Checks(outcome, pins, inputs.manifest)
    passes = _Passes(inputs)
    with common.Scratch("audit_warm") as scratch:
        cache = scratch.fresh_dir("cache")
        filled: List[Tuple[float, float]] = []
        with speed.ticking():
            for unit in inputs.units:
                _elapsed, result = audit_unit(unit, cache, filled)
                checks.unit(unit, result)
        fill = sum(speed.scaled(*window) for window in filled)
        outcome.detail["setup_input_s"] = (setup, "s")
        outcome.detail["setup_fill_s"] = (fill, "s")
        setup += fill

        def warm_pass(windows=None):
            samples = []
            for unit in passes.units():
                elapsed, result = audit_unit(unit, cache, windows)
                samples.append((elapsed, unit.kind, len(unit.apks)))
                checks.unit(unit, result)
            return samples

        if not traced:
            _metrics(outcome, _timed(warm_pass, seconds, delays, speed),
                     setup, speed)
            return outcome
        warm_pass()  # settle allocator and file-system caches
        outcome_layers(outcome, f"audit_warm-{seed}",
                       warm_pass() + warm_pass(),
                       lambda w: warm_pass(w) + warm_pass(w), passes=2,
                       delays=delays)
    return outcome


# ----------------------------------------------------------------------

def program_rows(outcome: Outcome, recorder: Recorder, windows,
                 passes: int, solves: SolveCounter,
                 cache: CacheCounter, key_hash_calls: int) -> None:
    """Fill the program-layer rows from spans (totals per pass)."""
    rows = empty_rows()
    table, unattributed, bad = layer_table(recorder.spans, windows)
    if bad:
        outcome.fail(f"{bad} spans have a negative self time")
    for name, total in table.items():
        outcome.layer_seconds[name] = total
        row = SECONDS_ROWS.get(name)
        if row is not None:
            rows[row] += total / passes
    rows["pipeline.key_hash_calls"] = key_hash_calls / passes
    rows["pipeline.cache_hit_ratio"] = (
        cache.hits / cache.lookups if cache.lookups else 0.0)
    rows["sat.vars"] = solves.vars / passes
    rows["sat.clauses"] = solves.clauses / passes
    rows["sat.solve_calls"] = solves.calls / passes
    rows["sat.conflicts"] = solves.conflicts / passes
    rows["sat.propagations"] = solves.propagations / passes
    rows["core.scenarios"] = cache.scenarios / passes
    rows["trace.unattributed_s"] = unattributed
    outcome.layers = rows
    outcome.traced_wall = sum(end - start for start, end in windows)


def outcome_layers(outcome: Outcome, label: str, plain, traced_fn,
                   passes: int, delays: Dict[str, float]) -> None:
    """Run ``traced_fn(windows)`` under spans; it appends the ``(start,
    end)`` of every audited unit to ``windows``, which make up the traced
    wall; compare with the untraced samples ``plain``."""
    recorder = Recorder()
    solves = SolveCounter()
    cache = CacheCounter()
    solves.install()
    cache.install()
    patcher = Patcher(recorder, delays)
    install_layers(patcher)
    windows: List[Tuple[float, float]] = []
    try:
        samples = traced_fn(windows)
    finally:
        patcher.restore()
        cache.restore()
        solves.restore()
    key_calls = sum(1 for s in recorder.spans if s.name == "pipeline.key_hash")
    program_rows(outcome, recorder, windows, passes, solves, cache, key_calls)
    wall = sum(s[0] for s in samples)
    plain_wall = sum(s[0] for s in plain)
    outcome.layers["trace.overhead_pct"] = (wall / plain_wall - 1.0) * 100.0
    outcome.detail["traced_wall_s"] = (wall, "s")
    outcome.detail["untraced_wall_s"] = (plain_wall, "s")
    common.OUT_DIR.mkdir(exist_ok=True)
    recorder.dump(common.OUT_DIR / f"spans-{label}.jsonl.gz")
