"""``device_enforcement``: the paper's RQ4 path on a simulated device.

An in-process ``AndroidRuntime`` with a ``PolicyEnforcementPoint`` over
the compiled PDP.  Each activation starts one sender app's ``Relay``
activity with an Intent naming an action and an explicit target; the
relay copies both into a new Intent (adding a tainted IMEI extra in the
leaky variant) and calls ``Context.startService`` -- exactly one hooked
ICC call, two PDP decisions (send and receive), two audit records.

Intent shapes come from a bounded pool (so the decision cache sees
re-occurrence), with a seeded minority of fresh actions.  The policy set
mixes every shape the compiled PDP dispatches on and is swapped every
epoch, as after an app update (one receiver app is reinstalled).

Correctness: every epoch's audit records must equal, field for field,
what the linear reference PDP produces for the events the activations
must raise (computed untimed; the oracle evaluates each distinct event
once per policy set, which is exact because the linear PDP is a pure
function of policy list, event and context).
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time
from array import array
from typing import Dict, List, Tuple

from pb import common
from pb.hostspeed import HostSpeed
from pb.layers import empty_rows
from pb.outcome import Outcome
from pb.trace import Patcher, Recorder, install_layers, layer_table

perf = time.perf_counter

SENDERS = 16
RECEIVER_APPS = 8
SERVICES_PER_APP = 4
ACTIONS = 24
PERMISSIONS = 8
POLICIES = 96
POLICY_SETS = 3
POOL_SHAPES = 256
FRESH_SHARE = 0.05
EPOCH = 2000  # activations between policy swaps (runtime budget: 10k)
TRACED_EPOCHS = 3
#: Set-up takes about 20 ms, so a median of 3 spread 0.5 (IQR/median
#: over seeds 21-30); more repeats cost little.
SETUP_REPEATS = 15
CONTEXT = "Context.startService"


def _prompt(policy, event) -> bool:
    """Deterministic user answer to a prompt policy."""
    return (len(event.sender) + len(event.action or "")) % 2 == 0


class Device:
    """Generated apps, policy sets and the activation stream of a seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.actions = [f"bench.ACTION_{i}" for i in range(ACTIONS)]
        self.permissions = [f"bench.perm.P{i}" for i in range(PERMISSIONS)]
        self.targets = [
            f"bench.recv{a}/Svc{s}"
            for a in range(RECEIVER_APPS)
            for s in range(SERVICES_PER_APP)
        ]
        # Shares are fixed and only identities are drawn, so every seed
        # offers the same mix of work (see README: steady inputs).
        self.sender_perms = [
            frozenset(rng.sample(self.permissions, i % 4))
            for i in range(SENDERS)
        ]
        rng.shuffle(self.sender_perms)
        leaky = set(rng.sample(range(SENDERS), SENDERS * 2 // 5))
        self.leaky = [i in leaky for i in range(SENDERS)]
        self.senders = [f"bench.sender{i}/Relay" for i in range(SENDERS)]
        self.sender_apks = [self._sender_apk(i) for i in range(SENDERS)]
        self.receiver_apks = [self._receiver_apk(a) for a in range(RECEIVER_APPS)]
        self.policy_sets = [self._policies(rng) for _ in range(POLICY_SETS)]
        self.pool = [
            (rng.randrange(SENDERS), rng.randrange(len(self.targets)),
             rng.choice(self.actions))
            for _ in range(POOL_SHAPES)
        ]

    # -- apps ------------------------------------------------------------
    def _sender_apk(self, i: int):
        from repro.android.apk import Apk
        from repro.android.components import ComponentDecl, ComponentKind
        from repro.android.manifest import Manifest
        from repro.dex import DexClass, DexProgram, MethodBuilder

        relay = MethodBuilder("onCreate", params=("p0",))
        relay.const_string("v4", "a")
        relay.invoke("Intent.getStringExtra", receiver="p0", args=("v4",),
                     dest="v1")
        relay.const_string("v4", "t")
        relay.invoke("Intent.getStringExtra", receiver="p0", args=("v4",),
                     dest="v2")
        relay.new_instance("v0", "Intent")
        relay.invoke("Intent.setAction", receiver="v0", args=("v1",))
        relay.invoke("Intent.setClassName", receiver="v0", args=("v2",))
        if self.leaky[i]:
            relay.invoke("TelephonyManager.getDeviceId", dest="v3")
            relay.const_string("v4", "id")
            relay.invoke("Intent.putExtra", receiver="v0", args=("v4", "v3"))
        relay.invoke("Context.startService", args=("v0",))
        relay.ret()
        return Apk(
            Manifest(
                package=f"bench.sender{i}",
                uses_permissions=self.sender_perms[i],
                components=[ComponentDecl("Relay", ComponentKind.ACTIVITY,
                                          exported=True)],
            ),
            DexProgram([DexClass("Relay", superclass="Activity",
                                 methods=[relay.build()])]),
        )

    def _receiver_apk(self, a: int):
        from repro.android.apk import Apk
        from repro.android.components import ComponentDecl, ComponentKind
        from repro.android.manifest import Manifest
        from repro.dex import DexClass, DexProgram, MethodBuilder

        decls, classes = [], []
        for s in range(SERVICES_PER_APP):
            decls.append(ComponentDecl(f"Svc{s}", ComponentKind.SERVICE,
                                       exported=True))
            body = MethodBuilder("onStartCommand", params=("p0",)).ret()
            classes.append(DexClass(f"Svc{s}", superclass="Service",
                                    methods=[body.build()]))
        return Apk(Manifest(package=f"bench.recv{a}", components=decls),
                   DexProgram(classes))

    # -- policies ----------------------------------------------------------
    def _policies(self, rng: random.Random):
        from repro.android.resources import Resource
        from repro.core.policy import ECAPolicy, PolicyAction, PolicyEvent

        resources = sorted(Resource, key=lambda r: r.value)
        shapes = [i % 8 for i in range(POLICIES)]
        rng.shuffle(shapes)
        verdicts = [PolicyAction.DENY if i % 10 < 7 else PolicyAction.PROMPT
                    for i in range(POLICIES)]
        rng.shuffle(verdicts)
        policies = []
        for shape, verdict in zip(shapes, verdicts):
            if shape <= 2:  # exact (receiver, action)
                policy = ECAPolicy(
                    event=PolicyEvent.ICC_RECEIVE, vulnerability="service_launch",
                    action=verdict, receiver=rng.choice(self.targets),
                    intent_action=rng.choice(self.actions))
            elif shape <= 4:  # receiver-only, payload condition
                policy = ECAPolicy(
                    event=PolicyEvent.ICC_RECEIVE,
                    vulnerability="information_leak", action=verdict,
                    receiver=rng.choice(self.targets),
                    extras_any=frozenset({Resource.IMEI}))
            elif shape == 5:  # sender-pinned hijack shape
                policy = ECAPolicy(
                    event=PolicyEvent.ICC_SEND, vulnerability="intent_hijack",
                    action=verdict, sender=rng.choice(self.senders),
                    intent_action=rng.choice(self.actions),
                    allowed_receivers=frozenset(rng.sample(self.targets, 3)))
            elif shape == 6:  # permission predicate
                policy = ECAPolicy(
                    event=PolicyEvent.ICC_RECEIVE,
                    vulnerability="privilege_escalation", action=verdict,
                    receiver=rng.choice(self.targets),
                    sender_lacks_permission=rng.choice(self.permissions))
            else:  # wildcard: no endpoint pinned
                policy = ECAPolicy(
                    event=PolicyEvent.ICC_RECEIVE,
                    vulnerability="information_leak", action=verdict,
                    extras_any=frozenset({rng.choice(resources)}))
            policies.append(policy)
        return policies

    # -- traffic -----------------------------------------------------------
    def epoch_stream(self, epoch: int) -> List[Tuple[int, int, str]]:
        """``(sender, target, action)`` per activation of one epoch."""
        rng = random.Random(self.seed * 1_000_003 + epoch)
        stream = []
        for n in range(EPOCH):
            if rng.random() < FRESH_SHARE:
                stream.append((rng.randrange(SENDERS),
                               rng.randrange(len(self.targets)),
                               f"bench.FRESH_{epoch}_{n}"))
            else:
                stream.append(self.pool[rng.randrange(POOL_SHAPES)])
        return stream

    def digest(self, epochs: int = 2) -> str:
        return common.digest([
            self.sender_apks, self.receiver_apks, self.policy_sets,
            [self.epoch_stream(e) for e in range(epochs)],
        ])

    def expected_events(self, sender: int, target: int, action: str):
        from repro.android.resources import Resource
        from repro.core.policy import IccEvent, PolicyEvent

        event = IccEvent(
            sender=self.senders[sender],
            receiver=self.targets[target],
            action=action,
            extras=(frozenset({Resource.IMEI}) if self.leaky[sender]
                    else frozenset()),
            sender_permissions=self.sender_perms[sender],
        )
        return [(PolicyEvent.ICC_SEND, event), (PolicyEvent.ICC_RECEIVE, event)]


class Oracle:
    """Audit records the linear reference PDP emits, memoized per event."""

    def __init__(self, device: Device) -> None:
        self.device = device
        self._memo: Dict[Tuple, dict] = {}

    def record(self, policy_set: int, kind, event) -> dict:
        from repro.enforcement import AuditLog, make_pdp

        key = (policy_set, kind, event)
        rec = self._memo.get(key)
        if rec is None:
            audit = AuditLog()
            pdp = make_pdp(self.device.policy_sets[policy_set],
                           backend="linear", prompt_callback=_prompt,
                           audit=audit)
            pdp.decide(kind, event, context=CONTEXT)
            rec = audit.records[-1].to_dict()
            rec.pop("seq")
            self._memo[key] = rec
        return rec

    def check(self, policy_set: int, stream, records) -> bool:
        # Fresh shapes never recur across epochs; a memo kept across them
        # would grow with the number of activations, and with it the RSS.
        self._memo.clear()
        expected = []
        for sender, target, action in stream:
            for kind, event in self.device.expected_events(sender, target,
                                                           action):
                expected.append(self.record(policy_set, kind, event))
        if len(records) != len(expected):
            return False
        for seq, (got, want) in enumerate(zip(records, expected)):
            got = got.to_dict()
            if got.pop("seq") != seq or got != want:
                return False
        return True


class Enforcer:
    """The device under test: runtime + PEP + compiled PDP."""

    def __init__(self, device: Device) -> None:
        from repro.enforcement import AuditLog, make_pdp

        self.device = device
        self.pdp = make_pdp(device.policy_sets[0], backend="compiled",
                            prompt_callback=_prompt, audit=AuditLog())
        self.policy_set = 0
        self.runtime = None
        self.reboot()

    def reboot(self) -> None:
        """A fresh runtime (the dispatch budget is per runtime) sharing
        the PDP; a new audit log per epoch keeps memory flat."""
        from repro.enforcement import AndroidRuntime, AuditLog, PolicyEnforcementPoint

        runtime = AndroidRuntime()
        for apk in self.device.sender_apks + self.device.receiver_apks:
            runtime.install(apk)
        self.pdp.audit = AuditLog()
        PolicyEnforcementPoint(runtime, self.pdp).install()
        self.runtime = runtime

    def swap(self, policy_set: int, recorder=None, windows=None) -> float:
        """App update, then the policy swap; returns the swap's seconds
        (under a span when ``recorder`` is given, and appended to
        ``windows`` as ``(start, end)`` when that is given)."""
        device = self.device
        victim = device.receiver_apks[policy_set % RECEIVER_APPS]
        self.runtime.device.uninstall(victim.package)
        self.runtime.install(victim)
        t0 = perf()
        span = recorder.begin("enforcement.policy_swap") if recorder else None
        self.pdp.policies = device.policy_sets[policy_set]
        if span is not None:
            recorder.finish(span)
        t1 = perf()
        if windows is not None:
            windows.append((t0, t1))
        self.policy_set = policy_set
        return t1 - t0

    def activation_intent(self, target: int, action: str):
        from repro.enforcement.runtime import RuntimeIntent

        intent = RuntimeIntent(sender="android/framework")
        intent.extras["a"] = action
        intent.extras["t"] = self.device.targets[target]
        return intent

    def run_epoch(self, stream, latencies: List[float],
                  windows=None) -> float:
        """Activate every entry of ``stream``; returns busy seconds.  Each
        activation's ``(start, end)`` is appended to ``windows`` when
        given."""
        start = self.runtime.start_component
        senders = self.device.senders
        busy = 0.0
        for sender, target, action in stream:
            intent = self.activation_intent(target, action)
            t0 = perf()
            start(senders[sender], intent)
            t1 = perf()
            latencies.append(t1 - t0)
            busy += t1 - t0
            if windows is not None:
                windows.append((t0, t1))
        return busy


def _setup(seed: int, outcome: Outcome, speed: HostSpeed):
    pins = common.PinCheck("enforcement", seed)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        device = Device(seed)
        value = device.digest()
        enforcer = Enforcer(device)
        times.append((perf() - t0) * speed.scale())
    outcome.op(pins.check("inputs", value),
               "device inputs differ from the pinned digest")
    if not pins.pinned:
        outcome.notes.append(f"seed {seed}: no pinned enforcement digests")
    return device, enforcer, common.median(times)


def _epochs(enforcer: Enforcer, oracle: Oracle, outcome: Outcome,
            epochs, latencies: List[float], swaps: List[float],
            recorder=None, windows=None, speed=None) -> float:
    """Run epochs (each: reboot, swap, activations, untimed check).  With
    a ``recorder``, spans are recorded only inside the timed work, whose
    ``(start, end)`` pairs go to ``windows``.  With ``speed``, the host
    is probed right before and after each epoch's timed work, and the
    busy seconds returned and the latencies appended are host-scaled."""
    paused = recorder.paused if recorder is not None else contextlib.nullcontext
    busy = 0.0
    for epoch in epochs:
        stream = enforcer.device.epoch_stream(epoch)
        with paused():
            enforcer.reboot()
        if speed is not None:
            speed.scale()  # a probe right before the timed work
        first = len(latencies)
        swap = enforcer.swap(epoch % POLICY_SETS, recorder, windows)
        swaps.append(swap)
        work = swap + enforcer.run_epoch(stream, latencies, windows)
        if speed is not None:
            k = speed.scale()
            work *= k
            for i in range(first, len(latencies)):
                latencies[i] *= k
        busy += work
        records = list(enforcer.pdp.audit.records)
        with paused():
            ok = oracle.check(enforcer.policy_set, stream, records)
        outcome.op(ok, f"epoch {epoch}: audit records differ from the "
                   "linear-PDP oracle")
        outcome.attempted += len(stream) - 1
    return busy


def run_enforcement(seed: int, seconds: float, traced: bool,
                    delays: Dict[str, float]) -> Outcome:
    outcome = Outcome()
    speed = HostSpeed()
    device, enforcer, setup = _setup(seed, outcome, speed)
    oracle = Oracle(device)
    if not traced:
        patcher = Patcher(Recorder(enabled=False), delays)
        install_layers(patcher)
        # Statistics per epoch, host-scaled (``pb.hostspeed``), then the
        # median over epochs: the host's speed drifts within seconds, and
        # a median over ~40 chunks of 2,000 calls is far steadier than
        # one pooled figure.
        chunks: List[Tuple[float, float, float]] = []
        swaps: List[float] = []
        calls = 0
        deadline = perf() + seconds
        try:
            for epoch in itertools.count():
                if chunks and perf() >= deadline:
                    break
                latencies = array("d")
                busy = _epochs(enforcer, oracle, outcome, [epoch], latencies,
                               swaps, speed=speed)
                calls += len(latencies)
                chunks.append((len(latencies) / busy,
                               common.percentile(latencies, 0.5),
                               common.percentile(latencies, 0.99)))
        finally:
            patcher.restore()
        rate = common.median([c[0] for c in chunks])
        p50 = common.median([c[1] for c in chunks])
        p99 = common.median([c[2] for c in chunks])
        lookups = enforcer.pdp.cache_hits + enforcer.pdp.cache_misses
        outcome.metrics.update(
            setup_s=setup,
            peak_rss_mb=common.peak_rss_mb(),
            throughput_per_s=rate,
            latency_p50_ms=p50 * 1e3,
            latency_tail_ms=p99 * 1e3,
        )
        outcome.detail.update(
            icc_calls_per_s=(rate, "1/s"),
            icc_p50_us=(p50 * 1e6, "us"),
            icc_p99_us=(p99 * 1e6, "us"),
            icc_calls=(float(calls), "count"),
            epochs=(float(len(chunks)), "count"),
            policy_swaps=(float(len(swaps)), "count"),
            host_probe_p50_ms=(common.median(speed.probes) * 1e3, "ms"),
            pdp_cache_hit_ratio=(enforcer.pdp.cache_hits / lookups, "ratio"),
        )
        return outcome

    # Traced: a warm-up epoch, then the same epochs untraced and traced.
    epochs = range(1, 1 + TRACED_EPOCHS)
    _epochs(enforcer, oracle, outcome, [0], [], [])
    plain_lat: List[float] = []
    plain = _epochs(enforcer, oracle, outcome, epochs, plain_lat, [])
    recorder = Recorder()
    patcher = Patcher(recorder, delays)
    install_layers(patcher)
    hits0, misses0 = enforcer.pdp.cache_hits, enforcer.pdp.cache_misses
    latencies = []
    swaps = []
    windows: List[Tuple[float, float]] = []
    try:
        wall = _epochs(enforcer, oracle, outcome, epochs, latencies, swaps,
                       recorder=recorder, windows=windows)
    finally:
        patcher.restore()
    calls = len(latencies)
    rows = empty_rows()
    per_call = {
        "runtime.dispatch": "runtime.dispatch_us",
        "enforcement.hook": "enforcement.hook_us",
        "enforcement.resolve": "enforcement.resolve_us",
        "enforcement.pdp_decide": "enforcement.pdp_decide_us",
        "enforcement.audit": "enforcement.audit_us",
    }
    table, unattributed, bad = layer_table(recorder.spans, windows)
    if bad:
        outcome.fail(f"{bad} spans have a negative self time")
    for name, total in table.items():
        outcome.layer_seconds[name] = total
        if name in per_call:
            rows[per_call[name]] = total / calls * 1e6
    hits = enforcer.pdp.cache_hits - hits0
    lookups = hits + enforcer.pdp.cache_misses - misses0
    rows["enforcement.pdp_cache_hit_ratio"] = hits / lookups
    rows["enforcement.policy_swap_ms"] = sum(swaps) / len(swaps) * 1e3
    rows["trace.unattributed_s"] = unattributed
    rows["trace.overhead_pct"] = (wall / plain - 1.0) * 100.0
    outcome.layers = rows
    outcome.traced_wall = wall
    outcome.detail["traced_wall_s"] = (wall, "s")
    outcome.detail["untraced_wall_s"] = (plain, "s")
    outcome.detail["traced_icc_calls"] = (float(calls), "count")
    common.OUT_DIR.mkdir(exist_ok=True)
    recorder.dump(common.OUT_DIR / f"spans-device_enforcement-{seed}.jsonl.gz")
    return outcome
