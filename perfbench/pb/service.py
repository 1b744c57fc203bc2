"""``device_service``: ``repro serve`` as a child process, two streams.

The daemon runs on a UNIX socket with ``--cache-entries 1``, so every
refresh whose composition changed re-synthesizes and a refresh whose
composition did not change is a warm hit -- the hit/miss pattern is a
property of the script, not of speed.

- "Steady" devices each hold a small bundle with policies.  An
  open-loop, seeded-Poisson ``decide`` stream at one fixed rate goes to
  them over one connection; each decide is timed from when it was due.
- "Churning" devices get a closed-loop lifecycle script over a second
  connection: install / revoke / grant / update / uninstall, each
  followed by ``policies``; a refresh is timed from sending the mutation
  to receiving the ``policies`` answer.

Both streams share the daemon, so CPU and GIL interference between them
is measured, while the decide tail is not inflated by queueing behind a
synthesis on the same device.  The client is one thread driving both
connections with ``select``.

Checks: every response must be ok; each decide verdict must equal the
linear reference PDP over the policies the steady device reported at
set-up; after the run, every device's ``analyze`` answer must equal
``cold_analysis`` over the grant-effective apps the benchmark tracked.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import select
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from pb import common
from pb.hostspeed import HostSpeed
from pb.layers import SECONDS_ROWS, empty_rows
from pb.outcome import Outcome
from pb.trace import load_spans, uncovered, window_counts

perf = time.perf_counter

STEADY_DEVICES = 4
STEADY_APPS = 4
CHURN_DEVICES = 4
CHURN_BASE_APPS = 3
CHURN_EXTRA_APPS = 2
#: Seed of the corpus the devices' apps come from (see ``Inputs``).
FLEET_SEED = 2016
SCRIPT_OPS = 5  # install, revoke, grant, update, uninstall
SCENARIOS = 2
#: Pause between a refresh's answer and the next mutation; keeps the
#: re-synthesis duty cycle (and so the GIL pressure on decides) bounded.
LIFECYCLE_THINK_S = 0.5
#: The devices' app population: market-shaped apps with injection rates
#: raised so every seed has apps of each vulnerability kind.
DEVICE_APPS = 96
DEVICE_SHAPE = ((4, 8), (1, 5), 0.12, 0.12, 0.16, 0.08)
SETUP_REPEATS = 3
WINDOW_DECIDES = 200
TRACED_SECONDS_CAP = 8.0
#: The client probes the host (``pb.hostspeed``) at most this often, and
#: only with no decide in flight and none due for PROBE_GAP_S.
PROBE_EVERY_S = 0.25
PROBE_GAP_S = 0.005
READY_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# Inputs

class Inputs:
    """Bundles, lifecycle scripts and the decide schedule of one seed.

    The devices' apps come from one fixed corpus (``FLEET_SEED``); the
    seed deals the bundles to the devices and draws all the traffic:
    decide events and arrival times, and the permissions the lifecycle
    scripts revoke and grant.  Synthesis time differs a lot between
    bundles: with a bundle set drawn per seed, the devices' synthesis
    work varied by about 0.3 (IQR/median over 10 seeds) -- more than the
    bound on refresh throughput -- under both picking rules tried (clean
    apps at size quantiles, and every app nearest a manifest shape).
    """

    def __init__(self, seed: int) -> None:
        from repro.core import serialize
        from repro.statics import extract_app
        from repro.workloads import CorpusConfig, CorpusGenerator
        from repro.workloads.corpus import RepositoryProfile

        from pb.audit import app_size

        self.seed = seed
        rng = random.Random(seed)
        fleet = random.Random(FLEET_SEED)
        profile = RepositoryProfile("device", DEVICE_APPS, *DEVICE_SHAPE)
        generator = CorpusGenerator(CorpusConfig(
            seed=FLEET_SEED, scale=1.0, repositories={"device": profile}))
        apks = {a.package: a for a in generator.generate()}
        ledger = generator.ledger
        # Leave out the generator's long tail of huge apps (above the 90th
        # size percentile).
        sizes = {p: app_size(a) for p, a in apks.items()}
        limit = sorted(sizes.values())[int(0.9 * (len(sizes) - 1))]
        eligible = {p for p, s in sizes.items() if s <= limit}
        groups = [ledger.hijack_apps, ledger.launch_apps, ledger.leak_apps,
                  ledger.escalation_apps]
        flagged = set().union(*groups) & eligible
        clean = sorted(eligible - flagged)
        fleet.shuffle(clean)
        used: set = set()
        self.source: Dict[str, Any] = {}
        self.models: Dict[str, Any] = {}

        def take(packages: List[str]) -> List[str]:
            for p in packages:
                used.add(p)
                self.source[p] = apks[p]
                self.models[p] = extract_app(apks[p])
            return packages

        def vulnerable(slot: int) -> List[str]:
            # One device per injected vulnerability kind.
            pool = (sorted(groups[slot % len(groups)] & flagged - used)
                    or sorted(flagged - used))
            return take([pool[fleet.randrange(len(pool))]])

        def plain(count: int) -> List[str]:
            if len(clean) < count:
                raise RuntimeError("corpus too small for the service devices")
            return take([clean.pop() for _ in range(count)])

        steady = [vulnerable(d) + plain(STEADY_APPS - 1)
                  for d in range(STEADY_DEVICES)]
        churn = [(vulnerable(d) + plain(CHURN_BASE_APPS - 1),
                  plain(CHURN_EXTRA_APPS)) for d in range(CHURN_DEVICES)]
        rng.shuffle(steady)
        rng.shuffle(churn)
        self.steady: Dict[str, List[str]] = {
            f"steady{d}": apps for d, apps in enumerate(steady)}
        self.churn_base: Dict[str, List[str]] = {
            f"churn{d}": base for d, (base, _extra) in enumerate(churn)}
        self.churn_extra: Dict[str, List[str]] = {
            f"churn{d}": extra for d, (_base, extra) in enumerate(churn)}
        self.app_dicts = {p: serialize.app_to_dict(m)
                          for p, m in sorted(self.models.items())}
        self.events = {dev: self._event_pool(rng, pkgs)
                       for dev, pkgs in sorted(self.steady.items())}

    def _event_pool(self, rng: random.Random, packages: List[str]):
        from repro.android.resources import Resource

        components, actions, perms = [], [], set()
        for p in packages:
            model = self.models[p]
            perms |= set(model.uses_permissions)
            for comp in model.components:
                components.append(f"{comp.app}/{comp.name}")
                for filt in comp.intent_filters:
                    actions.extend(sorted(filt.actions))
        actions = sorted(set(actions)) or ["bench.ACTION"]
        resources = sorted(r.value for r in Resource)
        perms = sorted(perms)
        pool = []
        for _ in range(64):
            event = {
                "sender": rng.choice(components),
                "receiver": rng.choice(components),
                "action": rng.choice(actions) if rng.random() < 0.7 else None,
                "extras": (sorted(rng.sample(resources, 1))
                           if rng.random() < 0.3 else []),
                "sender_permissions": (sorted(rng.sample(perms, min(2, len(perms))))
                                       if perms and rng.random() < 0.5 else []),
            }
            kind = "icc_send" if rng.random() < 0.5 else "icc_receive"
            pool.append((kind, event))
        return pool

    def script(self, device: str, cycle: int) -> List[Tuple[str, Dict]]:
        """One lifecycle cycle: returns the device to its base state."""
        rng = random.Random(f"{self.seed}:{device}:{cycle}")
        extra = self.churn_extra[device][cycle % CHURN_EXTRA_APPS]
        perms = sorted(self.models[extra].uses_permissions)
        perm = rng.choice(perms) if perms else "android.permission.INTERNET"
        return [
            ("install", {"app": self.app_dicts[extra]}),
            ("revoke", {"package": extra, "permission": perm}),
            ("grant", {"package": extra, "permission": perm}),
            ("update", {"app": self.app_dicts[extra]}),
            ("uninstall", {"package": extra}),
        ]

    def schedule(self, rate: float, seconds: float):
        """Seeded Poisson arrivals: (offset s, device, kind, event)."""
        rng = random.Random(self.seed * 7919 + 1)
        devices = sorted(self.events)
        t, out = 0.0, []
        while True:
            t += rng.expovariate(rate)
            if t >= seconds:
                return out
            device = devices[rng.randrange(len(devices))]
            kind, event = self.events[device][rng.randrange(64)]
            out.append((t, device, kind, event))

    def digest(self, rate: float) -> str:
        """Over the generated APKs and traffic; the extracted app dicts
        carry a wall-clock ``extraction_seconds`` and are left out."""
        scripts = [
            [(op, operands.get("package") or operands["app"]["package"],
              operands.get("permission"))
             for op, operands in self.script(d, c)]
            for d in sorted(self.churn_extra) for c in range(2)
        ]
        return common.digest([
            sorted(self.source.items()), self.steady, self.churn_base,
            self.churn_extra, self.events, scripts, self.schedule(rate, 2.0),
        ])


# ----------------------------------------------------------------------
# The daemon

class Daemon:
    """``repro serve`` in a child process on a UNIX socket."""

    def __init__(self, workdir, traced: bool, delays: Dict[str, float]):
        self.workdir = workdir
        self.spans_file = workdir / "server-spans.jsonl.gz" if traced else None
        for name in ("s.sock", "ready.json"):
            try:
                (workdir / name).unlink()
            except FileNotFoundError:
                pass
        serve_args = ["--socket", "s.sock", "--ready-file", "ready.json",
                      "--scenarios", str(SCENARIOS), "--cache-entries", "1"]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(common.ROOT / "src")
        if traced or delays:
            cmd = [sys.executable, str(common.BENCH_DIR / "pb" / "serve_launcher.py")]
            if traced:
                cmd += ["--spans", str(self.spans_file)]
            for name, value in sorted(delays.items()):
                cmd += ["--inject", f"{name}={value}"]
            cmd += ["--", *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        self.log = open(workdir / "server.log", "ab")
        self.proc = subprocess.Popen(cmd, cwd=workdir, env=env,
                                     stdout=self.log, stderr=self.log)
        self.pid = self.proc.pid
        deadline = time.monotonic() + READY_TIMEOUT
        ready = workdir / "ready.json"
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            try:
                json.loads(ready.read_text())
                break
            except (FileNotFoundError, ValueError):
                if time.monotonic() > deadline:
                    self.kill()
                    raise RuntimeError("repro serve did not become ready")
                time.sleep(0.005)

    def connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        here = os.getcwd()
        os.chdir(self.workdir)  # keeps the socket path short
        try:
            sock.connect("s.sock")
        finally:
            os.chdir(here)
        return sock

    def stop(self, sock: Optional[socket.socket] = None) -> None:
        """Graceful shutdown through the protocol; waits for exit."""
        try:
            if sock is None:
                sock = self.connect()
            conn = Conn(sock)
            conn.call({"id": "bye", "op": "shutdown"})
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        self.log.close()
        if self.proc.returncode not in (0, None):
            raise RuntimeError(f"repro serve exited {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=30)
        self.log.close()


class Conn:
    """A line-JSON connection usable blocking or from a select loop."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = b""
        self.outbuf = b""

    def queue(self, message: Dict[str, Any]) -> None:
        self.outbuf += json.dumps(message, sort_keys=True).encode() + b"\n"

    def flush_some(self) -> None:
        if self.outbuf:
            sent = self.sock.send(self.outbuf)
            self.outbuf = self.outbuf[sent:]

    def _receive(self) -> None:
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        self.inbuf += data

    def read_lines(self) -> List[bytes]:
        self._receive()
        *lines, self.inbuf = self.inbuf.split(b"\n")
        return lines

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.sock.setblocking(True)
        self.queue(message)
        while self.outbuf:
            self.flush_some()
        while True:
            if b"\n" in self.inbuf:
                line, self.inbuf = self.inbuf.split(b"\n", 1)
                return json.loads(line)
            self._receive()


# ----------------------------------------------------------------------

class Session:
    """Client-side state of one measured run against one daemon."""

    def __init__(self, inputs: Inputs, daemon: Daemon, outcome: Outcome):
        self.inputs = inputs
        self.daemon = daemon
        self.outcome = outcome
        self.life = Conn(daemon.connect())
        self.dec = Conn(daemon.connect())
        self.policies: Dict[str, list] = {}
        self.installed: Dict[str, List[str]] = {}
        self.revoked: Dict[str, set] = {}
        self.cycle = {d: 0 for d in inputs.churn_base}
        self.step = {d: 0 for d in inputs.churn_base}
        self.turn = 0
        self._ids = 0

    def close(self) -> None:
        """Shut the daemon down over the lifecycle connection; close both."""
        try:
            self.daemon.stop(self.life.sock)
        finally:
            self.life.sock.close()
            self.dec.sock.close()

    def request(self, conn: Conn, op: str, **operands) -> Dict[str, Any]:
        self._ids += 1
        response = conn.call({"id": self._ids, "op": op,
                              "trace_id": f"s{self._ids}", **operands})
        self.outcome.op(bool(response.get("ok")),
                        f"{op} failed: {response.get('error')}")
        return response

    def prepare(self) -> None:
        """Install every device's base bundle and synthesize once."""
        inputs = self.inputs
        for device, packages in sorted(inputs.steady.items()):
            for p in packages:
                self.request(self.life, "install", device=device,
                             app=inputs.app_dicts[p])
            answer = self.request(self.life, "policies", device=device)
            self.policies[device] = answer.get("result", {}).get("policies", [])
            self.installed[device] = list(packages)
        for device, packages in sorted(inputs.churn_base.items()):
            for p in packages:
                self.request(self.life, "install", device=device,
                             app=inputs.app_dicts[p])
            self.request(self.life, "policies", device=device)
            self.installed[device] = list(packages)
            self.revoked[device] = set()
        # Stagger the churning devices: device k starts the measured run
        # k steps into its script, so every round of the round-robin
        # mixes different operations rather than repeating one kind (a
        # round of revokes re-synthesizes nothing).
        for k, device in enumerate(sorted(inputs.churn_base)):
            script = inputs.script(device, 0)
            for op, operands in script[:k % SCRIPT_OPS]:
                self.request(self.life, op, device=device, **operands)
                self.request(self.life, "policies", device=device)
                self._apply(device, op, operands)
            self.step[device] = k % SCRIPT_OPS

    # -- lifecycle bookkeeping (the benchmark's own view of each device)
    def _next_mutation(self) -> Tuple[str, str, Dict[str, Any]]:
        devices = sorted(self.cycle)
        # Round-robin over the churning devices, one mutation each.
        device = devices[self.turn % len(devices)]
        self.turn += 1
        script = self.inputs.script(device, self.cycle[device])
        op, operands = script[self.step[device]]
        self.step[device] += 1
        if self.step[device] == len(script):
            self.step[device] = 0
            self.cycle[device] += 1
        return device, op, operands

    def _apply(self, device: str, op: str, operands: Dict[str, Any]) -> None:
        if op == "install":
            self.installed[device].append(operands["app"]["package"])
        elif op == "uninstall":
            self.installed[device].remove(operands["package"])
            self.revoked[device] = {
                (p, q) for p, q in self.revoked[device]
                if p != operands["package"]}
        elif op == "revoke":
            self.revoked[device].add((operands["package"],
                                      operands["permission"]))
        elif op == "grant":
            self.revoked[device].discard((operands["package"],
                                          operands["permission"]))

    # -- the measured run ------------------------------------------------
    def drive(self, rate: float, seconds: float, speed=None):
        """Both streams until ``seconds`` have passed; returns samples.
        With ``speed`` (a ``HostSpeed``), the host is probed while no
        decide is in flight."""
        schedule = self.inputs.schedule(rate, seconds)
        dec, life = self.dec, self.life
        dec.sock.setblocking(False)
        life.sock.setblocking(False)
        pending = deque()  # (id, due, sent, device, kind, event)
        # (latency from due, round trip, trace id, sent, device, kind,
        #  event, answer)
        decides = []
        refreshes = []  # (latency s, trace ids, mutation op, sent)
        lags = []
        backlog_max = 0
        # [phase, mutation sent, device, op, operands, trace ids, sent]
        life_state = None
        t0 = perf()
        life_next = t0
        end = t0 + seconds
        nxt = 0
        stopping = False
        last_probe = t0
        while True:
            now = perf()
            while nxt < len(schedule) and t0 + schedule[nxt][0] <= now:
                offset, device, kind, event = schedule[nxt]
                self._ids += 1
                rid = self._ids
                dec.queue({"id": rid, "op": "decide", "device": device,
                           "kind": kind, "event": event,
                           "trace_id": f"d{rid}"})
                due = t0 + offset
                lags.append(now - due)
                pending.append((rid, due, now, device, kind, event))
                nxt += 1
            backlog_max = max(backlog_max, len(pending))
            if (not stopping and life_state is None and now < end
                    and now >= life_next):
                device, op, operands = self._next_mutation()
                self._ids += 1
                life.queue({"id": self._ids, "op": op, "device": device,
                            "trace_id": f"m{self._ids}", **operands})
                life_state = ["mutation", now, device, op, operands,
                              [f"m{self._ids}"], now]
            if now >= end:
                stopping = True
                if not pending and life_state is None:
                    break
                if now > end + DRAIN_TIMEOUT:
                    self.outcome.fail("responses did not drain in time")
                    break
            if dec.outbuf:
                dec.flush_some()
            if life.outbuf:
                life.flush_some()
            timeout = 0.05
            if nxt < len(schedule) and not stopping:
                timeout = min(timeout, t0 + schedule[nxt][0] - perf())
            if life_state is None and not stopping:
                timeout = min(timeout, life_next - perf())
            timeout = max(0.0, timeout)
            want_write = [c.sock for c in (dec, life) if c.outbuf]
            readable, _w, _x = select.select([dec.sock, life.sock],
                                             want_write, [], timeout)
            # Each answer is timed after the read that returned it: a
            # timestamp taken before the read could precede an answer
            # that arrived during it.
            if dec.sock in readable:
                lines = dec.read_lines()
                got = perf()
                for line in lines:
                    response = json.loads(line)
                    rid, due, sent, device, kind, event = pending.popleft()
                    if response.get("id") != rid:
                        raise RuntimeError("decide responses out of order")
                    ok = bool(response.get("ok"))
                    self.outcome.op(ok, f"decide failed: {response.get('error')}")
                    answer = (response.get("result") or {}).get("decision")
                    decides.append((got - due, got - sent, f"d{rid}", sent,
                                    device, kind, event, answer))
            if life.sock in readable:
                lines = life.read_lines()
                got = perf()
                for line in lines:
                    response = json.loads(line)
                    ok = bool(response.get("ok"))
                    phase, t_mut, device, op, operands, traces, sent = life_state
                    self.outcome.op(ok, f"{op if phase == 'mutation' else 'policies'}"
                                    f" failed: {response.get('error')}")
                    if phase == "mutation":
                        self._apply(device, op, operands)
                        self._ids += 1
                        life.queue({"id": self._ids, "op": "policies",
                                    "device": device,
                                    "trace_id": f"p{self._ids}"})
                        traces.append(f"p{self._ids}")
                        life_state = ["policies", t_mut, device, op, operands,
                                      traces, got]
                    else:
                        refreshes.append((got - t_mut, traces, op, t_mut))
                        life_state = None
                        life_next = got + LIFECYCLE_THINK_S
            if (speed is not None and not pending and not stopping
                    and perf() - last_probe >= PROBE_EVERY_S
                    and (nxt >= len(schedule)
                         or t0 + schedule[nxt][0] - perf() > PROBE_GAP_S)):
                speed.sample()
                last_probe = perf()
        dec.sock.setblocking(True)
        life.sock.setblocking(True)
        self.window = (t0, perf())
        return decides, refreshes, lags, backlog_max

    # -- checks ----------------------------------------------------------
    def check_decides(self, decides) -> None:
        from repro.core import serialize
        from repro.core.policy import IccEvent, PolicyEvent
        from repro.android.resources import Resource
        from repro.enforcement import make_pdp

        pdps = {d: make_pdp([serialize.policy_from_dict(p) for p in pols],
                            backend="linear")
                for d, pols in self.policies.items()}
        memo = {}
        for _lat, _rtt, _tid, _sent, device, kind, event, answer in decides:
            key = (device, kind, json.dumps(event, sort_keys=True))
            want = memo.get(key)
            if want is None:
                icc = IccEvent(
                    sender=event["sender"], receiver=event["receiver"],
                    action=event["action"],
                    extras=frozenset(Resource(r) for r in event["extras"]),
                    sender_permissions=frozenset(event["sender_permissions"]))
                want = memo[key] = pdps[device].decide(
                    PolicyEvent(kind), icc).value
            if answer != want:
                self.outcome.fail(f"decide on {device}: {answer} != {want}")

    def check_analyses(self) -> None:
        from repro.core.incremental import effective_app
        from repro.service.session import SessionConfig, cold_analysis

        config = SessionConfig(scenarios_per_signature=SCENARIOS)
        for device in sorted(self.installed):
            answer = self.request(self.life, "analyze", device=device)
            revoked = self.revoked.get(device, set())
            apps = []
            for p in self.installed[device]:
                model = self.inputs.models[p]
                granted = frozenset(q for q in model.uses_permissions
                                    if (p, q) not in revoked)
                apps.append(effective_app(model, granted))
            want = cold_analysis(apps, config)
            got = answer.get("result")
            if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
                self.outcome.fail(f"analyze on {device} differs from cold")

    def warm_hit_ratio(self) -> float:
        hits = lookups = 0
        for device in sorted(self.inputs.churn_base):
            status = self.request(self.life, "status", device=device)
            result = status.get("result", {})
            hits += result.get("warm_hits", 0)
            lookups += result.get("warm_lookups", 0)
        return hits / lookups if lookups else 0.0


# ----------------------------------------------------------------------

def _start(seed: int, rate: float, scratch, traced: bool,
           delays: Dict[str, float], outcome: Outcome):
    """Set up SETUP_REPEATS times (inputs, daemon, sessions); keep the
    last daemon running.  Returns (inputs, daemon, session, median s),
    the set-up time host-scaled (``pb.hostspeed``; the daemon works on
    while this process probes, so probes count as set-up time)."""
    pins = common.PinCheck("service", seed)
    speed = HostSpeed()
    windows = []
    with speed.ticking():
        for attempt in range(SETUP_REPEATS):
            t0 = perf()
            inputs = Inputs(seed)
            value = inputs.digest(rate)
            daemon = Daemon(scratch.path,
                            traced and attempt == SETUP_REPEATS - 1, delays)
            try:
                session = Session(inputs, daemon, outcome)
                session.prepare()
            except BaseException:
                daemon.kill()
                raise
            windows.append((t0, perf()))
            if attempt < SETUP_REPEATS - 1:
                session.close()
    times = [(t1 - t0) * speed.factor(t0, t1) for t0, t1 in windows]
    outcome.op(pins.check(f"inputs@{rate:g}", value),
               "service inputs differ from the pinned digest")
    note = f"seed {seed}: no pinned service digests"
    if not pins.pinned and note not in outcome.notes:
        outcome.notes.append(note)
    return inputs, daemon, session, common.median(times)


def run_service(seed: int, seconds: float, traced: bool,
                delays: Dict[str, float], rate: Optional[float]) -> Outcome:
    if not rate or rate <= 0:
        raise ValueError("device_service needs a positive --decide-rate")
    outcome = Outcome()
    with common.Scratch("device_service") as scratch:
        if traced:
            return _run_traced(seed, seconds, rate, scratch, delays, outcome)
        inputs, daemon, session, setup = _start(seed, rate, scratch, False,
                                                delays, outcome)
        speed = HostSpeed()
        try:
            cpu0 = common.cpu_seconds(daemon.pid)
            decides, refreshes, lags, backlog = session.drive(rate, seconds,
                                                              speed)
            speed.sample()
            cpu = common.cpu_seconds(daemon.pid) - cpu0
            rss = common.peak_rss_mb(daemon.pid)
            session.check_decides(decides)
            session.check_analyses()
        finally:
            session.close()
    # Host-scaled (``pb.hostspeed``): decides from when they were due,
    # refreshes from when their mutation was sent, to their answers.
    lat = [d[0] * 1e3 * speed.factor(d[3] - d[0] + d[1], d[3] + d[1])
           for d in decides]
    ref = [r[0] * 1e3 * speed.factor(r[3], r[3] + r[0]) for r in refreshes]
    # A decide is "quiet" when no refresh overlapped it (from due time to
    # answer) and "busy" otherwise.  Quiet decides measure the decide path
    # alone -- transport, queueing, session; busy ones the CPU and GIL
    # interference of re-synthesis.
    refreshing = [(r[3], r[3] + r[0]) for r in refreshes]
    quiet, busy = [], []
    for d, ms in zip(decides, lat):
        due, got = d[3] + d[1] - d[0], d[3] + d[1]
        overlapped = any(lo < got and due < hi for lo, hi in refreshing)
        (busy if overlapped else quiet).append(ms)
    if not quiet or not busy or not ref:
        raise RuntimeError("run too short: no quiet or busy decides, or "
                           "no refreshes")
    # Statistics over mixes of the two are less steady: the busy share
    # moves with the host's speed and the seed (0.24-0.29 over seeds
    # 1-10).  Host-scaled (IQR/median), the p50 of all decides spread
    # 0.27 over seeds 21-25 and 0.09 over seeds 1-10, the quiet p50 0.13
    # and 0.08; the p95 of all decides (per window of WINDOW_DECIDES,
    # median over windows) spread 0.12 and 0.18 (0.23 in a second set of
    # seeds 1-10), the busy p90 0.18 and 0.14.
    windows = [lat[i:i + WINDOW_DECIDES]
               for i in range(0, len(lat) - WINDOW_DECIDES + 1, WINDOW_DECIDES)
               ] or [lat]
    p50 = common.percentile(quiet, 0.5)
    tail = common.percentile(busy, 0.9)
    outcome.metrics.update(
        setup_s=setup,
        peak_rss_mb=rss,
        throughput_per_s=len(ref) / (sum(ref) / 1e3),
        latency_p50_ms=p50,
        latency_tail_ms=tail,
    )
    outcome.detail.update(
        decide_quiet_p50_ms=(p50, "ms"),
        decide_busy_p90_ms=(tail, "ms"),
        decide_p50_ms=(common.median([common.percentile(w, 0.5)
                                      for w in windows]), "ms"),
        decide_p95_ms=(common.median([common.percentile(w, 0.95)
                                      for w in windows]), "ms"),
        decide_p99_ms=(common.percentile(lat, 0.99), "ms"),
        busy_decide_share=(len(busy) / len(lat), "ratio"),
        decides=(float(len(lat)), "count"),
        decide_rate=(rate, "1/s"),
        refresh_p50_ms=(common.percentile(ref, 0.5), "ms"),
        refresh_p90_ms=(common.percentile(ref, 0.9), "ms"),
        refreshes=(float(len(ref)), "count"),
        refresh_capacity_per_s=(len(ref) / (sum(ref) / 1e3), "1/s"),
        refresh_duty_cycle=(sum(ref) / 1e3 / (session.window[1]
                                                - session.window[0]), "ratio"),
        server_peak_rss_mb=(rss, "MB"),
        server_cpu_s=(cpu, "s"),
        lag_p99_ms=(common.percentile(lags, 0.99) * 1e3, "ms"),
        backlog_max=(float(backlog), "count"),
        host_probes=(float(len(speed.probes)), "count"),
        host_probe_p50_ms=(common.median(speed.probes) * 1e3, "ms"),
    )
    return outcome


def _run_traced(seed, seconds, rate, scratch, delays, outcome) -> Outcome:
    """An untraced daemon run, then the same traffic against a daemon
    started through the span-recording launcher."""
    seconds = min(seconds, TRACED_SECONDS_CAP)
    results = {}
    for traced in (False, True):
        inputs, daemon, session, _setup = _start(seed, rate, scratch, traced,
                                                 delays, outcome)
        try:
            cpu0 = common.cpu_seconds(daemon.pid)
            drive = session.drive(rate, seconds)
            cpu = common.cpu_seconds(daemon.pid) - cpu0
            session.check_decides(drive[0])
            warm = session.warm_hit_ratio() if traced else 0.0
        finally:
            session.close()
        results[traced] = (drive, cpu, warm, daemon, session.window)
    (decides, refreshes, lags, backlog), cpu, warm, daemon, window = results[True]
    plain_decides = results[False][0][0]
    spans = load_spans(daemon.spans_file)
    by_trace: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        if span.trace and span.name in ("service.decode", "service.encode",
                                        "service.handle"):
            by_trace.setdefault(span.trace, {})[span.name] = span
    rows = empty_rows()
    layer = {}

    def add(name, value):
        layer[name] = layer.get(name, 0.0) + value

    # Every decide's round trip is split into consecutive intervals.
    # Client and daemon share the monotonic clock, so their timestamps
    # compare directly.  The daemon serves one request per connection at
    # a time: the part of a request's wait that falls before the
    # previous answer on its connection was encoded is head-of-line
    # waiting (conn_wait); the legs outside the server span are
    # transport; the gaps between decode, handle and encode are the
    # queue hop.  The intervals must follow one another in that order;
    # ``uncovered`` then finds no gap, and a leg that comes out negative
    # (client and daemon timestamps that disagree) fails the run.
    children: Dict[int, list] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    bad = 0

    def walk(span):
        nonlocal bad
        add(span.name, span.self_time)
        bad += span.self_time < -1e-9
        for child in children.get(span.sid, ()):
            walk(child)

    wall = unattributed = 0.0
    previous_end = 0.0
    for _lat, rtt, tid, sent, *_rest in decides:
        parts = by_trace.get(tid, {})
        dec_s, enc_s, han = (parts.get("service.decode"),
                             parts.get("service.encode"),
                             parts.get("service.handle"))
        if not (dec_s and enc_s and han):
            outcome.fail(f"server spans missing for {tid}")
            continue
        got = sent + rtt
        blocked_until = max(sent, min(dec_s.start, previous_end))
        previous_end = enc_s.end
        legs = [
            ("service.conn_wait", sent, blocked_until),
            ("service.transport", blocked_until, dec_s.start),
            ("service.codec", dec_s.start, dec_s.end),
            ("service.queue_hop", dec_s.end, han.start),
            (None, han.start, han.end),  # the handler's span tree
            ("service.queue_hop", han.end, enc_s.start),
            ("service.codec", enc_s.start, enc_s.end),
            ("service.transport", enc_s.end, got),
        ]
        if any(end < start - 1e-9 for _name, start, end in legs):
            outcome.fail(f"client and daemon timestamps disagree for {tid}")
            continue
        for name, start, end in legs:
            if name is not None:
                add(name, end - start)
        walk(han)
        wall += rtt
        unattributed += uncovered([(sent, got)],
                                  [(lo, hi) for _n, lo, hi in legs])
    if bad:
        outcome.fail(f"{bad} daemon spans have a negative self time")
    n = len(decides)
    session_decide = layer.get("service.session_decide", 0.0) + layer.get(
        "service.handle", 0.0)
    rows["service.transport_us"] = layer.get("service.transport", 0.0) / n * 1e6
    rows["service.conn_wait_us"] = layer.get("service.conn_wait", 0.0) / n * 1e6
    rows["service.codec_us"] = layer.get("service.codec", 0.0) / n * 1e6
    rows["service.queue_hop_us"] = layer.get("service.queue_hop", 0.0) / n * 1e6
    rows["service.session_decide_us"] = session_decide / n * 1e6
    rows["service.server_cpu_us_per_req"] = cpu / (n + 2 * len(refreshes)) * 1e6
    rows["enforcement.pdp_decide_us"] = layer.get(
        "enforcement.pdp_decide", 0.0) / n * 1e6
    rows["enforcement.audit_us"] = layer.get("enforcement.audit", 0.0) / n * 1e6
    # Re-synthesis: the handler time of every refresh's ``policies``.
    resynth = [by_trace.get(traces[-1], {}).get("service.handle")
               for _l, traces, _op, _sent in refreshes]
    resynth = [s.duration for s in resynth if s is not None]
    rows["service.resynth_ms"] = (sum(resynth) / len(resynth) * 1e3
                                  if resynth else 0.0)
    rows["service.warm_hit_ratio"] = warm
    # Synthesis-layer spans and counts inside the daemon, over the
    # measured window (set-up traffic before it is left out).
    start, end = window
    for span in spans:
        row = SECONDS_ROWS.get(span.name)
        if row is not None and start <= span.start <= end:
            rows[row] += span.self_time
    rows["pipeline.key_hash_calls"] = float(sum(
        1 for s in spans
        if s.name == "pipeline.key_hash" and start <= s.start <= end))
    counts = json.loads(pathlib.Path(str(daemon.spans_file) + ".counts.json")
                        .read_text())
    solves = window_counts(counts["SolveCounter"]["log"],
                           counts["SolveCounter"]["fields"], start, end)
    cache = window_counts(counts["CacheCounter"]["log"],
                          counts["CacheCounter"]["fields"], start, end)
    rows["sat.solve_calls"] = float(solves["calls"])
    rows["sat.conflicts"] = float(solves["conflicts"])
    rows["sat.propagations"] = float(solves["propagations"])
    rows["sat.vars"] = float(solves["vars"])
    rows["sat.clauses"] = float(solves["clauses"])
    rows["core.scenarios"] = float(cache["scenarios"])
    rows["pipeline.cache_hit_ratio"] = (
        cache["hits"] / cache["lookups"] if cache["lookups"] else 0.0)
    rows["loadgen.lag_p99_ms"] = common.percentile(lags, 0.99) * 1e3
    rows["loadgen.backlog_max"] = float(backlog)
    rows["trace.unattributed_s"] = unattributed
    # Overhead on the decide path: median round trip, traced vs untraced
    # (the mean is dominated by decides queued behind re-synthesis).
    plain = common.median([d[1] for d in plain_decides])
    traced_median = common.median([d[1] for d in decides])
    rows["trace.overhead_pct"] = (traced_median / plain - 1.0) * 100.0
    outcome.layers = rows
    outcome.layer_seconds = layer
    outcome.traced_wall = wall
    outcome.detail.update(
        traced_decides=(float(n), "count"),
        traced_p50_rtt_us=(traced_median * 1e6, "us"),
        untraced_p50_rtt_us=(plain * 1e6, "us"),
        traced_refreshes=(float(len(refreshes)), "count"),
    )
    common.OUT_DIR.mkdir(exist_ok=True)
    target = common.OUT_DIR / f"spans-device_service-{seed}.jsonl.gz"
    os.replace(daemon.spans_file, target)
    os.replace(str(daemon.spans_file) + ".counts.json",
               str(target) + ".counts.json")
    return outcome
