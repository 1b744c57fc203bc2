"""Test-only fault injection for the pipeline executor.

The fault-tolerance machinery in :mod:`repro.pipeline.executor` is only
trustworthy if its failure paths are exercised: worker crashes, task
exceptions, and hangs.  Real pathological inputs are hard to come by in a
test suite, so this module injects faults deterministically at worker
entry, driven entirely by the ``REPRO_FAULT`` environment variable:

    REPRO_FAULT="<stage>:<kind>:<rate>[:opt]...[,<spec>...]"

- ``stage``   -- ``extract``, ``synthesis`` or ``*``.
- ``kind``    -- ``crash`` (hard-exit the worker process, breaking the
  pool), ``error`` (raise :class:`InjectedFault`), or ``hang`` (sleep far
  past any sane task timeout -- or for exactly ``secs=N`` seconds, which
  turns the hang into a *delay* for exercising slow-but-healthy tasks).
- ``rate``    -- fraction of tasks hit, selected *deterministically* by
  hashing ``(seed, stage, task_key)`` so the same task is hit on every
  attempt and in every run.
- options     -- ``once`` (inject only on the first attempt per task;
  needs ``REPRO_FAULT_STATE`` pointing at a writable directory shared by
  the worker processes), ``seed=N`` (reseed the selection hash),
  ``match=SUBSTR`` (only hit tasks whose key contains the substring; it
  may contain commas, since only a comma followed by ``<stage>:`` starts
  the next clause), and
  ``secs=N`` (sleep duration for ``hang`` faults; default
  :data:`HANG_SECONDS`).

``crash`` and ``hang`` are suppressed in the parent process (the serial
path) -- exiting or stalling the orchestrator would defeat the point of
testing its fault tolerance.  The executor records its pid in
``REPRO_FAULT_PARENT`` before dispatching so workers can tell the two
apart.

Production runs never set ``REPRO_FAULT``; the fast path is a single
cached environment lookup returning an empty tuple.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import re
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

#: Fault specification environment variable (see module docstring).
FAULT_ENV = "REPRO_FAULT"

#: Directory used to remember which tasks a ``once`` fault already hit.
FAULT_STATE_ENV = "REPRO_FAULT_STATE"

#: Pid of the dispatching (parent) process; set by the executor so
#: process-level faults (crash/hang) never fire on the serial path.
FAULT_PARENT_ENV = "REPRO_FAULT_PARENT"

#: Exit status used by injected crashes (recognizable in worker logs).
CRASH_EXIT_STATUS = 173

#: How long an injected hang sleeps; any per-task timeout fires first.
HANG_SECONDS = 600.0

_KINDS = ("crash", "error", "hang")

#: Clauses are separated only by a comma that starts a new
#: ``<stage>:`` clause, so a ``match=`` value may itself contain commas
#: (synthesis task labels list a bundle's packages comma-separated).
_CLAUSE_SEPARATOR = re.compile(r",(?=\s*(?:extract|synthesis|\*)\s*:)")


class InjectedFault(RuntimeError):
    """The exception raised by an ``error``-kind injected fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``stage:kind:rate[:opt]...`` clause."""

    stage: str
    kind: str
    rate: float
    once: bool = False
    seed: int = 0
    match: str = ""
    secs: Optional[float] = None

    def applies(self, stage: str, task_key: str) -> bool:
        if self.stage not in ("*", stage):
            return False
        if self.match and self.match not in task_key:
            return False
        if self.rate >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.seed}:{stage}:{task_key}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return fraction < self.rate


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse one clause; raises ``ValueError`` on malformed input."""
    parts = [p.strip() for p in text.split(":")]
    if len(parts) < 3:
        raise ValueError(f"fault spec needs stage:kind:rate, got {text!r}")
    stage, kind, rate_text = parts[0], parts[1], parts[2]
    if kind not in _KINDS:
        raise ValueError(f"unknown fault kind {kind!r} (expected {_KINDS})")
    rate = float(rate_text)
    once = False
    seed = 0
    match = ""
    secs: Optional[float] = None
    for opt in parts[3:]:
        if opt == "once":
            once = True
        elif opt.startswith("seed="):
            seed = int(opt[len("seed="):])
        elif opt.startswith("match="):
            match = opt[len("match="):]
        elif opt.startswith("secs="):
            secs = float(opt[len("secs="):])
        else:
            raise ValueError(f"unknown fault option {opt!r}")
    return FaultSpec(
        stage=stage, kind=kind, rate=rate, once=once, seed=seed, match=match,
        secs=secs,
    )


def active_fault_specs() -> Tuple[FaultSpec, ...]:
    """The specs currently configured via ``REPRO_FAULT`` (usually none).

    Read from the environment on every call: the variable is inherited by
    pool workers whether they fork or spawn, and tests flip it per-case.
    """
    text = os.environ.get(FAULT_ENV, "")
    if not text:
        return ()
    return tuple(
        parse_fault_spec(clause)
        for clause in _CLAUSE_SEPARATOR.split(text)
        if clause.strip()
    )


def faults_active() -> bool:
    return bool(os.environ.get(FAULT_ENV))


def _in_worker_process() -> bool:
    parent = os.environ.get(FAULT_PARENT_ENV)
    return parent is not None and parent != str(os.getpid())


def _already_fired(spec: FaultSpec, stage: str, task_key: str) -> bool:
    """For ``once`` faults: check-and-set a marker file shared across
    worker processes (and across pool respawns)."""
    state_dir = os.environ.get(FAULT_STATE_ENV)
    if not state_dir:
        return False
    marker = pathlib.Path(state_dir) / (
        hashlib.sha256(
            f"{spec.stage}:{spec.kind}:{stage}:{task_key}".encode("utf-8")
        ).hexdigest()
        + ".fired"
    )
    # O_CREAT|O_EXCL is an atomic check-and-set: of any number of workers
    # racing on the same fault, exactly one creates the marker (and
    # injects); a plain exists()+touch() would let several through.
    try:
        marker.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return True
    except OSError:
        return False
    os.close(fd)
    return False


def maybe_inject(stage: str, task_key: str) -> None:
    """Called at worker entry; injects the configured fault, if any.

    No-op unless ``REPRO_FAULT`` selects this (stage, task); ``crash`` and
    ``hang`` additionally require running inside a pool worker process.
    """
    for spec in active_fault_specs():
        if not spec.applies(stage, task_key):
            continue
        if spec.once and _already_fired(spec, stage, task_key):
            continue
        if spec.kind == "error":
            raise InjectedFault(
                f"injected fault: stage={stage} task={task_key}"
            )
        if not _in_worker_process():
            continue  # never crash or stall the orchestrator itself
        if spec.kind == "crash":
            os._exit(CRASH_EXIT_STATUS)
        if spec.kind == "hang":
            time.sleep(spec.secs if spec.secs is not None else HANG_SECONDS)


def mark_parent_process() -> None:
    """Record the dispatching process's pid (see ``FAULT_PARENT_ENV``)."""
    if faults_active():
        os.environ[FAULT_PARENT_ENV] = str(os.getpid())
