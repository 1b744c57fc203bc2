"""Shared helpers: statistics, input digests, memory, scratch space."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
from typing import Any, Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
BENCH_DIR = ROOT / "perfbench"
PINS_FILE = BENCH_DIR / "pins.json"
#: Scratch space for caches, sockets and span dumps; inside the checkout.
WORK_DIR = ROOT / ".perfbench_work"
#: Where a traced run writes its span dump and layer table.
OUT_DIR = ROOT / ".perfbench_out"


# ----------------------------------------------------------------------
# Statistics

def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the value at rank ceil(fraction * n))."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Input digests.  Deliberately independent of the program's own cache-key
# hashing (``repro.pipeline.cache.content_hash``), which is a layer under
# test: a change there must not be able to move the pinned digests.

def _feed(obj: Any, out: List[str]) -> None:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        out.append(repr(obj))
    elif isinstance(obj, enum.Enum):
        out.append(f"E{type(obj).__name__}.{obj.name}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for item in obj:
            _feed(item, out)
            out.append(",")
        out.append("]")
    elif isinstance(obj, (set, frozenset)):
        parts = []
        for item in obj:
            sub: List[str] = []
            _feed(item, sub)
            parts.append("".join(sub))
        out.append("{" + ",".join(sorted(parts)) + "}")
    elif isinstance(obj, dict):
        parts = []
        for key, value in obj.items():
            sub = []
            _feed(key, sub)
            sub.append(":")
            _feed(value, sub)
            parts.append("".join(sub))
        out.append("<" + ",".join(sorted(parts)) + ">")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out.append(f"D{type(obj).__name__}(")
        for f in dataclasses.fields(obj):
            out.append(f.name + "=")
            _feed(getattr(obj, f.name), out)
            out.append(";")
        out.append(")")
    elif hasattr(obj, "__dict__"):
        out.append(f"O{type(obj).__name__}(")
        for key in sorted(vars(obj)):
            out.append(key + "=")
            _feed(vars(obj)[key], out)
            out.append(";")
        out.append(")")
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj: Any) -> str:
    """A stable sha256 over an object tree of generated inputs."""
    out: List[str] = []
    _feed(obj, out)
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


def digest_json(obj: Any) -> str:
    """sha256 of JSON-shaped data, keys sorted (program outputs)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> Dict[str, Dict[str, Any]]:
    try:
        return json.loads(PINS_FILE.read_text())
    except FileNotFoundError:
        return {}


class PinCheck:
    """Compares digests of generated inputs and outputs with the pinned
    ones for this seed.  A mismatch is a failed operation; a seed with no
    pin is reported, not failed (the other output checks still run)."""

    def __init__(self, section: str, seed: int) -> None:
        self.table = load_pins().get(section, {}).get(str(seed))

    @property
    def pinned(self) -> bool:
        return self.table is not None

    def check(self, key: str, value: str) -> bool:
        return self.table is None or self.table.get(key) == value


# ----------------------------------------------------------------------
# Process resources

def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MiB: this process, or ``pid`` via /proc."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of ``pid`` from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# ----------------------------------------------------------------------
# Scratch space

class Scratch:
    """A per-run directory under the checkout, removed on close."""

    def __init__(self, label: str) -> None:
        self.path = WORK_DIR / f"{label}-{os.getpid()}"
        if self.path.exists():
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)
        self._count = 0

    def fresh_dir(self, prefix: str) -> pathlib.Path:
        self._count += 1
        path = self.path / f"{prefix}{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
