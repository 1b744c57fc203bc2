"""Content-addressed persistent cache for extraction and synthesis results.

Keys are SHA-256 digests over *canonical JSON* of everything the cached
computation depends on: the app/bundle content, the engine parameters, the
vulnerability signature, and a fingerprint of the analysis code itself
(framework meta-model, translator, solver).  Any change to the inputs or
to the analysis semantics therefore changes the key and the stale entry is
simply never addressed again; entries whose on-disk envelope predates the
current format version are discarded and counted as invalidations.

Canonical JSON matters: ``frozenset`` iteration order varies across
interpreter runs under hash randomization, so every set is sorted (by its
own canonical encoding) before hashing.  :func:`canonical_json` writes that
text in one walk of the object tree; :func:`canonical` is the two-step
reference definition it must match byte for byte.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import hashlib
import inspect
import json
import os
import pathlib
import tempfile
import threading
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import get_metrics
from repro.pipeline.stats import CacheAccounting

#: Bump to invalidate every persisted entry (envelope format change).
CACHE_FORMAT_VERSION = 1

#: Environment variable consulted for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def canonical(obj: Any) -> Any:
    """Reduce an object tree to deterministic JSON-encodable data.

    Handles dataclasses, enums, sets/frozensets (sorted by their canonical
    encoding), mappings (sorted keys), and sequences.

    This is the reference definition of the key format:
    ``json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))``
    is what :func:`canonical_json` must produce.  Nothing on the hot path
    calls it; the key-stability tests compare against it.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "name": obj.name}
    if isinstance(obj, (set, frozenset)):
        return sorted(
            (canonical(item) for item in obj),
            key=lambda c: json.dumps(c, sort_keys=True),
        )
    if isinstance(obj, dict):
        # Plain form only when every key is a genuine str: stringifying
        # other key types would collide 1 with "1" (and True with "True"),
        # letting two different inputs share one cache key.  Mixed or
        # non-str keys get an explicit pair-list form that preserves each
        # key's canonical encoding (and therefore its type).
        if all(type(k) is str for k in obj):
            return {k: canonical(v) for k, v in sorted(obj.items())}
        return {
            "__map__": sorted(
                ([canonical(k), canonical(v)] for k, v in obj.items()),
                key=lambda kv: json.dumps(kv[0], sort_keys=True),
            )
        }
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


_encode_str = json.encoder.encode_basestring_ascii

#: Per dataclass: the fixed ``{"__dataclass__":"Name","fields":{`` head and
#: the fields in sorted-name order, each with its ``"name":`` key text
#: (comma included after the first).  One entry per class ever encoded.
_DATACLASS_LAYOUTS: Dict[type, Tuple[str, Tuple[Tuple[str, str], ...]]] = {}


def _dataclass_layout(cls: type) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    names = sorted(f.name for f in dataclasses.fields(cls))
    head = '{"__dataclass__":' + _encode_str(cls.__name__) + ',"fields":{'
    keys = [_encode_str(name) + ":" for name in names]
    keys[1:] = ["," + key for key in keys[1:]]
    return head, tuple(zip(names, keys))


def _set_sort_key(text: str) -> str:
    """The reference sort key of a set element (or map key) whose canonical
    JSON is ``text``: ``json.dumps(canonical(item), sort_keys=True)`` with
    the *default* separators, kept as it always was."""
    return json.dumps(json.loads(text), sort_keys=True)


def _encode(obj: Any, out: Callable[[str], Any]) -> None:
    """Append the canonical JSON of ``obj`` to ``out``, piece by piece.

    Dispatches on the exact type of the node shapes cache keys are made
    of; anything else takes :func:`_encode_other`.
    """
    cls = type(obj)
    layout = _DATACLASS_LAYOUTS.get(cls)
    if layout is not None:
        head, fields = layout
        out(head)
        for name, key in fields:
            out(key)
            value = getattr(obj, name)
            if type(value) is str:
                out(_encode_str(value))
            else:
                _encode(value, out)
        out("}}")
    elif cls is str:
        out(_encode_str(obj))
    elif cls is list or cls is tuple:
        out("[")
        sep = ""
        for item in obj:
            out(sep)
            sep = ","
            if type(item) is str:
                out(_encode_str(item))
            else:
                _encode(item, out)
        out("]")
    elif obj is None:
        out("null")
    elif cls is int:
        out(int.__repr__(obj))
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif (cls is frozenset or cls is set) and all(
        type(item) is str for item in obj
    ):
        # A str's canonical JSON is its own sort key: no separators in it.
        out("[" + ",".join(sorted(map(_encode_str, obj))) + "]")
    elif cls is dict and all(type(key) is str for key in obj):
        _encode_str_map(obj, out)
    else:
        _encode_other(obj, out)


def _encode_str_map(obj: Dict[str, Any], out: Callable[[str], Any]) -> None:
    out("{")
    sep = ""
    for key in sorted(obj):
        out(sep + _encode_str(key) + ":")
        sep = ","
        _encode(obj[key], out)
    out("}")


def _encode_other(obj: Any, out: Callable[[str], Any]) -> None:
    """The rare shapes, tested in :func:`canonical`'s order."""
    cls = type(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _DATACLASS_LAYOUTS[cls] = _dataclass_layout(cls)
        _encode(obj, out)
    elif isinstance(obj, enum.Enum):
        out(
            '{"__enum__":' + _encode_str(cls.__name__)
            + ',"name":' + _encode_str(obj.name) + "}"
        )
    elif isinstance(obj, (set, frozenset)):
        items = sorted(map(canonical_json, obj), key=_set_sort_key)
        out("[" + ",".join(items) + "]")
    elif isinstance(obj, dict):
        if all(type(key) is str for key in obj):
            _encode_str_map(obj, out)
            return
        pairs = sorted(
            ((canonical_json(k), canonical_json(v)) for k, v in obj.items()),
            key=lambda kv: _set_sort_key(kv[0]),
        )
        out(
            '{"__map__":['
            + ",".join("[" + k + "," + v + "]" for k, v in pairs)
            + "]}"
        )
    elif isinstance(obj, (list, tuple)):
        _encode(tuple(obj), out)
    elif isinstance(obj, (str, int, float)):
        # Floats and str/int subclasses: canonical() passes them through,
        # so json.dumps' own rule (NaN, Infinity, int.__repr__) applies.
        out(json.dumps(obj))
    else:
        raise TypeError(f"cannot canonicalize {cls.__name__}")


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of ``obj``, written in one walk of the tree.

    Byte-identical to ``json.dumps(canonical(obj), sort_keys=True,
    separators=(",", ":"))`` -- every persisted cache key depends on it --
    without building the intermediate tree or sorting it a second time.
    """
    parts: List[str] = []
    _encode(obj, parts.append)
    return "".join(parts)


def content_hash(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def framework_fingerprint() -> str:
    """Digest of the analysis code a cached result depends on.

    Covers model extraction, the relational embedding and meta-model, the
    translator/solver substrate, and the vulnerability signatures: editing
    any of them changes every cache key, which is exactly the invalidation
    the correctness argument needs.
    """
    import repro.android.intents
    import repro.core.app_to_spec
    import repro.core.model
    import repro.core.serialize
    import repro.core.synthesis
    import repro.core.vulnerabilities.base
    import repro.core.vulnerabilities.escalation
    import repro.core.vulnerabilities.hijack
    import repro.core.vulnerabilities.launch
    import repro.core.vulnerabilities.leak
    import repro.relational.problem
    import repro.relational.translate
    import repro.sat.cnf
    import repro.sat.fastsolver
    import repro.sat.solver
    import repro.sat.tseitin
    import repro.statics

    modules = [
        repro.android.intents,
        repro.core.app_to_spec,
        repro.core.model,
        repro.core.serialize,
        repro.core.synthesis,
        repro.core.vulnerabilities.base,
        repro.core.vulnerabilities.escalation,
        repro.core.vulnerabilities.hijack,
        repro.core.vulnerabilities.launch,
        repro.core.vulnerabilities.leak,
        repro.relational.problem,
        repro.relational.translate,
        # The whole SAT substrate: both backends (``fast`` is the default
        # since PR 6) and the CNF/Tseitin encoder.  Editing any of them
        # changes what a synthesis task computes, so all of them must
        # rotate every cache key.
        repro.sat.cnf,
        repro.sat.fastsolver,
        repro.sat.solver,
        repro.sat.tseitin,
        repro.statics,
    ]
    digest = hashlib.sha256()
    for module in modules:
        digest.update(module.__name__.encode("utf-8"))
        try:
            digest.update(inspect.getsource(module).encode("utf-8"))
        except (OSError, TypeError):  # no source (frozen/zipped): name only
            pass
    return digest.hexdigest()


def default_cache_dir() -> pathlib.Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-pipeline"


class PipelineCache:
    """A directory of JSON entries addressed by content hash.

    Layout: ``<root>/<namespace>/<hash[:2]>/<hash>.json``.  Entries carry a
    format-version envelope; a version mismatch counts as an invalidation
    (the file is removed) plus a miss.
    """

    def __init__(self, root: Optional[pathlib.Path] = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.accounting = CacheAccounting()

    def _path(self, namespace: str, key: str) -> pathlib.Path:
        return self.root / namespace / key[:2] / f"{key}.json"

    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(namespace, key)
        metrics = get_metrics()
        try:
            envelope = json.loads(path.read_text())
        except (OSError, ValueError):
            self.accounting.record_miss(namespace)
            if metrics.enabled:
                metrics.counter(f"cache.{namespace}.misses").inc()
            return None
        if envelope.get("version") != CACHE_FORMAT_VERSION:
            self.accounting.record_invalidation(namespace)
            self.accounting.record_miss(namespace)
            if metrics.enabled:
                metrics.counter(f"cache.{namespace}.invalidations").inc()
                metrics.counter(f"cache.{namespace}.misses").inc()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.accounting.record_hit(namespace)
        if metrics.enabled:
            metrics.counter(f"cache.{namespace}.hits").inc()
        return envelope["payload"]

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        # Degraded (budget-exhausted) payloads are partial results: caching
        # one would freeze the degradation -- a later run with more budget
        # could never improve on it.  Refuse the write and count it.
        if isinstance(payload, dict) and payload.get("incomplete"):
            self.accounting.record_rejection(namespace)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter(f"cache.{namespace}.rejections").inc()
            return
        path = self._path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {"version": CACHE_FORMAT_VERSION, "payload": payload}
        # Unique per-process/per-attempt tmp name in the entry's own
        # directory (same filesystem, so the final rename is atomic).  A
        # fixed tmp name would be shared by every concurrent writer of
        # this key: two pool workers could interleave truncate/write and
        # ``os.replace`` a torn file.  ``get`` only ever reads
        # ``<key>.json``, so a half-written tmp is never visible.
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f"{path.name}.{os.getpid()}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(envelope, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Remove every entry; returns the number of files removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.rglob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class MemoryCache(PipelineCache):
    """In-process content-addressed cache with the PipelineCache contract.

    Used by the long-running policy service (`repro serve`): warm session
    state must survive across requests without disk I/O on the hot path.
    Entries are kept per namespace in insertion order and evicted LRU once
    ``max_entries`` is exceeded (0 disables the bound).  Payloads are
    round-tripped through JSON on ``put`` so a cached result is exactly as
    isolated from caller mutation as a disk entry would be, and the same
    degraded-payload rejection applies.  Thread-safe: the service's worker
    threads share one instance.
    """

    def __init__(self, max_entries: int = 0) -> None:
        self.root = None  # type: ignore[assignment]
        self.accounting = CacheAccounting()
        self.max_entries = max_entries
        self._entries: Dict[str, "collections.OrderedDict[str, str]"] = {}
        self._lock = threading.Lock()

    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        metrics = get_metrics()
        with self._lock:
            bucket = self._entries.get(namespace)
            text = bucket.get(key) if bucket is not None else None
            if text is not None:
                bucket.move_to_end(key)
        if text is None:
            self.accounting.record_miss(namespace)
            if metrics.enabled:
                metrics.counter(f"cache.{namespace}.misses").inc()
            return None
        self.accounting.record_hit(namespace)
        if metrics.enabled:
            metrics.counter(f"cache.{namespace}.hits").inc()
        return json.loads(text)

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        if isinstance(payload, dict) and payload.get("incomplete"):
            self.accounting.record_rejection(namespace)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter(f"cache.{namespace}.rejections").inc()
            return
        text = json.dumps(payload, sort_keys=True)
        with self._lock:
            bucket = self._entries.setdefault(
                namespace, collections.OrderedDict()
            )
            bucket[key] = text
            bucket.move_to_end(key)
            if self.max_entries > 0:
                while len(bucket) > self.max_entries:
                    bucket.popitem(last=False)

    def clear(self) -> int:
        with self._lock:
            removed = sum(len(bucket) for bucket in self._entries.values())
            self._entries.clear()
        return removed

    def __len__(self) -> int:
        with self._lock:
            return sum(len(bucket) for bucket in self._entries.values())


class NullCache(PipelineCache):
    """Cache-shaped no-op for cacheless runs; still counts misses."""

    def __init__(self) -> None:  # no root directory at all
        self.root = None  # type: ignore[assignment]
        self.accounting = CacheAccounting()

    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        self.accounting.record_miss(namespace)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(f"cache.{namespace}.misses").inc()
        return None

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        pass

    def clear(self) -> int:
        return 0
