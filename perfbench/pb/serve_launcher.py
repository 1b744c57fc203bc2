"""Start ``repro serve`` with benchmark-side timing wrappers.

Usage::

    python3 perfbench/pb/serve_launcher.py [--spans FILE] \
        [--inject SPAN=SECONDS ...] -- <repro serve arguments>

Wraps the daemon's request path -- ``protocol.decode_request``,
``protocol.encode_message``, ``DeviceSession.handle`` and
``DeviceSession.decide`` -- plus every layer's entry points (among them
``PolicyDecisionPoint.decide``, ``AuditLog.append`` and the synthesis
layers), then runs the normal ``repro serve`` entry point.  Server spans carry the request's trace id
(chosen by the client), so the client can line them up with its own
round trips.  Spans stay in memory and are written to ``--spans`` when
the server exits.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from pb.trace import (  # noqa: E402
    CacheCounter,
    Patcher,
    Recorder,
    SolveCounter,
    install_layers,
    parse_delays,
)


def _install(patcher: Patcher) -> None:
    import repro.service.protocol as protocol
    from repro.service.session import DeviceSession

    rec = patcher.recorder
    install_layers(patcher)
    patcher.wrap(DeviceSession, "handle", "service.handle",
                 trace_of=lambda self, request: request.get("trace_id"))
    patcher.wrap(DeviceSession, "decide", "service.session_decide")
    if not rec.enabled:
        return
    # The codec spans learn their trace id from the decoded request or
    # the message being encoded.
    decode = protocol.decode_request
    encode = protocol.encode_message

    @functools.wraps(decode)
    def decode_request(line):
        span = rec.begin("service.decode")
        try:
            request = decode(line)
            trace = request.get("trace_id")
            span.trace = trace if isinstance(trace, str) else None
            return request
        finally:
            rec.finish(span)

    @functools.wraps(encode)
    def encode_message(message):
        span = rec.begin("service.encode", message.get("trace_id"))
        try:
            return encode(message)
        finally:
            rec.finish(span)

    patcher._saved.append((protocol, "decode_request", decode))
    patcher._saved.append((protocol, "encode_message", encode))
    protocol.decode_request = decode_request
    protocol.encode_message = encode_message


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default=None)
    parser.add_argument("--inject", action="append", default=[])
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]
    delays = parse_delays(args.inject)
    traced = args.spans is not None
    counters = [SolveCounter(log=True), CacheCounter(log=True)] if traced else []
    for counter in counters:
        counter.install()
    recorder = Recorder(enabled=traced)
    patcher = Patcher(recorder, delays)
    _install(patcher)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        patcher.restore()
        for counter in reversed(counters):
            counter.restore()
        if traced:
            recorder.dump(args.spans)
            with open(args.spans + ".counts.json", "w") as handle:
                json.dump({type(c).__name__: {"fields": c.FIELDS, "log": c.log}
                           for c in counters}, handle)


if __name__ == "__main__":
    sys.exit(main())
