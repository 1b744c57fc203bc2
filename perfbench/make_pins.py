#!/usr/bin/env python3
"""Regenerate ``perfbench/pins.json``: pinned digests per seed.

Usage (from the root of a checkout)::

    python3 perfbench/make_pins.py --seeds 0-99

For every seed: the digest of each workload's generated inputs and, for
the audits, the digest of every bundle's findings from a cold audit.
A benchmark run whose digests differ from these fails, so a change to a
generator (or to the program's findings) cannot pass unnoticed.  Run it
only when such a change is intended, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from pb import common  # noqa: E402


def seeds_of(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def decide_rate() -> float:
    command = json.loads((HERE.parent / "BENCHMARK.json").read_text())["command"]
    return float(command[command.index("--decide-rate") + 1])


def audit_pins(seed: int) -> dict:
    from pb.audit import audit_unit, build_inputs, findings_text, input_digest

    inputs = build_inputs(seed)
    pins = {"inputs": input_digest(inputs)}
    scratch = common.Scratch("pins")
    try:
        for unit in inputs.units:
            _t, result = audit_unit(unit, scratch.fresh_dir("c"))
            pins[f"findings.{unit.label}"] = common.digest_json(
                json.loads(findings_text(result)))
    finally:
        scratch.close()
    return pins


def service_pins(seed: int) -> dict:
    from pb.service import Inputs

    rate = decide_rate()
    return {f"inputs@{rate:g}": Inputs(seed).digest(rate)}


def enforcement_pins(seed: int) -> dict:
    from pb.enforce import Device

    return {"inputs": Device(seed).digest()}


SECTIONS = {"audit": audit_pins, "service": service_pins,
            "enforcement": enforcement_pins}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True)
    args = parser.parse_args()
    pins = common.load_pins()
    for section in SECTIONS:
        table = pins.setdefault(section, {})
        for seed in seeds_of(args.seeds):
            table[str(seed)] = SECTIONS[section](seed)
            print(f"{section} {seed}", file=sys.stderr, flush=True)
        pins[section] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    tmp = common.PINS_FILE.with_suffix(".tmp")
    tmp.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    shutil.move(str(tmp), str(common.PINS_FILE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
