#!/usr/bin/env python3
"""Run every workload once and print one table.

Usage (from the root of a checkout)::

    python3 perfbench/report.py --seed 1 [--trace 1]

With ``--trace 0`` the table lists each workload's end-to-end metrics
under their workload-specific names (``apps_per_s``, ``decide_p99_ms``,
``refresh_p90_ms``, ``icc_p99_us``, ...) with units, and the error rate.
With ``--trace 1`` it lists every per-layer row for every workload.
Each workload runs as its own ``perfbench/run.py`` process with the
arguments and the run length fixed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROW = re.compile(r"^  (\S+)\s+(-?[0-9.eE+-]+|nan|inf)(?: (\S+))?(?:\s+\((\d+)/(\d+)\))?$")


def run(bench, workload, seed, seconds, trace):
    command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds),
                                  "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *command[1:]], cwd=HERE.parent,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    columns = {}
    for workload in names:
        result, table = run(bench, workload, args.seed, seconds, args.trace)
        rows = {"error_rate": (result["failed"] / result["attempted"], "")}
        if args.trace:
            rows.update((k, (v["value"], v["unit"]))
                        for k, v in result["metrics"].items())
        else:
            for line in table.splitlines():
                match = ROW.match(line)
                if match and match.group(1) != "error_rate":
                    rows[match.group(1)] = (float(match.group(2)),
                                            match.group(3) or "")
            rows["setup_s"] = (result["metrics"]["setup_s"]["value"], "s")
            rows["peak_rss_mb"] = (result["metrics"]["peak_rss_mb"]["value"],
                                   "MB")
        columns[workload] = rows
    keys = []
    for rows in columns.values():
        keys.extend(k for k in rows if k not in keys)
    width = max(len(k) for k in keys) + 2
    print(f"{'':<{width}}" + "".join(f"{w:>20}" for w in names) + "  unit")
    for key in keys:
        unit = next((columns[w][key][1] for w in names if key in columns[w]), "")
        cells = "".join(
            f"{columns[w][key][0]:>20.6g}" if key in columns[w] else f"{'-':>20}"
            for w in names)
        print(f"{key:<{width}}{cells}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
