"""Run-to-run spread of the benchmark over seeds.

Run from the repository root:

    python3 perfbench/spread.py --workloads sf_formula --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/BASELINE.json
    python3 perfbench/spread.py --trace 1 --seeds 1 --out perfbench/BASELINE.json

Runs ``run.py`` once per workload and seed, one run at a time, and prints for
every metric its median, quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
``--out`` merges the summary into a JSON file under the section
``end_to_end`` or ``per_layer``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def dumps(doc) -> str:
    """Indented JSON with each list of numbers kept on one line."""
    text = json.dumps(doc, indent=1, sort_keys=True)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)


def summarize(values: list) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    section = {}
    environment = None
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            report, result = run_once(workload, seed, args.seconds, args.trace)
            environment = report["environment"]
            results.append((seed, report, result))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for name in results[0][2]["metrics"]:
            metrics[name] = summarize([r[2]["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = results[0][2]["metrics"][name]["unit"]
            s = metrics[name]
            if len(args.seeds) >= 2 and args.trace == 0:
                print(f"  {name:14s} median {s['median']:.6g} {s['unit']:5s} "
                      f"spread {s['spread']:.4f} bound {bounds.get(name)}")
        entry = {"seeds": args.seeds,
                 "correct": all(r[2]["correct"] for r in results),
                 "attempted": sum(r[2]["attempted"] for r in results),
                 "failed": sum(r[2]["failed"] for r in results),
                 "metrics": metrics}
        if args.trace == 0:
            entry["raw"] = {name: summarize([r[1]["metrics"][name] for r in results])
                            for name in ("ops_per_s", "op_p50_s", "cpu_per_op_s")}
            entry["op_p50_s_by_kind"] = {
                kind: summarize([r[1]["detail"]["kinds"][kind]["p50_s"] for r in results])
                for kind in results[0][1]["detail"]["kinds"]}
        else:
            entry["count_drift"] = [r[1]["detail"]["count_drift"] for r in results]
        section[workload] = entry

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["environment"] = environment
        doc["run_seconds"] = args.seconds
        key = "per_layer" if args.trace else "end_to_end"
        doc.setdefault(key, {}).update(section)
        args.out.write_text(dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
