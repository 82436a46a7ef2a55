"""Run the benchmark over several seeds and write a BENCH_<label>.json snapshot.

    python3 bench/snapshot.py --label seed --runs 10

For each workload of BENCHMARK.json it makes ``--runs`` untraced runs with
seeds 1..N and one traced run with seed 1, all from the current directory (a
checkout's root), and writes bench/baselines/BENCH_<label>.json with every
run's result, and per end-to-end metric the median and the quartile spread
(third minus first quartile, over the median) beside the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
from run import SPEC_PATH  # noqa: E402

RUN_TIMEOUT_S = 240


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    machine = next(json.loads(line.split("machine ", 1)[1]) for line in lines if line.strip().startswith("machine "))
    return {"seed": seed, "trace": trace, "wall_s": wall, "result": json.loads(lines[-1]), "machine": machine,
            "report": lines[:-1]}


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    out = {}
    for metric in spec:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        entry = {"median": stats.median(values), "unit": metric["unit"], "n": len(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=stats.quartile_spread(values), bound=metric["bound"])
        out[metric["name"]] = entry
    return out


def main(argv=None) -> int:
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    snapshot = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(bench(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['result']['metrics'])}", file=sys.stderr)
        entry = {"runs": runs, "summary": summarize(runs, spec["end_to_end"]), "machine": runs[0]["machine"],
                 "traced": bench(workload, 1, spec["run_seconds"], 1)}
        snapshot["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            spread = s.get("spread")
            flag = "" if spread is None or spread < s["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{workload:8s} {name:16s} median {s['median']:.6g} {s['unit']}"
                  + ("" if spread is None else f"  spread {spread:.4f} (bound {s['bound']})") + flag)
    out = os.path.join(HERE, "baselines", f"BENCH_{args.label}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
