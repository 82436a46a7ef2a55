"""fatpoint3 benchmark: four seeded workloads against the public API and the CLI.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. With ``--trace 0`` it prints every
end-to-end metric of the workload; with ``--trace 1`` a traced replay prints
every per-layer metric. Every answer is checked against bench/reference.json.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures for a reader, under the names the workload documents,
and the machine the run measured.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
sys.path.insert(0, HERE)

import stats  # noqa: E402
import worker  # noqa: E402

SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 170


def child_env(root: str) -> dict:
    """The library from this checkout, and BLAS held to one thread. With more,
    OpenBLAS starts its helper threads when numpy is imported, which costs
    60-80 ms of page faults that vary with the host's memory state and showed
    in every set-up and every CLI call; one thread also keeps the load of a
    workload to one core of a shared host."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **worker.blas_threads_env(1))


def call_worker(args: list[str], root: str, env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(workload: str, setups: list[float], run: dict) -> tuple[dict, list[str]]:
    """The contract's metrics, and lines naming them as the workload does."""
    values = {
        "setup_s": stats.median(setups),
        "rss_peak_mb": run["rss_mb"],
        "ops_per_s": run["ops_per_s"],
        "latency_ms": run["latency_ms"],
    }
    attempted, failed = run["ops"], run["failed"]
    samples = run["samples_ms"]
    lines = [
        f"setup_s {values['setup_s']:.6g} s (median of {len(setups)} set-ups)",
        f"rss_peak_mb {run['rss_mb']:.6g} MB",
        f"fail_share {failed / attempted:.6g} ({failed} failed of {attempted} attempted)",
    ]
    if workload == "grid":
        lines += [f"cells_per_s {run['ops_per_s']:.6g} 1/s (median of {len(samples)} verify_grid calls, CPU time)",
                  f"latency_ms {run['latency_ms']:.6g} ms (median call, CPU time; wall time {run['wall_ms']:.6g} ms)"]
    elif workload == "window9":
        lines += [f"cells_per_s {run['ops_per_s']:.6g} 1/s (each cell the median of {run['sizes']['passes']} passes, "
                  "CPU time)",
                  f"latency_ms {run['latency_ms']:.6g} ms (one window of {len(samples)} cells, CPU time; "
                  f"wall time {run['wall_ms']:.6g} ms)"]
    elif workload == "reduce":
        lines += [f"systems_per_s {run['ops_per_s']:.6g} 1/s (each system the median of its repetitions, CPU time)",
                  f"latency_ms {run['latency_ms']:.6g} ms (median over systems of the median procedure call, "
                  "CPU time)"]
        lines += _percentile_lines("proc", [ms * 1e3 for ms in samples], "us", 99.0)
    else:
        lines += [f"latency_ms {run['latency_ms']:.6g} ms (median of {len(samples)} invocations "
                  f"over {run['sizes']['distinct']} literals, wall time)"]
        lines += _percentile_lines("cli", samples, "ms", 90.0)
    return with_units(values, "end_to_end"), lines


def _percentile_lines(prefix, values, unit, highest):
    lines = [f"{prefix}_p50_{unit} {stats.median(values):.6g} {unit} (n={len(values)})"]
    tail = stats.supported_tail(values, highest)
    if tail is None:
        lines.append(f"{prefix}_p{highest:g}_{unit} not supported: {len(values)} samples")
    else:
        q, value = tail
        lines.append(f"{prefix}_p{q:g}_{unit} {value:.6g} {unit} (n={len(values)})")
    return lines


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def with_units(values: dict, section: str) -> dict:
    """The metrics BENCHMARK.json lists in ``section``, in its order and units."""
    spec = load_spec()[section]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def per_layer(traced: dict) -> tuple[dict, list[str]]:
    metrics = with_units(traced["metrics"], "per_layer")
    lines = [f"{name} {m['value']:.6g} {m['unit']} [{traced['sources'][name]}]" for name, m in metrics.items()]
    unsound = [label for label, sound in traced["split_sound"].items() if not sound]
    # the oracle split is unsound when the traced rank_mod_p calls do not
    # account for the oracle's answers; the answers are checked regardless
    lines.append("oracle.split_sound " + ("true" if not unsound else f"false ({'; '.join(unsound)})"))
    lines.append("details " + json.dumps(traced["details"]))
    return metrics, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=worker.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fatpoint3", "__init__.py")):
        print("bench/run.py: no src/fatpoint3 here; run it from the root of a fatpoint3 checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", "smoke" if args.smoke else "full"]
    try:
        if args.trace:
            result = call_worker(["trace", *common], root, env, WORKER_TIMEOUT_S)
            metrics, lines = per_layer(result)
            attempted, failed = result["attempted"], result["failed"]
        else:
            repeats = 1 if args.smoke else SETUP_REPEATS
            setups = [call_worker(["setup", "--workload", args.workload], root, env, 60)["setup_s"]
                      for _ in range(repeats)]
            result = call_worker(["run", *common, "--seconds", str(args.seconds)], root, env, WORKER_TIMEOUT_S)
            metrics, lines = end_to_end(args.workload, setups, result)
            attempted, failed = result["ops"], result["failed"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    record = dict(result["machine"], workload=args.workload, seed=args.seed, sizes=result.get("sizes", {}))
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print("  " + line)
    print("  machine " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
