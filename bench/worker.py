"""One benchmark process, started by run.py from the root of a checkout.

    worker.py setup --workload W                       import plus one warm-up call, timed
    worker.py run --workload W --seed N --seconds S    the measured, untraced workload
    worker.py trace --workload W --seed N [--alone]    traced replay, per-layer metrics

Each mode prints one JSON object as the last line of its standard output. The
library is imported from ``src`` only inside the modes, so that ``setup``
times the import itself. Every workload is a closed loop: one client in this
process, the next operation starting when the previous one has finished.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import time
import traceback
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference as refmod  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

clock = time.perf_counter

WORKLOADS = ("grid", "window9", "reduce", "cli")
SIZES = {
    "full": {"grid": refmod.GRID_BOX, "window_m": refmod.WINDOW_M_MAX, "systems": 2048,
             "literals": 10, "invocations": 100, "probes": 20},
    "smoke": {"grid": (3, 2, 3), "window_m": 2, "systems": 64, "literals": 4, "invocations": 1, "probes": 2},
}
WARM_LITERAL = "12 7^6"


def import_library(with_cli: bool = False):
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import fatpoint3

    if with_cli:
        import fatpoint3.cli
    return fatpoint3


def _report_exception(what: str) -> None:
    print(f"{what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def _rss_mb() -> float:
    peak_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak_kb / 1024


def machine() -> dict:
    """Hardware and library versions, and the BLAS thread count in effect."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    # the OpenBLAS numpy loaded, found among this process's mapped libraries
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# --- set-up -----------------------------------------------------------------------


def warm_up(fp, workload: str) -> None:
    """One call of each entry point the workload uses."""
    if workload == "grid":
        fp.verify_grid(1, 1, 1, fp.OracleConfig(seeds=refmod.grid_seeds(1)))
    elif workload == "window9":
        refmod.window_answer(fp, 2, 1, fp.OracleConfig(seeds=refmod.window_seeds(1)))
    elif workload == "reduce":
        refmod.pipeline(fp, WARM_LITERAL)
    else:
        refmod.cli_stdout(fp.cli, WARM_LITERAL)


def mode_setup(args) -> dict:
    t0 = clock()
    fp = import_library(with_cli=args.workload == "cli")
    warm_up(fp, args.workload)
    return {"setup_s": clock() - t0}


# --- measured workloads -------------------------------------------------------------


# Each run returns the operations attempted and failed, ``ops_per_s`` and
# ``latency_ms`` as the workload defines them, and the raw samples behind them.
# Each run repeats its operations (a verify_grid call, a window cell, a system,
# a CLI invocation), and an operation's time is the median of its repetitions:
# on a shared host the CPU's speed switches between a fast and a slow state for
# seconds to minutes at a time, and the fastest repetition depends on whether
# the run caught a fast moment, where the median does not. Operations in this
# process are timed in its CPU time (user and system; BLAS runs on this thread
# only), which leaves out the moments the host takes the CPU away: for grid and
# window9, whose operations run for up to seconds, wall-time medians spread a
# third to twice as wide. A CLI invocation is timed on the wall clock, as its user waits
# for it; most of it is process start and imports.
cpu_clock = time.process_time


def run_grid(fp, ref, seed, seconds, size) -> dict:
    box = size["grid"]
    n_cells = (box[0] + 1) * box[1] * box[2]
    config = fp.OracleConfig(seeds=refmod.grid_seeds(seed))
    times, walls, failed, calls = [], [], 0, None
    while calls is None or len(times) < calls:
        t0, c0 = clock(), cpu_clock()
        try:
            report = fp.verify_grid(*box, config)
        except Exception:
            _report_exception("verify_grid")
            report = None
        times.append(cpu_clock() - c0)
        walls.append(clock() - t0)
        failed += n_cells if report is None else refmod.grid_failures(report, ref)
        if calls is None:  # whole calls only, at least three, as many as fill the run
            calls = max(3, round(seconds / walls[0]))
    call_s = stats.median(times)
    return {"ops": n_cells * len(times), "failed": failed, "ops_per_s": n_cells / call_s, "latency_ms": call_s * 1e3,
            "samples_ms": [t * 1e3 for t in times], "wall_ms": stats.median(walls) * 1e3,
            "sizes": {"calls": len(times), "cells": n_cells * len(times), "box": list(box)}}


def run_window9(fp, ref, seed, seconds, size) -> dict:
    cells = refmod.window_cells(size["window_m"])
    config = fp.OracleConfig(seeds=refmod.window_seeds(seed))
    times = [[] for _ in cells]
    walls = [[] for _ in cells]
    failed, passes, done = 0, None, 0
    while passes is None or done < passes:
        t_pass = clock()
        for i, (d, m) in enumerate(cells):
            t0, c0 = clock(), cpu_clock()
            try:
                answer = refmod.window_answer(fp, d, m, config)
            except Exception:
                _report_exception(f"window cell L({d}; {m}^9)")
                answer = None
            times[i].append(cpu_clock() - c0)
            walls[i].append(clock() - t0)
            failed += answer is None or refmod.window_failed(answer, d, m, ref)
        done += 1
        if passes is None:  # whole passes only, at least three, as many as fill the run
            passes = max(3, round(seconds / (clock() - t_pass)))
    per_cell = [stats.median(t) for t in times]
    window_s = sum(per_cell)
    return {"ops": done * len(cells), "failed": failed, "ops_per_s": len(cells) / window_s,
            "latency_ms": window_s * 1e3, "samples_ms": [t * 1e3 for t in per_cell],
            "wall_ms": sum(stats.median(t) for t in walls) * 1e3,
            "sizes": {"passes": done, "cells": done * len(cells), "m_max": size["window_m"]}}


def _sample(ref, workload, seed, count):
    return random.Random(f"{workload}:{seed}").sample(ref["pool"], count)


def run_reduce(fp, ref, seed, seconds, size) -> dict:
    sample = _sample(ref, "reduce", seed, size["systems"])
    # arrays of doubles, so that memory does not grow with the number of passes
    pipeline = [array("d") for _ in sample]
    proc = [array("d") for _ in sample]
    failed, passes = 0, 0
    deadline = clock() + seconds
    while passes < 3 or clock() < deadline:  # whole passes over the sample, at least three
        for i, entry in enumerate(sample):
            c0 = cpu_clock()
            try:
                answer, text, proc_s = refmod.pipeline(fp, entry[0], cpu_clock)
            except Exception:
                _report_exception(f"pipeline on {entry[0]!r}")
                failed += 1
                continue
            pipeline[i].append(cpu_clock() - c0)
            proc[i].append(proc_s)
            failed += refmod.pipeline_failed(answer + [refmod.digest(text)], entry)
        passes += 1
    per_system = [stats.median(t) for t in pipeline if t]
    proc_ms = [stats.median(t) * 1e3 for t in proc if t]
    return {"ops": passes * len(sample), "failed": failed, "ops_per_s": len(per_system) / sum(per_system),
            "latency_ms": stats.median(proc_ms), "samples_ms": proc_ms,
            "sizes": {"systems": passes * len(sample), "distinct": len(sample)}}


def run_cli(fp, ref, seed, seconds, size) -> dict:
    literals = _sample(ref, "cli", seed, size["literals"])
    times, failed = [], 0
    deadline = clock() + seconds
    # at least 100 invocations, so that p90 has ten samples beyond it, and
    # every literal as often as every other
    while len(times) < size["invocations"] or len(times) % len(literals) or clock() < deadline:
        entry = literals[len(times) % len(literals)]
        t0 = clock()
        proc = subprocess.run([sys.executable, "-m", "fatpoint3.cli", "dim", entry[0], "--trace"],
                              capture_output=True, text=True, timeout=60)
        times.append(clock() - t0)
        failed += refmod.cli_failed(proc.returncode, proc.stdout, entry)
    call_s = stats.median(times)
    return {"ops": len(times), "failed": failed, "ops_per_s": 1 / call_s, "latency_ms": call_s * 1e3,
            "samples_ms": [t * 1e3 for t in times],
            "sizes": {"invocations": len(times), "distinct": len(literals)}}


RUNS = {"grid": run_grid, "window9": run_window9, "reduce": run_reduce, "cli": run_cli}


def mode_run(args) -> dict:
    ref = refmod.load()
    fp = None
    if args.workload != "cli":  # the cli workload's client does not load the library
        fp = import_library()
        warm_up(fp, args.workload)  # not timed: set-up is measured on its own
    out = RUNS[args.workload](fp, ref, args.seed, args.seconds, SIZES[args.size])
    out["rss_mb"] = _rss_mb()
    out["machine"] = machine()
    return out


# --- traced replays -------------------------------------------------------------------
#
# Each replay returns per-layer metrics for the layers its workload drives, the
# operations attempted and failed, and extra results. Tracing overhead is the
# traced replay's wall time against the same replay untraced.


def _timed(fn):
    t0 = clock()
    result = fn()
    return result, clock() - t0


def _plain_and_traced(replay, repeats: int = 2):
    """Alternate untraced and traced replays. Returns the answers and tracer of
    the last traced replay with its wall time, and the best wall time of each
    kind, whose ratio is the tracing overhead."""
    plain = traced = math.inf
    for _ in range(repeats):
        plain = min(plain, _timed(replay)[1])
        tracer = Tracer()
        with tracer.instrument():
            answers, wall = _timed(lambda: replay(tracer))
        traced = min(traced, wall)
    return answers, tracer, wall, traced / plain - 1, plain


def split_sound(cells, dims, spans) -> bool:
    """Whether the traced rank_mod_p calls describe the oracle's own work:
    every cell's dimension is C(d+3, 3) - max(its seed ranks) - 1. When it is
    not (the oracle prunes the matrix, or eliminates without calling
    rank_mod_p), the oracle split is reported as unsound; the answers are
    still checked against the reference as usual."""
    ranks: dict[int, list[int]] = {}
    for span in spans:
        if span.name == "oracle.rank_mod_p":
            ranks.setdefault(span.trace_id, []).append(span.attrs["rank"])
    return all(
        i in ranks and math.comb(d + 3, 3) - max(ranks[i]) - 1 == dim
        for i, ((d, *_), dim) in enumerate(zip(cells, dims))
    )


def trace_grid(fp, ref, seed, size) -> dict:
    box = size["grid"]
    config = fp.OracleConfig(seeds=refmod.grid_seeds(seed))
    report, grid_wall = _timed(lambda: fp.verify_grid(*box, config))
    grid_wall = min(grid_wall, _timed(lambda: fp.verify_grid(*box, config))[1])
    cells = [(row.degree, row.mult, row.npoints) for row in report.rows]

    def replay(tracer=None):
        answers = []
        for i, (d, m, r) in enumerate(cells):
            if tracer is not None:
                tracer.trace_id = i
            system = fp.LinearSystem(d, (m,) * r)
            answers.append([fp.conjectured_dimension(system)[0], fp.oracle_dimension(system, config)])
        return answers

    answers, tracer, traced_wall, overhead, plain_wall = _plain_and_traced(replay)
    failed = refmod.grid_failures(report, ref) + sum(
        ref["grid"].get(f"{d} {m} {r}") != a for (d, m, r), a in zip(cells, answers)
    )
    metrics = layer_metrics(tracer.spans, traced_wall)
    metrics["oracle.grid_sharing_ratio"] = plain_wall / grid_wall
    metrics["trace.overhead_share"] = overhead
    return {"metrics": metrics, "attempted": 2 * len(cells), "failed": failed,
            "split_sound": split_sound(cells, [a[1] for a in answers], tracer.spans),
            "details": {"verify_grid_s": grid_wall, "replay_s": plain_wall}}


def trace_window9(fp, ref, seed, size) -> dict:
    cells = refmod.window_cells(size["window_m"])
    config = fp.OracleConfig(seeds=refmod.window_seeds(seed))

    def replay(tracer=None):
        answers = []
        for i, (d, m) in enumerate(cells):
            if tracer is not None:
                tracer.trace_id = i
            answers.append(refmod.window_answer(fp, d, m, config))
        return answers

    answers, tracer, traced_wall, overhead, plain_wall = _plain_and_traced(replay)
    failed = sum(refmod.window_failed(a, d, m, ref) for (d, m), a in zip(cells, answers))
    # h1 = dim - expected for a non-empty system, and every system of the window is non-empty
    dims = [fp.expected_dimension(fp.LinearSystem(d, (m,) * refmod.WINDOW_R)) + a[2]
            for (d, m), a in zip(cells, answers)]
    metrics = layer_metrics(tracer.spans, traced_wall)
    metrics["trace.overhead_share"] = overhead
    return {"metrics": metrics, "attempted": len(cells), "failed": failed,
            "split_sound": split_sound(cells, dims, tracer.spans), "details": {"replay_s": plain_wall}}


def trace_reduce(fp, ref, seed, size) -> dict:
    sample = _sample(ref, "reduce", seed, size["systems"])

    def replay(tracer=None):
        out = []
        for i, entry in enumerate(sample):
            if tracer is not None:
                tracer.trace_id = i
            answer, text, _ = refmod.pipeline(fp, entry[0])
            out.append(answer + [refmod.digest(text)])
        return out

    answers, tracer, traced_wall, overhead, plain_wall = _plain_and_traced(replay)
    failed = sum(refmod.pipeline_failed(a, e) for a, e in zip(answers, sample))
    metrics = layer_metrics(tracer.spans, traced_wall)
    metrics["trace.overhead_share"] = overhead
    return {"metrics": metrics, "attempted": len(sample), "failed": failed, "details": {"replay_s": plain_wall}}


def _process_ms(code: str, probes: int) -> float:
    times = []
    for _ in range(probes):
        t0 = clock()
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, timeout=60)
        times.append(clock() - t0)
    return stats.median(times) * 1e3


def trace_cli(fp, ref, seed, size) -> dict:
    """Interpreter start, imports and the in-process ``main``: the parts of
    one ``fatpoint3 dim`` invocation. ``main`` runs on more literals than the
    cli workload uses, since one call takes about a millisecond."""
    literals = _sample(ref, "cli", seed, size["systems"] // 8)
    probes = size["probes"]
    interpreter = _process_ms("pass", probes)
    metrics = {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": _process_ms("import fatpoint3", probes) - interpreter,
        "cli.import_numpy_ms": _process_ms("import numpy", probes) - interpreter,
    }
    main_times = []

    def replay(tracer=None):
        out = []
        for i, entry in enumerate(literals):
            if tracer is not None:
                tracer.trace_id = i
            t0 = clock()
            out.append(refmod.cli_stdout(fp.cli, entry[0]))
            if tracer is None:
                main_times.append(clock() - t0)
        return out

    outputs, tracer, traced_wall, overhead, plain_wall = _plain_and_traced(replay)
    failed = sum(refmod.cli_failed(0, out, e) for out, e in zip(outputs, literals))
    metrics.update(layer_metrics(tracer.spans, traced_wall))
    metrics["cli.main_ms"] = stats.median(main_times) * 1e3
    metrics["trace.overhead_share"] = overhead
    return {"metrics": metrics, "attempted": len(literals), "failed": failed, "details": {"replay_s": plain_wall}}


TRACES = {"grid": trace_grid, "window9": trace_window9, "reduce": trace_reduce, "cli": trace_cli}


def mode_trace(args) -> dict:
    """Replay the chosen workload at its size. With ``--alone`` that is all.
    Otherwise a per-layer metric the workload does not drive is taken from a
    smoke-size replay of the other workloads, in the order of WORKLOADS, and
    ``oracle.rank_s_nproc`` is the ``oracle.rank_s`` of the window9 replay
    repeated in a child process with one BLAS thread per core, beside the
    single-threaded ``oracle.rank_s`` of the benchmark's own processes."""
    fp = import_library(with_cli=True)
    ref = refmod.load()
    for workload in WORKLOADS:
        warm_up(fp, workload)
    replays = [(args.workload, args.size)]
    if not args.alone:
        replays += [(other, "smoke") for other in WORKLOADS if other != args.workload]
    metrics, sources, split = {}, {}, {}
    attempted = failed = 0
    for workload, size in replays:
        out = TRACES[workload](fp, ref, args.seed, SIZES[size])
        label = workload if size == args.size else f"{workload} ({size})"
        attempted += out["attempted"]
        failed += out["failed"]
        if "split_sound" in out:
            split[label] = out["split_sound"]
        for name, value in out["metrics"].items():
            if name not in metrics:
                metrics[name] = value
                sources[name] = label
        if workload == args.workload:
            details, replayed = out["details"], out["attempted"]
    if not args.alone:
        size = args.size if args.workload == "window9" else "smoke"
        child = _nproc_blas_threads_trace(args.seed, size)
        label = f"window9 ({size}), {child['machine']['blas_threads']} BLAS threads"
        attempted += child["attempted"]
        failed += child["failed"]
        split[label] = all(child["split_sound"].values())
        metrics["oracle.rank_s_nproc"] = child["metrics"]["oracle.rank_s"]
        sources["oracle.rank_s_nproc"] = label
    for name, label in sources.items():
        if name.startswith("oracle.") and split.get(label) is False:
            sources[name] = f"{label}, split unsound"
    return {"metrics": metrics, "sources": sources, "split_sound": split, "attempted": attempted,
            "failed": failed, "details": details, "sizes": {"replayed": replayed}, "machine": machine()}


def blas_threads_env(threads: int) -> dict:
    return {name: str(threads) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _nproc_blas_threads_trace(seed: int, size: str) -> dict:
    env = dict(os.environ, **blas_threads_env(len(os.sched_getaffinity(0))))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "trace", "--workload", "window9", "--seed", str(seed),
           "--size", size, "--alone"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"multi-threaded window9 replay failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    setup = modes.add_parser("setup")
    setup.add_argument("--workload", choices=WORKLOADS, required=True)
    run = modes.add_parser("run")
    run.add_argument("--seconds", type=float, required=True)
    trace = modes.add_parser("trace")
    trace.add_argument("--alone", action="store_true", help="replay only the chosen workload")
    for sub in (run, trace):
        sub.add_argument("--workload", choices=WORKLOADS, required=True)
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)
    print(json.dumps({"setup": mode_setup, "run": mode_run, "trace": mode_trace}[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
