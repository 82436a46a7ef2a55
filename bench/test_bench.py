"""Tests of the benchmark's own code: order statistics, span self time, the
reference check, and a smoke run of every workload.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as refmod  # noqa: E402
import stats  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


# --- percentile rule ----------------------------------------------------------------


def test_median_and_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.median(values) == 50.5
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([5.0], 99) == 5.0


@pytest.mark.parametrize(
    "n, highest, expected",
    [
        (1000, 99.0, (99.0, 990)),  # 10 samples beyond p99
        (999, 99.0, (95.0, 950)),  # only 9 beyond p99
        (100, 99.0, (90.0, 90)),
        (100, 90.0, (90.0, 90)),
        (99, 90.0, (75.0, 75)),
        (40, 99.0, (75.0, 30)),
        (39, 99.0, None),
    ],
)
def test_supported_tail_keeps_ten_samples_beyond(n, highest, expected):
    values = list(range(1, n + 1))
    assert stats.supported_tail(values, highest) == expected
    if expected is not None:
        assert sum(v > expected[1] for v in values) >= stats.MIN_BEYOND


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx((7.5 - 2.5) / 5)


# --- span self time -----------------------------------------------------------------


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        Span("a.parent", 0.0, 10.0, None, 0),
        Span("a.child", 1.0, 3.0, 0, 0),
        Span("a.child", 2.0, 5.0, 0, 0),  # overlaps the first child
        Span("a.child", 8.0, 12.0, 0, 0),  # runs past its parent's end
        Span("a.grandchild", 1.5, 2.5, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 2.0, 1.0, 3.0, 4.0, 1.0])


def test_tracer_records_nesting_and_restores_the_library():
    import fatpoint3 as fp
    import fatpoint3.speciality

    original = fp.conjectured_dimension
    tracer = Tracer()
    with tracer.instrument():
        assert fp.conjectured_dimension is not original
        tracer.trace_id = 7
        fp.conjectured_dimension(fp.parse_system("12 7^6"))
    assert fp.conjectured_dimension is original
    assert fatpoint3.speciality.conjectured_dimension is original
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["literals.parse_system", "speciality.conjectured_dimension"]
    procedure = tracer.spans[1]
    nested = [s for s in tracer.spans if s.parent == 1]
    assert "cremona.reduce_to_standard" in [s.name for s in nested]
    assert all(s.trace_id == 7 for s in tracer.spans)
    assert procedure.attrs["dim"] == 0 and procedure.attrs["steps"]
    assert all(t >= 0 for t in self_times(tracer.spans))


def test_oracle_split_accounts_for_the_oracle_call():
    import fatpoint3 as fp

    tracer = Tracer()
    with tracer.instrument():
        fp.oracle_h1(fp.LinearSystem(8, (3,) * 9), fp.OracleConfig(seeds=(1, 2)))
    wall = tracer.spans[0].duration
    m = layer_metrics(tracer.spans, wall)
    assert m["oracle.eliminations"] == 2
    assert m["oracle.assembly_s"] + m["oracle.rank_s"] + m["oracle.other_s"] == pytest.approx(wall)
    assert m["oracle.seed_yield"] == 0.5  # the second seed cannot raise a full rank
    assert m["oracle.full_rank_share"] == 1.0
    assert m["trace.coverage"] == pytest.approx(1.0)


@pytest.mark.parametrize("variant", ["seed_early_exit", "elimination_outside_rank_mod_p"])
def test_traced_run_checks_answers_not_the_oracle_split(monkeypatch, variant):
    """A traced run fails only on answers. An oracle that skips seeds, or that
    eliminates outside rank_mod_p, leaves it correct; the second makes the
    split unsound, since the traced calls no longer account for the answers."""
    import dataclasses

    import fatpoint3 as fp
    from fatpoint3 import oracle

    import worker

    if variant == "seed_early_exit":
        if not hasattr(oracle, "_seed_ranks"):
            pytest.skip("the oracle has no per-seed loop to shorten")
        seed_ranks = oracle._seed_ranks

        def first_seed_only(system, config):
            return seed_ranks(system, dataclasses.replace(config, seeds=config.seeds[:1]))

        monkeypatch.setattr(oracle, "_seed_ranks", first_seed_only)
    else:
        rank = oracle.rank_mod_p
        # defined outside the library, so the tracer leaves it unwrapped
        monkeypatch.setattr(oracle, "rank_mod_p", lambda matrix, prime: rank(matrix, prime))
    ref = refmod.load()
    for trace in (worker.trace_grid, worker.trace_window9):
        out = trace(fp, ref, 1, worker.SIZES["smoke"])
        assert out["failed"] == 0
        assert out["split_sound"] is (variant == "seed_early_exit")
        assert (out["metrics"]["oracle.eliminations"] == 0) is (variant != "seed_early_exit")


# --- reference check ----------------------------------------------------------------


def test_reference_check_fails_on_an_altered_answer():
    import fatpoint3 as fp
    import fatpoint3.cli

    ref = refmod.load()
    report = fp.verify_grid(2, 1, 2, fp.OracleConfig(seeds=(1, 2, 3)))
    assert refmod.grid_failures(report, ref) == 0
    conj, orc = ref["grid"]["2 1 2"]
    altered = dict(ref, grid=dict(ref["grid"], **{"2 1 2": [conj, orc + 1]}))
    assert refmod.grid_failures(report, altered) == 1

    answer = refmod.window_answer(fp, 4, 2, fp.OracleConfig(seeds=(1, 2)))
    assert not refmod.window_failed(answer, 4, 2, ref)
    assert refmod.window_failed(answer[:2] + [answer[2] + 1], 4, 2, ref)

    entry = ref["pool"][0]
    assert not refmod.pipeline_failed(refmod.pipeline_answer(fp, entry[0]), entry)
    assert refmod.pipeline_failed(refmod.pipeline_answer(fp, entry[0]), [entry[0], entry[1] + 1] + entry[2:])
    stdout = refmod.cli_stdout(fatpoint3.cli, entry[0])
    assert not refmod.cli_failed(0, stdout, entry)
    assert refmod.cli_failed(0, stdout + " ", entry)
    assert refmod.cli_failed(1, stdout, entry)


def test_altered_reference_makes_operations_fail():
    import fatpoint3 as fp

    import worker

    ref = refmod.load()
    smoke = worker.SIZES["smoke"]
    assert worker.run_grid(fp, ref, 1, 0.0, smoke)["failed"] == 0
    assert worker.trace_grid(fp, ref, 1, smoke)["failed"] == 0
    key = next(iter(ref["grid"]))
    ref["grid"][key] = [ref["grid"][key][0] + 1, ref["grid"][key][1]]
    assert worker.run_grid(fp, ref, 1, 0.0, smoke)["failed"] >= 1
    assert worker.trace_grid(fp, ref, 1, smoke)["failed"] >= 1


# --- smoke runs through the command the contract names ------------------------------


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_trace_prints_every_per_layer_metric():
    proc = _bench("--workload", "reduce", "--seed", "2", "--trace", "1", "--smoke")
    result = _result(proc)
    assert result["correct"]
    assert "  oracle.split_sound true" in proc.stdout.splitlines()
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
