import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import fatpoint3
from fatpoint3 import DEFAULT_CONFIG, LinearSystem, normalize
from fatpoint3.cli import main
from fatpoint3.cremona import cremona_system
from fatpoint3.literals import format_system, parse_system
import fatpoint3.cli as cli_module
import fatpoint3.speciality as speciality_module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_plain(capsys):
    code, out, _ = run(capsys, "dim", "10 6^5")
    assert code == 0
    assert "conjectured dimension: 15" in out
    assert "expected dimension: 5" in out
    assert "special" in out


def test_dim_trace(capsys):
    code, out, _ = run(capsys, "dim", "12 7^6", "--trace")
    assert code == 0
    assert "conjectured dimension: 0" in out
    arrows = [line.strip() for line in out.splitlines() if line.strip().startswith("->")]
    assert arrows == [
        "->(i) 8 7^2 3^4",
        "->(i) 4 3^4 -1^2",
        "->(ii) 4 3^4",
        "->(i) 0 -1^4",
        "->(ii) 0",
    ]


def test_dim_trace_of_an_empty_system(capsys):
    code, out, _ = run(capsys, "dim", "3 4", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert "verdict: empty" in lines and lines[-1] == "  (empty)"


@pytest.mark.parametrize("argv", [["12 7^6"], ["10 6^5", "--json"], ["3 4", "--trace"]])
def test_dim_runs_the_procedure_once(capsys, monkeypatch, argv):
    runs = []
    reduce_to_standard = speciality_module.reduce_to_standard

    def counted(system):
        runs.append(system)
        return reduce_to_standard(system)

    monkeypatch.setattr(speciality_module, "reduce_to_standard", counted)
    code, _, _ = run(capsys, "dim", *argv)
    assert code == 0 and len(runs) == 1


@pytest.mark.parametrize("argv", [["12 7^6"], ["10 6^5", "--json"], ["3 4", "--trace"]])
def test_dim_counts_the_virtual_dimension_once(capsys, monkeypatch, argv):
    # the expected dimension, the excess and the JSON field share one pass
    # over the points; the procedure's own closing count is on its final system
    import fatpoint3.systems as systems_module

    system = normalize(parse_system(argv[0]))
    passes = []
    virtual_dimension = systems_module.virtual_dimension

    def counted(other):
        passes.append(other)
        return virtual_dimension(other)

    for module in (systems_module, cli_module):
        monkeypatch.setattr(module, "virtual_dimension", counted)
    code, _, _ = run(capsys, "dim", *argv)
    assert code == 0 and passes == [system]


def test_dim_point_free(capsys):
    code, out, _ = run(capsys, "dim", "0")
    assert code == 0 and "conjectured dimension: 0" in out


def test_dim_json_validates_and_replays(capsys):
    code, out, _ = run(capsys, "dim", "12 7^6", "--json")
    assert code == 0
    payload = json.loads(out)
    schema = json.loads(
        resources.files("fatpoint3").joinpath("schemas/trace.schema.json").read_text()
    )
    jsonschema.validate(payload, schema)
    # replaying the recorded steps lands on the recorded final system
    state = normalize(parse_system(payload["system"]))
    for step in payload["trace"]:
        assert parse_system(step["before"]) == state
        if step["kind"] == "cremona":
            state = normalize(cremona_system(state, tuple(step["indices"])))
        elif step["kind"] == "remove_component":
            i = step["indices"][0]
            state = normalize(
                LinearSystem(state.degree, state.mults[:i] + (0,) + state.mults[i + 1 :])
            )
        else:
            state = normalize(
                LinearSystem(
                    state.degree - 2,
                    tuple(m - 1 for m in state.mults[:9]) + state.mults[9:],
                )
            )
        assert parse_system(step["after"]) == state
    assert parse_system(payload["final"]) == state


def test_dim_parse_error_names_token(capsys):
    code, _, err = run(capsys, "dim", "3 2^x")
    assert code == 1
    assert "2^x" in err


def test_trace_budget_exits_1(capsys):
    # 150 Cremona steps over 90,008 points; the trace budget refuses them
    system = LinearSystem(10, (4,) * 8)
    for i in range(150):
        system = cremona_system(system, (0, 1, 2, 3) if i % 2 == 0 else (4, 5, 6, 7))
    code, out, err = run(capsys, "dim", format_system(system) + " 1^90000")
    assert code == 1 and out == "" and "trace would pass its budget" in err


def test_point_cap_exits_1(capsys):
    code, out, err = run(capsys, "dim", f"12 1^{10**12}")
    assert code == 1 and out == "" and "exceed the limit" in err
    code, out, err = run(capsys, "transform", "5 2^3", "1", "2", "3", str(10**12))
    assert code == 1 and out == "" and "exceed the limit" in err


_PROBE = """
import json, sys
import fatpoint3
from fatpoint3.cli import main
loaded = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    main(argv)
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded), file=sys.stderr)
"""


def fresh_main(*argvs):
    """Run ``main`` on each argv in a new interpreter. Returns its stdout, and
    whether numpy was loaded after ``import fatpoint3`` and after each call."""
    src = str(Path(fatpoint3.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=True,
    )
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def test_procedure_commands_load_no_numpy():
    _, loaded = fresh_main(
        ["dim", "12 7^6", "--trace"],
        ["dim", "12 7^6", "--json"],
        ["transform", "7 4^6", "1", "2", "3", "4"],
        ["orbit", "--points", "6", "--max-degree", "3"],
    )
    assert loaded == [False] * 5


def test_oracle_loads_numpy_on_first_use():
    out, loaded = fresh_main(["oracle", "12 7^6", "--json"])
    assert loaded == [False, True]
    payload = json.loads(out)
    assert payload["ranks"] == [454, 454, 454] and payload["dimension"] == 0


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "2 1^9", "--seeds", "1,2")
    assert code == 0
    assert "dimension: 0" in out
    assert "matrix: 9 x 10" in out
    assert "certified: yes" in out


def test_oracle_command_triple_point_plane(capsys):
    code, out, _ = run(capsys, "oracle", "3 3^3", "--seeds", "1")
    assert code == 0 and "dimension: 0" in out


def test_oracle_max_cols_guard(capsys):
    # the library's size rule refuses C(63, 3) = 39,711 columns
    code, _, err = run(capsys, "oracle", "60")
    assert code == 1 and "exceeds the dense limit of 20000 columns" in err
    code, out, _ = run(capsys, "oracle", "30", "--seeds", "1")
    assert code == 0 and "dimension: 5455" in out


def test_oracle_refuses_a_negative_degree(capsys):
    code, out, err = run(capsys, "oracle", "-5")
    assert code == 1 and out == "" and "degree must be non-negative" in err


def test_oracle_defaults_to_the_library_placement(capsys):
    code, out, _ = run(capsys, "oracle", "16 7^9", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["point_mode"] == "fundamental_plus_random" and payload["dimension"] == 212
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--help"])
    assert exc.value.code == 0
    assert "(default: fundamental_plus_random)" in " ".join(capsys.readouterr().out.split())


def test_oracle_refuses_more_points_than_the_field_has(capsys):
    code, _, err = run(capsys, "oracle", "1 1^9", "--prime", "2", "--point-mode", "all_random")
    assert code == 1 and "only 8 distinct points" in err
    code, _, err = run(capsys, "oracle", "1 1^12", "--prime", "2")  # plus three vertices
    assert code == 1 and "only 11 distinct points" in err


def test_oracle_env_prime(capsys):
    # a prime other than the default reaches the report
    code, out, _ = run(capsys, "oracle", "2 1^9", "--prime", "1000003", "--seeds", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["prime"] == 1000003 and payload["certified"] is True


@pytest.mark.parametrize("command", ["oracle", "verify"])
def test_help_shows_every_oracle_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    seeds = ",".join(map(str, DEFAULT_CONFIG.seeds))
    assert f"field characteristic (default: {DEFAULT_CONFIG.prime})" in text
    assert f"comma-separated seeds (default: {seeds})" in text
    assert f"(default: {DEFAULT_CONFIG.point_mode})" in text
    args = cli_module.build_parser().parse_args([command] + (["2 1^9"] if command == "oracle" else []))
    assert cli_module._config(args) == DEFAULT_CONFIG


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dim", "-1 2"], "degree must be non-negative"),
        (["verify", "--homogeneous"], "--homogeneous requires --r"),
        (["verify", "--seeds", "1,x"], "bad seed list '1,x'"),
        (["transform", "7 4^6", "0", "1", "2", "3"], "1-based"),
        (["transform", "--curve", "1 0 0 0 0 b 1 2 1", "2", "3", "4", "5"], "points 1 2 3 4"),
        (["oracle", "3 1^4", "--seeds", "1,1"], "seeds must be distinct"),
        (["verify", "--rmax", "-3"], "needs m_max >= 1 and r_max >= 1"),
        (["verify", "--homogeneous", "--r", "9", "--mmax", "0"], "needs m_max >= 1"),
        (["verify", "--dmax", "1", "--mmax", "200000", "--rmax", "1"],
         "a verify box of 400000 cells exceeds the limit of 100000"),
        (["verify", "--homogeneous", "--r", "9", "--mmax", "1000000000"], "exceeds the dense limit"),
    ],
)
def test_refused_input_exits_1_with_nothing_on_stdout(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:  # the parser refuses a bad seed list
        code = exc.code
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and message in captured.err


def test_transform_system(capsys):
    code, out, _ = run(capsys, "transform", "7 4^6", "1", "2", "3", "4")
    assert code == 0 and out.strip() == "5 4 4 2 2 2 2"


def test_transform_curve(capsys):
    code, out, _ = run(capsys, "transform", "--curve", "1 1 1 0 0 0 0", "3", "4", "5", "6")
    assert code == 0 and out.strip() == "3 1 1 1 1 1 1"


def test_transform_fixed_point(capsys):
    code, out, _ = run(capsys, "transform", "2 1^4", "1", "2", "3", "4")
    assert code == 0 and out.strip() == "2 1 1 1 1"


def test_transform_incidence_curve(capsys):
    code, out, _ = run(capsys, "transform", "--curve", "1 0 0 0 0 b 1 2 1", "1", "2", "3", "4")
    assert code == 0 and out.strip() == "2 1 1 0 0 b 3 4 1"


def test_transform_bad_indices(capsys):
    code, _, err = run(capsys, "transform", "7 4^6", "1", "2", "3", "3")
    assert code == 1 and "distinct" in err


def test_orbit_lists_cubic(capsys):
    code, out, _ = run(capsys, "orbit", "--points", "6", "--max-degree", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.startswith("3 1 1 1 1 1 1") for line in lines)
    assert all("invariants 0 0" in line for line in lines)
    assert all("monotone" in line for line in lines)


def test_orbit_requires_degree_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--points", "6"])
    assert exc.value.code == 1


def test_verify_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--dmax", "3", "--mmax", "2", "--rmax", "4", "--seeds", "1")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 4 * 2 * 4
    assert all(row.endswith("ok") for row in rows)


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--dmax", "2", "--mmax", "1", "--rmax", "3", "--seeds", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == [] and payload["cells"] == 9


def test_verify_exit_code_on_mismatch(capsys, monkeypatch):
    # force a disagreement to confirm the reserved exit status
    import fatpoint3.oracle as oracle_module

    monkeypatch.setattr(
        oracle_module, "conjectured_dimension", lambda system: (99, None)
    )
    code, out, _ = run(capsys, "verify", "--dmax", "1", "--mmax", "1", "--rmax", "1", "--seeds", "1")
    assert code == 2 and "MISMATCH" in out


def test_verify_homogeneous_window(capsys):
    code, out, _ = run(capsys, "verify", "--homogeneous", "--r", "9", "--mmax", "3", "--seeds", "1")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    specials = {(int(r[0]), int(r[1])) for r in rows if r[3] == "special"}
    # special exactly where 2(d+1)^2 < 9m(m+1) in the scanned window
    expected = {
        (d, m)
        for m in range(1, 4)
        for d in range(2 * m, 2 * m + 3)
        if 2 * (d + 1) ** 2 < 9 * m * (m + 1)
    }
    assert specials == expected


def test_verify_homogeneous_json(capsys):
    code, out, _ = run(capsys, "verify", "--homogeneous", "--r", "9", "--mmax", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == 9 and payload["prime"] == DEFAULT_CONFIG.prime
    assert [(row["d"], row["m"]) for row in payload["rows"]] == [(2, 1), (3, 1), (4, 1)]
    for row in payload["rows"]:
        assert row["verdict"] in ("empty", "special", "non_special", "procedure_required")
        assert isinstance(row["h1"], int) and row["consistent"] is True
        assert all(isinstance(line, str) for line in row["trace"])


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim"])
    assert exc.value.code == 1
