import os
import subprocess
import sys
from pathlib import Path

import pytest

import fatpoint3.speciality as speciality_module
from fatpoint3 import (
    CREMONA,
    REMOVE_COMPONENT,
    REMOVE_QUADRIC,
    LinearSystem,
    VERDICT_EMPTY,
    VERDICT_NON_SPECIAL,
    VERDICT_PROCEDURE,
    VERDICT_SPECIAL,
    classify_homogeneous,
    conjectured_dimension,
    dimension_lower_bound,
    gamma_cycle,
    grouped_steps,
    is_special,
    is_standard_form,
    normalize,
    quadric_pencil_dimension,
    quadric_pencil_system,
    quadric_triple,
    remove_quadrics,
    speciality_correction,
    virtual_dimension,
)
from fatpoint3.literals import format_system, parse_system


def test_gamma_cycle_single_big_point():
    cycle = gamma_cycle(parse_system("6 6 2^4"))
    assert cycle.as_dict() == {(0, j): 2 for j in range(1, 5)}


def test_gamma_cycle_eight_lines():
    cycle = gamma_cycle(parse_system("14 10 6^8"))
    assert cycle.as_dict() == {(0, j): 2 for j in range(1, 9)}


def test_gamma_cycle_empty_for_simple_points():
    assert gamma_cycle(parse_system("5 1^12")).as_dict() == {}


def test_speciality_correction_values():
    assert speciality_correction(parse_system("6 6 2^4")) == 4
    assert speciality_correction(parse_system("14 10 6^8")) == 8
    assert speciality_correction(parse_system("9 4^6")) == 0


def test_quadric_triple_reference_value():
    assert quadric_triple(parse_system("16 11 7^8")) == -2


def test_quadric_triple_closed_form_value():
    assert quadric_triple(parse_system("8 4^9")) == -18


def test_quadric_triple_degenerate_difference():
    assert quadric_triple(parse_system("2 1^9")) == 0


def test_quadric_triple_needs_nine_points():
    with pytest.raises(ValueError):
        quadric_triple(parse_system("6 6 2^4"))


def test_remove_quadrics_single_step():
    final, steps = remove_quadrics(parse_system("16 11 7^8"))
    assert final == parse_system("14 10 6^8")
    assert len(steps) == 1 and steps[0].kind == REMOVE_QUADRIC


def test_remove_quadrics_iterates_closed_form():
    # triple test values along the chain: -18, -10, -4, then 0 stops it
    system = parse_system("8 4^9")
    values = []
    current = system
    while current.npoints >= 9 and quadric_triple(current) < 0:
        values.append(quadric_triple(current))
        current = normalize(
            LinearSystem(current.degree - 2, tuple(m - 1 for m in current.mults[:9]) + current.mults[9:])
        )
    assert values == [-18, -10, -4]
    final, steps = remove_quadrics(system)
    assert final == parse_system("2 1^9")
    assert len(steps) == 3
    assert all(is_standard_form(step.after) for step in steps)


def test_remove_quadrics_no_op_below_nine_points():
    final, steps = remove_quadrics(parse_system("6 6 2^4"))
    assert final == parse_system("6 6 2^4") and steps == ()


def test_remove_quadrics_stops_below_degree_two():
    # iterated removal can land on degree-0 states where the triple test is
    # still negative; a quadric cannot divide anything of degree below 2
    final, steps = remove_quadrics(parse_system("6 3^12"))
    assert final == parse_system("0 1^9")
    assert [format_system(s.after) for s in steps] == ["4 3^3 2^9", "2 2^6 1^6", "0 1^9"]


def test_overloaded_sextic_families_are_empty():
    for r in (10, 11, 12):
        dim, trace = conjectured_dimension(LinearSystem(6, (3,) * r))
        assert dim == -1 and trace.empty


KNOWN_DIMENSIONS = [
    ("7 4^6", 3),
    ("12 7^6", 0),
    ("10 6^5", 15),
    ("16 11 7^8", 19),
    ("3 3^3", 0),
]


@pytest.mark.parametrize("literal, expected", KNOWN_DIMENSIONS)
def test_conjectured_dimension_fixtures(literal, expected):
    dim, trace = conjectured_dimension(parse_system(literal))
    assert dim == expected
    assert trace.final == trace.steps[-1].after if trace.steps else True


def test_conjectured_dimension_trace_for_quadric_case():
    dim, trace = conjectured_dimension(parse_system("16 11 7^8"))
    assert [(k, format_system(s)) for k, s in grouped_steps(trace)] == [
        (REMOVE_QUADRIC, "14 10 6^8")
    ]


def test_conjectured_dimension_accepts_negative_degree_as_empty():
    dim, trace = conjectured_dimension(LinearSystem(-1, (1, 1)))
    assert dim == -1 and trace.empty


def test_is_special_values():
    assert is_special(parse_system("10 6^5")) == (True, 10)
    assert is_special(parse_system("16 11 7^8")) == (True, 9)
    assert is_special(parse_system("2 1^4")) == (False, 0)
    assert is_special(parse_system("3 4")) == (False, 0)  # empty


# special, an unnormalized input, an empty reduction, and a multiplicity
# above the degree after two quadric removals
@pytest.mark.parametrize("literal", ["10 6^5", "16 7^8 11", "3 4", "4 2^10"])
def test_is_special_after_the_procedure_runs_it_once(monkeypatch, literal):
    system = parse_system(literal)
    expected = is_special(system)
    runs = []
    reduce_to_standard = speciality_module.reduce_to_standard

    def counted(system):
        runs.append(system)
        return reduce_to_standard(system)

    monkeypatch.setattr(speciality_module, "reduce_to_standard", counted)
    conjectured_dimension(system)
    assert is_special(system) == expected
    assert len(runs) == 1


def test_is_special_answers_for_its_own_system():
    # same multiplicities, another degree: L(10; 6^5) is special, L(11; 6^5) is not
    conjectured_dimension(parse_system("10 6^5"))
    assert is_special(parse_system("11 6^5")) == (False, 0)
    # the unnormalized input and its normal form, either one run first
    raw, normal = parse_system("16 7^8 11"), parse_system("16 11 7^8")
    for first, second in ((raw, normal), (normal, raw), (raw, raw)):
        conjectured_dimension(first)
        assert is_special(second) == (True, 9)
    # after each -1 path, the next system is not taken as empty
    for empty in ("3 4", "4 2^10"):
        assert conjectured_dimension(parse_system(empty))[0] == -1
        assert is_special(parse_system("10 6^5")) == (True, 10)
        conjectured_dimension(parse_system("10 6^5"))
        assert is_special(parse_system(empty)) == (False, 0)


def test_is_special_before_any_procedure_run():
    src = str(Path(speciality_module.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "from fatpoint3 import LinearSystem, is_special; print(is_special(LinearSystem(10, (6,) * 5)))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=120)
    assert proc.stdout == "(True, 10)\n"


def test_speciality_correction_of_one_line():
    # two points, one line: t = 2 gives C(3, 3) = 1 and t = 3 gives C(4, 3) = 4;
    # an excess below 2 contributes nothing
    assert speciality_correction(parse_system("6 6 2")) == 1
    assert speciality_correction(parse_system("3 3^2")) == 4
    assert speciality_correction(parse_system("6 4 3")) == 0


def test_line_bound_overshoots_on_non_standard_input():
    # three concurrent triple lines each promise 4, but the true excess is 11:
    # the bound is only honest after reduction to standard form
    system = parse_system("3 3^3")
    dim, _ = conjectured_dimension(system)
    actual_excess = dim - virtual_dimension(system)
    assert speciality_correction(system) == 12 and actual_excess == 11


def test_classify_homogeneous_verdicts():
    assert classify_homogeneous(5, 3, 8) == VERDICT_EMPTY
    assert classify_homogeneous(20, 10, 9) == VERDICT_SPECIAL
    assert classify_homogeneous(9, 4, 10) == VERDICT_NON_SPECIAL
    assert classify_homogeneous(8, 4, 8) == VERDICT_NON_SPECIAL
    assert classify_homogeneous(5, 3, 7) == VERDICT_PROCEDURE
    assert classify_homogeneous(4, 0, 9) == VERDICT_NON_SPECIAL


def test_classify_homogeneous_sign_test_equivalence():
    # special exactly when 2(d+1)^2 < 9m(m+1) in the r = 9, d >= 2m range
    for m in range(1, 11):
        for d in range(2 * m, 2 * m + 4):
            verdict = classify_homogeneous(d, m, 9)
            assert (verdict == VERDICT_SPECIAL) == (2 * (d + 1) ** 2 < 9 * m * (m + 1))


def test_standard_homogeneous_below_eight_points_never_special():
    from fatpoint3 import expected_dimension

    for m in range(1, 5):
        for r in range(1, 8):
            for d in range(2 * m, 2 * m + 3):
                assert classify_homogeneous(d, m, r) == VERDICT_NON_SPECIAL
                system = normalize(LinearSystem(d, (m,) * r))
                assert conjectured_dimension(system)[0] == expected_dimension(system)


def test_quadric_pencil_reports():
    assert quadric_pencil_dimension((1, 1)) == (0, 0, False)
    assert quadric_pencil_dimension((2,)) == (0, -2, True)
    assert quadric_pencil_dimension((1,)) == (0, 0, False)
    assert quadric_pencil_system((2, 1)) == parse_system("6 3^8 2 1")


@pytest.mark.parametrize("degree, mult, npoints", [(-1, 1, 1), (4, -1, 1), (4, 1, 0)])
def test_classify_homogeneous_refuses_arguments_out_of_range(degree, mult, npoints):
    with pytest.raises(ValueError, match="at least one point"):
        classify_homogeneous(degree, mult, npoints)


@pytest.mark.parametrize("weights", [(), (1, 0), (2, -1)])
def test_quadric_pencils_refuse_weights_that_are_not_positive(weights):
    with pytest.raises(ValueError, match="positive integers"):
        quadric_pencil_system(weights)
    with pytest.raises(ValueError, match="positive integers"):
        quadric_pencil_dimension(weights)


def test_quadric_removals_refuse_a_trace_past_the_budget():
    # L(2m; m^9, 1^90000) loses a quadric at every step down to degree 2: the
    # 39 steps of m = 40 fit, the 99 of m = 100 would hold 9 million
    # multiplicities and do not
    _, steps = remove_quadrics(LinearSystem(80, (40,) * 9 + (1,) * 90_000))
    assert len(steps) == 39
    with pytest.raises(ValueError, match="budget"):
        remove_quadrics(LinearSystem(200, (100,) * 9 + (1,) * 90_000))
    # the procedure at the point cap: five removals over 90,009 points
    dim, trace = conjectured_dimension(parse_system("12 6^9 1^90000"))
    assert dim == -1 and [step.kind for step in trace.steps] == [REMOVE_QUADRIC] * 5


def test_quadric_pencil_virtual_matches_direct_count():
    for weights in [(1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1)]:
        report = quadric_pencil_dimension(weights)
        assert report.virtual == virtual_dimension(quadric_pencil_system(weights))


def test_correction_never_applied_before_standard_form():
    # the naive value v + correction on the raw system would be 1, not 0
    system = parse_system("3 3^3")
    naive = virtual_dimension(system) + speciality_correction(system)
    assert naive == 1
    dim, trace = conjectured_dimension(system)
    assert dim == 0
    assert [step.kind for step in trace.steps] == [CREMONA, REMOVE_COMPONENT]


@pytest.mark.parametrize(
    "literal, bound, dimension",
    [
        ("4 2^9", 0, 0),  # quadric-special: the quadric through the nine points
        ("2 2^2", 1, 2),  # line-special: cones over the line, which v misses
        ("6 4^2 2^3", 31, 32),  # line-special, t = 2 on the line of the two 4s
        ("2 3", -1, -1),  # empty: a multiplicity above the degree
        ("4 2^10", -1, -1),  # empty after two quadric removals
        ("2 2^3", 0, 0),  # the double plane, found by a Cremona step (v = -3)
        ("4 3^4", 0, 0),  # the tetrahedron x0 x1 x2 x3, by a Cremona step (v = -6)
        ("8 3^9", 74, 74),  # non-special
        ("0", 0, 0),
    ],
)
def test_dimension_lower_bound_values(literal, bound, dimension):
    system = parse_system(literal)
    assert dimension_lower_bound(system) == bound
    assert conjectured_dimension(system)[0] == dimension

