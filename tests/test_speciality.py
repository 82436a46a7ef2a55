import pytest

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
    gamma_cycle,
    grouped_steps,
    is_special,
    is_standard_form,
    line_speciality_bound,
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


def test_line_speciality_bound():
    assert line_speciality_bound(parse_system("6 6 2^4"), (0, 1)) == 1
    assert line_speciality_bound(parse_system("3 3^3"), (0, 1)) == 4
    with pytest.raises(ValueError):
        line_speciality_bound(parse_system("6 6 2^4"), (1, 2))


def test_line_bound_overshoots_on_non_standard_input():
    # three concurrent triple lines each promise 4, but the true excess is 11:
    # the bound is only honest after reduction to standard form
    system = parse_system("3 3^3")
    per_line = sum(
        line_speciality_bound(system, pair) for pair in [(0, 1), (0, 2), (1, 2)]
    )
    dim, _ = conjectured_dimension(system)
    actual_excess = dim - virtual_dimension(system)
    assert per_line == 12 and actual_excess == 11


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
