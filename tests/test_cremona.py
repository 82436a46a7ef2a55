import pytest

import fatpoint3.cremona as cremona_module
from fatpoint3 import (
    CREMONA,
    REMOVE_COMPONENT,
    CurveClass,
    LinearSystem,
    LineCycle,
    ReductionStep,
    cremona_curve,
    cremona_curve_full,
    cremona_system,
    cremona_with_lines,
    curve_invariants,
    grouped_steps,
    is_standard_form,
    line_orbit,
    normalize,
    reduce_to_standard,
    render_trace,
)
from fatpoint3.literals import format_system, parse_system
from fatpoint3.systems import MAX_POINTS

FIRST_FOUR = (0, 1, 2, 3)


def test_cremona_system_reference_steps():
    assert normalize(cremona_system(parse_system("7 4^6"), FIRST_FOUR)) == parse_system(
        "5 4^2 2^4"
    )
    assert normalize(cremona_system(parse_system("3 2^4"), FIRST_FOUR)) == parse_system("1")


def test_cremona_system_pads_missing_points():
    out = cremona_system(parse_system("3 3^3"), FIRST_FOUR)
    assert out == LinearSystem(0, (0, 0, 0, -3))
    assert normalize(out) == parse_system("0 -3")


def test_cremona_refuses_an_index_past_the_point_cap():
    # padding up to index 10^12 would be a list of 8 TB
    with pytest.raises(ValueError, match="exceed the limit"):
        cremona_system(parse_system("5 2^3"), (0, 1, 2, 10**12))
    with pytest.raises(ValueError, match="exceed the limit"):
        cremona_curve(CurveClass(1, (1, 1)), (0, 1, 2, 10**12))
    assert cremona_system(LinearSystem(1), (0, 1, 2, MAX_POINTS - 1)).npoints == MAX_POINTS


def test_cremona_system_fixed_point():
    system = parse_system("2 1^4")
    assert cremona_system(system, FIRST_FOUR) == system


def test_cremona_system_rejects_repeated_indices():
    with pytest.raises(ValueError):
        cremona_system(parse_system("3 2^4"), (0, 1, 2, 2))


def test_cremona_system_rejects_negative_indices():
    with pytest.raises(ValueError, match="non-negative"):
        cremona_system(parse_system("3 2^4"), (-1, 0, 1, 2))


def test_cremona_with_lines_needs_four_points():
    with pytest.raises(ValueError, match="exactly four points"):
        cremona_with_lines(3, (2, 2, 2), LineCycle())


def test_cremona_curve_line_to_twisted_cubic():
    line = CurveClass(1, (1, 1, 0, 0, 0, 0))
    assert cremona_curve(line, (2, 3, 4, 5)) == CurveClass(3, (1,) * 6)


def test_cremona_curve_cubic_back_to_line():
    cubic = CurveClass(3, (1,) * 6)
    image = cremona_curve(cubic, FIRST_FOUR)
    assert image == CurveClass(1, (0, 0, 0, 0, 1, 1))


def test_cremona_curve_fixed_when_h_zero():
    quartic = CurveClass(4, (2, 2, 0, 0, 1))
    assert cremona_curve(quartic, FIRST_FOUR) == quartic


def test_cremona_curve_rejects_incidences():
    with pytest.raises(ValueError):
        cremona_curve(CurveClass(1, (0, 0, 0, 0), ((0, 1, 1),)), FIRST_FOUR)


def test_cremona_curve_full_matches_plain_when_disjoint():
    curve = CurveClass(5, (2, 1, 1, 0, 3))
    plain = cremona_curve(curve, FIRST_FOUR)
    assert cremona_curve_full(curve) == plain


def test_cremona_curve_full_line_meeting_one_coordinate_line():
    # hand evaluation: a line meeting l_12 once maps to a conic through p1, p2
    # meeting l_34 once
    line = CurveClass(1, (0, 0, 0, 0), ((0, 1, 1),))
    image = cremona_curve_full(line)
    assert image == CurveClass(2, (1, 1, 0, 0), ((2, 3, 1),))
    assert cremona_curve_full(image) == line


def test_cremona_curve_full_is_involution_on_samples():
    samples = [
        CurveClass(4, (2, 1, 0, 1), ((0, 2, 1), (1, 3, 2))),
        CurveClass(2, (1, 1, 1, 1)),
        CurveClass(3, (0, 0, 1, 2), ((0, 1, -1),)),
    ]
    for curve in samples:
        assert cremona_curve_full(cremona_curve_full(curve)) == curve


def test_cremona_with_lines_reference_value():
    d, mults, cycle = cremona_with_lines(3, (2, 2, 2, 2), LineCycle())
    assert d == 1 and mults == (0, 0, 0, 0)
    assert cycle.as_dict() == {pair: -1 for pair in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}


def test_cremona_with_lines_involution():
    start = (5, (3, 1, 2, 0), LineCycle.from_dict({(0, 1): 2, (2, 3): -1}))
    once = cremona_with_lines(*start)
    again = cremona_with_lines(*once)
    assert again == start


def test_cremona_with_lines_fixed_zero_system():
    assert cremona_with_lines(0, (0, 0, 0, 0), LineCycle()) == (0, (0, 0, 0, 0), LineCycle())


def test_is_standard_form():
    assert is_standard_form(parse_system("6 6 2^4"))
    assert not is_standard_form(parse_system("7 4^6"))
    assert is_standard_form(parse_system("5"))
    assert not is_standard_form(parse_system("3 2 -1"))
    assert not is_standard_form(LinearSystem(-1))


def test_reduce_three_cremona_steps():
    trace = reduce_to_standard(parse_system("7 4^6"))
    assert not trace.empty
    assert trace.final == parse_system("1")
    assert [step.kind for step in trace.steps] == [CREMONA] * 3
    assert [format_system(s) for _, s in grouped_steps(trace)] == [
        "5 4^2 2^4",
        "3 2^4",
        "1",
    ]


def test_reduce_with_component_removals():
    trace = reduce_to_standard(parse_system("12 7^6"))
    assert trace.final == parse_system("0")
    kinds = [step.kind for step in trace.steps]
    assert kinds == [
        CREMONA,
        CREMONA,
        REMOVE_COMPONENT,
        REMOVE_COMPONENT,
        CREMONA,
    ] + [REMOVE_COMPONENT] * 4
    displayed = [(kind, format_system(s)) for kind, s in grouped_steps(trace)]
    assert displayed == [
        (CREMONA, "8 7^2 3^4"),
        (CREMONA, "4 3^4 -1^2"),
        (REMOVE_COMPONENT, "4 3^4"),
        (CREMONA, "0 -1^4"),
        (REMOVE_COMPONENT, "0"),
    ]
    # every component removal records the stripped multiplicity
    assert all(
        step.alpha == 1 for step in trace.steps if step.kind == REMOVE_COMPONENT
    )


def test_reduce_steps_chain_and_replay():
    trace = reduce_to_standard(parse_system("12 7^6"))
    for prev, nxt in zip(trace.steps, trace.steps[1:]):
        assert prev.after == nxt.before
    for step in trace.steps:
        if step.kind == CREMONA:
            assert normalize(cremona_system(step.before, step.indices)) == step.after


def test_reduce_detects_empty_homogeneous_families():
    # d = 2m-1 with 8 points is empty
    for m in (2, 3, 4):
        trace = reduce_to_standard(LinearSystem(2 * m - 1, (m,) * 8))
        assert trace.empty


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_alternating_reduction_closed_form(m):
    # independent route to the emptiness above: transforming on the four
    # largest multiplicities walks the family
    # L^i = (2m-2i^2-1; (m-i^2+i)^4, (m-i^2-i)^4) until a multiplicity
    # exceeds the degree
    system = normalize(LinearSystem(2 * m - 1, (m,) * 8))
    i = 0
    while True:
        i += 1
        hi, lo = m - i * i + i, m - i * i - i
        system = normalize(cremona_system(system, (0, 1, 2, 3)))
        assert system == normalize(
            LinearSystem(2 * m - 2 * i * i - 1, (hi,) * 4 + (lo,) * 4)
        )
        if lo <= 0:
            assert system.degree < hi
            break


def long_chain(steps: int) -> LinearSystem:
    """L(10; 4^8) transformed away from standard form ``steps`` times,
    alternately on its first and last four points; the degree grows
    quadratically in the steps, so the reduction takes all of them back."""
    system = LinearSystem(10, (4,) * 8)
    for i in range(steps):
        system = cremona_system(system, FIRST_FOUR if i % 2 == 0 else (4, 5, 6, 7))
    return system


def test_reduction_refuses_a_trace_past_its_budget():
    chain = long_chain(150)
    assert chain.degree == 90_010
    assert len(reduce_to_standard(chain).steps) == 150
    # over 90,000 more simple points the same steps would hold 150 x 90,008
    # multiplicities; the budget stops the reduction after 46
    with pytest.raises(ValueError, match="budget"):
        reduce_to_standard(LinearSystem(chain.degree, chain.mults + (1,) * 90_000))
    # one removal per negative point, each a copy of the rest: 2,000 fit, 4,000 do not
    assert len(reduce_to_standard(LinearSystem(10, (-1,) * 2000)).steps) == 2000
    with pytest.raises(ValueError, match="budget"):
        reduce_to_standard(LinearSystem(10, (-1,) * 4000))


def test_trace_budget_is_charged_before_each_step(monkeypatch):
    # L(7; 4^6) takes three Cremona steps, charged its points, 128 and the
    # bits of its largest integer: 6 + 128 + 3, 6 + 128 + 3 and 4 + 128 + 2
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return ReductionStep(*args, **kwargs)

    monkeypatch.setattr(cremona_module, "ReductionStep", counted)
    monkeypatch.setattr(cremona_module, "_MAX_TRACE_UNITS", 408)
    assert len(reduce_to_standard(parse_system("7 4^6")).steps) == 3
    built.clear()
    monkeypatch.setattr(cremona_module, "_MAX_TRACE_UNITS", 407)
    with pytest.raises(ValueError, match="budget of 407 units"):
        reduce_to_standard(parse_system("7 4^6"))
    assert len(built) == 2


def test_reduce_empty_when_mult_exceeds_degree():
    trace = reduce_to_standard(LinearSystem(1, (2,)))
    assert trace.empty and not trace.steps


def test_reduce_already_standard_is_a_no_op():
    trace = reduce_to_standard(parse_system("6 6 2^4"))
    assert trace.steps == () and trace.final == parse_system("6 6 2^4")


def test_render_trace_arrows():
    trace = reduce_to_standard(parse_system("12 7^6"))
    text = render_trace(trace)
    assert text.splitlines() == [
        "12 7^6",
        "  ->(i) 8 7^2 3^4",
        "  ->(i) 4 3^4 -1^2",
        "  ->(ii) 4 3^4",
        "  ->(i) 0 -1^4",
        "  ->(ii) 0",
    ]


def test_render_trace_ends_an_empty_trace_with_a_mark():
    trace = reduce_to_standard(LinearSystem(1, (2,)))
    assert render_trace(trace).splitlines() == ["1 2", "  (empty)"]


def test_curve_invariants_reference_values():
    assert curve_invariants(CurveClass(1, (1, 1))) == (0, 0)
    assert curve_invariants(CurveClass(4, (1,) * 8)) == (0, 3)
    assert curve_invariants(CurveClass(3, (1,) * 6)) == (0, 0)


def test_curve_invariants_refuse_incidence_data():
    with pytest.raises(ValueError, match="plain curve classes"):
        curve_invariants(CurveClass(2, (1, 1, 0, 0), ((2, 3, 1),)))


@pytest.mark.parametrize(
    "npoints, max_degree, message",
    [(1, 5, "point count"), (11, 5, "point count"), (6, 0, "degree cap"), (6, 51, "degree cap")],
)
def test_line_orbit_refuses_arguments_out_of_range(npoints, max_degree, message):
    with pytest.raises(ValueError, match=message):
        line_orbit(npoints, max_degree)


def test_line_orbit_contains_twisted_cubic():
    orbit = line_orbit(6, 3)
    assert CurveClass(3, (1,) * 6) in orbit
    assert all(flag for flag in orbit.values())


def test_line_orbit_excludes_eight_point_quartic():
    orbit = line_orbit(8, 4)
    assert CurveClass(4, (1,) * 8) not in orbit


def test_line_orbit_members_share_the_line_invariants():
    for curve in line_orbit(8, 9):
        assert curve_invariants(curve) == (0, 0)


def test_line_orbit_degree_cap_one_keeps_only_the_line():
    orbit = line_orbit(6, 1)
    assert list(orbit) == [CurveClass(1, (1, 1, 0, 0, 0, 0))]


def test_line_orbit_monotone_evidence_at_desk_scale():
    # every reachable class is also reachable with strictly increasing
    # degrees, and the degrees come out odd
    orbit = line_orbit(9, 11)
    assert len(orbit) == 12
    assert all(orbit.values())
    assert all(curve.degree % 2 == 1 for curve in orbit)
