"""Property-based checks of the algebraic identities behind the procedure."""

import math
import os
import sys
from itertools import zip_longest

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from fatpoint3 import (
    CREMONA,
    REMOVE_COMPONENT,
    VERDICT_SPECIAL,
    CurveClass,
    LinearSystem,
    LineCycle,
    ReductionStep,
    ReductionTrace,
    classify_homogeneous,
    conditions_matrix,
    conjectured_dimension,
    cremona_curve,
    cremona_curve_full,
    cremona_system,
    cremona_with_lines,
    curve_invariants,
    dimension_excess,
    expected_dimension,
    gamma_cycle,
    intersect_curve,
    is_special,
    is_standard_form,
    monomial_basis,
    normalize,
    quadric_triple,
    reduce_to_standard,
    remove_quadrics,
    speciality_correction,
    virtual_dimension,
)
from fatpoint3.literals import format_curve, format_system, parse_curve, parse_system

# the Python-integer evaluation of conditions lives beside the oracle's tests
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_oracle import _derivative_at, _orders  # noqa: E402


# Reference divisor algebra on the blow-up at r points, on plain tuples
# (a, (b_1, ..., b_r)) for a*H - sum b_i*E_i, short lists zero-padded:
# H^3 = E_i^3 = 1 and mixed monomials vanish, and K = (-4, (-2,) * r).
def _triple(*classes):
    points = zip_longest(*(b for _, b in classes), fillvalue=0)
    return math.prod(a for a, _ in classes) - sum(map(math.prod, points))


def _minus(first, second):
    pairs = zip_longest(first[1], second[1], fillvalue=0)
    return first[0] - second[0], tuple(x - y for x, y in pairs)


mult_lists = st.lists(st.integers(-4, 9), max_size=8).map(tuple)
quadruples = st.permutations(range(8)).map(lambda p: tuple(p[:4]))


@st.composite
def systems(draw):
    return LinearSystem(draw(st.integers(-3, 15)), draw(mult_lists))


@st.composite
def honest_systems(draw):
    """Non-negative degree and multiplicities bounded by it."""
    d = draw(st.integers(0, 12))
    r = draw(st.integers(0, 8))
    mults = tuple(draw(st.integers(0, d)) for _ in range(r))
    return LinearSystem(d, mults)


@st.composite
def plain_curves(draw):
    return CurveClass(draw(st.integers(-3, 12)), draw(mult_lists))


@st.composite
def full_curves(draw):
    mults = tuple(draw(st.integers(-3, 6)) for _ in range(4))
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    incidences = tuple((i, j, draw(st.integers(-2, 3))) for i, j in pairs)
    return CurveClass(draw(st.integers(-4, 10)), mults, incidences)


@given(systems(), quadruples)
def test_cremona_system_is_an_involution(system, idx):
    once = cremona_system(system, idx)
    twice = cremona_system(once, idx)
    padded = system.mults + (0,) * (twice.npoints - system.npoints)
    assert twice == LinearSystem(system.degree, padded)


@given(plain_curves(), quadruples)
def test_cremona_curve_is_an_involution(curve, idx):
    twice = cremona_curve(cremona_curve(curve, idx), idx)
    padded = curve.mults + (0,) * (twice.npoints - curve.npoints)
    assert twice == CurveClass(curve.degree, padded)


@given(full_curves())
def test_cremona_curve_full_is_an_involution(curve):
    assert cremona_curve_full(cremona_curve_full(curve)) == curve


@given(
    st.integers(-6, 12),
    st.tuples(st.integers(-4, 8), st.integers(-4, 8), st.integers(-4, 8), st.integers(-4, 8)),
    st.dictionaries(
        st.sampled_from([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        st.integers(-3, 3),
    ),
)
def test_cremona_with_lines_is_an_involution(degree, mults, weights):
    cycle = LineCycle.from_dict(weights)
    assert cremona_with_lines(*cremona_with_lines(degree, mults, cycle)) == (
        degree,
        mults,
        cycle,
    )


@given(honest_systems(), quadruples)
def test_virtual_dimension_change_formula(system, idx):
    # with 2d >= any three selected multiplicities, the change of v under the
    # transform is a signed count over pair excesses within the quadruple
    mults = system.mults + (0,) * max(0, max(idx) + 1 - system.npoints)
    selected = [mults[i] for i in idx]
    assume(all(2 * system.degree >= sum(selected) - m for m in selected))
    image = cremona_system(system, idx)
    lhs = virtual_dimension(image) - virtual_dimension(system)
    rhs = 0
    for a in range(4):
        for b in range(a + 1, 4):
            t = selected[a] + selected[b] - system.degree
            if t >= 2:
                rhs += math.comb(1 + t, 3)
            elif t <= -2:
                rhs -= math.comb(1 - t, 3)
    assert lhs == rhs


@st.composite
def degree_dropping_systems(draw):
    """Honest systems whose top quadruple meets the triple bound yet forces a
    strict degree drop: 2d >= m_i+m_j+m_k for all selected triples, 2d < sum.

    Each bound below is the least value that still leaves a valid choice for
    every later multiplicity, so nothing drawn is rejected; d = 1 admits none.
    """
    d = draw(st.integers(2, 12))
    m1 = draw(st.integers(-(-(2 * d + 1) // 4), d))
    m2 = draw(st.integers(max(1, -(-(2 * d - m1 + 1) // 3)), min(m1, 2 * d - m1 - 1)))
    room = 2 * d - m1 - m2  # m3 <= room keeps 2d >= m1 + m2 + m3
    m3 = draw(st.integers(max(1, -(-(room + 1) // 2)), min(m2, room)))
    m4 = draw(st.integers(max(1, room - m3 + 1), m3))
    extras = tuple(draw(st.lists(st.integers(0, d), max_size=3)))
    return LinearSystem(d, (m1, m2, m3, m4) + extras)


@given(degree_dropping_systems())
def test_degree_drop_cannot_drop_virtual_dimension(system):
    image = cremona_system(system, (0, 1, 2, 3))
    assert image.degree < system.degree
    assert virtual_dimension(image) >= virtual_dimension(system)


@given(honest_systems(), st.data())
def test_intersection_invariant_under_simultaneous_transform(system, data):
    idx = data.draw(quadruples)
    r = max(system.npoints, max(idx) + 1)
    mu = tuple(data.draw(st.integers(0, 5)) for _ in range(r))
    curve = CurveClass(data.draw(st.integers(0, 10)), mu)
    assert intersect_curve(system, curve) == intersect_curve(
        cremona_system(system, idx), cremona_curve(curve, idx)
    )


@given(plain_curves(), quadruples)
def test_curve_invariants_preserved(curve, idx):
    assert curve_invariants(cremona_curve(curve, idx)) == curve_invariants(curve)


@given(honest_systems(), honest_systems())
def test_virtual_dimension_additivity(first, second):
    n = max(first.npoints, second.npoints)
    fm = first.mults + (0,) * (n - first.npoints)
    sm = second.mults + (0,) * (n - second.npoints)
    total = LinearSystem(first.degree + second.degree, tuple(x + y for x, y in zip(fm, sm)))
    lhs = 2 * (
        virtual_dimension(total) - virtual_dimension(first) - virtual_dimension(second)
    )
    rhs = _triple(
        (first.degree, first.mults),
        (second.degree, second.mults),
        _minus((total.degree, total.mults), (-4, (-2,) * n)),
    )
    assert lhs == rhs


@given(honest_systems())
def test_normalize_is_idempotent_and_preserves_conditions(system):
    once = normalize(system)
    assert normalize(once) == once
    assert virtual_dimension(once) == virtual_dimension(system)


@given(systems())
def test_normalize_shares_exactly_the_normal_systems(system):
    normal = normalize(system)
    assert normalize(normal) is normal
    is_normal = system.mults == tuple(sorted((m for m in system.mults if m), reverse=True))
    assert (normal is system) == is_normal


def _reference_reduction(system):
    # reduce_to_standard as it was first written: each Cremona step builds the
    # transform, pads missing points with zeros, and normalizes it in a second pass
    current = normalize(system)
    steps = []
    while True:
        if current.degree < 0:
            return ReductionTrace(tuple(steps), current, empty=True)
        while current.mults and current.mults[-1] < 0:
            i = min(i for i, m in enumerate(current.mults) if m < 0)
            after = LinearSystem(current.degree, current.mults[:i] + current.mults[i + 1 :])
            steps.append(ReductionStep(REMOVE_COMPONENT, (i,), current, after, -current.mults[i]))
            current = after
        if current.mults and current.mults[0] > current.degree:
            return ReductionTrace(tuple(steps), current, empty=True)
        if is_standard_form(current):
            return ReductionTrace(tuple(steps), current, empty=False)
        after = normalize(cremona_system(current, (0, 1, 2, 3)))
        steps.append(ReductionStep(CREMONA, (0, 1, 2, 3), current, after))
        current = after


@settings(max_examples=300)
@given(st.builds(LinearSystem, st.integers(-3, 30), st.lists(st.integers(-4, 15), max_size=12)))
@example(LinearSystem(3, (3, 3, 3)))  # fewer than four points, padded with zeros
@example(LinearSystem(7, (4,) * 6))  # the untouched points overtake the transformed four
@example(LinearSystem(12, (0, 7, 7, 7, 7, 7, 7)))  # unnormalized, with a zero
@example(LinearSystem(5, (3, 3, 3, 2, -1, 0)))  # a negative multiplicity to strip first
def test_reduction_matches_the_two_pass_reference(system):
    assert reduce_to_standard(system) == _reference_reduction(system)


@given(honest_systems(), st.randoms(use_true_random=False))
def test_intersection_invariant_under_simultaneous_reindexing(system, rng):
    r = system.npoints
    mu = tuple(rng.randrange(0, 5) for _ in range(r))
    curve = CurveClass(rng.randrange(0, 9), mu)
    perm = list(range(r))
    rng.shuffle(perm)
    permuted_system = LinearSystem(system.degree, tuple(system.mults[i] for i in perm))
    permuted_curve = CurveClass(curve.degree, tuple(mu[i] for i in perm))
    assert intersect_curve(system, curve) == intersect_curve(
        permuted_system, permuted_curve
    )


@given(honest_systems())
def test_reduction_terminates_without_raising_the_degree(system):
    from fatpoint3 import reduce_to_standard

    trace = reduce_to_standard(system)
    assert trace.final.degree <= system.degree
    if not trace.empty:
        assert is_standard_form(trace.final)


@given(honest_systems(), quadruples)
def test_conjectured_dimension_blind_to_a_leading_transform(system, idx):
    image = normalize(cremona_system(system, idx))
    assert conjectured_dimension(image)[0] == conjectured_dimension(system)[0]


@given(systems(), systems(), st.sampled_from(["other", "same", "unnormalized"]))
def test_is_special_never_takes_another_systems_answer(first, other, second):
    # the second system is another one, the first itself, or the first
    # reordered and padded with a zero
    second = {"other": other, "same": first,
              "unnormalized": LinearSystem(first.degree, first.mults[::-1] + (0,))}[second]
    conjectured_dimension(first)
    got = is_special(second)
    excess = dimension_excess(second, conjectured_dimension(normalize(second))[0])
    assert got == (excess > 0, excess)


@given(honest_systems())
def test_reduction_clamped_at_empty(system):
    dim, trace = conjectured_dimension(system)
    assert dim >= -1
    assert trace.empty == (dim == -1)


@given(honest_systems())
def test_standard_no_quadric_systems_meet_expectation(system):
    system = normalize(system)
    assume(is_standard_form(system))
    if system.npoints >= 9 and system.mults[8] >= 1:
        assume(quadric_triple(system) >= 0)
    dim, _ = conjectured_dimension(system)
    assert dim >= expected_dimension(system)


@given(honest_systems())
def test_quadric_removal_keeps_standard_form_on_nonempty_systems(system):
    system = normalize(system)
    assume(is_standard_form(system))
    final, steps = remove_quadrics(system)
    if conjectured_dimension(system)[0] >= 0:
        for step in steps:
            assert is_standard_form(step.after)


@given(st.integers(0, 25), st.integers(0, 12))
def test_quadric_sign_matches_homogeneous_closed_form(degree, mult):
    system = LinearSystem(degree, (mult,) * 9)
    closed_form = 2 * (degree - 2) * (degree + 4) - 9 * (mult - 1) * (mult + 2)
    assert quadric_triple(system) == closed_form


@given(st.integers(-3, 40), st.lists(st.integers(-5, 30), min_size=9, max_size=40))
def test_quadric_triple_is_the_divisor_triple_product(degree, mults):
    # ragged, unsorted, zero and negative multiplicities: the closed form
    # agrees with Q(L-Q)(L-K) built in the reference algebra, Q on the first nine
    system = LinearSystem(degree, tuple(mults))
    q, ell = (2, (1,) * 9), (system.degree, system.mults)
    expected = _triple(q, _minus(ell, q), _minus(ell, (-4, (-2,) * system.npoints)))
    assert quadric_triple(system) == expected


def test_classify_homogeneous_special_exactly_on_the_sign_test():
    # every cell of the box; below d = 2m, L(d; m^9) is empty instead
    for degree in range(61):
        for mult in range(1, 31):
            special = classify_homogeneous(degree, mult, 9) == VERDICT_SPECIAL
            sign = 2 * (degree + 1) ** 2 < 9 * mult * (mult + 1)
            assert special == (degree >= 2 * mult and sign), (degree, mult)


@given(honest_systems())
def test_gamma_cycle_weights_match_line_intersections(system):
    for (i, j), t in gamma_cycle(system).as_dict().items():
        line = CurveClass(1, tuple(1 if k in (i, j) else 0 for k in range(system.npoints)))
        assert intersect_curve(system, line) == -t
        assert t >= 1


@given(honest_systems())
def test_correction_counts_only_deep_pairs(system):
    assert speciality_correction(system) >= 0
    if all(
        system.mults[i] + system.mults[j] - system.degree <= 1
        for i in range(system.npoints)
        for j in range(i + 1, system.npoints)
    ):
        assert speciality_correction(system) == 0


@given(systems())
def test_system_literal_round_trip(system):
    assert parse_system(format_system(system)) == system


@given(full_curves())
def test_curve_literal_round_trip(curve):
    assert parse_curve(format_curve(curve)) == curve


@given(systems())
def test_line_corrections_match_the_plain_pairwise_walk(system):
    # every pair, as the corrections were first written; the library stops
    # its walk at the first pair whose excess falls short
    excesses = [
        (i, j, system.mults[i] + system.mults[j] - system.degree)
        for i in range(system.npoints)
        for j in range(i + 1, system.npoints)
    ]
    weights = {(i, j): t for i, j, t in excesses if t >= 1}
    assert gamma_cycle(system) == LineCycle.from_dict(weights)
    assert speciality_correction(system) == sum(math.comb(t + 1, 3) for *_, t in excesses if t >= 2)


def _homogeneous(point, p):
    coords = [c % p for c in (point if len(point) == 4 else (1, *point))]
    chart = next((i for i, c in enumerate(coords) if c), None)
    return coords, chart


@st.composite
def fat_point_systems(draw):
    """A prime, a ragged system of small degree with multiplicities up to
    d + 3, and distinct points: affine, unnormalized homogeneous (some with
    zero coordinates), and vertices, in any order."""
    p = draw(st.sampled_from([11, 101, 2**31 - 1]))
    d = draw(st.integers(0, 5))
    mults = tuple(draw(st.lists(st.integers(0, d + 3), max_size=6)))
    coordinate = st.one_of(st.just(0), st.integers(0, p - 1), st.integers(-3 * p, 3 * p))
    vertex = st.tuples(st.integers(0, 3), st.integers(1, p - 1)).map(
        lambda t: tuple(t[1] if i == t[0] else 0 for i in range(4))
    )
    point = st.one_of(
        vertex, st.tuples(*[coordinate] * 3), st.tuples(*[coordinate] * 4)
    ).filter(lambda pt: _homogeneous(pt, p)[1] is not None)

    def key(pt):
        coords, chart = _homogeneous(pt, p)
        inv = pow(coords[chart], -1, p)
        return tuple(c * inv % p for c in coords)

    points = draw(st.lists(point, min_size=len(mults), max_size=len(mults), unique_by=key))
    return p, LinearSystem(d, mults), points


@settings(deadline=None)
@given(fat_point_systems())
def test_conditions_matrix_matches_python_integers(case):
    p, system, points = case
    d = system.degree
    basis = monomial_basis(d)
    expected, vertex_rows = [], []
    for point, mult in zip(points, system.mults):
        coords, chart = _homogeneous(point, p)
        inv = pow(coords[chart], -1, p)
        others = [i for i in range(4) if i != chart]
        q = [coords[i] * inv % p for i in others]
        for alpha in _orders(min(mult, d + 1)):
            expected.append([_derivative_at([a[i] for i in others], alpha, q, p) for a in basis])
            if not any(q):  # a vertex: the only nonzero is at x_c^(d - |a|) x^a
                monomial = [0] * 4
                monomial[chart] = d - sum(alpha)
                for i, t in zip(others, alpha):
                    monomial[i] = t
                value = math.prod(math.factorial(t) for t in alpha) % p
                vertex_rows.append((len(expected) - 1, basis.index(tuple(monomial)), value))
    entries = conditions_matrix(system, points, p).entries
    assert entries.dtype == np.int64 and entries.shape == (len(expected), len(basis))
    assert entries.tolist() == expected
    for i, column, value in vertex_rows:
        assert np.flatnonzero(entries[i]).tolist() == [column] and entries[i, column] == value
