import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fatpoint3 import (
    ALL_RANDOM,
    FUNDAMENTAL,
    CurveClass,
    LinearSystem,
    OracleConfig,
    SeedDisagreement,
    conditions_matrix,
    conjectured_dimension,
    cremona_equivariance_check,
    dimension_lower_bound,
    monomial_basis,
    normalize,
    oracle_dimension,
    oracle_h1,
    oracle_report,
    quadric_pencil_system,
    rank_mod_p,
    verify_grid,
    verify_homogeneous,
)
from fatpoint3.literals import parse_system
import fatpoint3.oracle as oracle_module

FAST = OracleConfig(seeds=(1, 2))
RANDOM = OracleConfig(seeds=(1, 2), point_mode=ALL_RANDOM)


def test_monomial_basis_counts_and_order():
    assert monomial_basis(1) == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert monomial_basis(0) == ((0, 0, 0, 0),)
    basis7 = monomial_basis(7)
    assert len(basis7) == math.comb(10, 3) == 120
    assert all(sum(v) == 7 for v in basis7)
    assert list(basis7) == sorted(basis7, reverse=True)


def test_monomial_basis_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="non-negative"):
        monomial_basis(-1)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_rank_refuses_a_matrix_that_is_not_two_dimensional(shape):
    with pytest.raises(ValueError, match="two-dimensional"):
        rank_mod_p(np.ones(shape, dtype=np.int64), 7)


def test_equivariance_check_refuses_an_image_outside_the_oracle():
    # L(1; 1^4) goes to L(-1; (-1)^4), which has no conditions matrix
    with pytest.raises(ValueError, match="admissible range"):
        cremona_equivariance_check(LinearSystem(1, (1,) * 4), FAST)


def test_conditions_matrix_shapes():
    m = conditions_matrix(LinearSystem(1, (1,)), [(3, 5, 7)])
    assert m.entries.shape == (1, 4)
    assert np.count_nonzero(m.entries) >= 1

    system = parse_system("7 4^6")
    pts = [(i + 1, 2 * i + 3, 7 * i + 1) for i in range(6)]
    m = conditions_matrix(system, pts)
    assert m.entries.shape == (120, 120)


def test_conditions_matrix_nine_simple_points_rank():
    rng = random.Random(4)
    pts = [(rng.randrange(97), rng.randrange(97), rng.randrange(97)) for _ in range(9)]
    m = conditions_matrix(parse_system("2 1^9"), pts)
    assert rank_mod_p(m.entries, m.prime) == 9  # corank 1: the single quadric through nine points


def test_conditions_matrix_rejects_coincident_points():
    with pytest.raises(ValueError):
        conditions_matrix(parse_system("3 1^2"), [(1, 2, 3), (1, 2, 3)])
    # projectively equal homogeneous coordinates are also rejected
    with pytest.raises(ValueError):
        conditions_matrix(parse_system("3 1^2"), [(1, 1, 2, 3), (2, 2, 4, 6)])
    # an affine point and a homogeneous one with coordinates past p
    with pytest.raises(ValueError, match="pairwise distinct"):
        conditions_matrix(parse_system("3 1^2"), [(1, 2, 3), (101 + 2, 2, 4, -95)], prime=101)


def test_conditions_matrix_rejects_malformed_points():
    system = parse_system("3 1")
    with pytest.raises(ValueError, match="3 affine or 4 homogeneous"):
        conditions_matrix(system, [(1, 2)])
    with pytest.raises(ValueError, match="not a projective point"):
        conditions_matrix(system, [(0, 0, 0, 0)])
    with pytest.raises(ValueError, match="not a projective point"):
        conditions_matrix(system, [(101, 0, -202, 0)], prime=101)
    with pytest.raises(ValueError, match="one point per multiplicity"):
        conditions_matrix(system, [(1, 2, 3), (4, 5, 6)])


def test_conditions_matrix_rejects_small_prime():
    with pytest.raises(ValueError):
        conditions_matrix(parse_system("7 1"), [(1, 2, 3)], prime=7)


# strong pseudoprimes to the bases 2, 3 (1373653 = 829 * 1657) and 2, 3, 5
# (25326001 = 2251 * 11251) with no factor up to 37, so only a later
# Miller-Rabin witness refuses them
@pytest.mark.parametrize("n", [1373653, 25326001])
def test_strong_pseudoprimes_are_refused(n):
    with pytest.raises(ValueError, match="not a prime"):
        OracleConfig(prime=n)
    with pytest.raises(ValueError, match="not a prime"):
        rank_mod_p(np.eye(2, dtype=np.int64), n)
    with pytest.raises(ValueError, match="not a prime"):
        conditions_matrix(parse_system("2 1"), [(1, 2, 3)], prime=n)


def test_fundamental_points_live_outside_the_affine_chart():
    system = LinearSystem(2, (1, 1, 1, 1))
    vertices = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    m = conditions_matrix(system, vertices)
    assert m.entries.shape == (4, 10)
    assert rank_mod_p(m.entries, m.prime) == 4


@pytest.mark.parametrize(
    "literal, expected",
    [("7 4^6", 3), ("10 6^5", 15), ("1 1^2", 1), ("2 1^9", 0), ("3 3^3", 0)],
)
def test_oracle_dimension_reference_values(literal, expected):
    assert oracle_dimension(parse_system(literal), FAST) == expected


def test_oracle_dimension_empty_system():
    assert oracle_dimension(LinearSystem(1, (2,)), FAST) == -1
    assert oracle_dimension(LinearSystem(0, (1,)), FAST) == -1


def test_oracle_dimension_no_points():
    assert oracle_dimension(LinearSystem(2), FAST) == 9


def test_oracle_rejects_bad_input():
    # validated before any arithmetic on the shape, with the library's message
    for degree in (-1, -5):
        with pytest.raises(ValueError, match="degree must be non-negative"):
            oracle_dimension(LinearSystem(degree, ()), FAST)
    with pytest.raises(ValueError, match="degree must be non-negative"):
        verify_grid(-5, 1, 1, FAST)
    with pytest.raises(ValueError, match="multiplicities must be non-negative"):
        oracle_dimension(LinearSystem(3, (-1,)), FAST)


def frame_dimension(degree, mults):
    """Brute-force dimension for up to four points in general position.

    Four general points can be moved to the coordinate frame, where the
    conditions act monomial by monomial: count exponent vectors with
    a_i <= d - m_i.
    """
    assert len(mults) <= 4
    padded = tuple(mults) + (0,) * (4 - len(mults))
    count = 0
    for a0 in range(degree + 1):
        for a1 in range(degree - a0 + 1):
            for a2 in range(degree - a0 - a1 + 1):
                a = (a0, a1, a2, degree - a0 - a1 - a2)
                if all(a[i] <= degree - padded[i] for i in range(4)):
                    count += 1
    return count - 1


def test_oracle_matches_monomial_count_up_to_four_points():
    rng = random.Random(9)
    fundamental = OracleConfig(seeds=(3,), point_mode=FUNDAMENTAL)
    for _ in range(25):
        d = rng.randrange(0, 7)
        r = rng.randrange(0, 5)
        mults = tuple(rng.randrange(0, d + 2) for _ in range(r))
        system = LinearSystem(d, mults)
        expected = frame_dimension(d, mults)
        assert oracle_dimension(system, RANDOM) == expected
        assert oracle_dimension(system, fundamental) == expected
        conjectured = conjectured_dimension(normalize(system))[0]
        assert conjectured == expected


def test_oracle_h1_values():
    assert oracle_h1(parse_system("6 6 2^4"), FAST) == 4
    assert oracle_h1(parse_system("2 1^9"), FAST) == 0
    assert oracle_h1(parse_system("10 6^5"), FAST) == 10
    assert oracle_h1(parse_system("16 11 7^8"), OracleConfig(seeds=(1,))) == 9


def test_three_quadric_chain_is_rigid_both_ways():
    system = parse_system("8 4^9")
    assert conjectured_dimension(system)[0] == 0
    assert oracle_dimension(system, FAST) == 0


def test_mixed_multiplicity_systems_agree_with_procedure():
    # the grids sweep homogeneous systems; this sweeps ragged ones
    rng = random.Random(4242)
    single = OracleConfig(seeds=(1,))
    for _ in range(60):
        d = rng.randrange(0, 10)
        r = rng.randrange(0, 12)
        mults = tuple(rng.randrange(0, d + 1) for _ in range(r)) if d else ()
        system = normalize(LinearSystem(d, mults))
        assert conjectured_dimension(system)[0] == oracle_dimension(system, single)


def test_oracle_never_undershoots_expectation():
    rng = random.Random(31)
    single = OracleConfig(seeds=(2,))
    for _ in range(20):
        d = rng.randrange(0, 6)
        mults = tuple(rng.randrange(0, d + 1) for _ in range(rng.randrange(0, 7)))
        system = LinearSystem(d, mults)
        dim = oracle_dimension(system, single)
        assert dim >= max(-1, math.comb(d + 3, 3) - sum(math.comb(m + 2, 3) for m in mults if m > 0) - 1)


def test_oracle_monotone_under_extra_conditions():
    base = parse_system("4 2^3")
    more_points = parse_system("4 2^4")
    deeper = parse_system("4 3 2^2")
    d0 = oracle_dimension(base, FAST)
    assert oracle_dimension(more_points, FAST) <= d0
    assert oracle_dimension(deeper, FAST) <= d0


def test_oracle_report_contents():
    report = oracle_report(parse_system("2 1^9"), FAST)
    assert (report.n_rows, report.n_cols) == (9, 10)
    assert report.dimension == 0 and report.h1 == 0
    assert report.seeds_agree and len(report.ranks) == 2 and report.certified


def test_seed_disagreement_warns_and_takes_best_rank(monkeypatch):
    # seed 1 gets a degenerate collinear triple, seed 2 a generic one
    def fake_sample(npoints, seed, prime, mode):
        assert npoints == 3
        if seed == 1:
            return [(1, 1, 1, 1), (1, 2, 2, 2), (1, 3, 3, 3)]
        return [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]

    monkeypatch.setattr(oracle_module, "_sample_points", fake_sample)
    system = LinearSystem(1, (1, 1, 1))
    with pytest.warns(SeedDisagreement):
        dim = oracle_dimension(system, OracleConfig(seeds=(1, 2)))
    assert dim == 0  # the generic sample wins


def test_verify_grid_warns_on_seed_disagreement(monkeypatch):
    # seed 1 puts the three points on a line, so L(1; 1^3) keeps a pencil
    def fake_sample(npoints, seed, prime, mode):
        if seed == 1:
            return [(1, 1, 1, 1), (1, 2, 2, 2), (1, 3, 3, 3)][:npoints]
        return [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)][:npoints]

    monkeypatch.setattr(oracle_module, "_sample_points", fake_sample)
    with pytest.warns(SeedDisagreement):
        report = verify_grid(1, 1, 3, OracleConfig(seeds=(1, 2)))
    assert report.mismatches == ()


def test_seed_disagreement_names_the_callers_line(monkeypatch):
    # seed 1 puts the points on a line, which fails planes and, from four
    # points on, quadrics
    def fake_sample(npoints, seed, prime, mode):
        if seed == 1:
            return [(1, t, t, t) for t in range(1, 5)][:npoints]
        return [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 2, 3, 5)][:npoints]

    monkeypatch.setattr(oracle_module, "_sample_points", fake_sample)
    config = OracleConfig(seeds=(1, 2))
    for run in (
        lambda: oracle_report(LinearSystem(1, (1, 1, 1)), config),
        lambda: oracle_dimension(LinearSystem(1, (1, 1, 1)), config),
        lambda: oracle_h1(LinearSystem(1, (1, 1, 1)), config),
        # L(2; 1^4) is its own image, and four points on a line fail quadrics
        lambda: cremona_equivariance_check(LinearSystem(2, (1,) * 4), config),
        lambda: verify_grid(1, 1, 3, config),
        lambda: verify_homogeneous(4, 1, config),
    ):
        with pytest.warns(SeedDisagreement) as record:
            run()
        # each warning names the line of the public call
        assert {(w.filename, w.lineno) for w in record} == {(__file__, run.__code__.co_firstlineno)}


def test_certified_first_seed_stops_the_seed_loop(monkeypatch):
    calls = []
    profile = oracle_module._rank_profile

    def counting(matrix, prime):  # every elimination goes through here
        calls.append(matrix.shape)
        return profile(matrix, prime)

    monkeypatch.setattr(oracle_module, "_rank_profile", counting)
    three = OracleConfig(seeds=(1, 2, 3))
    # simple points are always independent: one elimination per degree, and
    # none at d = 0, where a simple point already imposes every condition
    assert verify_grid(3, 1, 6, three).mismatches == ()
    assert len(calls) == 3
    # of L(4; 2^r), r <= 10, only r = 9 is special (rank 34 of 35 columns),
    # and its dimension 0 meets the proved lower bound (the quadric through
    # the nine points), so seed 1 closes every cell: one elimination
    calls.clear()
    reports = oracle_module._cell_reports(4, (2,), range(1, 11), three)
    assert calls == [(35, 40)]
    ranks = {r: list(rep.ranks) for (_, r), rep in reports.items()}
    assert ranks == {**{r: [4 * r] for r in range(1, 9)}, 9: [34], 10: [35]}
    assert not reports[2, 9].certified  # certified still means full rank
    # L(2; 2^2), the quadric cones with the line through both points as
    # vertex, is line-special: its bound 1 stays below its dimension 2, but
    # its two points are independent, so seed 1's rank is the generic one,
    # while L(2; 2^3) meets its bound (a Cremona step): every cell closes
    # after seed 1
    calls.clear()
    reports = oracle_module._cell_reports(2, (2,), range(1, 5), three)
    assert calls == [(10, 16)]
    ranks = {r: list(rep.ranks) for (_, r), rep in reports.items()}
    assert ranks == {1: [4], 2: [7], 3: [9], 4: [10]}
    # a lone system runs every seed, certified or not, and reports each rank
    calls.clear()
    report = oracle_report(parse_system("2 1^9"), three)
    assert len(calls) == 3 and report.ranks == (9, 9, 9) and report.certified
    calls.clear()
    report = oracle_report(parse_system("4 2^9"), three)
    assert len(calls) == 3 and report.ranks == (34, 34, 34) and not report.certified


def test_sample_points_are_prefix_stable():
    # a tiny field makes duplicate draws, which the sampler skips
    for mode in (ALL_RANDOM, FUNDAMENTAL):
        for prime in (5, oracle_module.DEFAULT_PRIME):
            for seed in (1, 2, 3):
                full = oracle_module._sample_points(30, seed, prime, mode)
                for k in range(31):
                    assert oracle_module._sample_points(k, seed, prime, mode) == full[:k]


def test_sample_points_refuses_more_points_than_the_field_has():
    # F_2 has 8 affine points (1, x, y, z); fundamental mode adds 3 vertices
    for mode, available in ((ALL_RANDOM, 8), (FUNDAMENTAL, 11)):
        pts = oracle_module._sample_points(available, 1, 2, mode)
        assert len({oracle_module._projective_key(pt, 2) for pt in pts}) == available
        with pytest.raises(ValueError, match=f"only {available} distinct points"):
            oracle_module._sample_points(available + 1, 1, 2, mode)


@pytest.mark.parametrize("mode", [ALL_RANDOM, FUNDAMENTAL])
@pytest.mark.parametrize("seeds", [(1, 2, 3), (4, 5, 6)])
def test_verify_grid_matches_per_cell_oracle(mode, seeds):
    config = OracleConfig(seeds=seeds, point_mode=mode)
    report = verify_grid(4, 3, 8, config)
    expected = [
        (d, m, r, oracle_dimension(LinearSystem(d, (m,) * r), config))
        for d in range(5)
        for m in range(1, 4)
        for r in range(1, 9)
    ]
    assert [(row.degree, row.mult, row.npoints, row.oracle) for row in report.rows] == expected


def test_multiplicity_clamped_at_degree_plus_one():
    pts = [(1, 2, 3), (4, 5, 7)]
    clamped = conditions_matrix(parse_system("3 6^2"), pts)
    reference = conditions_matrix(parse_system("3 4^2"), pts)
    assert clamped.entries.shape == reference.entries.shape == (40, 20)
    assert (clamped.entries == reference.entries).all()
    assert rank_mod_p(clamped.entries, clamped.prime) == rank_mod_p(reference.entries, reference.prime) == 20
    # the dropped rows, derivatives of order 4 and 5 of a cubic, are all zero
    p = oracle_module.DEFAULT_PRIME
    full = [[_derivative_at(a[1:], alpha, (1, 2, 3), p) for a in monomial_basis(3)]
            for alpha in _orders(6)]
    assert len(full) == 56 and not any(any(row) for row in full[20:])
    assert clamped.entries[:20].tolist() == full[:20]
    # the same at a vertex, whose rows are written directly
    vertices = [(0, 0, 3, 0), (5, 0, 0, 0)]
    assert (conditions_matrix(parse_system("3 6^2"), vertices).entries
            == conditions_matrix(parse_system("3 4^2"), vertices).entries).all()
    report = oracle_report(parse_system("3 6^2"), FAST)
    assert report.n_rows == 40 and report.dimension == -1 and report.certified
    # the size guard counts clamped rows: 10 x 10, not C(1002, 3) x 10
    assert conditions_matrix(LinearSystem(2, (1000,)), [(1, 2, 3)]).entries.shape == (10, 10)


def test_conditions_matrix_refuses_huge_systems_before_assembly(monkeypatch):
    def no_assembly(*args):
        raise AssertionError("a point was dehomogenized or an exponent table built")

    monkeypatch.setattr(oracle_module, "_projective_key", no_assembly)
    monkeypatch.setattr(oracle_module, "_degree_tables", no_assembly)
    monkeypatch.setattr(oracle_module, "monomial_basis", no_assembly)
    # 200 points of multiplicity 40 on degree-40 forms: 2,296,000 x 12,341
    system = LinearSystem(40, (40,) * 200)
    points = [(1, i, i * i, 7) for i in range(200)]
    with pytest.raises(ValueError, match="exceeds"):
        conditions_matrix(system, points)
    with pytest.raises(ValueError, match="exceeds"):
        oracle_dimension(system, FAST)
    # no points, so no rows, but C(1003, 3) = 167,668,501 columns
    with pytest.raises(ValueError, match="exceeds"):
        conditions_matrix(LinearSystem(1000), [])
    with pytest.raises(ValueError, match="exceeds"):
        oracle_dimension(LinearSystem(1000), FAST)
    # the grid checks its largest system, L(40; 10^100) at 22,000 x 12,341,
    # before its small cells run
    with pytest.raises(ValueError, match="exceeds"):
        verify_grid(40, 10, 100, FAST)
    # a point count past the cap is refused before its system is built
    with pytest.raises(ValueError, match="exceed the limit"):
        verify_grid(1, 1, 10**12, FAST)
    with pytest.raises(ValueError, match="exceed the limit"):
        verify_homogeneous(10**12, 1, FAST)


def test_the_entry_cap_admits_l10_50_102_and_refuses_l10_50_103():
    # multiplicities clamp at d + 1 = 11, C(13, 3) = 286 rows a point, and
    # C(13, 3) = 286 columns: 102 points give 29,172 x 286 = 8,343,192
    # entries, under 2^23 = 8,388,608, and 103 give 8,424,988, above it
    assert oracle_module._checked_shape(LinearSystem(10, (50,) * 102)) == (29172, 286)
    with pytest.raises(ValueError, match="29458 x 286 conditions matrix exceeds"):
        oracle_module._checked_shape(LinearSystem(10, (50,) * 103))


def _derivative_at(a, alpha, q, p):
    # d^alpha of prod x_v^(a_v) at the point q, as Python integers
    value = 1
    for e, t, x in zip(a, alpha, q):
        if e < t:
            return 0
        value *= math.perm(e, t) * pow(x, e - t, p)
    return value % p


def _orders(mult):
    # derivative orders graded by total order, then in descending lex order
    return sorted(
        (alpha for alpha in itertools.product(range(mult), repeat=3) if sum(alpha) < mult),
        key=lambda alpha: (sum(alpha), tuple(-t for t in alpha)),
    )


@pytest.mark.parametrize("p", [2**31 - 1, 11])
def test_conditions_matrix_entries_match_python_integers(p, monkeypatch):
    degree = 6
    basis = monomial_basis(degree)
    # unnormalized points in each chart: two in chart 0, assembled together,
    # one of them and the point in chart 2 with a zero among their chart
    # coordinates, and vertices in charts 3 and 1
    points = ((3, 5, 7, 2), (6, 0, 1, 4), (0, 4, 9, 1), (0, 0, 5, 3), (0, 0, 0, 7), (0, 2, 0, 0))
    mults = (3, 3, 3, 3, 3, 2)
    expected = []
    for coords, mult in zip(points, mults):
        chart = next(i for i, c in enumerate(coords) if c)
        inv = pow(coords[chart], -1, p)
        others = [i for i in range(4) if i != chart]
        q = [coords[i] * inv % p for i in others]
        expected += [
            [_derivative_at([a[i] for i in others], alpha, q, p) for a in basis]
            for alpha in _orders(mult)
        ]
    entries = conditions_matrix(LinearSystem(degree, mults), points, p).entries
    assert entries.dtype == np.int64 and entries.tolist() == expected
    # points of one chart are assembled _PASS_ENTRIES entries at a time, here
    # one point at a time
    monkeypatch.setattr(oracle_module, "_PASS_ENTRIES", 1)
    assert conditions_matrix(LinearSystem(degree, mults), points, p).entries.tolist() == expected


def test_quadric_pencil_rigidity_via_oracle():
    assert oracle_dimension(quadric_pencil_system((1, 1)), FAST) == 0
    assert oracle_dimension(quadric_pencil_system((2,)), FAST) == 0


def test_verify_grid_small_box():
    report = verify_grid(4, 2, 6, FAST)
    assert len(report.rows) == 5 * 2 * 6
    assert report.mismatches == ()
    tsv = report.to_tsv()
    assert "MISMATCH" not in tsv and tsv.count("\n") == len(report.rows) - 1
    as_json = report.to_json_dict()
    assert as_json["cells"] == len(report.rows) and as_json["mismatches"] == []


def test_verify_grid_rejects_huge_degree():
    with pytest.raises(ValueError):
        verify_grid(60, 1, 1, FAST)


def test_equivariance_check_published_pairs():
    config = OracleConfig(seeds=(5,), point_mode=FUNDAMENTAL)
    assert cremona_equivariance_check(parse_system("7 4^6"), config)
    assert cremona_equivariance_check(parse_system("3 2^4"), config)
    assert cremona_equivariance_check(parse_system("2 1^4"), config)  # k = 0


def test_equivariance_check_requires_fundamental_mode():
    with pytest.raises(ValueError):
        cremona_equivariance_check(parse_system("7 4^6"), RANDOM)


def test_fundamental_is_the_default_placement():
    assert OracleConfig().point_mode == FUNDAMENTAL
    points = oracle_module._sample_points(6, 1, oracle_module.DEFAULT_PRIME, FAST.point_mode)
    assert points[:4] == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def test_both_placements_give_the_same_window():
    fundamental = [row.h1 for row in verify_homogeneous(9, 5, FAST)]
    assert fundamental == [row.h1 for row in verify_homogeneous(9, 5, RANDOM)]


def test_rank_engine_eliminates_only_the_random_points(monkeypatch):
    shapes = []
    eliminate = oracle_module._eliminate

    def recording(a, p, panel):
        shapes.append(a.shape)
        return eliminate(a, p, panel)

    monkeypatch.setattr(oracle_module, "_eliminate", recording)
    system = parse_system("6 3^6")  # four vertices, then two random points
    points = oracle_module._sample_points(6, 1, oracle_module.DEFAULT_PRIME, FUNDAMENTAL)
    entries = conditions_matrix(system, points).entries
    # vertex v kills the monomials with a_v > d - m_v = 3
    killed = sum(any(a > 3 for a in alpha) for alpha in monomial_basis(6))
    assert oracle_module.rank_mod_p(entries, oracle_module.DEFAULT_PRIME) == 20 + killed
    assert shapes[-1] == (20, 84 - killed)  # only the random points' rows
    pivots = oracle_module._rank_profile(entries.T, oracle_module.DEFAULT_PRIME)
    assert shapes[-1][0] == 84 - killed and len(pivots) == 20 + killed


@pytest.mark.parametrize("literal", ["3 3^4 1", "4 4^2 3^2 2^3"])
def test_both_placements_agree_where_vertex_columns_overlap(literal):
    system = parse_system(literal)
    # two vertices kill a shared monomial, so the vertex rows hold duplicate
    # singleton rows on one column
    points = oracle_module._sample_points(system.npoints, 1, 101, FUNDAMENTAL)
    entries = conditions_matrix(system, points, 101).entries
    singles = np.count_nonzero(entries, axis=1) == 1
    columns = (entries[singles] != 0).argmax(axis=1)
    assert len(set(columns.tolist())) < singles.sum()
    # the rank engine's pruning keeps the pivots of the unpruned engine, on the
    # matrix (singleton rows) and on its transpose (leading singleton columns)
    for m in (entries, entries.T):
        unpruned = oracle_module._eliminate(np.array(m, order="C"), 101, m.shape[1])
        assert oracle_module._rank_profile(m, 101) == unpruned
    reports = [oracle_report(system, config) for config in (FAST, RANDOM)]
    assert reports[0].h1 == reports[1].h1 and reports[0].ranks == reports[1].ranks
    assert reports[0].dimension == conjectured_dimension(normalize(system))[0]


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(prime=10)
    with pytest.raises(ValueError):
        OracleConfig(seeds=())
    with pytest.raises(ValueError):
        OracleConfig(point_mode="grid")
    with pytest.raises(ValueError, match="seeds must be distinct"):
        OracleConfig(seeds=(1, 2, 1))


def test_an_empty_verify_box_is_refused_before_any_elimination(monkeypatch):
    def no_elimination(*args):
        raise AssertionError("a matrix was eliminated")

    monkeypatch.setattr(oracle_module, "_rank_profile", no_elimination)
    for m_max, r_max in ((0, 10), (4, 0), (-1, -3)):
        with pytest.raises(ValueError, match="needs m_max >= 1 and r_max >= 1"):
            verify_grid(10, m_max, r_max, FAST)
    with pytest.raises(ValueError, match="needs m_max >= 1"):
        verify_homogeneous(9, 0, FAST)


@pytest.mark.parametrize("mode", [ALL_RANDOM, FUNDAMENTAL])
def test_prefix_reports_equal_lone_reports(mode):
    # one rule, two elimination paths: a cell of the transposed prefix
    # elimination reports what a lone run with the seeds that reached it does
    config = OracleConfig(seeds=(1, 2, 3), point_mode=mode)
    cells = 0
    for d in range(7):
        for m in range(1, 4):
            reports = oracle_module._cell_reports(d, (m,), range(1, 10), config)
            for (_, r), rep in reports.items():
                assert rep.system == LinearSystem(d, (m,) * r)
                assert len(rep.seeds) == len(rep.ranks) and rep.seeds == config.seeds[: len(rep.seeds)]
                assert rep == oracle_report(rep.system, dataclasses.replace(config, seeds=rep.seeds))
                cells += 1
    assert cells == 189


def test_the_oracle_answers_without_the_procedure(monkeypatch):
    import fatpoint3.speciality as speciality_module

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle consulted the procedure")

    for module in (speciality_module, oracle_module):
        monkeypatch.setattr(module, "conjectured_dimension", refuse)
        monkeypatch.setattr(module, "classify_homogeneous", refuse)
    monkeypatch.setattr(speciality_module, "speciality_correction", refuse)  # the line term
    report = oracle_report(parse_system("4 2^9"), FAST)
    assert (report.dimension, report.h1, report.certified) == (0, 1, False)
    reports = oracle_module._cell_reports(4, (2,), (8, 9, 10), FAST)
    assert [(rep.dimension, rep.h1, rep.certified) for rep in reports.values()] == [
        (2, 0, True),
        (0, 1, False),
        (-1, 0, True),
    ]
    # the proved lower bound closed the special cell after one seed
    assert reports[2, 9].seeds == (1,)
    assert dimension_lower_bound(parse_system("4 2^9")) == 0
    assert dimension_lower_bound(parse_system("4 3^4")) == 0


def _count_oracle_work(monkeypatch) -> dict:
    counts = {"eliminations": 0, "assemblies": 0, "bounds": 0}

    def spy(name, key):
        inner = getattr(oracle_module, name)

        def counting(*args):
            counts[key] += 1
            return inner(*args)

        monkeypatch.setattr(oracle_module, name, counting)

    spy("_rank_profile", "eliminations")
    spy("conditions_matrix", "assemblies")
    spy("dimension_lower_bound", "bounds")
    return counts


def test_the_grid_does_each_piece_of_oracle_work_once(monkeypatch):
    counts = _count_oracle_work(monkeypatch)
    assert verify_grid(10, 4, 10).mismatches == ()
    # one elimination at seed 1 per (d, m) that no certificate settles, and
    # no later seed: the six line-special cells the bound cannot close have
    # r <= 3 independent points. m > d settles 10 chains, and a chain whose
    # r = 10 cell has independent rows settles every smaller m at its degree,
    # 12 more; one assembly per degree with an eliminated chain; a bound for
    # each cell open after seed 1
    assert counts == {"eliminations": 22, "assemblies": 10, "bounds": 18}


def test_the_window_does_each_piece_of_oracle_work_once(monkeypatch):
    counts = _count_oracle_work(monkeypatch)
    assert all(row.consistent for row in verify_homogeneous(9, 5, FAST))
    # one assembly and one elimination per cell, at seed 1 only: each of the
    # 15 cells is full rank or meets its bound after it, and a bound is
    # computed only for the 4 cells that are not full rank
    assert counts == {"eliminations": 15, "assemblies": 15, "bounds": 4}


def test_verify_refuses_a_box_past_the_point_cap_before_any_work(monkeypatch):
    counts = _count_oracle_work(monkeypatch)
    for box, n_cells in (((1, 200_000, 1), 400_000), ((0, 1000, 100_000), 10**8), ((0, 100_001, 1), 100_001)):
        with pytest.raises(ValueError, match=f"a verify box of {n_cells} cells exceeds the limit of 100000"):
            verify_grid(*box, FAST)
    # the window's largest cell, L(2 m_max + 2; m_max^r), is checked first;
    # at r = 9 the entry cap admits m_max = 11, not 12
    for m_max in (12, 10**9):
        with pytest.raises(ValueError, match="exceeds the dense limit"):
            verify_homogeneous(9, m_max, FAST)
    oracle_module._checked_shape(LinearSystem(24, (11,) * 9))
    assert counts == {"eliminations": 0, "assemblies": 0, "bounds": 0}

    # the cap's edge: a box of exactly MAX_POINTS cells reaches the walk
    def walk(*args, **kwargs):
        raise LookupError("walked")

    monkeypatch.setattr(oracle_module, "_cell_reports", walk)
    with pytest.raises(LookupError, match="walked"):
        verify_grid(0, 100_000, 1, FAST)


@pytest.mark.parametrize("mode", [ALL_RANDOM, FUNDAMENTAL])
@pytest.mark.parametrize("prime", [oracle_module.DEFAULT_PRIME, 101])
def test_grid_cells_equal_lone_oracle_dimensions(mode, prime):
    # the grid's certificates (m > d, rows contained in independent rows,
    # independent points) settle cells without eliminating them; each must
    # give the dimension a lone run of every seed gives
    config = OracleConfig(prime=prime, seeds=(1, 2, 3), point_mode=mode)
    report = verify_grid(6, 3, 8, config)
    assert len(report.rows) == 7 * 3 * 8
    for row in report.rows:
        system = LinearSystem(row.degree, (row.mult,) * row.npoints)
        assert row.oracle == oracle_report(system, config).dimension, row
    # m = d is not empty: the conics double at a point, cones over a conic
    assert [row.oracle for row in report.rows if (row.degree, row.mult) == (2, 2)][0] == 5


def test_independent_points_certify_four_points_not_five(monkeypatch):
    # seed 1 puts the fifth point of L(4; 2^5) on the line through the first
    # two vertices; a quartic double at three points of a line contains it,
    # so seed 1's rank is 19 against a generic 20, although its first four
    # points are independent
    sample = oracle_module._sample_points

    def planted(npoints, seed, prime, mode):
        points = sample(npoints, seed, prime, mode)
        if seed == 1 and npoints >= 5:
            points[4] = (1, 1, 0, 0)
        return points

    monkeypatch.setattr(oracle_module, "_sample_points", planted)
    with pytest.warns(SeedDisagreement, match=r"ranks \[19, 20\]"):
        reports = oracle_module._cell_reports(4, (2,), range(1, 6), FAST)
    assert reports[2, 5].ranks == (19, 20) and reports[2, 5].dimension == 14
    assert all(reports[2, r].ranks == (4 * r,) for r in range(1, 5))


@pytest.mark.parametrize("mode", [ALL_RANDOM, FUNDAMENTAL])
@pytest.mark.parametrize("prime", [oracle_module.DEFAULT_PRIME, 11])
def test_grid_blocks_are_the_conditions_matrix_rows(mode, prime, monkeypatch):
    # the walk assembles L(d; 4^r_max) once a seed and cuts every L(d; m^r),
    # m <= 4, r <= r_max, from it; each cut it eliminates, transposed for a
    # profile of its rows or as it is for one open cell, is bit-identical to
    # the assembly of its own cell at the seed's first r points. With one
    # seed every cut spans the largest r, and its row count gives its m, as
    # a point's row count grows with m. At d <= 2 the assembled
    # multiplicities are clamped at d + 1
    profile = oracle_module._rank_profile
    cuts, assembled = [], []

    def spy_profile(matrix, p):
        cuts.append(("profile", matrix.T))
        return profile(matrix, p)

    def spy_rank(matrix, p):
        cuts.append(("rank", matrix))
        return len(profile(matrix, p))

    def spy_assembly(*args):
        assembled.append(args[0])
        return conditions_matrix(*args)

    monkeypatch.setattr(oracle_module, "_rank_profile", spy_profile)
    monkeypatch.setattr(oracle_module, "rank_mod_p", spy_rank)
    monkeypatch.setattr(oracle_module, "conditions_matrix", spy_assembly)
    kinds = set()
    for seed in (1, 2):
        config = OracleConfig(prime=prime, seeds=(seed,), point_mode=mode)
        for d in range(7):
            # every r at once, and one r at a time, which takes the one-cell path
            for cells in (range(1, 7), *((r,) for r in range(1, 7))):
                cuts.clear()
                assembled.clear()
                oracle_module._cell_reports(d, range(4, 0, -1), cells, config)
                r = max(cells)
                assert assembled == ([LinearSystem(d, (4,) * r)] if cuts else [])
                points = oracle_module._sample_points(r, seed, prime, mode)
                walked = []
                for kind, cut in cuts:
                    rows, rest = divmod(cut.shape[0], r)
                    # the walk cuts no m > d, which the certificate settles
                    [m] = [m for m in range(1, min(d, 4) + 1) if oracle_module._point_rows(m, d) == rows]
                    assert rest == 0
                    own = conditions_matrix(LinearSystem(d, (m,) * r), points, prime).entries
                    assert own.shape == cut.shape and (own == cut).all(), (seed, d, cells, m)
                    walked.append(m)
                    kinds.add(kind)
                assert walked == sorted(set(walked), reverse=True)  # each m once, largest first
    assert kinds == {"profile", "rank"}


def test_an_oracle_dimension_below_the_bound_raises(monkeypatch):
    # L(4; 2^9), the window's first special cell, has dimension 0; a bound
    # of 1 means one route is at fault
    monkeypatch.setattr(oracle_module, "dimension_lower_bound", lambda system: 1)
    message = (r"oracle dimension 0 of degree 4, mults \(2(, 2){8}\) "
               r"lies below the proved lower bound 1")
    with pytest.raises(RuntimeError, match=message):
        verify_homogeneous(9, 2, FAST)
    # the lone path computes no bound, and runs every seed
    monkeypatch.setattr(oracle_module, "dimension_lower_bound", None)
    assert oracle_report(parse_system("4 2^9"), FAST).ranks == (34, 34)


def _bound_systems():
    grid = st.builds(lambda d, m, r: LinearSystem(d, (m,) * r),
                     st.integers(0, 8), st.integers(1, 4), st.integers(1, 10))
    window = st.integers(1, 5).flatmap(
        lambda m: st.builds(lambda d: LinearSystem(d, (m,) * 9), st.integers(2 * m, 2 * m + 2)))
    ragged = st.builds(lambda d, mults: LinearSystem(d, tuple(mults)),
                       st.integers(2, 10), st.lists(st.integers(1, 5), min_size=9, max_size=12))
    return st.one_of(grid, window, ragged)


@settings(max_examples=60, deadline=None)
@given(_bound_systems(), st.sampled_from([ALL_RANDOM, FUNDAMENTAL]))
def test_the_lower_bound_never_exceeds_the_oracle(system, mode):
    # a sampled dimension is never below the generic one, which the bound
    # never exceeds; with one seed, since a single sample bounds it too
    config = OracleConfig(seeds=(1,), point_mode=mode)
    assert dimension_lower_bound(system) <= oracle_dimension(system, config)
