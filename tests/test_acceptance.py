"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import random
import time
import warnings

from fatpoint3 import (
    CurveClass,
    FUNDAMENTAL,
    LinearSystem,
    LineCycle,
    OracleConfig,
    SeedDisagreement,
    VERDICT_SPECIAL,
    conjectured_dimension,
    cremona_curve,
    cremona_curve_full,
    cremona_equivariance_check,
    cremona_system,
    cremona_with_lines,
    curve_invariants,
    grouped_steps,
    intersect_curve,
    normalize,
    oracle_dimension,
    oracle_h1,
    quadric_pencil_dimension,
    quadric_pencil_system,
    speciality_correction,
    verify_grid,
    verify_homogeneous,
    virtual_dimension,
)
from fatpoint3.literals import format_system, parse_system


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


PROCEDURE_FIXTURES = [
    ("7 4^6", 3, [("cremona", "5 4^2 2^4"), ("cremona", "3 2^4"), ("cremona", "1")]),
    (
        "12 7^6",
        0,
        [
            ("cremona", "8 7^2 3^4"),
            ("cremona", "4 3^4 -1^2"),
            ("remove_component", "4 3^4"),
            ("cremona", "0 -1^4"),
            ("remove_component", "0"),
        ],
    ),
    ("10 6^5", 15, [("cremona", "6 6 2^4")]),
    ("16 11 7^8", 19, [("remove_quadric", "14 10 6^8")]),
    ("3 3^3", 0, [("cremona", "0 -3"), ("remove_component", "0")]),
]


def test_criterion_1_procedure_fixtures():
    slowest = 0.0
    for literal, expected, arrows in PROCEDURE_FIXTURES:
        system = parse_system(literal)
        dim, trace = conjectured_dimension(system)
        assert dim == expected, (literal, dim, expected)
        displayed = [(kind, format_system(state)) for kind, state in grouped_steps(trace)]
        assert displayed == arrows, (literal, displayed)
        best = min(
            _timed(conjectured_dimension, system) for _ in range(5)
        )
        slowest = max(slowest, best)
    report(1, slowest < 1e-3, f"5 reductions exact, slowest {slowest * 1e6:.0f} us")


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_2_oracle_fixtures():
    config = OracleConfig(prime=2**31 - 1, seeds=(1, 2, 3))
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", SeedDisagreement)  # all seeds must agree
        for literal, expected, _ in PROCEDURE_FIXTURES:
            got = oracle_dimension(parse_system(literal), config)
            assert got == expected, (literal, got, expected)
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 5.0, f"5 rank computations x 3 seeds in {elapsed:.2f} s")


def test_criterion_3_grid_matches_oracle():
    t0 = time.perf_counter()
    grid = verify_grid(10, 4, 10, OracleConfig(seeds=(1, 2, 3)))
    elapsed = time.perf_counter() - t0
    bad = grid.mismatches
    report(
        3,
        not bad and elapsed < 300.0,
        f"{len(grid.rows)} homogeneous systems, {len(bad)} mismatches, {elapsed:.1f} s",
    )


def test_criterion_4_emptiness_window():
    config = OracleConfig(seeds=(1, 2))
    values = {m: oracle_dimension(LinearSystem(2 * m - 1, (m,) * 8), config) for m in (2, 3, 4, 5)}
    report(4, all(v == -1 for v in values.values()), f"oracle dims {values}")


def test_criterion_5_homogeneous_speciality_three_ways():
    t0 = time.perf_counter()
    rows = verify_homogeneous(9, 10, OracleConfig(seeds=(1, 2)))
    for row in rows:
        sign_special = 2 * (row.d + 1) ** 2 < 9 * row.m * (row.m + 1)
        assert row.consistent, (row.d, row.m)
        assert (row.verdict == VERDICT_SPECIAL) == sign_special == (row.h1 > 0), (row.d, row.m)
    assert [(row.d, row.m) for row in rows] == [
        (d, m) for m in range(1, 11) for d in range(2 * m, 2 * m + 3)
    ]
    elapsed = time.perf_counter() - t0
    report(5, True, f"{len(rows)} systems agree three ways, {elapsed:.1f} s")


def _random_system(rng: random.Random) -> LinearSystem:
    d = rng.randrange(0, 15)
    r = rng.randrange(0, 9)
    return LinearSystem(d, tuple(rng.randrange(-4, 10) for _ in range(r)))


def _random_quadruple(rng: random.Random, span: int = 8) -> tuple[int, ...]:
    return tuple(rng.sample(range(span), 4))


def _pad(values: tuple[int, ...], n: int) -> tuple[int, ...]:
    return values + (0,) * (n - len(values))


def test_criterion_6_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(20260811)
    cases = 10_000

    for _ in range(cases):  # (a) involution: systems
        system = _random_system(rng)
        idx = _random_quadruple(rng)
        twice = cremona_system(cremona_system(system, idx), idx)
        assert twice == LinearSystem(system.degree, _pad(system.mults, twice.npoints))

    for _ in range(cases):  # (a) involution: curves
        curve = CurveClass(rng.randrange(-3, 12), tuple(rng.randrange(-3, 6) for _ in range(rng.randrange(0, 9))))
        idx = _random_quadruple(rng)
        twice = cremona_curve(cremona_curve(curve, idx), idx)
        assert twice == CurveClass(curve.degree, _pad(curve.mults, twice.npoints))

    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for _ in range(cases):  # (a) involution: incidence-carrying curves
        curve = CurveClass(
            rng.randrange(-4, 10),
            tuple(rng.randrange(-3, 6) for _ in range(4)),
            tuple((i, j, rng.randrange(-2, 4)) for i, j in pairs),
        )
        assert cremona_curve_full(cremona_curve_full(curve)) == curve

    for _ in range(cases):  # (a) involution: line-augmented transform
        d = rng.randrange(-6, 12)
        mults = tuple(rng.randrange(-4, 8) for _ in range(4))
        cycle = LineCycle.from_dict({pair: rng.randrange(-3, 4) for pair in pairs})
        assert cremona_with_lines(*cremona_with_lines(d, mults, cycle)) == (d, mults, cycle)

    vc_checked = monotone_checked = 0
    while vc_checked < cases:  # (b) change-of-v identity, (c) monotonicity
        d = rng.randrange(0, 13)
        mults = tuple(rng.randrange(0, d + 1) for _ in range(4)) if d else (0, 0, 0, 0)
        if any(2 * d < sum(mults) - m for m in mults):
            continue
        extras = tuple(rng.randrange(0, d + 1) for _ in range(rng.randrange(0, 3))) if d else ()
        system = LinearSystem(d, mults + extras)
        image = cremona_system(system, (0, 1, 2, 3))
        delta = virtual_dimension(image) - virtual_dimension(system)
        expected = 0
        for a in range(4):
            for b in range(a + 1, 4):
                t = mults[a] + mults[b] - d
                if t >= 2:
                    expected += math.comb(1 + t, 3)
                elif t <= -2:
                    expected -= math.comb(1 - t, 3)
        assert delta == expected, (system, delta, expected)
        vc_checked += 1
        if image.degree < system.degree:
            assert delta >= 0, (system, delta)
            monotone_checked += 1

    for _ in range(cases):  # (d) intersection invariance
        system = LinearSystem(rng.randrange(0, 13), tuple(rng.randrange(0, 7) for _ in range(8)))
        curve = CurveClass(rng.randrange(0, 11), tuple(rng.randrange(0, 5) for _ in range(8)))
        idx = _random_quadruple(rng)
        assert intersect_curve(system, curve) == intersect_curve(
            cremona_system(system, idx), cremona_curve(curve, idx)
        )

    for _ in range(cases):  # (e) curve invariants preserved
        curve = CurveClass(rng.randrange(-3, 12), tuple(rng.randrange(-3, 6) for _ in range(rng.randrange(0, 9))))
        idx = _random_quadruple(rng)
        assert curve_invariants(cremona_curve(curve, idx)) == curve_invariants(curve)

    # (f) oracle equivariance at the coordinate vertices, 100 admissible systems
    config = OracleConfig(seeds=(7,), point_mode=FUNDAMENTAL)
    done = 0
    while done < 100:
        d = rng.randrange(1, 6)
        r = rng.randrange(4, 8)
        mults = tuple(sorted((rng.randrange(0, d + 1) for _ in range(r)), reverse=True))
        k = 2 * d - sum(mults[:4])
        if d + k < 0 or any(m + k < 0 for m in mults[:4]):
            continue
        assert cremona_equivariance_check(LinearSystem(d, mults), config)
        done += 1

    # (g) rigid quadric pencils measured by the oracle
    pencil_config = OracleConfig(seeds=(1, 2))
    for weights in [(1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1)]:
        system = quadric_pencil_system(weights)
        measured = oracle_dimension(system, pencil_config)
        predicted = quadric_pencil_dimension(weights)
        assert measured == predicted.dimension == 0, (weights, measured)
        assert (oracle_h1(system, pencil_config) > 0) == predicted.special

    elapsed = time.perf_counter() - t0
    report(
        6,
        elapsed < 120.0,
        f"4x{cases} involutions, {vc_checked} identity and {monotone_checked} "
        f"monotonicity cases, invariance suites, 100 equivariance runs, "
        f"6 rigid pencils in {elapsed:.1f} s",
    )


def test_criterion_7_correction_needs_standard_form():
    system = parse_system("3 3^3")
    naive = virtual_dimension(system) + speciality_correction(system)
    assert virtual_dimension(system) == -11
    assert speciality_correction(system) == 12
    assert naive == 1
    dim, trace = conjectured_dimension(system)
    assert dim == 0
    # the answer comes from reduction alone; no correction applies at the end
    assert speciality_correction(trace.final) == 0
    assert [step.kind for step in trace.steps] == ["cremona", "remove_component"]
    # measured excess stays below the raw line-by-line bound
    gap = naive - dim
    assert gap >= 1
    config = OracleConfig(seeds=(1, 2))
    assert oracle_dimension(system, config) == 0
    report(
        7,
        True,
        f"naive correction gives {naive}, reduction and oracle both give {dim}; "
        f"gap {gap} certifies an obstruction",
    )
