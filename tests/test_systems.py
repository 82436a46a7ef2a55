import math

import pytest

from fatpoint3 import (
    VERDICT_SPECIAL,
    CurveClass,
    LinearSystem,
    LineCycle,
    OracleConfig,
    classify_homogeneous,
    conditions_matrix,
    dimension_excess,
    expected_dimension,
    intersect_curve,
    normalize,
    point_conditions,
    virtual_dimension,
)
from fatpoint3.literals import parse_system


def test_normalize_sorts_and_drops_zeros():
    assert normalize(LinearSystem(5, (2, 4, 0, 4, 2, 2, 2))) == LinearSystem(
        5, (4, 4, 2, 2, 2, 2)
    )


@pytest.mark.parametrize("literal", ["5 4 2^3 1", "3", "4 3^4 -1^2", "0 -3"])
def test_normalize_returns_a_normal_system_itself(literal):
    system = parse_system(literal)
    assert normalize(system) is system


@pytest.mark.parametrize(
    "mults, normal",
    [((2, 1, 0), (2, 1)), ((0,), ()), ((1, 2), (2, 1)), ((-1, 0, 2), (2, -1))],
)
def test_normalize_builds_a_new_system_otherwise(mults, normal):
    system = LinearSystem(3, mults)
    out = normalize(system)
    assert out is not system and out == LinearSystem(3, normal)


def test_normalize_point_free_identity():
    assert normalize(LinearSystem(1)) == LinearSystem(1)


def test_normalize_keeps_negatives():
    out = normalize(LinearSystem(4, (3, 3, 3, 3, -1, -1)))
    assert out == LinearSystem(4, (3, 3, 3, 3, -1, -1))


@pytest.mark.parametrize(
    "literal, expected",
    [("12 7^6", -50), ("10 6^5", 5), ("16 11 7^8", 10), ("1", 3)],
)
def test_virtual_dimension_reference_values(literal, expected):
    assert virtual_dimension(parse_system(literal)) == expected


def test_virtual_dimension_ignores_nonpositive_mults():
    assert virtual_dimension(LinearSystem(3, (-2, 0, -5))) == virtual_dimension(
        LinearSystem(3)
    )


def test_virtual_dimension_rejects_negative_degree():
    for system in (LinearSystem(-1, (1,)), LinearSystem(-1)):
        with pytest.raises(ValueError, match="degree must be non-negative"):
            virtual_dimension(system)


def test_virtual_dimension_simple_points():
    # all multiplicities 1: each point is a single condition
    for d, r in [(3, 5), (6, 11), (2, 1)]:
        assert virtual_dimension(LinearSystem(d, (1,) * r)) == math.comb(d + 3, 3) - r - 1


@pytest.mark.parametrize(
    "literal, expected", [("12 7^6", -1), ("10 6^5", 5), ("0", 0)]
)
def test_expected_dimension(literal, expected):
    assert expected_dimension(parse_system(literal)) == expected


def test_dimension_excess():
    # L(10; 6^5) is expected to have dimension 5 and has 15; a dimension of -1
    # (empty) has no excess, not -6, and L(12; 7^6), expected empty, has 1 at 0
    system = parse_system("10 6^5")
    assert [dimension_excess(system, dim) for dim in (15, 5, -1)] == [10, 0, 0]
    assert dimension_excess(parse_system("12 7^6"), 0) == 1


def test_intersect_curve_reference_values():
    assert intersect_curve(parse_system("7 4^6"), CurveClass(3, (1,) * 6)) == -3
    assert intersect_curve(parse_system("5 4^2 2^4"), CurveClass(1, (1, 1))) == -3


def test_intersect_curve_line_missing_all_points():
    assert intersect_curve(parse_system("9 3^7"), CurveClass(1)) == 9


def test_intersect_curve_rejects_incidence_classes():
    line_on_l12 = CurveClass(1, (0, 0, 0, 0), ((0, 1, 1),))
    with pytest.raises(ValueError):
        intersect_curve(parse_system("3 1^4"), line_on_l12)


def test_additivity_identity_on_small_split():
    # v(L) = v(M) + v(F) + F.M.(L-K)/2 for L = F + M over the same points
    f = LinearSystem(1, (1, 0))
    m = LinearSystem(2, (1, 1))
    total = LinearSystem(3, (2, 1))
    # F.M.(L-K) with L-K = (7; 4, 3): 1*2*7 - (1*1*4 + 0*1*3) = 10
    lhs = 2 * (virtual_dimension(total) - virtual_dimension(m) - virtual_dimension(f))
    assert lhs == 10


def test_point_conditions():
    assert [point_conditions(m) for m in (-1, 0, 1, 2, 3)] == [0, 0, 1, 4, 10]


def test_curve_class_incidence_validation():
    with pytest.raises(ValueError):
        CurveClass(1, (), ((0, 4, 1),))
    with pytest.raises(ValueError):
        CurveClass(1, (), ((0, 1, 1), (0, 1, 2)))
    assert CurveClass(1, (), ((0, 1, 0),)).incidences == ()


@pytest.mark.parametrize(
    "make",
    [
        lambda: LinearSystem(4, (2.9, 3)),
        lambda: LinearSystem(4, ("3",)),
        lambda: LinearSystem(4.0, (2,)),
        lambda: CurveClass(1.5, (1,)),
        lambda: CurveClass(1, (1.0,)),
        lambda: CurveClass(1, (), ((0, 1, 0.5),)),
        lambda: CurveClass(1, (), ((0, 1, 0.0),)),
        lambda: conditions_matrix(LinearSystem(2, (1,)), [(1.9, 2.2, 3.7)]),
        lambda: OracleConfig(seeds=(1.5, "x")),
        lambda: classify_homogeneous(4.5, 2, 9),
        lambda: LineCycle(((0, 1, 2.7),)),
        lambda: LineCycle(((0, 1, 0.0),)),
        lambda: LineCycle(((0.0, 1, 2),)),
        lambda: LineCycle(((0, "1", 2),)),
        lambda: conditions_matrix(LinearSystem(2, (1,)), [("1", "2", "3")]),
        lambda: classify_homogeneous(4, 2, 9.0),
    ],
)
def test_non_integers_are_refused_not_truncated(make):
    with pytest.raises(TypeError):
        make()


def test_integer_like_values_are_kept_as_ints():
    import numpy as np

    system = LinearSystem(np.int64(4), (np.int64(2), 3))
    assert system == LinearSystem(4, (2, 3))
    assert all(type(v) is int for v in (system.degree, *system.mults))
    curve = CurveClass(np.int32(1), (np.int8(1),), ((0, 1, np.int64(2)),))
    assert curve == CurveClass(1, (1,), ((0, 1, 2),))
    assert type(curve.incidences[0][2]) is int
    config = OracleConfig(seeds=(np.int64(2), np.int32(1)))
    assert config.seeds == (2, 1) and all(type(v) is int for v in config.seeds)
    point = [(np.int64(1), np.int32(2), np.int8(3))]
    assert conditions_matrix(LinearSystem(2, (1,)), point).entries.tolist() == (
        conditions_matrix(LinearSystem(2, (1,)), [(1, 2, 3)]).entries.tolist()
    )
    assert classify_homogeneous(np.int64(20), np.int32(10), np.int8(9)) == VERDICT_SPECIAL
    cycle = LineCycle(((np.int64(1), np.int8(0), np.int16(2)),))
    assert cycle == LineCycle(((0, 1, 2),))
    assert all(type(v) is int for v in cycle.entries[0])


def test_line_cycle_container():
    cycle = LineCycle.from_dict({(1, 0): 2, (2, 3): -1, (0, 2): 0})
    assert cycle.weight(0, 1) == 2
    assert cycle.weight(1, 0) == 2
    assert cycle.weight(0, 2) == 0
    assert cycle.as_dict() == {(0, 1): 2, (2, 3): -1}
    with pytest.raises(ValueError):
        LineCycle(((1, 1, 2),))
    with pytest.raises(ValueError, match="duplicate pair"):
        LineCycle(((0, 1, 2), (1, 0, 3)))
