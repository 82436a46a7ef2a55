import pytest

from fatpoint3 import CurveClass, LinearSystem
from fatpoint3.literals import format_curve, format_system, parse_curve, parse_system
from fatpoint3.systems import MAX_POINTS


def test_parse_system_sugar():
    assert parse_system("12 7^6") == LinearSystem(12, (7,) * 6)
    assert parse_system("5 4^2 2^4") == LinearSystem(5, (4, 4, 2, 2, 2, 2))
    assert parse_system("0") == LinearSystem(0)


def test_parse_system_negative_mults():
    assert parse_system("4 3^4 -1^2") == LinearSystem(4, (3, 3, 3, 3, -1, -1))


def test_format_system_groups_runs():
    assert format_system(LinearSystem(12, (7,) * 6)) == "12 7^6"
    assert format_system(LinearSystem(5, (4, 4, 2, 2, 2, 2))) == "5 4^2 2^4"
    assert format_system(LinearSystem(6, (6, 2, 2, 2, 2))) == "6 6 2^4"
    assert format_system(LinearSystem(3, (1, 2, 1))) == "3 1 2 1"
    assert format_system(LinearSystem(5, (4, 4, 2)), sugar=False) == "5 4 4 2"


@pytest.mark.parametrize(
    "literal", ["7 4^6", "0", "16 11 7^8", "4 3^4 -1^2", "3 1 2 1"]
)
def test_system_round_trip(literal):
    system = parse_system(literal)
    assert parse_system(format_system(system)) == system
    assert parse_system(format_system(system, sugar=False)) == system


@pytest.mark.parametrize("bad", ["", "x", "3 2^", "3 ^2", "3 2^0", "3 2^-1", "2^3 1"])
def test_parse_system_errors_name_token(bad):
    with pytest.raises(ValueError):
        parse_system(bad)


@pytest.mark.parametrize("parse", [parse_system, parse_curve])
def test_point_count_is_capped_before_expanding(parse):
    # 10^12 points would be a list of 8 TB
    with pytest.raises(ValueError, match="exceed the limit"):
        parse(f"12 1^{10**12}")
    # the cap bounds the total, not each token
    with pytest.raises(ValueError, match="exceed the limit"):
        parse(f"12 1^{MAX_POINTS} 2")
    with pytest.raises(ValueError, match="exceed the limit"):
        parse(f"12 2 1^{MAX_POINTS}")
    assert len(parse(f"3 0^{MAX_POINTS}").mults) == MAX_POINTS


def test_parse_curve_plain():
    assert parse_curve("3 1^6") == CurveClass(3, (1,) * 6)
    assert parse_curve("curve 1 1 1") == CurveClass(1, (1, 1))


def test_parse_curve_incidences():
    curve = parse_curve("1 0 0 0 0 b 1 2 1")
    assert curve == CurveClass(1, (0, 0, 0, 0), ((0, 1, 1),))
    assert curve.beta(0, 1) == 1 and curve.beta(2, 3) == 0


def test_curve_round_trip_with_incidences():
    curve = CurveClass(2, (1, 1, 0, 0), ((2, 3, 1),))
    assert parse_curve(format_curve(curve)) == curve


@pytest.mark.parametrize("bad", ["", "curve", "1 1 b 1", "1 b 1 5 2", "1 b 1 1 2", "curve 2^3 1"])
def test_parse_curve_errors(bad):
    with pytest.raises(ValueError):
        parse_curve(bad)
