"""Text literals for systems and curves: ``d m1 m2 ...`` with ``m^k`` sugar."""

from __future__ import annotations

from itertools import groupby

from .systems import CurveClass, LinearSystem, check_point_count

__all__ = ["parse_system", "format_system", "parse_curve", "format_curve"]


def _int(token: str, what: str = "token") -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad {what} {token!r}") from None


def _expand(tokens: list[str]) -> list[int]:
    # multiplicity tokens, each ``m`` or ``m^k``, as one list
    mults: list[int] = []
    for token in tokens:
        if "^" not in token:
            mults.append(_int(token, "multiplicity"))
            continue
        base_text, _, exp_text = token.partition("^")
        try:
            base, exponent = int(base_text), int(exp_text)
        except ValueError:
            raise ValueError(f"bad token {token!r}") from None
        if exponent < 1:
            raise ValueError(f"exponent must be positive in {token!r}")
        check_point_count(len(mults) + exponent)  # before the run is built
        mults += [base] * exponent
    # plain tokens are checked last: they grow the list no faster than the text
    check_point_count(len(mults))
    return mults


def _degree(tokens: list[str], what: str) -> int:
    # the leading token of a system or curve literal
    if not tokens:
        raise ValueError(f"empty {what} literal")
    if "^" in tokens[0]:
        raise ValueError(f"degree token {tokens[0]!r} cannot carry an exponent")
    return _int(tokens[0], "degree")


def parse_system(text: str) -> LinearSystem:
    """Parse ``d m1 m2 ...``; each multiplicity token may use ``m^k`` sugar."""
    tokens = text.split()
    return LinearSystem(_degree(tokens, "system"), tuple(_expand(tokens[1:])))


def _format_mults(mults: tuple[int, ...], sugar: bool) -> list[str]:
    if not sugar:
        return [str(m) for m in mults]
    parts = []
    for value, run in groupby(mults):
        count = sum(1 for _ in run)
        parts.append(f"{value}^{count}" if count > 1 else str(value))
    return parts


def format_system(system: LinearSystem, sugar: bool = True) -> str:
    return " ".join([str(system.degree)] + _format_mults(system.mults, sugar))


def parse_curve(text: str) -> CurveClass:
    """Parse ``[curve] delta mu1 ... [b i j count ...]``.

    Incidence triples use 1-based point indices and refer to the line through
    points i and j.
    """
    tokens = text.split()
    if tokens and tokens[0] == "curve":
        tokens = tokens[1:]
    degree = _degree(tokens, "curve")
    k = 1
    while k < len(tokens) and tokens[k] != "b":
        k += 1
    mults = _expand(tokens[1:k])
    incidences = []
    while k < len(tokens):
        if tokens[k] != "b" or k + 3 >= len(tokens):
            raise ValueError(f"bad incidence clause at {tokens[k]!r}")
        i = _int(tokens[k + 1], "incidence index") - 1
        j = _int(tokens[k + 2], "incidence index") - 1
        count = _int(tokens[k + 3], "incidence count")
        if not (0 <= i <= 3 and 0 <= j <= 3 and i != j):
            raise ValueError(f"incidence pair ({i + 1}, {j + 1}) must name two of the first four points")
        incidences.append((min(i, j), max(i, j), count))
        k += 4
    return CurveClass(degree, tuple(mults), tuple(incidences))


def format_curve(curve: CurveClass, sugar: bool = True) -> str:
    parts = [str(curve.degree)] + _format_mults(curve.mults, sugar)
    for i, j, count in curve.incidences:
        parts += ["b", str(i + 1), str(j + 1), str(count)]
    return " ".join(parts)
