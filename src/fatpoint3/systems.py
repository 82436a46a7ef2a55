"""Core value types for fat-point linear systems on P^3 and their basic numerics."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import zip_longest

__all__ = [
    "LinearSystem",
    "CurveClass",
    "LineCycle",
    "normalize",
    "virtual_dimension",
    "expected_dimension",
    "dimension_excess",
    "intersect_curve",
    "point_conditions",
    "MAX_POINTS",
    "check_point_count",
]

# The most points a literal or a Cremona index may name, and the most cells,
# (d_max + 1) m_max r_max, a verify box may hold. It is checked before a run
# m^k is expanded, a system padded up to an index or a box's first cell run,
# so a short command line such as "12 1^1000000000" (a list of 8 GB) is
# refused at once, while a list at the cap takes under 1 MB. It stands 100
# times above the r of about 1,000 in long-r sweeps. Each step of the
# procedure is a few linear passes over the points, and the steps are bounded
# by the trace budget in cremona.py; at the cap, conjectured_dimension
# takes 12 ms for L(16; 1^100000) and 31 ms for L(12; 6^9, 1^90000), five
# quadric removals (CPU time, median of 7 calls, 2-core Xeon VM).
MAX_POINTS = 100_000


def check_point_count(count: int) -> None:
    """Refuse a system of more than ``MAX_POINTS`` points."""
    if count > MAX_POINTS:
        raise ValueError(f"{count} points exceed the limit of {MAX_POINTS}")


def point_conditions(mult: int) -> int:
    """Number of linear conditions imposed by a point of multiplicity ``mult``.

    Non-positive multiplicities impose none.
    """
    return math.comb(mult + 2, 3) if mult > 0 else 0


@dataclass(frozen=True, init=False)
class LinearSystem:
    """Surfaces of degree ``degree`` through points with multiplicities ``mults``."""

    degree: int
    mults: tuple[int, ...]

    def __init__(self, degree: int, mults=()) -> None:
        # each field is set once, coerced; operator.index, not int: a float or
        # a string is refused, not truncated
        object.__setattr__(self, "degree", operator.index(degree))
        object.__setattr__(self, "mults", tuple(map(operator.index, mults)))

    @property
    def npoints(self) -> int:
        return len(self.mults)


@dataclass(frozen=True)
class CurveClass:
    """Curves of degree ``degree`` with point multiplicities ``mults``.

    ``incidences`` optionally records intersection counts against the six
    lines spanned by the first four points, as triples ``(i, j, count)`` with
    0 <= i < j <= 3. Zero counts are dropped, so classes compare by content.
    """

    degree: int
    mults: tuple[int, ...] = ()
    incidences: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", operator.index(self.degree))
        object.__setattr__(self, "mults", tuple(map(operator.index, self.mults)))
        kept = []
        seen = set()
        for i, j, count in self.incidences:
            if not 0 <= i < j <= 3:
                raise ValueError(f"incidence pair ({i}, {j}) must lie among the first four points")
            if (i, j) in seen:
                raise ValueError(f"duplicate incidence pair ({i}, {j})")
            seen.add((i, j))
            count = operator.index(count)
            if count:
                kept.append((i, j, count))
        object.__setattr__(self, "incidences", tuple(sorted(kept)))

    @property
    def npoints(self) -> int:
        return len(self.mults)

    @property
    def has_incidences(self) -> bool:
        return bool(self.incidences)

    def beta(self, i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        return next((count for a, b, count in self.incidences if (a, b) == key), 0)


@dataclass(frozen=True)
class LineCycle:
    """Formal 1-cycle supported on the lines through point pairs.

    Stored as sorted triples ``(i, j, weight)`` with i < j; zero weights are
    dropped so cycles compare by content. Weights may be negative when the
    cycle is used as a formal coefficient record.
    """

    entries: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        norm: dict[tuple[int, int], int] = {}
        for i, j, weight in self.entries:
            i, j, weight = operator.index(i), operator.index(j), operator.index(weight)
            if i == j:
                raise ValueError("a line needs two distinct points")
            key = (min(i, j), max(i, j))
            if key in norm:
                raise ValueError(f"duplicate pair {key}")
            if weight:
                norm[key] = weight
        object.__setattr__(
            self, "entries", tuple((i, j, norm[(i, j)]) for (i, j) in sorted(norm))
        )

    @classmethod
    def from_dict(cls, weights: dict[tuple[int, int], int]) -> "LineCycle":
        return cls(tuple((i, j, w) for (i, j), w in weights.items()))

    def weight(self, i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        return next((w for a, b, w in self.entries if (a, b) == key), 0)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): w for i, j, w in self.entries}


def normalize(system: LinearSystem) -> LinearSystem:
    """Sort multiplicities non-increasing and drop zeros; negatives pass through.
    A system that is already normal is returned as it is (it is frozen)."""
    mults = tuple(sorted(filter(None, system.mults), reverse=True))
    return system if mults == system.mults else LinearSystem(system.degree, mults)


def virtual_dimension(system: LinearSystem) -> int:
    """C(d+3, 3) - sum_i C(m_i+2, 3) - 1, with non-positive m_i contributing 0."""
    if system.degree < 0:
        raise ValueError("degree must be non-negative")
    conditions = sum(map(point_conditions, system.mults))
    return math.comb(system.degree + 3, 3) - conditions - 1


def expected_dimension(system: LinearSystem) -> int:
    return max(virtual_dimension(system), -1)


def dimension_excess(system: LinearSystem, dim: int, expected: int | None = None) -> int:
    """How far a dimension ``dim`` of the system exceeds the expected one,
    which a caller that has it passes as ``expected``; an empty system
    (dim < 0) has no excess."""
    if dim < 0:
        return 0
    return dim - (expected_dimension(system) if expected is None else expected)


def intersect_curve(system: LinearSystem, curve: CurveClass) -> int:
    """Intersection number of strict transforms on the blow-up.

    Computes d*delta - sum_i mu_i*m_i; the shorter multiplicity list is
    zero-padded. Classes carrying incidence data are rejected, they live on a
    finer model.
    """
    if curve.has_incidences:
        raise ValueError("curve carries incidence data; only plain classes intersect here")
    dot = sum(m * mu for m, mu in zip_longest(system.mults, curve.mults, fillvalue=0))
    return system.degree * curve.degree - dot
