"""Cubic Cremona action on systems and curves, and the standard-form reduction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .literals import format_system
from .systems import CurveClass, LinearSystem, LineCycle, check_point_count, normalize

__all__ = [
    "CREMONA",
    "REMOVE_COMPONENT",
    "REMOVE_QUADRIC",
    "ReductionStep",
    "ReductionTrace",
    "cremona_system",
    "cremona_curve",
    "cremona_curve_full",
    "cremona_with_lines",
    "is_standard_form",
    "reduce_to_standard",
    "curve_invariants",
    "line_orbit",
    "grouped_steps",
    "render_trace",
]

CREMONA = "cremona"
REMOVE_COMPONENT = "remove_component"
REMOVE_QUADRIC = "remove_quadric"

_ARROWS = {CREMONA: "(i)", REMOVE_COMPONENT: "(ii)", REMOVE_QUADRIC: "(iii)"}

_PAIRS4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _complement(i: int, j: int) -> tuple[int, int]:
    return tuple(k for k in range(4) if k not in (i, j))


@dataclass(frozen=True)
class ReductionStep:
    """One step of the reduction: a Cremona transform, the removal of a fixed
    exceptional component, or the removal of a base quadric.

    ``before`` and ``after`` are the normalized systems around the step;
    ``indices`` are positions in ``before``. For component removals ``alpha``
    records the multiplicity stripped off.
    """

    kind: str
    indices: tuple[int, ...]
    before: LinearSystem
    after: LinearSystem
    alpha: int | None = None


@dataclass(frozen=True)
class ReductionTrace:
    """Chained reduction steps ending at ``final``; ``empty`` marks a system
    recognized as empty along the way."""

    steps: tuple[ReductionStep, ...]
    final: LinearSystem
    empty: bool = False


# The most a reduction or a run of quadric removals may hold, in units of 8
# bytes, checked before each step is built; a procedure's trace holds one of
# each, so at most 64 MiB beyond its input. A step from a normal system is
# charged:
# - its points: slots of 8 bytes in the tuple of the system it makes, which
#   has at most three more (a Cremona step on fewer than four points); the
#   ints behind the slots are shared from step to step;
# - _STEP_UNITS (1 KiB) for its own objects: a step, a system, a tuple and the
#   at most nine ints it makes, about 500 bytes together on eight points with
#   24-bit degrees (tracemalloc, 1,500 Cremona steps);
# - the bits w of the largest of |d| and |m_i|, for the width of those ints:
#   none exceeds 7 times that largest, so each takes at most 32 + (w + 3) / 7.5
#   bytes, nine of them at most 37 + 0.15 w units.
# That allows 46 steps over 90,000 points or about 27,000 on eight, each a few
# sorted passes over the points; L(12; 6^9, 1^90000) takes 5 x 90,141 units.
_MAX_TRACE_UNITS = 1 << 22
_STEP_UNITS = 128


def _charged(held: int, system: LinearSystem) -> int:
    """``held`` plus the units of a step from ``system``, normal and with
    points, refusing a trace past _MAX_TRACE_UNITS."""
    mults = system.mults
    held += len(mults) + _STEP_UNITS + max(abs(system.degree), mults[0], -mults[-1]).bit_length()
    if held > _MAX_TRACE_UNITS:
        raise ValueError(f"the reduction's trace would pass its budget of {_MAX_TRACE_UNITS} units")
    return held


def _check_quadruple(idx: tuple[int, ...]) -> None:
    if len(idx) != 4 or len(set(idx)) != 4:
        raise ValueError("need four distinct point indices")
    if min(idx) < 0:
        raise ValueError("point indices must be non-negative")
    check_point_count(max(idx) + 1)  # the system is padded to that many points


def _padded(mults: tuple[int, ...], idx: tuple[int, ...]) -> list[int]:
    return list(mults) + [0] * (max(idx) + 1 - len(mults))


def _excess(degree: int, selected) -> int:
    """k = 2d - the sum of the four selected multiplicities, which the cubic
    transform adds to the degree and to each of them."""
    return 2 * degree - sum(selected)


def cremona_system(system: LinearSystem, idx: tuple[int, ...]) -> LinearSystem:
    """Transform by the cubic involution based at the four chosen points.

    With k = 2d - sum of the selected multiplicities, the degree becomes d+k
    and each selected multiplicity gains k. Missing points are treated as
    zero multiplicities; the result is not normalized.
    """
    idx = tuple(idx)
    _check_quadruple(idx)
    mults = _padded(system.mults, idx)
    k = _excess(system.degree, [mults[i] for i in idx])
    for i in idx:
        mults[i] += k
    return LinearSystem(system.degree + k, tuple(mults))


def cremona_curve(curve: CurveClass, idx: tuple[int, ...]) -> CurveClass:
    """Transform a curve class disjoint from the six coordinate lines: with
    h = delta - sum of the selected multiplicities, delta gains 2h and each
    selected multiplicity gains h."""
    idx = tuple(idx)
    _check_quadruple(idx)
    if curve.has_incidences:
        raise ValueError("class meets the coordinate lines; use cremona_curve_full")
    mults = _padded(curve.mults, idx)
    h = curve.degree - sum(mults[i] for i in idx)
    for i in idx:
        mults[i] += h
    return CurveClass(curve.degree + 2 * h, tuple(mults))


def cremona_curve_full(curve: CurveClass) -> CurveClass:
    """Involution on curve classes carrying incidence counts, acting on the
    first four points. Incidence counts swap to the complementary pair."""
    mults = list(curve.mults) + [0] * max(0, 4 - curve.npoints)
    delta = curve.degree
    beta_sum = sum(curve.beta(i, j) for i, j in _PAIRS4)
    new_degree = 3 * delta - 2 * sum(mults[:4]) - beta_sum
    new_mults = []
    for r in range(4):
        others = sum(mults[j] for j in range(4) if j != r)
        off_pairs = sum(curve.beta(i, j) for i, j in _PAIRS4 if r not in (i, j))
        new_mults.append(delta - others - off_pairs)
    new_inc = tuple((i, j, curve.beta(*_complement(i, j))) for i, j in _PAIRS4)
    return CurveClass(new_degree, tuple(new_mults) + tuple(mults[4:]), new_inc)


def cremona_with_lines(
    degree: int, mults: tuple[int, ...], cycle: LineCycle
) -> tuple[int, tuple[int, int, int, int], LineCycle]:
    """Transform a four-point system together with formal line multiplicities.

    Returns (d', m', n') where s = 2d - sum(m), d' = d+s, m'_i = m_i+s and
    n'_ij = d - m_i - m_j + n_hk with {h,k} the complementary pair.
    """
    if len(mults) != 4:
        raise ValueError("exactly four points carry line data")
    s = _excess(degree, mults)
    new_weights = {
        (i, j): degree - mults[i] - mults[j] + cycle.weight(*_complement(i, j)) for i, j in _PAIRS4
    }
    return degree + s, tuple(m + s for m in mults), LineCycle.from_dict(new_weights)


def is_standard_form(system: LinearSystem) -> bool:
    """True when no four-point transform can lower the degree of a normal
    system: d >= 0, all multiplicities >= 0, and 2d >= the sum of the first
    four. Normal means sorted non-increasing, as ``normalize`` leaves it."""
    mults = system.mults
    nonnegative = system.degree >= 0 and (not mults or mults[-1] >= 0)
    return nonnegative and 2 * system.degree >= sum(mults[:4])


def reduce_to_standard(system: LinearSystem) -> ReductionTrace:
    """Drive a system to standard form.

    Repeatedly transforms on the four largest multiplicities (each such step
    strictly lowers the degree), stripping negative multiplicities one at a
    time as fixed-component removals and renormalizing throughout. Declares
    the system empty when the degree turns negative or some multiplicity
    exceeds the degree. A trace past its memory budget is refused with a
    ValueError before the step that would pass it is built.
    """
    current = normalize(system)
    steps: list[ReductionStep] = []
    held = 0
    while True:
        if current.degree < 0:
            return ReductionTrace(tuple(steps), current, empty=True)
        # current is normalized: its negatives form the tail, the first of
        # them is stripped, and what is left stays sorted
        while current.mults and current.mults[-1] < 0:
            held = _charged(held, current)
            mults = current.mults
            i = len(mults) - 1
            while i and mults[i - 1] < 0:
                i -= 1
            after = LinearSystem(current.degree, mults[:i] + mults[i + 1 :])
            steps.append(ReductionStep(REMOVE_COMPONENT, (i,), current, after, alpha=-mults[i]))
            current = after
        if current.mults and current.mults[0] > current.degree:
            return ReductionTrace(tuple(steps), current, empty=True)
        if is_standard_form(current):
            return ReductionTrace(tuple(steps), current, empty=False)
        # the transform on the four largest, missing points taken as zeros,
        # merged with the rest into the next normal system in one sort
        held = _charged(held, current)
        mults = current.mults
        head = mults[:4] + (0,) * (4 - len(mults))
        k = _excess(current.degree, head)
        moved = [m + k for m in head]
        moved += mults[4:]
        after = LinearSystem(current.degree + k, tuple(sorted(filter(None, moved), reverse=True)))
        steps.append(ReductionStep(CREMONA, (0, 1, 2, 3), current, after))
        current = after


def curve_invariants(curve: CurveClass) -> tuple[int, int]:
    """The pair (2*delta - sum mu_i, delta^2 - 2*sum mu_i^2 + 3), both
    preserved by every four-point transform of plain curve classes."""
    if curve.has_incidences:
        raise ValueError("invariants are defined for plain curve classes")
    first = 2 * curve.degree - sum(curve.mults)
    second = curve.degree**2 - 2 * sum(mu * mu for mu in curve.mults) + 3
    return first, second


def _canonical_curve(curve: CurveClass, npoints: int) -> CurveClass:
    mults = sorted(curve.mults, reverse=True)
    mults += [0] * (npoints - len(mults))
    return CurveClass(curve.degree, tuple(mults[:npoints]))


def line_orbit(npoints: int, max_degree: int) -> dict[CurveClass, bool]:
    """Closure of the line-through-two-points class under four-point
    transforms over ``npoints`` points, pruned at ``max_degree``.

    Classes are canonical (multiplicities sorted, padded to ``npoints``);
    images of degree below 1, the contracted lines, are discarded. No image of
    degree 1 or more has a negative multiplicity: a search of every point count
    at the degree cap of 50 found none. The value flags whether the class is
    also reachable along a path whose degree strictly increases at every step.
    """
    if not 2 <= npoints <= 10:
        raise ValueError("point count must be between 2 and 10")
    if not 1 <= max_degree <= 50:
        raise ValueError("degree cap must be between 1 and 50")
    start = CurveClass(1, (1, 1) + (0,) * (npoints - 2))
    quadruples = tuple(itertools.combinations(range(npoints), 4))

    def images(cls: CurveClass) -> Iterator[tuple[CurveClass, bool]]:
        for quad in quadruples:
            image = cremona_curve(cls, quad)
            if image.degree < 1 or image.degree > max_degree:
                continue
            yield _canonical_curve(image, npoints), image.degree > cls.degree

    def closure(increasing_only: bool) -> set[CurveClass]:
        found = {start}
        frontier = [start]
        while frontier:
            fresh = []
            for cls in frontier:
                for image, increased in images(cls):
                    if increasing_only and not increased:
                        continue
                    if image not in found:
                        found.add(image)
                        fresh.append(image)
            frontier = fresh
        return found

    orbit = closure(increasing_only=False)
    monotone = closure(increasing_only=True)
    ordered = sorted(orbit, key=lambda c: (c.degree, tuple(-m for m in c.mults)))
    return {cls: cls in monotone for cls in ordered}


def grouped_steps(trace: ReductionTrace) -> list[tuple[str, LinearSystem]]:
    """Collapse runs of consecutive component removals into a single displayed
    step, mirroring how hand-written traces batch them."""
    out: list[tuple[str, LinearSystem]] = []
    for step in trace.steps:
        if step.kind == REMOVE_COMPONENT and out and out[-1][0] == REMOVE_COMPONENT:
            out[-1] = (REMOVE_COMPONENT, step.after)
        else:
            out.append((step.kind, step.after))
    return out


def render_trace(trace: ReductionTrace, start: LinearSystem | None = None) -> str:
    """Render a trace with one arrow line per displayed step:
    ``->(i)`` Cremona, ``->(ii)`` component removal, ``->(iii)`` quadric removal."""
    if start is None:
        start = trace.steps[0].before if trace.steps else trace.final
    lines = [format_system(start)]
    for kind, after in grouped_steps(trace):
        lines.append(f"  ->{_ARROWS[kind]} {format_system(after)}")
    if trace.empty:
        lines.append("  (empty)")
    return "\n".join(lines)
