"""The conjectural dimension procedure: base-line corrections, quadric removal,
and speciality verdicts."""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .cremona import REMOVE_QUADRIC, ReductionStep, ReductionTrace, _charged, reduce_to_standard
from .systems import (
    LinearSystem,
    LineCycle,
    dimension_excess,
    normalize,
    point_conditions,
    virtual_dimension,
)

__all__ = [
    "gamma_cycle",
    "speciality_correction",
    "quadric_triple",
    "remove_quadrics",
    "conjectured_dimension",
    "dimension_lower_bound",
    "is_special",
    "classify_homogeneous",
    "QuadricPencilReport",
    "quadric_pencil_system",
    "quadric_pencil_dimension",
    "VERDICT_EMPTY",
    "VERDICT_SPECIAL",
    "VERDICT_NON_SPECIAL",
    "VERDICT_PROCEDURE",
]

VERDICT_EMPTY = "empty"
VERDICT_SPECIAL = "special"
VERDICT_NON_SPECIAL = "non_special"
VERDICT_PROCEDURE = "procedure_required"


def _line_excesses(system: LinearSystem, least: int):
    """(i, j, t), i < j, for each point pair whose excess t = m_i + m_j - d is at
    least ``least``; by decreasing m, a point's partners stop at the first short one."""
    m, d = system.mults, system.degree
    if 2 * max(m, default=0) - d < least:  # no pair reaches it: skip the sort
        return
    order = sorted(range(len(m)), key=m.__getitem__, reverse=True)
    for a, i in enumerate(order):
        for b in range(a + 1, len(order)):
            t = m[i] + m[order[b]] - d
            if t < least:
                if b == a + 1:  # then no later point has a partner either
                    return
                break
            yield min(i, order[b]), max(i, order[b]), t


def gamma_cycle(system: LinearSystem) -> LineCycle:
    """Lines forced into the base locus: the pair {i, j} enters with weight
    t_ij = m_i + m_j - d whenever that excess is at least 1."""
    return LineCycle(tuple(_line_excesses(system, 1)))


def speciality_correction(system: LinearSystem) -> int:
    """Dimension excess contributed by base lines: sum of C(t_ij+1, 3) over
    all point pairs with t_ij >= 2."""
    return sum(math.comb(t + 1, 3) for _, _, t in _line_excesses(system, 2))


def quadric_triple(system: LinearSystem) -> int:
    """The quadric test number Q(L-Q)(L-K), with Q through the nine points of
    largest multiplicity. Requires a normalized system with at least 9 points."""
    if system.npoints < 9:
        raise ValueError("quadric test needs at least nine points")
    # triple_product(Q, L-Q, L-K) in closed form: with Q = (2; 1^9, 0, ...)
    # and K = (-4; (-2)^r), L-Q = (d-2; m_i-1 for the nine, m_i after) and
    # L-K = (d+4; m_i+2). The point terms b1i*b2i*b3i vanish where Q's
    # coefficient is 0, so only the first nine points enter, each with
    # 1*(m_i-1)*(m_i+2), against 2*(d-2)*(d+4) from H.
    d = system.degree
    return 2 * (d - 2) * (d + 4) - sum((m - 1) * (m + 2) for m in system.mults[:9])


def remove_quadrics(
    system: LinearSystem,
) -> tuple[LinearSystem, tuple[ReductionStep, ...]]:
    """Strip base quadrics off a standard-form system.

    While the degree is at least 2 (a quadric cannot divide anything smaller),
    there are at least nine points, the nine largest multiplicities are all
    positive, and the quadric test number is negative, subtract the quadric
    through those nine points and renormalize. A run past the trace's memory
    budget is refused with a ValueError, as in ``reduce_to_standard``.
    """
    current = normalize(system)
    steps: list[ReductionStep] = []
    held = 0
    while (
        current.degree >= 2
        and len(current.mults) >= 9
        and current.mults[8] >= 1
        and quadric_triple(current) < 0
    ):
        held = _charged(held, current)
        mults = [m - 1 for m in current.mults[:9]]
        mults += current.mults[9:]
        after = LinearSystem(current.degree - 2, tuple(sorted(filter(None, mults), reverse=True)))
        steps.append(ReductionStep(REMOVE_QUADRIC, tuple(range(9)), current, after))
        current = after
    return current, tuple(steps)


# The (system, dimension) of conjectured_dimension's last run, which is_special
# reads for an equal system, so a caller asking for both runs the procedure
# once. One tuple store replaces the pair, so a racing reader sees one whole
# pair, old or new, and either is correct.
_last_run: tuple[LinearSystem | None, int] = (None, -1)


def _procedure(system: LinearSystem, lines: bool) -> tuple[int, ReductionTrace]:
    """Reduce to standard form, strip base quadrics, then close with v(final),
    plus the base-line correction if ``lines`` is set, clamped at -1. The
    trace chains every step; its ``empty`` flag is set when the answer is -1."""
    reduction = reduce_to_standard(system)
    if reduction.empty:
        return -1, reduction
    final, quadric_steps = remove_quadrics(reduction.final)
    dim = -1
    # a multiplicity above the degree means empty, and the closing formula
    # does not apply (its vanishing assumption fails)
    if not final.mults or final.mults[0] <= final.degree:
        dim = max(-1, virtual_dimension(final) + (speciality_correction(final) if lines else 0))
    # with no quadric step and a non-empty answer, the reduction's trace is the
    # procedure's, and is returned as it is
    if quadric_steps or dim < 0:
        reduction = ReductionTrace(reduction.steps + quadric_steps, final, empty=dim < 0)
    return dim, reduction


def conjectured_dimension(system: LinearSystem) -> tuple[int, ReductionTrace]:
    """Run the full procedure: reduce to standard form, strip base quadrics,
    then return v(final) plus the base-line correction, clamped at -1.

    The returned trace chains every step; its ``empty`` flag is set when the
    answer is -1.
    """
    global _last_run
    dim, trace = _procedure(system, True)
    _last_run = system, dim
    return dim, trace


def dimension_lower_bound(system: LinearSystem) -> int:
    """A proved lower bound on the dimension of L(d; m) at general points: the
    procedure's Cremona and quadric steps, closed by v(final) alone, with no
    base-line term."""
    # Each step keeps h^0 or can only lower it, at general points:
    # - The cubo-cubic Cremona map at four general points lifts to a
    #   pseudo-isomorphism of the blow-up, an isomorphism away from the six
    #   lines through them, so h^0 is kept.
    # - A negative multiplicity marks a fixed exceptional component, and
    #   removing it keeps h^0.
    # - Multiplying by the quadric through nine points (10 coefficients, 9
    #   conditions) maps L(d-2; m_i - 1 on those nine) injectively into
    #   L(d; m), at any points, so the dimension can only drop along it.
    # - v counts conditions, each point imposing at most C(m_i+2, 3), so it
    #   is a lower bound; so is -1, and an empty reduction or a multiplicity
    #   above the degree says no more than that.
    # A sampled rank never exceeds the generic rank, so the oracle dimension
    # is an upper bound: where it equals this bound, the cell is exact.
    return _procedure(system, False)[0]


def is_special(system: LinearSystem) -> tuple[bool, int]:
    """Whether the system's conjectured dimension strictly exceeds the
    expected one, together with the excess. A system equal to the one the
    last ``conjectured_dimension`` call ran on takes that call's dimension,
    as the procedure normalizes first, and does not run it again."""
    recorded, dim = _last_run
    if recorded != system:
        dim = conjectured_dimension(system)[0]
    excess = dimension_excess(system, dim)
    return excess > 0, excess


def classify_homogeneous(degree: int, mult: int, npoints: int) -> str:
    """Speciality verdict for the homogeneous system L(d, m^r).

    Systems with d >= 2m are in standard form: special exactly for r = 9 with
    a negative quadric test, 2(d-2)(d+4) - 9(m-1)(m+2) = 2(d+1)^2 - 9m(m+1).
    For d <= 2m-1 the system is empty once r >= 8, and needs the full
    procedure otherwise.
    """
    degree, mult, npoints = map(operator.index, (degree, mult, npoints))
    if degree < 0 or mult < 0 or npoints < 1:
        raise ValueError("need d >= 0, m >= 0 and at least one point")
    if degree >= 2 * mult:
        if npoints == 9 and 2 * (degree + 1) ** 2 < 9 * mult * (mult + 1):
            return VERDICT_SPECIAL
        return VERDICT_NON_SPECIAL
    if npoints >= 8:
        return VERDICT_EMPTY
    return VERDICT_PROCEDURE


class QuadricPencilReport(NamedTuple):
    dimension: int
    virtual: int
    special: bool


def quadric_pencil_system(weights: tuple[int, ...]) -> LinearSystem:
    """The system spanned by quadrics through eight shared points, taken with
    the given positive weights: L(2r, r^8, r_1, ..., r_n) with r = sum r_i."""
    if not weights or any(w < 1 for w in weights):
        raise ValueError("weights must be a non-empty list of positive integers")
    r = sum(weights)
    return normalize(LinearSystem(2 * r, (r,) * 8 + tuple(weights)))


def quadric_pencil_dimension(weights: tuple[int, ...]) -> QuadricPencilReport:
    """These systems are rigid: dimension 0, with virtual dimension
    sum(r_i - C(r_i+2, 3)), which vanishes exactly when every weight is 1."""
    if not weights or any(w < 1 for w in weights):
        raise ValueError("weights must be a non-empty list of positive integers")
    virtual = sum(w - point_conditions(w) for w in weights)
    return QuadricPencilReport(0, virtual, virtual < 0)
