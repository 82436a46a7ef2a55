"""Ground-truth dimensions from exact interpolation-matrix ranks over a prime field.

For each seed, points are sampled in general position, the matrix of vanishing
conditions imposed by the fat points is assembled over F_p, and its rank is
computed by exact Gaussian elimination. Assembly builds one table of falling
factorials per chart and scales it, one column scale and one row scale per
point, by powers of the point's coordinates, computed for all points at once.
By default the first four points sit at the coordinate vertices, which loses
no generality (four general points of P^3 are projectively equivalent to them)
and makes their conditions scaled unit rows, which assembly writes directly
and the rank engine takes out before eliminating. The dimension is the
column count minus the best rank across seeds, minus one. A rank equal to
min(rows, cols) cannot be exceeded by any sample, so it certifies the answer: a
grid check runs no further seed on a certified cell, while a lone system runs
every seed, so its report shows whether the seeds agree.

numpy is imported inside the functions that compute with it, not with this
module, so importing the package and running the procedure (``dim``,
``transform``, ``orbit``) never loads it; the first assembly or elimination
does. That took the median ``fatpoint3 dim`` call from 284 to 164 ms on a
2-vCPU VM, of which a bare interpreter start is about 80 ms.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .cremona import cremona_system, render_trace
from .speciality import (
    VERDICT_EMPTY,
    VERDICT_NON_SPECIAL,
    VERDICT_SPECIAL,
    classify_homogeneous,
    conjectured_dimension,
)
from .systems import LinearSystem, check_point_count, expected_dimension, normalize

__all__ = [
    "DEFAULT_PRIME",
    "ALL_RANDOM",
    "FUNDAMENTAL",
    "SeedDisagreement",
    "OracleConfig",
    "DEFAULT_CONFIG",
    "monomial_basis",
    "ConditionsMatrix",
    "conditions_matrix",
    "rank_mod_p",
    "oracle_dimension",
    "oracle_h1",
    "OracleReport",
    "oracle_report",
    "GridRow",
    "GridReport",
    "verify_grid",
    "WindowRow",
    "verify_homogeneous",
    "cremona_equivariance_check",
]

DEFAULT_PRIME = 2**31 - 1

ALL_RANDOM = "all_random"
FUNDAMENTAL = "fundamental_plus_random"


class SeedDisagreement(UserWarning):
    """Ranks differed across seeds: at least one sample was not general."""


# _check_prime runs on every rank and assembly call, 128 of them in the default
# verify grid, and a run uses few primes; uncached, one test takes about 0.1 ms
@functools.lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, exact for n < 3.3 * 10^24
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(prime: int) -> None:
    # entries are kept in [0, p), so with p < 2^31 one product plus one addend
    # stays below 2^62 and int64 elimination never overflows
    if not 2 <= prime < 2**31 or not _is_prime(prime):
        raise ValueError(f"{prime} is not a prime below 2**31")


@dataclass(frozen=True)
class OracleConfig:
    """Field characteristic, sampling seeds, and point placement mode.

    ``FUNDAMENTAL`` (the default) pins the first four points at the coordinate
    vertices and samples the rest at random; ``ALL_RANDOM`` samples every
    point in the affine chart x0 = 1. Both are general: the non-general
    configurations form a closed subset invariant under PGL(4), so it cannot
    contain every configuration that starts with the four vertices.
    """

    prime: int = DEFAULT_PRIME
    seeds: tuple[int, ...] = (1, 2, 3)
    point_mode: str = FUNDAMENTAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        _check_prime(self.prime)
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.point_mode not in (ALL_RANDOM, FUNDAMENTAL):
            raise ValueError(f"unknown point mode {self.point_mode!r}")


DEFAULT_CONFIG = OracleConfig()


def monomial_basis(degree: int) -> tuple[tuple[int, int, int, int], ...]:
    """Exponent vectors of all degree-d monomials in four variables, in
    descending lexicographic order. Count C(d+3, 3)."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    basis = []
    for a0 in range(degree, -1, -1):
        for a1 in range(degree - a0, -1, -1):
            for a2 in range(degree - a0 - a1, -1, -1):
                basis.append((a0, a1, a2, degree - a0 - a1 - a2))
    return tuple(basis)


# A point of multiplicity m imposes one condition per derivative order alpha
# with |alpha| <= m - 1, graded, then in descending lex order. These are the
# last three exponents of the first C(m+2, 3) monomials, (d - |alpha|, alpha),
# so one table indexes both the columns and the rows. Only the last degree's
# tables are kept, as grid and window calls come in runs of one degree: with
# 32 degrees kept, window9's peak RSS read 59.5 MB against 54.9 (heap layout).
@functools.lru_cache(maxsize=1)
def _degree_tables(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Two read-only 4 x C(d+3, 3) int64 tables: monomial_basis(degree), one
    column per monomial, and in row c, for each derivative order (d - |a|, a)
    of that table, the column of the monomial x_c^(d - |a|) x^a, on which a
    point at vertex c puts its only nonzero entry (see conditions_matrix)."""
    import numpy as np
    exponents = np.array(monomial_basis(degree), dtype=np.int64).reshape(-1, 4).T
    columns = np.empty_like(exponents)
    for c in range(4):
        e = exponents[[*range(1, c + 1), 0, *range(c + 1, 4)]]  # d - |a| moved to c
        # C(n0 + 2, 3) monomials come before e for a larger x0 exponent,
        # C(n1 + 1, 2) for an equal one and a larger x1 exponent, and e_3 for
        # equal ones and a larger x2 exponent
        n0 = degree - e[0]
        n1 = n0 - e[1]
        columns[c] = n0 * (n0 + 1) * (n0 + 2) // 6 + n1 * (n1 + 1) // 2 + e[3]
    exponents.flags.writeable = columns.flags.writeable = False
    return exponents, columns


# --- modular arithmetic on int64 arrays (inputs in [0, p), see _check_prime) --
# a product of two residues is below 2^62, and no reduced value reaches 2^63


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for int64 entries above -2^62. Past a few hundred
    entries numpy divides by a scalar faster than its %, above all for x < 0."""
    x -= x // p * p
    return x


# the kernel's proved bound on the inner dimension, so the widest panel with a
# trailing update: a 16-bit limb times a residue is at most (2^16 - 1)(2^31 - 2),
# and 64 such products sum below 2^53, which float64 holds exactly
_BLOCK = 64
_ROWS = 1024  # rows per product in the trailing update, bounding its temporaries


def _matmul_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x @ y mod p for int64 factors with entries in [0, p), exact while the
    inner dimension is at most _BLOCK. Only x is split into 16-bit limbs, so
    this is two float64 products, each partial sum an exact integer."""
    import numpy as np
    if x.shape[1] > _BLOCK:
        raise ValueError(f"inner dimension {x.shape[1]} exceeds {_BLOCK}")
    yf = y.astype(np.float64)
    out = _reduce(((x >> 16).astype(np.float64) @ yf).astype(np.int64), p)
    out <<= 16  # below 2^47, and adding the low product keeps it below 2^54
    out += ((x & 0xFFFF).astype(np.float64) @ yf).astype(np.int64)
    return _reduce(out, p)


def _eliminate(a: np.ndarray, p: int, panel: int) -> list[int]:
    """Pivot columns of ``a`` (entries in [0, p)), eliminated in column
    panels of width ``panel``; ``a`` is overwritten.

    A panel is eliminated pivot by pivot in a contiguous copy, its row swaps
    kept as a permutation of the live rows and its multipliers stashed in the
    cleared pivot columns. Its k pivot rows are then dropped (a column rank
    profile never needs U), and the other rows get one Schur update in place,
    rest -= (L21 L11^-1) top, with L11 and L21 the multipliers of the pivot
    rows and of the rest. Both products have inner dimension k, so a panel
    narrower than the matrix is at most _BLOCK wide; one panel spanning every
    column is plain Gaussian elimination.
    """
    import numpy as np
    pivots: list[int] = []
    live = np.arange(len(a))  # rows not yet used as pivots
    c = 0
    while len(live) and c < a.shape[1]:
        width = min(panel, a.shape[1] - c)
        blk = a[live, c : c + width]
        piv: list[int] = []
        for j in range(width):
            r = len(piv)  # past the last row, nz is empty
            nz = np.flatnonzero(blk[r:, j])
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                blk[[r, pr]] = blk[[pr, r]]
                live[[r, pr]] = live[[pr, r]]
            f = blk[r + 1 :, j] * pow(int(blk[r, j]), -1, p) % p  # one column: % is faster
            below = blk[r + 1 :, j + 1 :]
            below -= f[:, None] * blk[r, j + 1 :]
            _reduce(below, p)
            blk[r + 1 :, j] = f
            piv.append(j)
        k = len(piv)
        pivots += [c + j for j in piv]
        top, live = live[:k], live[k:]
        c += width
        if k and len(live) and c < a.shape[1]:
            l = blk[:, piv]
            inv = np.eye(k, dtype=np.int64)  # L11^-1, by forward substitution
            for s in range(k - 1):
                inv[s + 1 :] -= l[s + 1 : k, s, None] * inv[s]
                _reduce(inv[s + 1 :], p)
            mult = _matmul_mod(l[k:], inv, p)
            u = a[top, c:]
            for i in range(0, len(live), _ROWS):
                rows = live[i : i + _ROWS]
                a[rows, c:] = _reduce(a[rows, c:] - _matmul_mod(mult[i : i + _ROWS], u, p), p)
    return pivots


def _rank_profile(matrix: np.ndarray, prime: int) -> list[int]:
    """Pivot columns over F_p, in increasing order: the column rank profile.

    Column j is a pivot exactly when it is independent of the columns before
    it, whichever rows the elimination swaps, so the number of pivots below j
    is the rank of the first j columns. Leading singleton columns and
    singleton rows are taken out before eliminating; what is left goes to
    ``_eliminate`` in panels at most _BLOCK wide, narrower for fewer columns.
    """
    import numpy as np
    _check_prime(prime)
    # no copy: the input is only read, and the engine gets the C-ordered array
    # that the gather of the rows and columns left after pruning makes, even
    # from a transposed view
    a = np.asarray(matrix, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("need a two-dimensional matrix")
    if a.size == 0:
        return []
    # conditions_matrix gives entries in [0, p) already; np.mod also maps
    # negative entries into [0, p)
    if a.min() < 0 or a.max() >= prime:
        a = np.mod(a, prime)
    # Two structures are taken out before eliminating; both keep the column
    # rank profile, not only the rank. A fat point at a coordinate vertex
    # gives one scaled unit row per monomial it kills: singleton rows of the
    # conditions matrix, and leading singleton columns of its transpose.
    #
    # Leading columns, those before the first column with two nonzero
    # entries: a nonzero one is a pivot exactly when no earlier one hits its
    # row, and together they span the unit vectors e_i of the rows they hit
    # (the covered rows). So a later column depends on the columns before it
    # exactly when, off the covered rows, it depends on the later columns
    # before it; there the leading columns that are not pivots are zero.
    #
    # Singleton rows among the uncovered rows (which are zero on the leading
    # columns): let S be the columns holding the only nonzero entry of such a
    # row. Each j in S is a pivot, since no other column is nonzero in that
    # row. A column k not in S is zero on every singleton row, so if
    # c_k = sum of l_i c_i over i < k, the singleton row of each i in S forces
    # l_i = 0; the relation uses columns outside S only, and holds exactly
    # when it holds off the singleton rows. So the remaining pivots are those
    # of the matrix without the covered and singleton rows and without the
    # pivots found so far. Zero rows are dropped with them.
    nonzero = a != 0
    dense_cols = np.flatnonzero(np.count_nonzero(nonzero, axis=0) > 1)
    lead = int(dense_cols[0]) if dense_cols.size else a.shape[1]
    covered = nonzero[:, :lead].any(axis=1)
    counts = np.count_nonzero(nonzero, axis=1)
    pivot = np.zeros(a.shape[1], dtype=bool)
    # the first nonzero of a covered row lies in the leading columns
    pivot[nonzero[covered | (counts == 1)].argmax(axis=1)] = True
    rest_cols = np.flatnonzero(~pivot)
    rest = a[np.ix_(np.flatnonzero(~covered & (counts > 1)), rest_cols)]
    del a, nonzero  # free a reduced copy before eliminating what is left
    # sqrt(4 cols) balances a panel's pivot loop and its trailing update (README)
    panel = min(_BLOCK, math.isqrt(4 * rest.shape[1]))
    pivot[rest_cols[_eliminate(rest, prime, panel)]] = True
    return np.flatnonzero(pivot).tolist()


def rank_mod_p(matrix: np.ndarray, prime: int) -> int:
    """Rank over F_p by Gaussian elimination, pivoting on the first nonzero
    entry of each column. Deterministic for a given matrix."""
    return len(_rank_profile(matrix, prime))


# --- conditions matrix -------------------------------------------------------


@dataclass(frozen=True)
class ConditionsMatrix:
    """Dense matrix over F_p of the vanishing conditions imposed by fat points.

    Columns are indexed by the degree-d monomials in descending lex order;
    rows are grouped per point, ordered by derivative order (graded lex).
    """

    entries: np.ndarray
    prime: int

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    def rank(self) -> int:
        return rank_mod_p(self.entries, self.prime)


def _projective_key(point, prime: int) -> tuple[int, int, int, int]:
    """A point given by 3 affine (chart x0 = 1) or 4 homogeneous coordinates,
    as homogeneous coordinates mod p whose first nonzero one is 1."""
    coords = [int(c) % prime for c in point]
    if len(coords) == 3:
        return (1, *coords)
    if len(coords) != 4:
        raise ValueError("points need 3 affine or 4 homogeneous coordinates")
    chart = next((i for i, c in enumerate(coords) if c), None)
    if chart is None:
        raise ValueError("(0:0:0:0) is not a projective point")
    inv = pow(coords[chart], -1, prime)
    return tuple(c * inv % prime for c in coords)


# rows x cols bound on one dense int64 conditions matrix (64 MiB); pruning holds
# one more array of that size and a boolean one (L(10; 50^100) peaks at about
# 165 MB of RSS)
_MAX_ENTRIES = 1 << 23
# column bound, which holds even with no rows: the monomial basis is built as
# C(d+3, 3) Python tuples (302,621 for d = 120, 67 MB of peak RSS)
_MAX_COLS = 20000


def _point_rows(mult: int, degree: int) -> int:
    # derivatives of order > d of a degree-d form vanish identically, so a
    # multiplicity above d + 1 adds only zero rows and is clamped to d + 1
    return math.comb(min(mult, degree + 1) + 2, 3)


def _checked_shape(system: LinearSystem) -> tuple[int, int]:
    """Rows and columns of the system's conditions matrix, refusing a
    malformed system or one too large to assemble densely. The one place the
    oracle validates systems, and its one size rule."""
    if system.degree < 0:
        raise ValueError("degree must be non-negative")
    if any(m < 0 for m in system.mults):
        raise ValueError("multiplicities must be non-negative")
    n_rows = sum(_point_rows(m, system.degree) for m in system.mults)
    n_cols = math.comb(system.degree + 3, 3)
    if n_cols > _MAX_COLS or n_rows * n_cols > _MAX_ENTRIES:
        raise ValueError(
            f"a {n_rows} x {n_cols} conditions matrix exceeds the dense limit "
            f"of {_MAX_COLS} columns and {_MAX_ENTRIES} entries"
        )
    return n_rows, n_cols


# entries per assembly pass over the points of one chart, or one point's
# block if that is larger: _reduce's temporaries stay below the rank engine's
# (one pass over a whole batch of points set window9's peak RSS)
_PASS_ENTRIES = 1 << 16


def _powers(base: np.ndarray, n: int, p: int) -> np.ndarray:
    """base^e mod p for 0 <= e < n, along a new last axis."""
    import numpy as np
    out = np.ones(base.shape + (n,), dtype=np.int64)
    for e in range(1, n):
        out[..., e] = out[..., e - 1] * base % p
    return out


def conditions_matrix(
    system: LinearSystem, points, prime: int = DEFAULT_PRIME
) -> ConditionsMatrix:
    """Assemble the interpolation matrix for the system at the given points.

    ``points`` holds one point per multiplicity, as 3 affine (chart x0 = 1)
    or 4 homogeneous coordinates. The prime must exceed the degree so that
    no derivative coefficient vanishes in characteristic p. Multiplicities
    above d + 1 are clamped to d + 1, which drops only zero rows.
    """
    import numpy as np
    n_rows, n_cols = _checked_shape(system)
    _check_prime(prime)
    d, p = system.degree, prime
    if p <= d:
        raise ValueError("prime must exceed the degree")
    keys = [_projective_key(pt, p) for pt in points]
    if len(keys) != system.npoints:
        raise ValueError("need exactly one point per multiplicity")
    if len(set(keys)) != len(keys):
        raise ValueError("points must be pairwise distinct")
    # every row is written below; np.zeros put window9's peak RSS 0.8 MB higher
    entries = np.empty((n_rows, n_cols), dtype=np.int64)
    # each point with rows, dehomogenized in the chart of its first nonzero
    # coordinate (which its key sets to 1): (chart, the other three
    # coordinates q, multiplicity clamped at d + 1)
    fat = []
    for key, m in zip(keys, system.mults):
        if m >= 1:
            c = key.index(1)
            fat.append((c, key[:c] + key[c + 1 :], min(m, d + 1)))
    if not fat:
        return ConditionsMatrix(entries, p)
    exponents, vertex_columns = _degree_tables(d)
    # Row a (a derivative order) and column e (a monomial) of a point's block
    # hold d^a x^e at q, the product over the chart's variables v of
    #   e_v! / (e_v - a_v)! * q_v^(e_v - a_v),  zero where e_v < a_v,
    # so F[a, e] q^e q^-a: a table F of falling factorials shared by the
    # chart, one scale per column and one per row. Where q_v = 0, q_v^(e_v - a_v)
    # is 1 if e_v = a_v and 0 otherwise: the scales take q_v = 1, and the
    # entries with e_v != a_v are zeroed. Every product below is of two
    # residues, so below p^2 < 2^62, and is reduced before the next.
    general = [(c, q, m) for c, q, m in fat if any(q)]
    if general:
        mmax = max(m for *_, m in general)
        fall = np.array(
            [[math.perm(e, t) % p for e in range(d + 1)] for t in range(mmax)], dtype=np.int64
        )
        q = np.array([q for _, q, _ in general], dtype=np.int64)
        zero = q == 0
        base = np.where(zero, 1, q)
        inv = np.array([pow(x, -1, p) for x in base.ravel().tolist()], dtype=np.int64)
        powers = _powers(base, d + 1, p)  # q_v^e, every point at once
        inv_powers = _powers(inv.reshape(base.shape), mmax, p)  # q_v^-a
        shared = {}  # chart -> F, for the chart's largest multiplicity
    # A point at a vertex has every q_v = 0, so row a has one nonzero entry,
    # a_1! a_2! a_3!, on the monomial x_c^(d - |a|) x^a; the rows are written
    # directly.
    fact = np.array([math.factorial(t) % p for t in range(d + 1)], dtype=np.int64)
    o = exponents[1:, : max((_point_rows(m, d) for _, q, m in fat if not any(q)), default=0)]
    unit = fact[o[0]] * fact[o[1]] % p * fact[o[2]] % p
    row = g = 0
    for (c, m, vertex), run in itertools.groupby(fat, lambda f: (f[0], f[2], not any(f[1]))):
        cnt = len(list(run))  # points are distinct, so a vertex runs alone
        k = _point_rows(m, d)
        if vertex:
            entries[row : row + k] = 0
            entries[row + np.arange(k), vertex_columns[c, :k]] = unit[:k]
            row += k
            continue
        a = exponents[1:, :k]  # the derivative orders
        e = exponents[[v for v in range(4) if v != c]]  # the columns' exponents of q's variables
        if c not in shared:
            top = exponents[1:, : _point_rows(max(m for c2, _, m in general if c2 == c), d), None]
            f = fall[top[0], e[0]] * fall[top[1], e[1]] % p
            shared[c] = f * fall[top[2], e[2]] % p
        step = max(1, _PASS_ENTRIES // (k * n_cols))  # points per pass
        for i in range(g, g + cnt, step):
            pts = slice(i, min(i + step, g + cnt))
            cols = powers[pts, 0, e[0]] * powers[pts, 1, e[1]] % p
            cols = cols * powers[pts, 2, e[2]] % p
            rows = inv_powers[pts, 0, a[0]] * inv_powers[pts, 1, a[1]] % p
            rows = rows * inv_powers[pts, 2, a[2]] % p
            block = entries[row : row + len(cols) * k].reshape(len(cols), k, n_cols)
            np.multiply(shared[c][:k], cols[:, None, :], out=block)
            _reduce(block, p)
            block *= rows[:, :, None]
            _reduce(block, p)
            for j, v in zip(*np.nonzero(zero[pts])):
                block[j][a[v, :, None] != e[v]] = 0
            row += len(cols) * k
        g += cnt
    return ConditionsMatrix(entries, p)


# --- the oracle ---------------------------------------------------------------


def _sample_points(npoints: int, seed: int, prime: int, mode: str):
    # p^3 affine points (1, x, y, z) exist; fundamental mode adds the three
    # vertices outside that chart
    available = prime**3 + (3 if mode == FUNDAMENTAL else 0)
    if npoints > available:
        raise ValueError(
            f"F_{prime} has only {available} distinct points to sample, not {npoints}"
        )
    rng = random.Random(seed)
    pts: list[tuple[int, int, int, int]] = []
    seen = set()
    if mode == FUNDAMENTAL:
        for v in range(min(4, npoints)):
            vertex = tuple(1 if i == v else 0 for i in range(4))
            pts.append(vertex)
            seen.add(vertex)
    while len(pts) < npoints:
        pt = (1, rng.randrange(prime), rng.randrange(prime), rng.randrange(prime))
        if pt in seen:
            continue
        pts.append(pt)
        seen.add(pt)
    return pts


def _cell_ranks(
    system: LinearSystem, config: OracleConfig, cells, *, stop_certified: bool = True
) -> dict[int, list[int]]:
    """Ranks of the prefix systems L(d; m_1, ..., m_k) for each k in ``cells``,
    one list per cell holding the rank of every seed that ran on it.

    Sampling is prefix-stable, so the first k of a seed's points are the
    points a lone k-point call would sample, and one elimination of the
    transposed matrix gives every prefix rank: a pivot column of A^T is a row
    of A independent of the rows before it. A cell is certified once its best
    rank reaches min(rows, cols), which no other seed can exceed; with
    ``stop_certified``, later seeds run only up to the largest uncertified
    cell, and stop when none is left. Without it every seed runs on every cell.
    """
    degree, prime = system.degree, config.prime
    n_cols = _checked_shape(system)[1]
    offsets = [0]
    for m in system.mults:
        offsets.append(offsets[-1] + _point_rows(m, degree))
    ranks: dict[int, list[int]] = {k: [] for k in cells}
    open_cells = sorted(ranks)
    for seed in config.seeds:
        if not open_cells:
            break
        r = open_cells[-1]
        points = _sample_points(r, seed, prime, config.point_mode)
        matrix = conditions_matrix(LinearSystem(degree, system.mults[:r]), points, prime)
        # one open cell takes the whole matrix's rank through rank_mod_p, where
        # bench/test_bench.py::test_traced_run_checks_answers_not_the_oracle_split
        # counts lone eliminations; ROADMAP item 1 changes that test
        if len(open_cells) == 1:
            got = [matrix.rank()]
        else:
            pivots = _rank_profile(matrix.entries.T, prime)
            got = [bisect.bisect_left(pivots, offsets[k]) for k in open_cells]
        for k, rank in zip(open_cells, got):
            ranks[k].append(rank)
        if stop_certified:
            open_cells = [k for k in open_cells if max(ranks[k]) < min(offsets[k], n_cols)]
    return ranks


def _seed_ranks(system: LinearSystem, config: OracleConfig) -> list[int]:
    """Rank of the system's conditions matrix for every seed."""
    # every seed runs, even after a certificate, because
    # bench/test_bench.py::test_oracle_split_accounts_for_the_oracle_call expects
    # two eliminations from a certified lone system; ROADMAP item 1 changes it
    return _cell_ranks(system, config, (system.npoints,), stop_certified=False)[system.npoints]


def _best_rank(ranks: list[int], system: LinearSystem) -> int:
    if len(set(ranks)) > 1:
        warnings.warn(
            f"ranks {ranks} disagree across seeds for degree {system.degree}, "
            f"mults {system.mults}; using the maximum",
            SeedDisagreement,
            stacklevel=3,
        )
    return max(ranks)


def _dimension_and_h1(system: LinearSystem, rank: int) -> tuple[int, int]:
    dim = math.comb(system.degree + 3, 3) - rank - 1
    return dim, (dim - expected_dimension(normalize(system)) if dim >= 0 else 0)


@dataclass(frozen=True)
class OracleReport:
    """One oracle run. ``ranks`` holds every seed's rank, in seed order. A
    best rank of ``min(n_rows, n_cols)`` is ``certified``: no sample can
    exceed it. Any other is a high-probability answer."""

    system: LinearSystem
    prime: int
    seeds: tuple[int, ...]
    point_mode: str
    n_rows: int
    n_cols: int
    ranks: tuple[int, ...]
    dimension: int
    h1: int
    certified: bool

    @property
    def seeds_agree(self) -> bool:
        return len(set(self.ranks)) == 1


def oracle_report(system: LinearSystem, config: OracleConfig = DEFAULT_CONFIG) -> OracleReport:
    """Run the oracle and keep the per-seed ranks, matrix shape and certificate.

    Multiplicities are taken as given (no reordering), so index positions
    keep their meaning in fundamental point mode. A warning is attached when
    ranks disagree across seeds.
    """
    ranks = _seed_ranks(system, config)
    rank = _best_rank(ranks, system)
    n_rows, n_cols = _checked_shape(system)
    dim, h1 = _dimension_and_h1(system, rank)
    return OracleReport(
        system,
        config.prime,
        config.seeds,
        config.point_mode,
        n_rows,
        n_cols,
        tuple(ranks),
        dim,
        h1,
        rank == min(n_rows, n_cols),
    )


def oracle_dimension(system: LinearSystem, config: OracleConfig = DEFAULT_CONFIG) -> int:
    """True projective dimension at the sampled points: C(d+3,3) minus the
    best rank across seeds, minus one; -1 means the system is empty."""
    return oracle_report(system, config).dimension


def oracle_h1(system: LinearSystem, config: OracleConfig = DEFAULT_CONFIG) -> int:
    """Measured speciality: oracle dimension minus expected dimension for a
    non-empty system, and 0 for an empty one."""
    return oracle_report(system, config).h1


# --- grid verification --------------------------------------------------------


@dataclass(frozen=True)
class GridRow:
    degree: int
    mult: int
    npoints: int
    conjectured: int
    oracle: int

    @property
    def match(self) -> bool:
        return self.conjectured == self.oracle


@dataclass(frozen=True)
class GridReport:
    d_max: int
    m_max: int
    r_max: int
    prime: int
    seeds: tuple[int, ...]
    rows: tuple[GridRow, ...]

    @property
    def mismatches(self) -> tuple[GridRow, ...]:
        return tuple(row for row in self.rows if not row.match)

    def to_tsv(self) -> str:
        return "\n".join(
            f"{row.degree}\t{row.mult}\t{row.npoints}\t{row.conjectured}"
            f"\t{row.oracle}\t{'ok' if row.match else 'MISMATCH'}"
            for row in self.rows
        )

    def to_json_dict(self) -> dict:
        return {
            "d_max": self.d_max,
            "m_max": self.m_max,
            "r_max": self.r_max,
            "prime": self.prime,
            "seeds": list(self.seeds),
            "cells": len(self.rows),
            "mismatches": [
                {
                    "d": row.degree,
                    "m": row.mult,
                    "r": row.npoints,
                    "conjectured": row.conjectured,
                    "oracle": row.oracle,
                }
                for row in self.mismatches
            ],
        }


def verify_grid(
    d_max: int, m_max: int, r_max: int, config: OracleConfig = DEFAULT_CONFIG
) -> GridReport:
    """Compare the reduction procedure against the rank oracle on every
    homogeneous system in the box d <= d_max, 1 <= m <= m_max, 1 <= r <= r_max."""
    # the largest matrix of the grid, checked before any work (m_max < 1 is an
    # empty grid, whose matrices have no rows)
    check_point_count(r_max)
    _checked_shape(LinearSystem(d_max, (max(m_max, 0),) * r_max))
    rows = []
    for d in range(d_max + 1):
        n_cols = math.comb(d + 3, 3)
        for m in range(1, m_max + 1):
            # one elimination per seed gives every r <= r_max
            ranks = _cell_ranks(LinearSystem(d, (m,) * r_max), config, range(1, r_max + 1))
            for r in range(1, r_max + 1):
                system = LinearSystem(d, (m,) * r)
                conjectured = conjectured_dimension(system)[0]
                measured = n_cols - _best_rank(ranks[r], system) - 1
                rows.append(GridRow(d, m, r, conjectured, measured))
    return GridReport(d_max, m_max, r_max, config.prime, config.seeds, tuple(rows))


@dataclass(frozen=True)
class WindowRow:
    """One system L(d; m^r) of the window 2m <= d <= 2m + 2: its closed-form
    verdict, the procedure's answer, the oracle's h1, and whether they agree."""

    d: int
    m: int
    r: int
    verdict: str
    conjectured: int
    expected: int
    h1: int
    consistent: bool
    trace: tuple[str, ...]


def verify_homogeneous(
    r: int, m_max: int, config: OracleConfig = DEFAULT_CONFIG
) -> tuple[WindowRow, ...]:
    """Hold ``classify_homogeneous`` against the procedure and the oracle on
    L(d; m^r) for 1 <= m <= m_max and 2m <= d <= 2m + 2. A special verdict
    needs h1 > 0, a non-special one h1 = 0 and an empty one a conjectured
    dimension of -1; a verdict that defers to the procedure is not checked.
    A seed after one that certifies the cell's rank does not run."""
    check_point_count(r)
    rows = []
    for m in range(1, m_max + 1):
        for d in range(2 * m, 2 * m + 3):
            system = LinearSystem(d, (m,) * r)  # already normalized, as m >= 1
            verdict = classify_homogeneous(d, m, r)
            conjectured, trace = conjectured_dimension(system)
            ranks = _cell_ranks(system, config, (r,))[r]
            h1 = _dimension_and_h1(system, _best_rank(ranks, system))[1]
            consistent = {
                VERDICT_SPECIAL: h1 > 0,
                VERDICT_NON_SPECIAL: h1 == 0,
                VERDICT_EMPTY: conjectured == -1,
            }.get(verdict, True)
            expected = expected_dimension(system)
            lines = tuple(render_trace(trace, start=system).splitlines())
            rows.append(WindowRow(d, m, r, verdict, conjectured, expected, h1, consistent, lines))
    return tuple(rows)


def cremona_equivariance_check(system: LinearSystem, config: OracleConfig) -> bool:
    """Oracle dimensions agree before and after the transform based at the
    four coordinate vertices.

    Requires fundamental point mode, so the first four points sit at the
    vertices and both systems are measured against the same point set.
    """
    if config.point_mode != FUNDAMENTAL:
        raise ValueError("equivariance check requires fundamental point mode")
    norm = normalize(system)
    padded = LinearSystem(norm.degree, norm.mults + (0,) * max(0, 4 - norm.npoints))
    image = cremona_system(padded, (0, 1, 2, 3))
    if image.degree < 0 or any(m < 0 for m in image.mults):
        raise ValueError("transform leaves the admissible range for the oracle")
    return oracle_dimension(padded, config) == oracle_dimension(image, config)
