import bisect
from fractions import Fraction

import numpy as np
import pytest

import fatpoint3.oracle as oracle_module
from fatpoint3.oracle import (
    _BLOCK,
    DEFAULT_PRIME,
    _eliminate,
    _matmul_mod,
    _rank_profile,
    rank_mod_p,
)


def rank_over_rationals(rows):
    """Reference rank by fraction-free Gauss over Q (independent of numpy)."""
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    for c in range(n):
        pivot = next((i for i in range(rank, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][c]
        for i in range(rank + 1, m):
            f = a[i][c] * inv
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def test_rank_matches_rational_reference_on_small_matrices():
    # entries stay tiny, so no nonzero minor can vanish mod 2^31 - 1 (a 6 x 6
    # minor of entries |x| <= 3 is at most 3^6 * 6^3 by Hadamard) and the ranks
    # over Q and F_p provably coincide; panels of width 1 to 3 also run the
    # trailing matrix-product update against the rational reference. The
    # second set holds -1 and -2 as the residues p - 1 and p - 2, so products
    # in the elimination sit near 2^62 from the first pivot on.
    rng = np.random.default_rng(42)
    p = DEFAULT_PRIME
    for low, high in ((0, 4), (-2, 3)):
        for _ in range(200):
            m, n = rng.integers(1, 7, size=2)
            a = rng.integers(low, high, size=(m, n))
            expected = rank_over_rationals(a.tolist())
            residues = a % p
            pivots = _rank_profile(residues, p)
            assert len(pivots) == rank_mod_p(residues, p) == expected
            for panel in (1, 2, 3):
                assert _eliminate(residues.astype(np.int64), p, panel) == pivots


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 65521])
def test_matmul_mod_is_exact_at_the_largest_entries(p):
    # every entry p - 1 over the inner dimension _BLOCK, the widest panel: the
    # largest partial sums the trailing update can hand the two float64
    # products, (2^16 - 1)(2^31 - 2) * 64 < 2^53 for p = 2^31 - 1
    rng = np.random.default_rng(5)
    for x, y in (
        (np.full((3, _BLOCK), p - 1, dtype=np.int64), np.full((_BLOCK, 4), p - 1, dtype=np.int64)),
        (rng.integers(p // 2, p, size=(5, _BLOCK)), rng.integers(p // 2, p, size=(_BLOCK, 6))),
    ):
        got = _matmul_mod(x, y, p)
        expected = [
            [sum(int(u) * int(v) for u, v in zip(row, col)) % p for col in y.T] for row in x
        ]
        assert got.dtype == np.int64 and got.tolist() == expected
    with pytest.raises(ValueError):
        _matmul_mod(np.ones((1, _BLOCK + 1), dtype=np.int64), np.ones((_BLOCK + 1, 1), dtype=np.int64), p)


def _planted(m, pivot_cols, n, rng):
    # C @ E, with E in row echelon form (unit pivots at pivot_cols) and C of
    # full column rank over every field (its top block is unit lower
    # triangular): C is injective, so C @ E has exactly the column
    # dependencies of E, and its column rank profile is pivot_cols over Q and
    # over every F_p; the rows are then shuffled
    k = len(pivot_cols)
    e = np.zeros((k, n), dtype=np.int64)
    for t, j in enumerate(pivot_cols):
        e[t, j] = 1
        e[t, j + 1 :] = rng.integers(0, 3, size=n - j - 1)
        e[t, [c for c in pivot_cols if c > j]] = 0
    c = rng.integers(0, 3, size=(m, k))
    c[:k] = np.tril(c[:k], -1) + np.eye(k, dtype=np.int64)
    return rng.permutation(c @ e)


def test_panels_agree_with_one_panel_and_the_planted_profile():
    rng = np.random.default_rng(23)
    cases = {
        # rows run out in the middle of the second panel of the widest width
        "rows out mid-panel": (50, range(0, 100, 2), 180),
        # the second and third panels of the widest width hold no pivot
        "panel with no pivot": (150, [*range(40), *range(200, 230)], 240),
        "fewer rows than the width": (10, [3, 7, 70, 71, 100, 101, 102, 140, 141, 149], 150),
        "single row": (1, [5], 150),
        "single column": (40, [0], 1),
        "zero column": (40, [], 1),
        # more rows than one trailing product takes
        "tall": (2500, [*range(0, 60), *range(70, 130)], 140),
    }
    for name, (m, pivot_cols, n) in cases.items():
        pivot_cols = list(pivot_cols)
        a = _planted(m, pivot_cols, n, rng) % DEFAULT_PRIME
        assert _eliminate(a.copy(), DEFAULT_PRIME, n) == pivot_cols, name  # one panel
        for panel in (1, 2, 3, _BLOCK):
            assert _eliminate(a.copy(), DEFAULT_PRIME, panel) == pivot_cols, (name, panel)
        assert _rank_profile(a, DEFAULT_PRIME) == pivot_cols, name
        if m * n <= 1500:  # small enough for the rational reference, prefix by prefix
            for j in range(n + 1):
                assert bisect.bisect_left(pivot_cols, j) == rank_over_rationals(a[:, :j].tolist())


def test_engine_never_asks_the_kernel_past_its_bound(monkeypatch):
    inner = []

    def checked(x, y, p):
        inner.append(x.shape[1])
        assert x.shape[1] == y.shape[0] <= _BLOCK
        return _matmul_mod(x, y, p)

    monkeypatch.setattr(oracle_module, "_matmul_mod", checked)
    rng = np.random.default_rng(29)
    # from a few columns to enough for the widest panel, tall and wide
    for m, n in ((40, 30), (300, 120), (120, 300), (900, 1100), (1500, 80)):
        a = rng.integers(0, DEFAULT_PRIME, size=(m, n), dtype=np.int64)
        assert len(_rank_profile(a, DEFAULT_PRIME)) == min(m, n)
    assert max(inner) == _BLOCK


def test_pivot_columns_give_every_row_prefix_rank():
    # the pivot columns of A^T are the rows of A independent of the rows
    # above them, so counting pivots below k gives the rank of the first k rows
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, n = rng.integers(1, 7, size=2)
        a = rng.integers(0, 4, size=(m, n))
        pivots = _rank_profile(a.T, DEFAULT_PRIME)
        assert pivots == sorted(pivots)
        for k in range(m + 1):
            assert bisect.bisect_left(pivots, k) == rank_over_rationals(a[:k].tolist())


def _assert_profile(a, p=DEFAULT_PRIME):
    # the pruned profile against the unpruned engine and, column prefix by
    # column prefix, against the rank over Q
    pivots = _rank_profile(a, p)
    assert pivots == _eliminate(np.array(a, dtype=np.int64) % p, p, a.shape[1])
    for j in range(a.shape[1] + 1):
        assert bisect.bisect_left(pivots, j) == rank_over_rationals(a[:, :j].tolist())
    return pivots


def test_pruning_keeps_the_column_rank_profile():
    duplicate = np.array([[0, 3, 0, 0], [0, 5, 0, 0], [1, 2, 1, 0], [2, 4, 2, 0]])
    assert _assert_profile(duplicate) == [0, 1]
    shared = np.array([[0, 0, 7], [1, 1, 2], [2, 3, 5]])  # column 2 also in dense rows
    assert _assert_profile(shared) == [0, 1, 2]
    every_row_singleton = np.array([[0, 2, 0], [4, 0, 0], [0, 0, 1], [3, 0, 0]])
    assert _assert_profile(every_row_singleton) == [0, 1, 2]
    zero_rows = np.array([[0, 0, 0], [1, 1, 0], [0, 0, 0], [2, 2, 0]])
    assert _assert_profile(zero_rows) == [0]
    # singleton rows of a transposed view are singleton columns of its base
    base = np.array([[1, 0, 0], [2, 0, 3], [4, 6, 0], [5, 0, 0]])
    assert _assert_profile(base.T) == [0, 1, 2]
    # leading singleton columns: two on one row, a zero column among them, and
    # their rows used again by later columns
    lead = np.array([[2, 0, 5, 0, 1, 1], [0, 0, 0, 3, 1, 2], [0, 0, 0, 0, 1, 1]])
    assert _assert_profile(lead) == [0, 3, 4]
    # random matrices with planted singleton rows and leading singleton
    # columns, some on a shared column or row
    rng = np.random.default_rng(17)
    for _ in range(300):
        m, n = (int(x) for x in rng.integers(1, 7, size=2))
        a = rng.integers(0, 3, size=(m, n))
        for i in np.flatnonzero(rng.random(m) < 0.5):
            a[i] = 0
            a[i, rng.integers(0, n)] = rng.integers(1, 4)
        for j in range(int(rng.integers(0, n + 1))):
            a[:, j] = 0
            a[rng.integers(0, m), j] = rng.integers(0, 4)
        _assert_profile(a)
        _assert_profile(a.T)


def test_blocked_and_simple_backends_agree():
    rng = np.random.default_rng(3)
    p = DEFAULT_PRIME
    for _ in range(12):
        m, n = (int(x) for x in rng.integers(130, 400, size=2))
        k = int(rng.integers(0, min(m, n) + 1))
        left = rng.integers(0, p, size=(m, k), dtype=np.int64)
        right = rng.integers(0, p, size=(k, n), dtype=np.int64)
        product = np.zeros((m, n), dtype=np.int64)
        for t in range(k):  # exact rank-k product, accumulated mod p
            product = (product + left[:, t : t + 1] * right[t : t + 1, :]) % p
        pivots = _eliminate(product.copy(), p, n)  # one panel over every column
        assert len(pivots) == k
        assert _eliminate(product.copy(), p, _BLOCK) == pivots


def test_blocked_handles_rank_deficient_panels():
    p = DEFAULT_PRIME
    rng = np.random.default_rng(11)
    a = rng.integers(0, p, size=(300, 300), dtype=np.int64)
    a[:, 50:180] = 0          # a whole run of dead columns inside one panel
    a[120:260] = a[119]       # repeated rows
    pivots = _eliminate(a.copy(), p, a.shape[1])
    assert _eliminate(a.copy(), p, _BLOCK) == pivots
    assert not set(pivots) & set(range(50, 180))  # dead columns never pivot


def test_rank_handles_negative_entries_and_small_primes():
    a = np.array([[-1, 2], [1, -2], [3, 5]])
    assert rank_mod_p(a, DEFAULT_PRIME) == 2
    assert rank_mod_p(a, 7) == 2
    # mod 3 the third row becomes dependent on the first two
    b = np.array([[1, 2], [2, 1]])
    assert rank_mod_p(b, 3) == 1  # det = -3 vanishes mod 3
    assert rank_mod_p(b, 5) == 2


def test_entries_outside_the_field_are_reduced_and_the_input_kept():
    # the engine reduces only a matrix with an entry outside [0, p), and
    # never writes to its input; entries p, -p and 2p + 1 are 0, 0 and 1 mod p
    p = 101
    fixed = [
        np.array([[p, 1], [0, 1]]),  # p, and nothing negative
        np.array([[-p, 1], [0, 2]]),  # -p, and nothing at p or above
        np.array([[2 * p + 1, 2 * p, -1], [0, -p, 2 * p + 1], [-2 * p - 1, 1, p - 1]]),
    ]
    rng = np.random.default_rng(29)
    lifted = []
    for _ in range(200):
        m, n = (int(x) for x in rng.integers(1, 7, size=2))
        a = rng.integers(0, 3, size=(m, n))
        for i in np.flatnonzero(rng.random(m) < 0.4):  # singleton rows
            a[i] = 0
            a[i, rng.integers(0, n)] = rng.integers(1, 3)
        lifted.append(a + p * rng.integers(-2, 3, size=(m, n)))
    for a in fixed + lifted:
        kept = a.copy()
        for m in (a, a.T):
            residues = np.array(m % p, dtype=np.int64)
            expected = _eliminate(residues.copy(), p, m.shape[1])  # no pruning
            assert _rank_profile(m, p) == _rank_profile(residues, p) == expected
            assert rank_mod_p(m, p) == rank_mod_p(residues, p) == len(expected)
            assert (residues == m % p).all()
        assert (a == kept).all()
    assert [_rank_profile(a, p) for a in fixed] == [[1], [1], [0, 1, 2]]


def test_rank_edge_shapes():
    assert rank_mod_p(np.zeros((0, 5), dtype=np.int64), DEFAULT_PRIME) == 0
    assert rank_mod_p(np.zeros((4, 4), dtype=np.int64), DEFAULT_PRIME) == 0
    assert rank_mod_p(np.eye(3, dtype=np.int64), DEFAULT_PRIME) == 3


def test_rank_rejects_bad_modulus():
    with pytest.raises(ValueError):
        rank_mod_p(np.eye(2, dtype=np.int64), 10)
    with pytest.raises(ValueError):
        rank_mod_p(np.eye(2, dtype=np.int64), 2**31 + 11)
