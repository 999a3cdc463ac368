import random
from fractions import Fraction

import pytest

from stagwave.exact import _exact_combination, solve_min_norm

F = Fraction


def test_empty_system_returns_empty_list():
    assert solve_min_norm([], []) == []


def test_underdetermined_row_gives_minimum_norm_point():
    assert solve_min_norm([[F(1), F(1)]], [F(2)]) == [F(1), F(1)]


def test_dependent_rows_are_dropped():
    assert solve_min_norm([[F(1), F(1)], [F(2), F(2)]], [F(2), F(4)]) == [F(1), F(1)]


def test_inconsistent_dependent_rows_return_none():
    assert solve_min_norm([[F(1), F(1)], [F(2), F(2)]], [F(2), F(5)]) is None


def _rank(rows) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    for c in range(len(mat[0])):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] / mat[rank][c]
            mat[i] = [u - f * v for u, v in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _in_row_space(a, x) -> bool:
    return _rank(a) == _rank(a + [x])


def test_random_rank_deficient_systems_are_solved_exactly_at_minimum_norm():
    rng = random.Random(20260310)

    def rat():
        return F(0) if rng.random() < 0.3 else F(rng.randint(-9, 9), rng.randint(1, 8))

    solved = inconsistent = 0
    for _ in range(50):
        n_rows, n_cols = rng.randint(2, 7), rng.randint(2, 7)
        rank = rng.randint(1, min(n_rows, n_cols) - 1)
        basis = [[rat() for _ in range(n_cols)] for _ in range(rank)]
        a = [[sum((c * b[j] for c, b in zip(coef, basis)), F(0)) for j in range(n_cols)]
             for coef in ([rat() for _ in range(rank)] for _ in range(n_rows))]
        if rng.random() < 0.5:
            x0 = [rat() for _ in range(n_cols)]
            b = [sum((u * v for u, v in zip(row, x0)), F(0)) for row in a]
        else:
            b = [rat() for _ in range(n_rows)]
        x = solve_min_norm(a, b)
        if x is None:
            # inconsistent: b lies outside the column space of A
            assert not _in_row_space([list(col) for col in zip(*a)], b)
            inconsistent += 1
            continue
        assert all(isinstance(v, Fraction) for v in x)
        assert [sum((u * v for u, v in zip(row, x)), F(0)) for row in a] == b
        assert _in_row_space(a, x)
        solved += 1
    assert solved >= 20 and inconsistent >= 5


def _solve_square(mat, rhs):
    """Gauss-Jordan in Fractions for a nonsingular square system."""
    aug = [list(row) + [r] for row, r in zip(mat, rhs)]
    k = len(aug)
    for c in range(k):
        piv = next(i for i in range(c, k) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for i in range(k):
            if i != c and aug[i][c] != 0:
                aug[i] = [u - aug[i][c] * v for u, v in zip(aug[i], aug[c])]
    return [row[k] for row in aug]


def _oracle_min_norm(a, b):
    """x = B^T (B B^T)^-1 d on a maximal set of independent rows B of A, d
    their right side; None if b is not in the column space of A."""
    keep = []
    for i, row in enumerate(a):
        if _rank([a[j] for j in keep] + [row]) > len(keep):
            keep.append(i)
    if _rank([list(row) + [r] for row, r in zip(a, b)]) > len(keep):
        return None
    rows = [a[i] for i in keep]
    gram = [[sum((x * y for x, y in zip(u, v)), F(0)) for v in rows] for u in rows]
    lam = _solve_square(gram, [b[i] for i in keep])
    return [sum((l * row[j] for l, row in zip(lam, rows)), F(0)) for j in range(len(a[0]))]


def test_min_norm_matches_the_row_space_formula_at_every_nullity():
    rng = random.Random(20261019)

    def rat():
        return F(0) if rng.random() < 0.3 else F(rng.randint(-9, 9), rng.randint(1, 8))

    seen = {}
    for _ in range(400):
        nullity = rng.randint(0, 6)
        rank = rng.randint(1, 4)
        n_cols = rank + nullity
        n_rows = rng.randint(rank, rank + 3)
        basis = [[rat() for _ in range(n_cols)] for _ in range(rank)]
        a = [[sum((c * v[j] for c, v in zip(coef, basis)), F(0)) for j in range(n_cols)]
             for coef in ([rat() for _ in range(rank)] for _ in range(n_rows))]
        if rng.random() < 0.3:
            b = [rat() for _ in range(n_rows)]
        else:
            x0 = [rat() for _ in range(n_cols)]
            b = [sum((u * v for u, v in zip(row, x0)), F(0)) for row in a]
        want = _oracle_min_norm(a, b)
        assert solve_min_norm(a, b) == want
        actual_rank = _rank(a)
        kind = ("inconsistent" if want is None
                else min(n_cols - actual_rank, 4) if n_cols - actual_rank <= actual_rank
                else "nullity above rank")
        seen[kind] = seen.get(kind, 0) + 1
    # full column rank (no Gram solve), the null-space Gram system at
    # nullity 1, 2 and 3 and at a nullity above the rank, and inconsistent
    # systems are each drawn
    for kind in (0, 1, 2, 3, "nullity above rank", "inconsistent"):
        assert seen.get(kind, 0) >= 10, seen


def test_sized_solve_matches_the_oracle_on_the_first_consistent_leading_block():
    rng = random.Random(20261020)

    def rat():
        return F(0) if rng.random() < 0.4 else F(rng.randint(-9, 9), rng.randint(1, 8))

    seen = set()
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 7)
        a = [[rat() for _ in range(n_cols)] for _ in range(n_rows)]
        if rng.random() < 0.5:
            # b is a combination of a few leading columns, so some block solves it
            k = rng.randint(1, n_cols)
            b = [sum((rat() * v for v in row[:k]), F(0)) for row in a]
        else:
            b = [rat() for _ in range(n_rows)]
        sizes = sorted(rng.sample(range(n_cols + 1), rng.randint(1, n_cols + 1)))
        blocks = ((i, _oracle_min_norm([row[:k] for row in a], b)) for i, k in enumerate(sizes))
        index, want = next(((i, x) for i, x in blocks if x is not None), (None, None))
        assert solve_min_norm(a, b, sizes) == want
        # without sizes, the whole system is solved as before
        assert solve_min_norm(a, b) == solve_min_norm(a, b, [n_cols]) == _oracle_min_norm(a, b)
        seen.add(index if index is None else min(index, 2))
    assert seen == {None, 0, 1, 2}


def test_sized_solve_of_size_zero_no_consistent_size_or_no_rows():
    # size 0 is the empty block, consistent exactly when b = 0
    assert solve_min_norm([[F(1), F(2)]], [F(0)], [0, 2]) == []
    assert solve_min_norm([[F(1), F(2)]], [F(5)], [0, 2]) == [F(1), F(2)]
    # no consistent size: the leading column is zero, or no size is given
    assert solve_min_norm([[F(0), F(1)]], [F(1)], [0, 1]) is None
    assert solve_min_norm([[F(1)]], [F(1)], []) is None
    # no equation: the first size is solved by zeros
    assert solve_min_norm([], [], [0, 2]) == []
    assert solve_min_norm([], [], [2]) == [F(0), F(0)]


def test_an_inexact_division_raises():
    assert _exact_combination([4, 6], 1, 1, [2, 2], 2) == [1, 2]
    with pytest.raises(ArithmeticError):
        _exact_combination([4, 5], 1, 1, [2, 2], 2)
