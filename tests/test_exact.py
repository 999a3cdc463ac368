import random
from fractions import Fraction

from stagwave.exact import solve_min_norm

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
