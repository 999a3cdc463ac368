import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stagwave import transfer
from stagwave.assembly import assemble_interface_system
from stagwave.errors import (DomainError, InfeasibleStencilError,
                             UnsupportedRatioError)
from stagwave.exact import solve_min_norm
from stagwave.grids import build_block_2d
from stagwave.transfer import (ElementalStencilPair, certify_pair, derive_elemental_pair,
                               pair_exactness_degree, tabulated_elemental_pair,
                               tile_periodic, transfer_pair_for)

F = Fraction


def test_2_to_1_rows_match_published_formulas():
    pair = tabulated_elemental_pair(F(2, 1))
    assert pair.coarse_to_fine[0] == {0: F(1)}
    assert pair.coarse_to_fine[1] == {-1: F(-1, 16), 0: F(9, 16),
                                      1: F(9, 16), 2: F(-1, 16)}


def test_2_to_1_reverse_row_is_half_transpose():
    pair = tabulated_elemental_pair(F(2, 1))
    # fine offsets -3..3 around the coarse point, zeros at even non-centre
    assert pair.fine_to_coarse[0] == {-3: F(-1, 32), -1: F(9, 32), 0: F(1, 2),
                                      1: F(9, 32), 3: F(-1, 32)}
    c2f, f2c = (tile.astype(float) for tile in tile_periodic(pair, 8, 16).exact_matrices())
    np.testing.assert_array_equal(f2c, 0.5 * c2f.T)


def test_3_to_2_first_row_and_row_sums():
    pair = tabulated_elemental_pair(F(3, 2))
    row = pair.coarse_to_fine[0]
    assert row == {-2: F(-1, 96), -1: F(1, 24), 0: F(15, 16),
                   1: F(1, 24), 2: F(-1, 96)}
    assert sum(row.values()) == 1
    for rows in (pair.coarse_to_fine, pair.fine_to_coarse):
        for r in rows:
            assert sum(r.values()) == 1


@pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5)])
def test_derivation_reproduces_tabulated_pairs(m, n):
    tab = tabulated_elemental_pair(F(m, n))
    der = derive_elemental_pair(F(m, n))
    assert der.coarse_to_fine == tab.coarse_to_fine
    assert der.fine_to_coarse == tab.fine_to_coarse


def test_derivation_with_fixed_support_recovers_2_to_1():
    der = derive_elemental_pair(F(2, 1), support=4)
    tab = tabulated_elemental_pair(F(2, 1))
    assert der.coarse_to_fine == tab.coarse_to_fine


def test_identity_pair_for_conforming_interface():
    pair = tabulated_elemental_pair(F(1, 1))
    assert pair.coarse_to_fine == ({0: F(1)},)
    c2f, f2c = tile_periodic(pair, 12, 12).exact_matrices()
    np.testing.assert_array_equal(c2f.astype(float), np.eye(12))
    np.testing.assert_array_equal(f2c.astype(float), np.eye(12))


@pytest.mark.parametrize("m,n", [(3, 1), (5, 2), (7, 6)])
def test_derived_pairs_for_unlisted_ratios_certify(m, n):
    pair = derive_elemental_pair(F(m, n))
    assert pair_exactness_degree(pair) >= 2
    tiled = tile_periodic(pair, n * 4, m * 4)
    cert = certify_pair(tiled)
    assert cert.ok
    assert cert.row_sum_error == 0.0
    assert cert.adjoint_residual == 0.0


# exact coarse->fine rows of three untabulated ratios: any solver behind
# derive_elemental_pair must reproduce them entry by entry
_PINNED_DERIVED_ROWS = {
    (7, 6): (
        {-6: F(-71, 164640), -5: F(13, 27440), -4: F(-3361, 4445280),
         -3: F(-473, 211680), -2: F(-3163, 296352), -1: F(69863, 889056),
         0: F(4775, 5488), 1: F(69863, 889056), 2: F(-3163, 296352),
         3: F(-473, 211680), 4: F(-3361, 4445280), 5: F(13, 27440),
         6: F(-71, 164640)},
        {-1: F(-221, 6048), 0: F(2699, 14112), 1: F(12277, 14112), 2: F(-1045, 42336)},
        {0: F(-3001, 70560), 1: F(7321, 23520), 2: F(2657, 3360), 3: F(-4199, 70560)},
        {1: F(-3625, 63504), 2: F(10105, 21168), 3: F(13655, 21168), 4: F(-593, 9072)},
        {2: F(-593, 9072), 3: F(13655, 21168), 4: F(10105, 21168), 5: F(-3625, 63504)},
        {3: F(-4199, 70560), 4: F(2657, 3360), 5: F(7321, 23520), 6: F(-3001, 70560)},
        {4: F(-1045, 42336), 5: F(12277, 14112), 6: F(2699, 14112), 7: F(-221, 6048)},
    ),
    (5, 3): (
        {-2: F(-4, 675), -1: F(16, 675), 0: F(217, 225), 1: F(16, 675), 2: F(-4, 675)},
        {-1: F(-34, 675), 0: F(97, 225), 1: F(31, 45), 2: F(-47, 675)},
        {0: F(-13, 225), 1: F(67, 75), 2: F(14, 75), 3: F(-1, 45)},
        {0: F(-1, 45), 1: F(14, 75), 2: F(67, 75), 3: F(-13, 225)},
        {1: F(-47, 675), 2: F(31, 45), 3: F(97, 225), 4: F(-34, 675)},
    ),
    (7, 4): (
        {-3: F(-1, 7056), -2: F(-23, 6272), -1: F(25, 1568), 0: F(27539, 28224),
         1: F(25, 1568), 2: F(-23, 6272), 3: F(-1, 7056)},
        {-1: F(-143, 2688), 0: F(2921, 6272), 1: F(4119, 6272), 2: F(-1303, 18816)},
        {0: F(-303, 6272), 1: F(843, 896), 2: F(755, 6272), 3: F(-81, 6272)},
        {0: F(-1709, 56448), 1: F(5165, 18816), 2: F(15571, 18816), 3: F(-4051, 56448)},
        {1: F(-4051, 56448), 2: F(15571, 18816), 3: F(5165, 18816), 4: F(-1709, 56448)},
        {1: F(-81, 6272), 2: F(755, 6272), 3: F(843, 896), 4: F(-303, 6272)},
        {2: F(-1303, 18816), 3: F(4119, 6272), 4: F(2921, 6272), 5: F(-143, 2688)},
    ),
}


@pytest.mark.parametrize("m,n", sorted(_PINNED_DERIVED_ROWS))
def test_derived_rows_of_untabulated_ratios_are_pinned(m, n):
    rows = derive_elemental_pair(F(m, n)).coarse_to_fine
    expected = _PINNED_DERIVED_ROWS[(m, n)]
    assert [sorted(row) for row in rows] == [sorted(row) for row in expected]
    assert rows == expected


def _candidate(m, n, w_c, w_nc):
    return [transfer._support(r * n, m, w_c if r == 0 else w_nc) for r in range(m)]


def _full_solve(m, n, supports):
    """Minimum-norm coarse->fine rows on exactly the given supports, by one
    exact solve of every unknown, or None if infeasible."""
    a, b, cols = transfer._constraints(m, n, supports)
    x = solve_min_norm(a, b)
    if x is None:
        return None
    rows = [{} for _ in range(m)]
    for (r, k), w in zip(cols, x):
        if w != 0:
            rows[r][k] = w
    return tuple(rows)


def _scan_first_feasible(m, n, w_ncs):
    """The pair's coarse->fine rows by an exact solve of every candidate in
    (w_nc, w_c) order, up to the first feasible one: the search's oracle."""
    for w_nc in w_ncs:
        for w_c in range(1, 2 * m + 2, 2):
            rows = _full_solve(m, n, _candidate(m, n, w_c, w_nc))
            if rows is not None:
                return rows
    return None


@pytest.mark.parametrize("m,n", [(3, 1), (5, 2), (5, 3), (7, 4), (7, 6), (8, 7), (9, 7)])
def test_search_returns_the_first_feasible_candidate_of_a_scan(m, n):
    assert derive_elemental_pair(F(m, n)).coarse_to_fine == \
        _scan_first_feasible(m, n, range(4, 17, 2))
    assert derive_elemental_pair(F(m, n), support=6).coarse_to_fine == \
        _scan_first_feasible(m, n, [6])


def test_the_level_scan_finds_the_first_feasible_width_of_each_level():
    # against full exact solves of each coincident window, on the first two
    # levels of six ratios
    for m, n in [(2, 1), (3, 2), (5, 3), (7, 4), (7, 6), (8, 7)]:
        for w_nc in (4, 6):
            windows = (_full_solve(m, n, _candidate(m, n, w_c, w_nc))
                       for w_c in range(1, 2 * m + 2, 2))
            exact = next((rows for rows in windows if rows is not None), None)
            assert transfer._solve_level(m, n, _candidate(m, n, 2 * m + 1, w_nc)) == exact


def test_a_level_without_a_feasible_width_is_skipped(monkeypatch):
    # pretend the four-point level has no feasible coincident width: the
    # search must go on to the six-point one
    level = transfer._solve_level
    monkeypatch.setattr("stagwave.transfer._solve_level",
                        lambda m, n, supports: None if len(supports[1]) == 4
                        else level(m, n, supports))
    assert derive_elemental_pair(F(7, 6)).coarse_to_fine == \
        derive_elemental_pair(F(7, 6), support=6).coarse_to_fine != \
        _PINNED_DERIVED_ROWS[(7, 6)]


def test_derivation_makes_one_exact_solve_per_level(monkeypatch):
    six_point = derive_elemental_pair(F(7, 6), support=6).coarse_to_fine
    original = transfer.solve_min_norm
    calls = []
    infeasible = 0

    def counted(a, b, sizes=None):
        calls.append(len(a[0]))
        # the first `infeasible` levels are made to report no feasible window
        return None if len(calls) <= infeasible else original(a, b, sizes)

    monkeypatch.setattr("stagwave.transfer.solve_min_norm", counted)
    # each solve takes a level's widest candidate: six rows of w points and
    # row 0's window of 2 * 7 + 1 points
    assert derive_elemental_pair(F(7, 6)).coarse_to_fine == _PINNED_DERIVED_ROWS[(7, 6)]
    assert calls == [6 * 4 + 15]
    calls.clear()
    infeasible = 1
    assert derive_elemental_pair(F(7, 6)).coarse_to_fine == six_point
    assert calls == [6 * 4 + 15, 6 * 6 + 15]


def test_infeasible_when_search_space_empty(monkeypatch):
    monkeypatch.setattr("stagwave.transfer.MAX_WIDTH", 2)
    with pytest.raises(InfeasibleStencilError):
        derive_elemental_pair(F(3, 2))


def test_infeasible_when_search_space_empty_for_an_untabulated_ratio(monkeypatch):
    # no candidate at all: no exact solve may run
    monkeypatch.setattr("stagwave.transfer.MAX_WIDTH", 2)
    monkeypatch.setattr("stagwave.transfer.solve_min_norm",
                        lambda *args: pytest.fail("solve_min_norm called"))
    with pytest.raises(InfeasibleStencilError):
        derive_elemental_pair(F(7, 6))


def _dense_adjoint_residual(pair) -> Fraction:
    c2f, f2c = pair.exact_matrices()
    return np.abs(F(pair.elemental.n, pair.elemental.m) * c2f.T - f2c).max()


_CERTIFIED = ([F(m, n) for m, n in ((1, 1), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5))]
              + [F(m, n) for m, n in sorted(_PINNED_DERIVED_ROWS)])


@pytest.mark.parametrize("ratio", _CERTIFIED, ids=str)
@pytest.mark.parametrize("elements", [1, 4])
def test_sparse_certificate_equals_the_dense_residual(ratio, elements):
    try:
        elem = tabulated_elemental_pair(ratio)
    except UnsupportedRatioError:
        elem = derive_elemental_pair(ratio)
    pair = tile_periodic(elem, elements * elem.n, elements * elem.m)
    cert = certify_pair(pair)
    assert cert.adjoint_residual == float(_dense_adjoint_residual(pair)) == 0.0
    assert cert.adjoint_exact and cert.ok

    # one fine->coarse weight off by 1/1000: the certificate must see it,
    # because it checks the rows as given, and report the dense residual
    f2c = [dict(row) for row in elem.fine_to_coarse]
    k = min(f2c[0])
    f2c[0][k] += F(1, 1000)
    broken = tile_periodic(ElementalStencilPair(elem.ratio, elem.coarse_to_fine, tuple(f2c)),
                           elements * elem.n, elements * elem.m)
    cert = certify_pair(broken)
    assert not cert.adjoint_exact and not cert.ok
    assert cert.adjoint_residual == float(_dense_adjoint_residual(broken)) > 0.0


def test_exactness_degrees_match_accuracy_claims():
    assert pair_exactness_degree(tabulated_elemental_pair(F(2, 1))) == 3
    for r in (F(3, 2), F(4, 3), F(5, 4), F(6, 5)):
        assert pair_exactness_degree(tabulated_elemental_pair(r)) == 2


def test_tiling_to_experiment_sizes():
    pair = tabulated_elemental_pair(F(2, 1))
    c2f_e, f2c_e = tile_periodic(pair, 60, 120).exact_matrices()
    assert c2f_e.shape == (120, 60)
    assert f2c_e.shape == (60, 120)
    resid = np.abs(0.5 * c2f_e.astype(float).T - f2c_e.astype(float)).max()
    assert resid == 0.0
    assert all(F(1, 2) * c2f_e[l][k] == f2c_e[k][l]
               for l in range(120) for k in range(60))


def test_tiled_rows_sum_to_one():
    pair = tabulated_elemental_pair(F(3, 2))
    for tile in tile_periodic(pair, 100, 150).exact_matrices():
        np.testing.assert_allclose(tile.astype(float).sum(axis=1), 1.0,
                                   rtol=0, atol=1e-15)


def test_tiling_divisibility_and_length_checks():
    pair = tabulated_elemental_pair(F(3, 2))
    with pytest.raises(DomainError):
        tile_periodic(pair, 61, 90)
    with pytest.raises(DomainError):
        tile_periodic(pair, 60, 100)
    for n_coarse, n_fine in ((0, 0), (-2, -3)):
        with pytest.raises(DomainError):
            tile_periodic(pair, n_coarse, n_fine)


def test_wrapped_stencils_are_summed_exactly_then_rounded():
    # one elemental interval of 6:5: the 11-point coincident row wraps over
    # 5 coarse points, so several weights land on one entry; the exact tile
    # holds their exact sum, and rounding it gives that sum rounded once
    elem = tabulated_elemental_pair(F(6, 5))
    tiles = tile_periodic(elem, 5, 6).exact_matrices()
    for rows, exact in zip((elem.coarse_to_fine, elem.fine_to_coarse), tiles):
        assert exact.shape[0] == len(rows)
        flt = exact.astype(float)
        for i, j in np.ndindex(exact.shape):
            want = sum((w for k, w in rows[i].items() if k % exact.shape[1] == j), F(0))
            assert exact[i, j] == want
            assert flt[i, j] == float(want)


@pytest.mark.parametrize("ratio, n_coarse, n_fine", [
    (F(1), 1, 1), (F(1), 12, 12),
    (F(2, 1), 12, 24), (F(3, 2), 14, 21), (F(4, 3), 15, 20), (F(5, 4), 16, 20),
    (F(6, 5), 20, 24),
    (F(7, 6), 12, 14),                     # derived: no tabulated pair
    (F(6, 5), 5, 6), (F(2, 1), 1, 2),      # minimal tilings: stencils wrap onto one entry
], ids=["1:1-1x1", "1:1-12x12", "2:1", "3:2", "4:3", "5:4", "6:5", "7:6-derived",
        "6:5-5x6", "2:1-1x2"])
def test_stencil_application_matches_the_exact_tiles(ratio, n_coarse, n_fine):
    # the gather plans apply the stencils with the wrapped weights summed in
    # floating point; the dense tiles sum them exactly and round once
    pair = transfer_pair_for(ratio, n_coarse, n_fine)
    rng = np.random.default_rng(11)
    c2f, f2c = (tile.astype(float) for tile in pair.exact_matrices())
    for plan, tile, n_in in ((pair.c2f_plan, c2f, n_coarse),
                             (pair.f2c_plan, f2c, n_fine)):
        for _ in range(5):
            x = rng.standard_normal(n_in)
            ref = tile @ x
            got = plan.apply(x)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def _held_arrays(obj) -> list[np.ndarray]:
    """Arrays reachable from obj through dataclass fields, sequences, the
    cells of closures and the instances of bound methods."""
    found, stack, seen = [], [obj], set()
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found.append(o)
        elif isinstance(o, (tuple, list)):
            stack.extend(o)
        elif dataclasses.is_dataclass(o):
            stack.extend(getattr(o, f.name) for f in dataclasses.fields(o))
        elif callable(o):
            stack.extend(cell.cell_contents for cell in getattr(o, "__closure__", None) or ())
            stack.append(getattr(o, "__self__", None))
    return found


def test_wide_tiling_holds_no_dense_tile():
    # the survey's 6:5 interface: dense tiles would be 400 x 480
    elem = tabulated_elemental_pair(F(6, 5))
    tracemalloc.start()
    try:
        pair = tile_periodic(elem, 400, 480)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    dense = 400 * 480
    assert max(a.size for a in _held_arrays(pair)) < dense
    h = F(8, 400)
    system = assemble_interface_system(
        [build_block_2d(0, 1, 400, 0, h, 9),
         build_block_2d(0, 1, 480, h, h + F(8, 480), 9)], transfers=[pair])
    held = _held_arrays(system._interfaces)
    assert any(a is pair.f2c_plan.index for a in held)
    assert max(a.size for a in held) < dense


def test_unsupported_ratio_raises():
    with pytest.raises(UnsupportedRatioError):
        tabulated_elemental_pair(F(7, 2))
    with pytest.raises(DomainError):
        derive_elemental_pair(F(1, 2))


def test_transfer_pair_for_prefers_tables_and_falls_back():
    tiled = transfer_pair_for(F(2, 1), 10, 20)
    assert tiled.elemental.coarse_to_fine == tabulated_elemental_pair(F(2, 1)).coarse_to_fine
    tiled = transfer_pair_for(F(5, 2), 10, 25)
    assert certify_pair(tiled).ok


def test_transfer_pair_for_rejects_a_derived_pair_failing_its_certificate(monkeypatch):
    good = derive_elemental_pair(F(5, 2))
    rows = [dict(r) for r in good.coarse_to_fine]
    rows[0][min(rows[0])] += F(1, 2)          # row sum 3/2
    broken = ElementalStencilPair(F(5, 2), tuple(rows), good.fine_to_coarse)
    monkeypatch.setattr("stagwave.transfer.derive_elemental_pair", lambda ratio: broken)
    with pytest.raises(InfeasibleStencilError):
        transfer_pair_for(F(5, 2), 10, 25)
