from fractions import Fraction

import numpy as np
import pytest

from stagwave.errors import DomainError
from stagwave.sbp1d import (DENSE_MAX_POINTS, INTERIOR_STENCIL, PROJECTION, STRIP_BYTES,
                            TILE, build_periodic_1d, build_sbp_1d, structure_report,
                            verify_sbp_structure)

F = Fraction


@pytest.fixture(scope="module")
def ops9():
    return build_sbp_1d(9, 1.0)


def test_structure_certificate_exact(ops9):
    report = verify_sbp_structure(ops9)
    assert report.exact is True
    assert report.structure_residual <= 1e-14
    np.testing.assert_array_equal(report.q_first_row[:4], [-15 / 8, 5 / 4, -3 / 8, 0.0])
    assert np.all(report.q_first_row[3:] == 0.0)


def test_projection_reproduces_constants(ops9):
    v = np.ones(ops9.n_v)
    assert ops9.proj_left @ v == pytest.approx(1.0, abs=1e-15)
    assert ops9.proj_right @ v == pytest.approx(1.0, abs=1e-15)


def test_projection_exact_on_quadratic(ops9):
    # 15/8 * 0.25 - 5/4 * 2.25 + 3/8 * 6.25 == 0 == x^2 at the left endpoint
    xv = np.arange(ops9.n_v) + 0.5
    assert ops9.proj_left @ xv**2 == pytest.approx(0.0, abs=1e-13)
    assert ops9.proj_right @ xv**2 == pytest.approx(8.0**2, rel=1e-14)


def test_derivative_exactness_degrees_exact_arithmetic():
    ops = build_sbp_1d(12, 1.0)
    dv = ops.exact_d_v()
    dp = ops.exact_d_p()
    xp = [F(i) for i in range(12)]
    xv = [F(2 * j + 1, 2) for j in range(11)]
    for k in range(3):  # degree <= 2 everywhere
        for i, row in enumerate(dv):
            want = k * xp[i] ** (k - 1) if k else F(0)
            assert sum(c * x**k for c, x in zip(row, xv)) == want
        for j, row in enumerate(dp):
            want = k * xv[j] ** (k - 1) if k else F(0)
            assert sum(c * x**k for c, x in zip(row, xp)) == want
    for k in (3, 4):  # degree <= 4 on interior rows
        for i in range(4, 8):
            assert sum(c * x**k for c, x in zip(dv[i], xv)) == k * xp[i] ** (k - 1)
        for j in range(3, 8):
            assert sum(c * x**k for c, x in zip(dp[j], xp)) == k * xv[j] ** (k - 1)


def test_measured_degrees_via_report(ops9):
    report = verify_sbp_structure(ops9)
    assert all(d >= 2 for d in report.dv_row_degrees)
    assert all(d >= 2 for d in report.dp_row_degrees)
    assert report.dv_row_degrees[4] == 4      # interior row
    assert report.dp_row_degrees[4] == 4
    assert report.proj_degrees == (2, 2)


def test_quadrature_sums_to_interval_length():
    ops = build_sbp_1d(14, 1.0)
    assert sum(ops.exact_a_p()) == 13
    assert sum(ops.exact_a_v()) == 13
    ops = build_sbp_1d(14, 0.25)
    assert ops.a_p.sum() == pytest.approx(13 * 0.25, rel=1e-15)
    assert ops.a_v.sum() == pytest.approx(13 * 0.25, rel=1e-15)


def test_spacing_scaling_is_entrywise():
    a = build_sbp_1d(11, 1.0)
    b = build_sbp_1d(11, 0.125)
    np.testing.assert_array_equal(b.dense_d_p(), a.dense_d_p() / 0.125)
    np.testing.assert_array_equal(b.dense_d_v(), a.dense_d_v() / 0.125)
    np.testing.assert_array_equal(b.a_p, a.a_p * 0.125)
    np.testing.assert_array_equal(b.a_v, a.a_v * 0.125)


def test_banded_apply_matches_dense_materialization():
    # at 13 points the operator applies as one matrix, at 97 as tiles
    for n, dx in ((13, 0.5), (97, 1.0)):
        ops = build_sbp_1d(n, dx)
        np.testing.assert_array_equal(ops.apply_d_p(np.eye(n), axis=0), ops.dense_d_p())
        np.testing.assert_array_equal(ops.apply_d_v(np.eye(n - 1), axis=0), ops.dense_d_v())
        p = np.random.default_rng(0).standard_normal(n)
        np.testing.assert_allclose(ops.apply_d_p(p), ops.dense_d_p() @ p,
                                   rtol=0, atol=1e-13)


def test_apply_along_second_axis():
    ops = build_sbp_1d(11, 1.0)
    field = np.random.default_rng(1).standard_normal((4, 11))
    np.testing.assert_allclose(ops.apply_d_p(field, axis=1),
                               field @ ops.dense_d_p().T, rtol=0, atol=1e-13)


# the minimum sizes too: at 9 points the two closure windows overlap, at 4
# the wrap product covers three of the four rows; axes of at most
# DENSE_MAX_POINTS points apply as one matrix, longer ones as tiles
KERNEL_OPERATORS = [build_sbp_1d(13, 0.37), build_periodic_1d(11, 0.37),
                    build_sbp_1d(9, 0.37), build_periodic_1d(4, 0.37),
                    build_sbp_1d(90, 0.37), build_sbp_1d(91, 0.37),
                    build_periodic_1d(90, 0.37), build_periodic_1d(91, 0.37),
                    build_sbp_1d(DENSE_MAX_POINTS, 0.37),
                    build_sbp_1d(DENSE_MAX_POINTS + 1, 0.37),
                    build_periodic_1d(DENSE_MAX_POINTS, 0.37),
                    build_periodic_1d(DENSE_MAX_POINTS + 1, 0.37)]
KERNEL_IDS = ["bounded", "periodic", "bounded-9", "periodic-4",
              "bounded-90", "bounded-91", "periodic-90", "periodic-91",
              "bounded-at-limit", "bounded-past-limit", "periodic-at-limit",
              "periodic-past-limit"]


@pytest.mark.parametrize("ops", KERNEL_OPERATORS, ids=KERNEL_IDS)
@pytest.mark.parametrize("kind", ["d_p", "d_v"])
def test_kernel_matches_dense_on_both_axes(ops, kind):
    dense = getattr(ops, f"dense_{kind}")()
    apply = getattr(ops, f"apply_{kind}")
    field = np.random.default_rng(2).standard_normal((dense.shape[1], 7))
    np.testing.assert_allclose(apply(field, axis=0), dense @ field, rtol=0, atol=1e-13)
    np.testing.assert_allclose(apply(field.T.copy(), axis=1), (dense @ field).T,
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("ops", KERNEL_OPERATORS, ids=KERNEL_IDS)
@pytest.mark.parametrize("kind", ["d_p", "d_v"])
def test_kernel_accumulates_into_nonzero_out(ops, kind):
    # the kernel writes its output, never adds to it: whatever `out` held
    # before must not reach the result
    dense = getattr(ops, f"dense_{kind}")()
    apply = getattr(ops, f"apply_{kind}")
    rng = np.random.default_rng(3)
    field = rng.standard_normal((dense.shape[1], 7))
    out = rng.standard_normal((dense.shape[0], 7))
    assert apply(field, 0, out, scale=-1.5) is out
    np.testing.assert_allclose(out, -1.5 * dense @ field, rtol=0, atol=1e-13)
    out = rng.standard_normal((7, dense.shape[0]))
    assert apply(field.T.copy(), 1, out, scale=-1.5) is out
    np.testing.assert_allclose(out, (-1.5 * dense @ field).T, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [11, DENSE_MAX_POINTS + 1])
@pytest.mark.parametrize("kind", ["d_p", "d_v"])
def test_periodic_kernel_along_axis_1_into_a_non_contiguous_out(n, kind):
    # a non-contiguous `out`: a column slice of a wider array and a
    # transposed view
    ops = build_periodic_1d(n, 0.37)
    dense = getattr(ops, f"dense_{kind}")()
    apply = getattr(ops, f"apply_{kind}")
    rng = np.random.default_rng(4)
    field = rng.standard_normal((7, n))
    want = field @ dense.T
    wide = rng.standard_normal((7, n + 5))
    apply(field, 1, wide[:, 2:n + 2])
    np.testing.assert_allclose(wide[:, 2:n + 2], want, rtol=0, atol=1e-13)
    transposed = rng.standard_normal((n, 7))
    apply(field, 1, transposed.T)
    np.testing.assert_allclose(transposed.T, want, rtol=0, atol=1e-13)


# past DENSE_MAX_POINTS the interior rows apply as tiles of TILE rows; over
# 2 TILE consecutive sizes every count of rows the tiles leave over occurs
@pytest.mark.parametrize("n", range(DENSE_MAX_POINTS + 1, DENSE_MAX_POINTS + 2 * TILE + 1))
def test_tiled_kernel_matches_dense_for_every_remainder(n):
    rng = np.random.default_rng(n)
    for ops in (build_sbp_1d(n, 0.37), build_periodic_1d(n, 0.37)):
        for kind in ("d_p", "d_v"):
            dense = -1.5 * getattr(ops, f"dense_{kind}")()
            apply = getattr(ops, f"apply_{kind}")
            field = rng.standard_normal((dense.shape[1], 5))
            out = np.full((dense.shape[0], 5), np.nan)   # every row must be written
            apply(field, 0, out, scale=-1.5)
            np.testing.assert_allclose(out, dense @ field, rtol=0, atol=1e-13)
            out = np.full((5, dense.shape[0]), np.nan)
            apply(field.T.copy(), 1, out, scale=-1.5)
            np.testing.assert_allclose(out, (dense @ field).T, rtol=0, atol=1e-13)


TILED_OPERATORS = [build_sbp_1d(DENSE_MAX_POINTS + 5, 0.37),
                   build_periodic_1d(DENSE_MAX_POINTS + 5, 0.37)]


def _rows_inside_nan(shape):
    """A C-contiguous array of `shape` whose buffer is flanked by NaN, and
    the padded array it is a view of."""
    padded = np.full((shape[0] + 4, *shape[1:]), np.nan)
    return padded, padded[2:-2]


@pytest.mark.parametrize("ops", TILED_OPERATORS, ids=["bounded", "periodic"])
@pytest.mark.parametrize("kind", ["d_p", "d_v"])
def test_tiled_kernel_stays_inside_its_arrays(ops, kind):
    # the tile windows are views on the buffers of the input and of `out`:
    # one that reached past the input would read NaN, one past `out` would
    # overwrite the NaN around it
    dense = getattr(ops, f"dense_{kind}")()
    apply = getattr(ops, f"apply_{kind}")
    field = np.random.default_rng(5).standard_normal((dense.shape[1], 6))
    for axis, values, want in ((0, field[:, 0], dense @ field[:, 0]),
                               (0, field, dense @ field), (1, field.T, (dense @ field).T)):
        _, w = _rows_inside_nan(values.shape)
        w[...] = values
        padded_out, out = _rows_inside_nan(want.shape)
        assert apply(w, axis, out) is out
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-13)
        assert np.isnan(padded_out[:2]).all() and np.isnan(padded_out[-2:]).all()


def _layouts(a):
    """`a` as a C-contiguous array, a column slice of a wider array and a
    transposed view."""
    wide = np.full((a.shape[0], a.shape[1] + 3), np.nan)
    wide[:, 1:-2] = a
    return [a.copy(), wide[:, 1:-2], a.T.copy().T]


@pytest.mark.parametrize("ops", TILED_OPERATORS, ids=["bounded", "periodic"])
@pytest.mark.parametrize("kind", ["d_p", "d_v"])
def test_tiled_kernel_with_non_contiguous_values_or_out(ops, kind):
    # the tile windows need packed buffers, so other arrays go through copies
    dense = getattr(ops, f"dense_{kind}")()
    apply = getattr(ops, f"apply_{kind}")
    field = np.random.default_rng(6).standard_normal((dense.shape[1], 7))
    for axis, values, want in ((0, field, dense @ field), (1, field.T, (dense @ field).T)):
        for w in _layouts(values):
            for out in _layouts(np.full(want.shape, np.nan)):
                assert apply(w, axis, out) is out
                np.testing.assert_allclose(out, want, rtol=0, atol=1e-13)


# along axis 1 a field of at least two strips of rows applies strip by strip;
# the rows the strips leave over go through one more product
STRIPED_OPERATORS = [build_sbp_1d(200, 0.37), build_periodic_1d(200, 0.37)]


def _strip_cases(ops, kind):
    """The dense operator of `kind` and three row counts for its strip
    height r: 2r + 3 (a rest), 3r (no rest) and r - 1 (one product)."""
    dense = getattr(ops, f"dense_{kind}")()
    r = max(TILE, STRIP_BYTES // (8 * dense.shape[1]))
    return dense, (2 * r + 3, 3 * r, r - 1)


@pytest.mark.parametrize("ops", STRIPED_OPERATORS, ids=["bounded", "periodic"])
@pytest.mark.parametrize("kind", ["d_p", "d_v"])
def test_striped_kernel_matches_dense_inside_its_arrays(ops, kind):
    # input and `out` are NaN-flanked as in test_tiled_kernel_stays_inside_its_arrays,
    # and `out` starts as NaN, so every row must be written
    apply = getattr(ops, f"apply_{kind}")
    dense, counts = _strip_cases(ops, kind)
    rng = np.random.default_rng(7)
    for rows in counts:
        _, w = _rows_inside_nan((rows, dense.shape[1]))
        w[...] = rng.standard_normal(w.shape)
        padded_out, out = _rows_inside_nan((rows, dense.shape[0]))
        assert apply(w, 1, out, scale=-1.5) is out
        np.testing.assert_allclose(out, -1.5 * w @ dense.T, rtol=0, atol=1e-13)
        assert np.isnan(padded_out[:2]).all() and np.isnan(padded_out[-2:]).all(), rows


@pytest.mark.parametrize("ops", STRIPED_OPERATORS, ids=["bounded", "periodic"])
@pytest.mark.parametrize("kind", ["d_p", "d_v"])
def test_striped_kernel_with_non_contiguous_values_or_out(ops, kind):
    apply = getattr(ops, f"apply_{kind}")
    dense, counts = _strip_cases(ops, kind)
    rng = np.random.default_rng(8)
    for rows in counts:
        field = rng.standard_normal((rows, dense.shape[1]))
        for w in _layouts(field):
            for out in _layouts(np.full((rows, dense.shape[0]), np.nan)):
                assert apply(w, 1, out) is out
                np.testing.assert_allclose(out, field @ dense.T, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind, lo", [("d_p", 1), ("d_v", 2)])
def test_striped_kernel_on_rows_wider_than_a_strip(kind, lo):
    # at 9,000 points a row every strip has the floor of TILE rows: 2 strips
    # and 4 rows left over. There is no dense matrix at this size, so the
    # periodic reference rolls the stencil (output point j reads input
    # points j - lo .. j - lo + 3), and the bounded one applies along axis 0
    n, dx = 9000, 0.37
    field = np.random.default_rng(9).standard_normal((2 * TILE + 4, n))
    periodic = getattr(build_periodic_1d(n, dx), f"apply_{kind}")
    want = sum(float(c) * np.roll(field, lo - k, axis=1)
               for k, c in enumerate(INTERIOR_STENCIL)) / dx
    np.testing.assert_allclose(periodic(field, 1), want, rtol=0, atol=1e-13)
    bounded = getattr(build_sbp_1d(n, dx), f"apply_{kind}")
    values = field[:, :-1] if kind == "d_v" else field
    np.testing.assert_allclose(bounded(values, 1), bounded(values.T.copy(), 0).T,
                               rtol=0, atol=1e-13)


def test_kernel_rejects_out_sharing_the_input():
    ops = build_periodic_1d(11, 1.0)
    field = np.ones((11, 11))
    for axis in (0, 1):
        with pytest.raises(DomainError):
            ops.apply_d_p(field, axis=axis, out=field)


def test_build_rejects_bad_sizes():
    with pytest.raises(DomainError):
        build_sbp_1d(8, 1.0)
    with pytest.raises(DomainError):
        build_sbp_1d(9, 0.0)
    with pytest.raises(DomainError):
        build_periodic_1d(3, 1.0)


@pytest.mark.parametrize("dx", [float("inf"), float("nan"), -1.0, 1e-320, 1e-308])
def test_build_rejects_a_non_finite_or_nonpositive_spacing(dx):
    with pytest.raises(DomainError, match="positive and finite"):
        build_sbp_1d(9, dx)
    with pytest.raises(DomainError, match="positive and finite"):
        build_periodic_1d(8, dx)


def test_a_nan_row_is_exact_to_no_degree(ops9):
    # a row that does not even annihilate constants is exact to no degree
    d_v = ops9.exact_d_v()
    d_v[1][0] += 1
    report = structure_report(ops9.exact_d_p(), d_v, ops9.exact_a_p(), ops9.exact_a_v(),
                              *_projections(ops9))
    assert report.dv_row_degrees[1] == -1
    assert report.dv_row_degrees[0] == verify_sbp_structure(ops9).dv_row_degrees[0]


def test_perturbed_closure_detected():
    ops = build_sbp_1d(10, 1.0)
    d_p = ops.exact_d_p()
    d_p[0][0] += F(1, 10**6)
    report = structure_report(d_p, ops.exact_d_v(), ops.exact_a_p(), ops.exact_a_v(),
                              *_projections(ops))
    assert report.exact is False
    assert report.structure_residual > 1e-8


def _projections(ops):
    proj = list(PROJECTION) + [F(0)] * (ops.n_v - 3)
    return proj, proj[::-1]


def test_interior_rows_are_exact_to_degree_four_on_a_long_grid():
    report = verify_sbp_structure(build_sbp_1d(100, 1.0))
    assert report.exact is True
    assert report.dv_row_degrees[4:-4] == [4] * 92
    assert report.dp_row_degrees[3:-3] == [4] * 93


def test_certificate_does_not_depend_on_the_spacing(ops9):
    unit, huge = verify_sbp_structure(ops9), verify_sbp_structure(build_sbp_1d(9, 1e308))
    assert huge.exact is unit.exact is True
    assert huge.dv_row_degrees == unit.dv_row_degrees
    assert huge.dp_row_degrees == unit.dp_row_degrees
    assert huge.proj_degrees == unit.proj_degrees
    assert list(huge.q_first_row) == list(unit.q_first_row)


def test_periodic_wraparound_identity_is_exact():
    ops = build_periodic_1d(8, 1.0)
    q = ops.dx * ops.dense_d_v() + (ops.dx * ops.dense_d_p()).T
    assert np.all(q == 0.0)


def test_periodic_constant_derivative_is_zero():
    ops = build_periodic_1d(8, 1.0)
    np.testing.assert_allclose(ops.apply_d_p(np.ones(8)), 0.0, atol=1e-15)
    np.testing.assert_allclose(ops.apply_d_v(np.ones(8)), 0.0, atol=1e-15)


def test_periodic_sine_derivative_fourth_order():
    n = 64
    ops = build_periodic_1d(n, 1.0 / n)
    x = np.arange(n) / n
    xu = x + 0.5 / n
    d = ops.apply_d_p(np.sin(2 * np.pi * x))
    exact = 2 * np.pi * np.cos(2 * np.pi * xu)
    rel = np.abs(d - exact).max() / np.abs(exact).max()
    # measured 4.35e-7; fourth-order envelope C (2 pi dx)^4 with C = 0.01
    assert rel <= 0.01 * (2 * np.pi / n) ** 4
    assert rel <= 1e-6


def test_projection_vector_values():
    assert PROJECTION == (F(15, 8), F(-5, 4), F(3, 8))
