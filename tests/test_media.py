import warnings

import numpy as np
import pytest

from stagwave.errors import DomainError, FormatError, OutOfCoverageError
from stagwave.grids import build_block_2d
from stagwave.media import (ConstantMedium, GriddedMedium, TwoLayerMedium,
                            VerticalLinearMedium, load_gridded_model,
                            sample_coefficients)


@pytest.fixture
def block():
    return build_block_2d(0, 1, 12, 0, 1, 13)


def test_constant_medium_diagonals(block):
    c_p, c_v, c_u = sample_coefficients(ConstantMedium(rho=1.0, c=2.0), block)
    np.testing.assert_array_equal(c_p, np.full(block.p_shape, 0.25))
    np.testing.assert_array_equal(c_v, np.ones((12, 12)))   # v: one row fewer
    np.testing.assert_array_equal(c_u, np.ones(block.p_shape))


def test_two_layer_blocks_sample_their_own_side():
    medium = TwoLayerMedium(split_y=0.48, rho_top=0.5, c_top=1.0,
                            rho_bottom=1.0, c_bottom=2.0)
    bottom = build_block_2d(0, "0.96", 60, 0, "0.48", 31)
    top = build_block_2d(0, "0.96", 120, "0.48", "0.96", 61)
    c_p_bot, _, c_u_bot = sample_coefficients(medium, bottom)
    c_p_top, _, c_u_top = sample_coefficients(medium, top)
    np.testing.assert_array_equal(c_u_bot, np.full(bottom.p_shape, 1.0))
    np.testing.assert_array_equal(c_p_bot, np.full(bottom.p_shape, 0.25))
    np.testing.assert_array_equal(c_u_top, np.full(top.p_shape, 0.5))
    np.testing.assert_array_equal(c_p_top, np.full(top.p_shape, 2.0))


def test_vertical_linear_profile():
    medium = VerticalLinearMedium(y_bottom=0.0, y_top=0.96, rho_bottom=1.0,
                                  rho_top=0.5, c_bottom=2.0, c_top=1.0)
    assert medium.rho_at(0.0, 0.0) == pytest.approx(1.0)
    assert medium.rho_at(0.0, 0.96) == pytest.approx(0.5)
    assert medium.c_at(0.3, 0.48) == pytest.approx(1.5)


def test_bilinear_center_of_cell():
    values = np.array([[1.0, 1.0], [1.0, 3.0]])
    medium = GriddedMedium(rho=values, c=values, spacing=1.0)
    assert medium.rho_at(0.5, 0.5) == pytest.approx(1.5)


def test_bilinear_exact_for_affine_fields():
    rng = np.random.default_rng(2)
    a, b, c0 = 0.7, -0.3, 2.5
    ys, xs = np.meshgrid(np.arange(5), np.arange(7), indexing="ij")
    values = c0 + a * xs + b * ys
    medium = GriddedMedium(rho=values, c=values, spacing=1.0)
    x = rng.uniform(0, 6, size=20)
    y = rng.uniform(0, 4, size=20)
    np.testing.assert_allclose(medium.rho_at(x, y), c0 + a * x + b * y, rtol=1e-13)


def test_clamping_and_coverage():
    values = np.ones((4, 4))
    medium = GriddedMedium(rho=values, c=values, spacing=1.0)
    assert medium.rho_at(-0.9, 0.0) == pytest.approx(1.0)   # clamped
    with pytest.raises(OutOfCoverageError):
        medium.rho_at(-1.5, 0.0)
    with pytest.raises(OutOfCoverageError):
        medium.rho_at(0.0, 4.5)


def _write_raw(path, arr, dtype):
    np.asarray(arr).astype(dtype).tofile(path)


def test_loader_accepts_survey_scale_metadata(tmp_path):
    rows, cols = 751, 2301
    rho = tmp_path / "rho.bin"
    c = tmp_path / "c.bin"
    _write_raw(rho, np.full(rows * cols, 1500.0), "<f4")
    _write_raw(c, np.full(rows * cols, 3000.0), "<f4")
    medium = load_gridded_model(rho, c, rows=rows, cols=cols, spacing=4.0)
    assert medium.extent == (9200.0, 3000.0)


def test_loader_rejects_truncated_file(tmp_path):
    rho = tmp_path / "rho.bin"
    c = tmp_path / "c.bin"
    _write_raw(rho, np.ones(11), "<f4")
    _write_raw(c, np.ones(12), "<f4")
    with pytest.raises(FormatError):
        load_gridded_model(rho, c, rows=3, cols=4, spacing=1.0)


def test_loader_rejects_nonpositive_values(tmp_path):
    rho = tmp_path / "rho.bin"
    c = tmp_path / "c.bin"
    data = np.ones(12)
    _write_raw(rho, data, "<f4")
    data[5] = 0.0
    _write_raw(c, data, "<f4")
    with pytest.raises(FormatError):
        load_gridded_model(rho, c, rows=3, cols=4, spacing=1.0)


def test_nonpositive_sampled_coefficient_is_a_domain_error(block):
    # linear profiles extended below their bottom level: a negative density,
    # a density of exactly 0 at y = 1 (no divide-by-zero warning may come
    # first), and a speed down to -7 that would enter 1/(rho c^2) squared
    for y_bottom, y_top, rho_top, c_top in ((3.0, 4.0, 2.0, 1.0), (2.0, 3.0, 2.0, 1.0),
                                            (0.8, 1.0, 1.0, 3.0)):
        medium = VerticalLinearMedium(y_bottom=y_bottom, y_top=y_top, rho_bottom=1.0,
                                      rho_top=rho_top, c_bottom=1.0, c_top=c_top)
        with warnings.catch_warnings(), pytest.raises(DomainError):
            warnings.simplefilter("error")
            sample_coefficients(medium, block)


def test_loader_float64(tmp_path):
    rho = tmp_path / "rho.bin"
    c = tmp_path / "c.bin"
    _write_raw(rho, np.linspace(1, 2, 12), "<f8")
    _write_raw(c, np.linspace(2, 3, 12), "<f8")
    medium = load_gridded_model(rho, c, rows=3, cols=4, spacing=0.5, dtype="float64")
    assert medium.rho_at(0.0, 0.0) == pytest.approx(1.0)
