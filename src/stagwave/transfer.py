"""Norm-compatible interface interpolation pairs for rational spacing ratios.

An interface couples a coarse grid (spacing m*u) to a fine grid (spacing n*u),
m:n in lowest terms. The *elemental interval* is the span between consecutive
locations where points of both grids coincide: it holds m fine intervals and
n coarse intervals, and the interpolation stencils repeat over it.

A pair consists of a coarse->fine operator and a fine->coarse operator tied by
the adjoint (norm-compatibility) relation

    t_fine_to_coarse = (n/m) * t_coarse_to_fine^T       (periodic tiling)

which makes the interface energy flux telescoping exactly. The fine->coarse
side is always *defined* through this relation, so the constraint holds by
construction in rational arithmetic; accuracy of both directions is what the
derivation has to arrange.

Tabulated pairs are shipped for ratios 2:1, 3:2, 4:3, 5:4 and 6:5 (all with
four-point stencils away from coincident points and a symmetric stencil of
width 2n+1 on them). `derive_elemental_pair` reproduces every tabulated pair
and extends the family to arbitrary coprime ratios by solving the exactness
constraints with a minimal-support search and an exact minimum-norm tiebreak.

A tiled pair (`TransferPair`) applies each direction from the elemental
stencils: a gather of each interval's input window and one small matrix
product (`GatherPlan`). The dense n_fine x n_coarse tiles, exact or rounded,
are built only on demand, for the certificates and the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, InfeasibleStencilError, UnsupportedRatioError
from .exact import solve_min_norm, to_fraction

F = Fraction


def _ratio_mn(ratio) -> tuple[int, int]:
    r = to_fraction(ratio)
    if r < 1:
        raise DomainError(f"ratio must be >= 1 (coarse:fine), got {r}")
    return r.numerator, r.denominator


@dataclass(frozen=True)
class ElementalStencilPair:
    """Interpolation stencils for one elemental interval of an m:n interface.

    coarse_to_fine: m rows, one per fine point at offset r*n (gcd units);
        row r maps coarse indices (keys, element-relative) to weights.
    fine_to_coarse: n rows, one per coarse point at offset s*m; row s maps
        fine indices to weights; equal to (n/m) x the tiled transpose.
    """

    ratio: Fraction
    coarse_to_fine: tuple[dict[int, Fraction], ...]
    fine_to_coarse: tuple[dict[int, Fraction], ...]

    @property
    def m(self) -> int:
        return self.ratio.numerator

    @property
    def n(self) -> int:
        return self.ratio.denominator

    @classmethod
    def from_coarse_rows(cls, ratio, rows) -> "ElementalStencilPair":
        """Complete a pair from its coarse->fine rows via the adjoint relation."""
        r = to_fraction(ratio)
        m, n = r.numerator, r.denominator
        if len(rows) != m:
            raise DomainError(f"need {m} coarse->fine rows for ratio {m}:{n}")
        c2f = tuple({int(k): F(w) for k, w in row.items() if w != 0} for row in rows)
        f2c = []
        for s in range(n):
            row: dict[int, Fraction] = {}
            for r_i, wrow in enumerate(c2f):
                for k, w in wrow.items():
                    if (s - k) % n == 0:
                        e = (s - k) // n
                        l = e * m + r_i
                        row[l] = row.get(l, F(0)) + F(n, m) * w
            f2c.append({k: v for k, v in sorted(row.items()) if v != 0})
        return cls(ratio=r, coarse_to_fine=c2f, fine_to_coarse=tuple(f2c))


def pair_exactness_degree(pair: ElementalStencilPair) -> int:
    """Largest degree, up to 5, reproduced by every row of both operators."""
    m, n = pair.m, pair.n
    deg = -1
    for t in range(6):
        ok = all(
            sum(w * F(k * m) ** t for k, w in row.items()) == F(r * n) ** t
            for r, row in enumerate(pair.coarse_to_fine)
        ) and all(
            sum(w * F(l * n) ** t for l, w in row.items()) == F(s * m) ** t
            for s, row in enumerate(pair.fine_to_coarse)
        )
        if not ok:
            break
        deg = t
    return deg


# ---------------------------------------------------------------------------
# tabulated pairs
# ---------------------------------------------------------------------------

def _rows(*rows):
    return tuple({k: F(num, den) for k, (num, den) in row.items()} for row in rows)


_TABULATED: dict[Fraction, tuple[dict[int, Fraction], ...]] = {
    F(1, 1): _rows({0: (1, 1)}),
    F(2, 1): _rows(
        {0: (1, 1)},
        {-1: (-1, 16), 0: (9, 16), 1: (9, 16), 2: (-1, 16)},
    ),
    F(3, 2): _rows(
        {-2: (-1, 96), -1: (1, 24), 0: (15, 16), 1: (1, 24), 2: (-1, 96)},
        {-1: (-13, 288), 0: (103, 288), 1: (217, 288), 2: (-19, 288)},
        {0: (-19, 288), 1: (217, 288), 2: (103, 288), 3: (-13, 288)},
    ),
    F(4, 3): _rows(
        {-3: (-1, 576), -2: (-19, 1728), -1: (103, 1728), 0: (29, 32),
         1: (103, 1728), 2: (-19, 1728), 3: (-1, 576)},
        {-1: (-35, 864), 0: (5, 18), 1: (235, 288), 2: (-23, 432)},
        {0: (-1, 16), 1: (9, 16), 2: (9, 16), 3: (-1, 16)},
        {1: (-23, 432), 2: (235, 288), 3: (5, 18), 4: (-35, 864)},
    ),
    F(5, 4): _rows(
        {-4: (-13, 16000), -3: (-7, 8000), -2: (-39, 3200), -1: (557, 8000),
         0: (1777, 2000), 1: (557, 8000), 2: (-39, 3200), 3: (-7, 8000),
         4: (-13, 16000)},
        {-1: (-123, 3200), 0: (753, 3200), 1: (2703, 3200), 2: (-133, 3200)},
        {0: (-43, 800), 1: (353, 800), 2: (543, 800), 3: (-53, 800)},
        {1: (-53, 800), 2: (543, 800), 3: (353, 800), 4: (-43, 800)},
        {2: (-133, 3200), 3: (2703, 3200), 4: (753, 3200), 5: (-123, 3200)},
    ),
    F(6, 5): _rows(
        {-5: (-241, 432000), -4: (139, 432000), -3: (-1021, 432000),
         -2: (-973, 86400), -1: (649, 8640), 0: (94769, 108000),
         1: (649, 8640), 2: (-973, 86400), 3: (-1021, 432000),
         4: (139, 432000), 5: (-241, 432000)},
        {-1: (-671, 18000), 0: (3763, 18000), 1: (15487, 18000), 2: (-193, 6000)},
        {0: (-6803, 144000), 1: (52409, 144000), 2: (107591, 144000),
         3: (-9197, 144000)},
        {1: (-1, 16), 2: (9, 16), 3: (9, 16), 4: (-1, 16)},
        {2: (-9197, 144000), 3: (107591, 144000), 4: (52409, 144000),
         5: (-6803, 144000)},
        {3: (-193, 6000), 4: (15487, 18000), 5: (3763, 18000), 6: (-671, 18000)},
    ),
}


def tabulated_elemental_pair(ratio) -> ElementalStencilPair:
    """Return the shipped stencil pair for a supported ratio.

    Args:
        ratio: coarse:fine spacing ratio; one of 1:1, 2:1, 3:2, 4:3, 5:4, 6:5.

    Raises:
        UnsupportedRatioError: any other ratio (use `derive_elemental_pair`).
    """
    r = to_fraction(ratio)
    rows = _TABULATED.get(r)
    if rows is None:
        supported = ", ".join(f"{k.numerator}:{k.denominator}" for k in _TABULATED)
        raise UnsupportedRatioError(
            f"no tabulated pair for ratio {r}; supported: {supported}"
        )
    return ElementalStencilPair.from_coarse_rows(r, rows)


# ---------------------------------------------------------------------------
# constrained derivation for arbitrary coprime ratios
# ---------------------------------------------------------------------------

def _support(pos: int, m: int, width: int) -> list[int]:
    """Coarse indices covering a fine point at `pos` (gcd units)."""
    if pos % m == 0:
        c = pos // m
        h = (width - 1) // 2
        return list(range(c - h, c + h + 1))
    left = pos // m
    k = width // 2
    return list(range(left - k + 1, left + width - k + 1))


def _solve_supports(m: int, n: int, supports) -> tuple[dict[int, Fraction], ...] | None:
    """Minimum-norm coarse->fine weights on the given supports, or None.

    The constraints are integer rows: the fine->coarse rows, whose adjoint
    weights carry a factor n/m, are multiplied through by m.
    """
    cols = [(r, k) for r in range(m) for k in supports[r]]
    idx = {ck: i for i, ck in enumerate(cols)}
    rows: list[list[int]] = []
    rhs: list[int] = []
    for r in range(m):
        for t in range(3):
            row = [0] * len(cols)
            for k in supports[r]:
                row[idx[(r, k)]] = (k * m) ** t
            rows.append(row)
            rhs.append((r * n) ** t)
    for s in range(n):
        for t in range(3):
            row = [0] * len(cols)
            for r in range(m):
                for k in supports[r]:
                    if (s - k) % n == 0:
                        e = (s - k) // n
                        row[idx[(r, k)]] += n * ((e * m + r) * n) ** t
            rows.append(row)
            rhs.append(m * (s * m) ** t)
    x = solve_min_norm(rows, rhs)
    if x is None:
        return None
    return tuple({k: x[idx[(r, k)]] for k in supports[r] if x[idx[(r, k)]] != 0}
                 for r in range(m))


def derive_elemental_pair(ratio, support: int | None = None,
                          max_width: int = 16) -> ElementalStencilPair:
    """Construct a stencil pair for an arbitrary coprime ratio m:n.

    Solves, in exact rationals, the degree-<=2 exactness constraints for every
    coarse->fine row together with the exactness of the adjoint-defined
    fine->coarse rows. Supports grow from the shortest candidates (four-point
    stencils between coarse points, odd symmetric stencils on coincident
    points) until the system is feasible; the minimum-norm solution is then
    unique and inherits the reflection symmetry of the grid configuration.

    Args:
        ratio: coarse:fine spacing ratio, m > n >= 1 coprime (1:1 allowed).
        support: optional fixed width of the non-coincident rows (even, >= 4);
            None searches 4, 6, ... up to max_width.
        max_width: search bound for the automatic mode.

    Raises:
        InfeasibleStencilError: constraints unsatisfiable within the widths.
    """
    m, n = _ratio_mn(ratio)
    if support is not None and (support < 4 or support % 2):
        raise DomainError(f"support width must be even and >= 4, got {support}")
    if m == 1:
        return tabulated_elemental_pair(F(1, 1))
    widths = ([support] if support is not None
              else list(range(4, max_width + 1, 2)))
    for w_nc in widths:
        for w_c in range(1, 2 * m + 3, 2):
            supports = [
                _support(r * n, m, w_c if (r * n) % m == 0 else w_nc)
                for r in range(m)
            ]
            rows = _solve_supports(m, n, supports)
            if rows is not None:
                return ElementalStencilPair.from_coarse_rows(F(m, n), rows)
    raise InfeasibleStencilError(
        f"no degree-2 exact, norm-compatible pair for ratio {m}:{n} "
        f"within support widths {widths}"
    )


# ---------------------------------------------------------------------------
# periodic tiling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GatherPlan:
    """One direction of a tiled pair, applied from its elemental stencils.

    Output point e * rows + r is sum_j weights[j, r] * x[index[e, j]]: the
    gather picks each elemental interval's input window, wrapped around the
    periodic row, and one matrix product applies all of the interval's rows.
    """

    index: NDArray[np.intp]          # (elements, window), wrapped modulo the input length
    weights: NDArray[np.float64]     # (window, rows)

    def apply(self, x) -> NDArray[np.float64]:
        """The tiled operator applied to the trace x (a fresh array)."""
        return np.dot(x[self.index], self.weights).ravel()


def _gather_plan(rows, cols_per_elem: int, n_elems: int, n_cols: int) -> GatherPlan:
    """The gather plan of elemental rows tiled over n_elems intervals of
    cols_per_elem input points each; weights are rounded once."""
    keys = [k for row in rows for k in row]
    lo, hi = min(keys), max(keys)
    weights = np.zeros((hi - lo + 1, len(rows)))
    for r, row in enumerate(rows):
        for k, w in row.items():
            weights[k - lo, r] = float(w)
    index = (np.arange(n_elems)[:, None] * cols_per_elem + np.arange(lo, hi + 1)) % n_cols
    return GatherPlan(index=index, weights=weights)


@dataclass(frozen=True)
class TransferPair:
    """Tiled interface operators between periodic coarse and fine rows, held
    as one gather plan per direction; the dense tiles are built on demand."""

    elemental: ElementalStencilPair
    n_coarse: int
    n_fine: int
    c2f_plan: GatherPlan   # coarse trace -> fine points
    f2c_plan: GatherPlan   # fine trace -> coarse points

    @property
    def ratio(self) -> Fraction:
        return self.elemental.ratio

    def exact_matrices(self) -> tuple[NDArray[np.object_], NDArray[np.object_]]:
        """Exact tiled operators, (n_fine, n_coarse) and (n_coarse, n_fine):
        object arrays holding a `Fraction` where a stencil reaches and the
        integer 0 elsewhere. Built on each call, for certificates and tests."""
        elem = self.elemental
        return (_tile_exact(elem.coarse_to_fine, elem.m, elem.n, self.n_fine, self.n_coarse),
                _tile_exact(elem.fine_to_coarse, elem.n, elem.m, self.n_coarse, self.n_fine))

    @property
    def coarse_to_fine(self) -> NDArray[np.float64]:
        """The exact coarse->fine tile rounded once; built on each access."""
        return self.exact_matrices()[0].astype(float)

    @property
    def fine_to_coarse(self) -> NDArray[np.float64]:
        """The exact fine->coarse tile rounded once; built on each access."""
        return self.exact_matrices()[1].astype(float)


def _tile_exact(rows, rows_per_elem, cols_per_elem, n_rows, n_cols) -> NDArray[np.object_]:
    """Tile elemental rows periodically: each weight is scattered to its
    position in every elemental interval, and weights of stencils that wrap
    onto one entry are summed exactly."""
    mat = np.zeros((n_rows, n_cols), dtype=object)
    starts = np.arange(n_rows // rows_per_elem)
    for r, row in enumerate(rows):
        for k, w in row.items():
            mat[starts * rows_per_elem + r, (starts * cols_per_elem + k) % n_cols] += w
    return mat


def tile_periodic(elem: ElementalStencilPair, n_coarse: int, n_fine: int) -> TransferPair:
    """Tile an elemental pair around a periodic interface row.

    Args:
        elem: the elemental stencil pair (ratio m:n).
        n_coarse: coarse points on the interface; must be a multiple of n.
        n_fine: fine points; must equal n_coarse * m / n.

    Raises:
        DomainError: counts not positive, incompatible with the ratio or not
            tileable.
    """
    m, n = elem.m, elem.n
    if n_coarse < 1 or n_fine < 1:
        raise DomainError(f"point counts must be positive, got {n_coarse} coarse "
                          f"and {n_fine} fine")
    if n_coarse % n != 0:
        raise DomainError(f"{n_coarse} coarse points do not tile elements of {n}")
    if n_fine * n != n_coarse * m:
        raise DomainError(
            f"side lengths disagree: {n_fine} fine vs {n_coarse} coarse "
            f"points at ratio {m}:{n}"
        )
    n_elems = n_coarse // n
    return TransferPair(elemental=elem, n_coarse=n_coarse, n_fine=n_fine,
                        c2f_plan=_gather_plan(elem.coarse_to_fine, n, n_elems, n_coarse),
                        f2c_plan=_gather_plan(elem.fine_to_coarse, m, n_elems, n_fine))


def transfer_pair_for(ratio, n_coarse: int, n_fine: int) -> TransferPair:
    """Tiled pair for a ratio, preferring tabulated stencils.

    A derived pair is certified on four elemental intervals before use.

    Raises:
        InfeasibleStencilError: a derived pair fails its certificate.
    """
    try:
        elem = tabulated_elemental_pair(ratio)
    except UnsupportedRatioError:
        elem = derive_elemental_pair(ratio)
        cert = certify_pair(tile_periodic(elem, 4 * elem.n, 4 * elem.m))
        if not cert.ok:
            raise InfeasibleStencilError(
                f"derived {elem.m}:{elem.n} pair fails its certificate: {cert}")
    return tile_periodic(elem, n_coarse, n_fine)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferCertificate:
    row_sum_error: float       # max |row sum - 1| over both operators
    exactness_degree: int      # min measured degree over all rows (exact)
    adjoint_residual: float    # max |dx_f c2f^T - dx_c f2c| on tiled operators
    adjoint_exact: bool

    @property
    def ok(self) -> bool:
        return (self.row_sum_error == 0.0 and self.exactness_degree >= 2
                and self.adjoint_exact)


def certify_pair(pair: TransferPair) -> TransferCertificate:
    """Row sums, measured exactness degree, and the adjoint-relation residual."""
    elem = pair.elemental
    row_sum_err = F(0)
    for rows in (elem.coarse_to_fine, elem.fine_to_coarse):
        for row in rows:
            row_sum_err = max(row_sum_err, abs(sum(row.values()) - 1))
    degree = pair_exactness_degree(elem)
    c2f_e, f2c_e = pair.exact_matrices()
    scale = F(elem.n, elem.m)  # dx_fine / dx_coarse
    resid = np.abs(scale * c2f_e.T - f2c_e).max()
    return TransferCertificate(row_sum_error=float(row_sum_err),
                               exactness_degree=degree,
                               adjoint_residual=float(resid),
                               adjoint_exact=resid == 0)
