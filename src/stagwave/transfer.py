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
The narrower coincident windows' unknowns are leading columns of the
widest, so one exact solve per non-coincident width finds its narrowest
feasible coincident window and the weights on it: 7:6 takes one exact
elimination, not seven solves.

A tiled pair (`TransferPair`) applies each direction from the elemental
stencils: a gather of each interval's input window and one small matrix
product (`GatherPlan`). The certificate works on the tiled stencil nonzeros
alone; the exact n_fine x n_coarse tiles (`exact_matrices`) are built only
on demand, as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, InfeasibleStencilError, UnsupportedRatioError
from .exact import exactness_degree, solve_min_norm, to_fraction

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
    """Largest degree, up to 5, reproduced by every row of both operators
    (coarse point k lies at k*m gcd units, fine point l at l*n)."""
    m, n = pair.m, pair.n
    return min(5, *(exactness_degree(row.values(), [k * m for k in row], r * n)
                    for r, row in enumerate(pair.coarse_to_fine)),
               *(exactness_degree(row.values(), [l * n for l in row], s * m)
                 for s, row in enumerate(pair.fine_to_coarse)))


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


def _constraints(m: int, n: int, supports) -> tuple[list[list[int]], list[int],
                                                  list[tuple[int, int]]]:
    """Integer constraint rows and right sides on the given supports, and the
    (row r, coarse index k) of each unknown.

    The unknowns of the non-coincident rows come first and those of the
    coincident row 0 follow from the centre of its window outwards, so each
    narrower centred window of row 0 is a leading block of columns. The
    fine->coarse rows, whose adjoint weights carry a factor n/m, are
    multiplied through by m.
    """
    cols = [(r, k) for r in range(1, m) for k in supports[r]]
    cols += [(0, k) for k in sorted(supports[0], key=abs)]
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
    return rows, rhs, cols


def _solve_level(m: int, n: int, supports) -> tuple[dict[int, Fraction], ...] | None:
    """Minimum-norm coarse->fine weights on the narrowest feasible centred
    window of row 0 within its support in `supports` (one level's widest
    candidate), the other rows as given; None if no window is feasible. One
    exact solve tries every window, since each narrower window's unknowns
    are a leading block of columns (`_constraints`)."""
    a, b, cols = _constraints(m, n, supports)
    n_fixed = len(cols) - len(supports[0])
    x = solve_min_norm(a, b, list(range(n_fixed + 1, len(cols) + 1, 2)))
    if x is None:
        return None
    rows: list[dict[int, Fraction]] = [{} for _ in range(m)]
    for (r, k), w in sorted(zip(cols, x)):
        if w != 0:
            rows[r][k] = w
    return tuple(rows)


MAX_WIDTH = 16      # widest non-coincident stencil the automatic search tries


def derive_elemental_pair(ratio, support: int | None = None) -> ElementalStencilPair:
    """Construct a stencil pair for an arbitrary coprime ratio m:n.

    Solves, in exact rationals, the degree-<=2 exactness constraints for every
    coarse->fine row together with the exactness of the adjoint-defined
    fine->coarse rows. The candidate supports are four-point and wider even
    stencils between coarse points (width w_nc) with an odd symmetric stencil
    on the coincident point (width w_c); the pair comes from the first
    feasible candidate in (w_nc, w_c) order, where the minimum-norm solution
    is unique and inherits the reflection symmetry of the grid configuration.

    One exact solve per w_nc (`_solve_level`) finds its narrowest feasible
    w_c and the minimum-norm weights on it; no floating point enters.

    Args:
        ratio: coarse:fine spacing ratio, m > n >= 1 coprime (1:1 allowed).
        support: optional fixed width of the non-coincident rows (even, >= 4);
            None searches 4, 6, ... up to MAX_WIDTH.

    Raises:
        InfeasibleStencilError: constraints unsatisfiable within the widths.
    """
    m, n = _ratio_mn(ratio)
    if support is not None and (support < 4 or support % 2):
        raise DomainError(f"support width must be even and >= 4, got {support}")
    if m == 1:
        return tabulated_elemental_pair(F(1, 1))
    widths = [support] if support is not None else list(range(4, MAX_WIDTH + 1, 2))
    for width in widths:
        # only row 0 sits on a coincident point, since m and n are coprime
        rows = _solve_level(m, n, [_support(r * n, m, 2 * m + 1 if r == 0 else width)
                                   for r in range(m)])
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
        integer 0 elsewhere. Built on each call, as test oracles."""
        mats = (np.zeros((self.n_fine, self.n_coarse), dtype=object),
                np.zeros((self.n_coarse, self.n_fine), dtype=object))
        for mat, entries in zip(mats, _tiled_entries(self)):
            for key, w in entries.items():
                mat[key] = w
        return mats


def _tiled_entries(pair: TransferPair) -> tuple[dict[tuple[int, int], Fraction], ...]:
    """The stencil nonzeros of both tiled operators, c2f then f2c, as
    {(row, column): exact weight}: each elemental weight is placed in every
    elemental interval, and weights of stencils that wrap onto one entry are
    summed exactly."""
    elem = pair.elemental
    tiles = []
    for rows, cols_per_elem, n_cols in ((elem.coarse_to_fine, elem.n, pair.n_coarse),
                                        (elem.fine_to_coarse, elem.m, pair.n_fine)):
        entries: dict[tuple[int, int], Fraction] = {}
        for e in range(pair.n_coarse // elem.n):
            for r, row in enumerate(rows):
                for k, w in row.items():
                    key = (e * len(rows) + r, (e * cols_per_elem + k) % n_cols)
                    entries[key] = entries[key] + w if key in entries else w
        tiles.append(entries)
    return tuple(tiles)


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
    """Row sums, measured exactness degree, and the adjoint-relation residual.

    The residual is taken over the tiled operators' stencil nonzeros (the
    union of both patterns, each weight summed exactly where stencils wrap),
    so it equals the dense max |dx_f c2f^T - dx_c f2c| without forming
    either tile, and it checks the fine->coarse rows as given rather than
    assuming they came from the adjoint relation.
    """
    elem = pair.elemental
    row_sum_err = F(0)
    for rows in (elem.coarse_to_fine, elem.fine_to_coarse):
        for row in rows:
            row_sum_err = max(row_sum_err, abs(sum(row.values()) - 1))
    degree = pair_exactness_degree(elem)
    c2f, f2c = _tiled_entries(pair)
    # dx_fine / dx_coarse = n/m; every difference as an integer over den
    m, n = elem.m, elem.n
    den = m * math.lcm(*(w.denominator for w in (*c2f.values(), *f2c.values())))
    diff = {(j, i): n * w.numerator * (den // (m * w.denominator))
            for (i, j), w in c2f.items()}
    for key, w in f2c.items():
        diff[key] = diff.get(key, 0) - w.numerator * (den // w.denominator)
    resid = F(max(map(abs, diff.values()), default=0), den)
    return TransferCertificate(row_sum_error=float(row_sum_err),
                               exactness_degree=degree,
                               adjoint_residual=float(resid),
                               adjoint_exact=resid == 0)
