"""Exact rational helpers: decimal-faithful Fraction conversion, stencil
exactness degrees, and the small linear solves of the stencil derivation.

Values are ``fractions.Fraction`` so that geometric alignment checks and
operator identities can be asserted with zero tolerance. The solves clear
denominators and run fraction-free (Bareiss) integer elimination, in which
every division is exact; they convert to ``Fraction`` only once per unknown,
at the end. A minimum-norm solve eliminates once: back substitution in the
echelon rows gives a particular solution and a null-space basis, and the
minimizer is the particular solution less its projection onto the null
space, which takes one more solve of only nullity x nullity. Since the
first k column steps of an elimination do not depend on the later columns,
the same single elimination can also find the first consistent block of
leading columns among nested candidates and solve it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def to_fraction(value) -> Fraction:
    """Convert a number to an exact Fraction with decimal semantics.

    Floats are converted through their shortest repr ("0.008" rather than the
    underlying binary expansion), so spacings written in configs behave like
    the decimal literals they look like.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def fraction_str(fr: Fraction) -> str:
    """Exact decimal string when the denominator is 2^a*5^b, else 'p/q'."""
    den = fr.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{fr.numerator}/{fr.denominator}"
    shift = max(twos, fives)
    scaled = fr.numerator * 10**shift // fr.denominator
    if shift == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def exactness_degree(weights, coords, target, derivative: bool = False) -> int:
    """Largest k <= 6 for which the rational weights reproduce x^k, or its
    derivative, at `target` exactly (-1 if none). The degree does not change
    under translation, so it is measured on coordinates relative to `target`;
    zero weights are skipped. Weights and offsets are scaled to integers by
    their common denominators, so every moment is an integer sum."""
    terms = [(w, x - target) for w, x in zip(weights, coords) if w != 0]
    w_den = math.lcm(*(w.denominator for w, _ in terms))
    x_den = math.lcm(*(x.denominator for _, x in terms))
    ints = [(w.numerator * (w_den // w.denominator), x.numerator * (x_den // x.denominator))
            for w, x in terms]
    deg = -1
    for k in range(7):
        want = w_den * x_den**k if k == int(derivative) else 0
        if sum(w * x**k for w, x in ints) != want:
            break
        deg = k
    return deg


def _eliminate(mat: list[list[int]], stop=None) -> list[int]:
    """Fraction-free (Bareiss) forward elimination of an integer matrix, in
    place; returns the pivot columns. After each column c, `stop(c + 1,
    rank)`, if given, may end the elimination early.

    Every entry stays a minor of the input, so each division by the previous
    pivot is exact (Bareiss 1968, Sylvester's identity); each updated row is
    checked anyway, and an inexact division raises ArithmeticError. The last
    pivot is the determinant of the pivot rows on the pivot columns.
    """
    n_rows = len(mat)
    pivots: list[int] = []
    prev = 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, n_rows) if mat[i][c]), None)
        if pivot is not None:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            p = mat[r][c]
            tail = mat[r][c + 1:]
            for i in range(r + 1, n_rows):
                row = mat[i]
                row[c + 1:] = _exact_combination(row[c + 1:], p, row[c], tail, prev)
                row[c] = 0
            pivots.append(c)
            prev = p
        if stop is not None and stop(c + 1, len(pivots)):
            break
    return pivots


def _exact_combination(rest: list[int], p: int, f: int, tail: list[int], d: int) -> list[int]:
    """(p * rest - f * tail) / d, raising ArithmeticError unless every
    division is exact. The floor-division remainders all take the sign of
    d, so they are all zero exactly when the sums agree."""
    new = [(p * x - f * y) // d for x, y in zip(rest, tail)]
    if p * sum(rest) - f * sum(tail) != d * sum(new):
        raise ArithmeticError(f"inexact integer division by {d}")
    return new


def _back_substitute(mat: list[list[int]], pivots: list[int], rhs: list[int],
                     n_cols: int) -> tuple[list[int], int]:
    """(det * x, det) for the echelon rows of `_eliminate` with right side
    `rhs` (one value per pivot row) and every non-pivot unknown zero, det
    being the last pivot. By Cramer's rule det * x is an integer vector, so
    each division by a pivot is exact."""
    det = mat[len(pivots) - 1][pivots[-1]] if pivots else 1
    y = [0] * n_cols
    for i in reversed(range(len(pivots))):
        row = mat[i]
        acc = det * rhs[i] - sum(row[c] * y[c] for c in pivots[i + 1:])
        q, rem = divmod(acc, row[pivots[i]])
        if rem:
            raise ArithmeticError(f"inexact integer division by {row[pivots[i]]}")
        y[pivots[i]] = q
    return y, det


def _dot(u: list[int], v: list[int]) -> int:
    return sum(x * y for x, y in zip(u, v) if x and y)


def _gram_solve(vecs: list[list[int]], rhs: list[int]) -> tuple[list[int], int]:
    """(det * z, det) for the Gram system (V V^T) z = rhs of independent
    integer vectors V, by one more fraction-free elimination."""
    k = len(vecs)
    gram = [[_dot(u, v) for v in vecs] + [r] for u, r in zip(vecs, rhs)]
    pivots = _eliminate(gram)
    return _back_substitute(gram, pivots, [row[k] for row in gram], k)


def _integer_rows(a: list[list[Fraction]], b: list[Fraction]) -> list[list[int]]:
    """The augmented rows [A | b], each scaled to integers."""
    aug = []
    for row, rhs in zip(a, b):
        vals = [*row, rhs]
        scale = math.lcm(*(v.denominator for v in vals))
        aug.append([v.numerator * (scale // v.denominator) for v in vals])
    return aug


def solve_min_norm(a: list[list[Fraction]], b: list[Fraction],
                   sizes: list[int] | None = None) -> list[Fraction] | None:
    """Minimum-2-norm exact solution of A x = b, or None if inconsistent.

    With `sizes` (increasing), the unknowns are the leading k columns of A
    alone, for the first k in `sizes` whose block is consistent: k values
    come back, or None if no block is (size 0, the empty block, is
    consistent exactly when b = 0).

    Each augmented row is scaled to integers, and one fraction-free
    elimination runs up to the first consistent block: after its first k
    columns, the rows below the pivots are zero in those columns, so the
    block is consistent exactly when their right sides are zero too. Back
    substitution in the echelon rows gives a particular solution y (free
    unknowns zero) and a null-space basis N, as integer vectors; the
    minimizer, the solution in the row space, is x = y - N (N^T N)^-1 N^T y,
    one more solve of only nullity x nullity (the derived 7:6, 8:7 and
    11:10 pairs have nullity 1). One Fraction is made per unknown, at the end.
    """
    if sizes is None:
        sizes = [len(a[0]) if a else 0]
    if not sizes:
        return None
    if not a:
        return [Fraction(0)] * sizes[0]       # no equation: every block solves them
    aug = _integer_rows(a, b)
    found: list[int] = []

    def stop(done: int, rank: int) -> bool:
        if done in sizes and not any(row[-1] for row in aug[rank:]):
            found.append(done)
        return bool(found) or done >= sizes[-1]

    pivots = [] if stop(0, 0) else _eliminate(aug, stop)
    if not found:
        return None
    n_cols = found[0]
    upper = aug[:len(pivots)]
    y, det = _back_substitute(upper, pivots, [row[-1] for row in upper], n_cols)
    is_pivot = set(pivots)
    basis = []
    for f in (c for c in range(n_cols) if c not in is_pivot):
        v, _ = _back_substitute(upper, pivots, [-row[f] for row in upper], n_cols)
        v[f] = det
        basis.append(v)
    if not basis:
        return [Fraction(v, det) for v in y]
    z, det_g = _gram_solve(basis, [_dot(v, y) for v in basis])
    return [Fraction(det_g * y[j] - sum(zf * v[j] for zf, v in zip(z, basis)), det * det_g)
            for j in range(n_cols)]
