"""Exact rational helpers: decimal-faithful Fraction conversion, stencil
exactness degrees, and the small linear solves of the stencil derivation.

Values are ``fractions.Fraction`` so that geometric alignment checks and
operator identities can be asserted with zero tolerance. The solves clear
denominators and run fraction-free (Bareiss) integer elimination, in which
every division is exact; they convert to ``Fraction`` only once per unknown,
at the end.
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
    zero weights are skipped."""
    terms = [(w, x - target) for w, x in zip(weights, coords) if w != 0]
    deg = -1
    for k in range(7):
        if sum(w * x**k for w, x in terms) != (1 if k == int(derivative) else 0):
            break
        deg = k
    return deg


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"inexact integer division {num} / {den}")
    return q


def _eliminate(mat: list[list[int]], order: list[int]) -> list[int]:
    """Fraction-free (Bareiss) forward elimination of an integer matrix, in
    place, with row swaps mirrored in `order`; returns the pivot columns.

    Every entry stays a minor of the input, so each division by the previous
    pivot is exact (Bareiss 1968, Sylvester's identity).
    """
    n_rows = len(mat)
    pivots: list[int] = []
    prev = 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, n_rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        order[r], order[pivot] = order[pivot], order[r]
        top = mat[r]
        p = top[c]
        for i in range(r + 1, n_rows):
            row = mat[i]
            f = row[c]
            mat[i] = [0] * (c + 1) + [_exact_div(p * x - f * y, prev)
                                      for x, y in zip(row[c + 1:], top[c + 1:])]
        pivots.append(c)
        prev = p
    return pivots


def solve_min_norm(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Minimum-2-norm exact solution of A x = b, or None if inconsistent.

    A and b hold rationals (Fraction or int). Each augmented row is scaled to
    integers; fraction-free elimination then finds the rank, rejects an
    inconsistent system, and picks independent original rows B with right
    side d. The minimizer x = B^T (B B^T)^-1 d follows from one more
    fraction-free solve, with one Fraction made per unknown at the end.
    """
    if not a:
        return []
    n_cols = len(a[0])
    aug = []
    for row, rhs in zip(a, b):
        vals = [*row, rhs]
        scale = math.lcm(*(v.denominator for v in vals))
        aug.append([v.numerator * (scale // v.denominator) for v in vals])
    order = list(range(len(aug)))
    pivots = _eliminate([list(r) for r in aug], order)
    if pivots and pivots[-1] == n_cols:
        return None
    keep = order[:len(pivots)]
    bmat = [aug[i][:n_cols] for i in keep]
    d = [aug[i][n_cols] for i in keep]
    k = len(keep)
    # [B B^T | d] reduces to an upper triangle whose last pivot is det(B B^T);
    # back substitution in integers gives y = det * lambda
    upper = [[sum(x * y for x, y in zip(r1, r2)) for r2 in bmat] + [di]
             for r1, di in zip(bmat, d)]
    _eliminate(upper, list(range(k)))
    det = upper[-1][k - 1] if upper else 1
    y = [0] * k
    for i in reversed(range(k)):
        row = upper[i]
        y[i] = _exact_div(det * row[k] - sum(row[j] * y[j] for j in range(i + 1, k)),
                          row[i])
    return [Fraction(sum(y[i] * bmat[i][j] for i in range(k)), det)
            for j in range(n_cols)]
