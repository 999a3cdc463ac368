"""Exact rational helpers: decimal-faithful Fraction conversion and small
linear solves used by the stencil derivation.

All routines operate on ``fractions.Fraction`` so that geometric alignment
checks and operator identities can be asserted with zero tolerance.
"""

from __future__ import annotations

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


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    mat = [list(r) for r in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(n_rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return mat, pivots


def solve_min_norm(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Minimum-2-norm exact solution of A x = b, or None if inconsistent.

    Dependent constraint rows are dropped via RREF of the augmented system;
    the minimizer is then x = B^T (B B^T)^-1 d over the independent rows B.
    """
    if not a:
        return []
    n_cols = len(a[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    red, pivots = rref(aug)
    if any(p == n_cols for p in pivots):
        return None
    keep = [red[i] for i in range(len(pivots))]
    bmat = [row[:n_cols] for row in keep]
    d = [row[n_cols] for row in keep]
    # [B B^T | d] reduces to [I | lambda], since B B^T is nonsingular
    gram = [[sum(x * y for x, y in zip(r1, r2)) for r2 in bmat] + [di]
            for r1, di in zip(bmat, d)]
    lam = [row[-1] for row in rref(gram)[0]]
    return [sum(lam[i] * bmat[i][j] for i in range(len(bmat))) for j in range(n_cols)]
