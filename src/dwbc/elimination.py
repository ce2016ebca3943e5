"""Determinants and linear solves of small complex float matrices, exact.

Every float is a dyadic rational, so the entries of a matrix, brought
over one power of two 2^k (`float.as_integer_ratio`), are Gaussian
integers.  Bareiss's fraction-free elimination (Math. Comp. 22, 1968)
runs on them in Z[i]: each step's update is divided exactly by the
previous pivot, the pivot is the first nonzero entry of its column,
and the last pivot is the determinant.  So `det` returns the exact
determinant of the entries, rounded once per component, and `solve`
the exact solution, rounded once per component, from the same
elimination on the augmented matrix and an exact back-substitution.
The result depends on the entries alone, not on the machine.

Standard library only.  The numeric routes import it when called, so
no exact route compiles it.
"""

from __future__ import annotations

import math

from .errors import NearDegenerate, Singular


def _gaussian(rows):
    """The entries of `rows` as Gaussian integers (re, im) and the
    exponent k with entry = (re + i im) / 2^k.  A non-finite entry has
    no digits to eliminate: NearDegenerate."""
    ratios = []
    for row in rows:
        out = []
        for z in row:
            z = complex(z)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise NearDegenerate(f"non-finite matrix entry {z}")
            out.append((z.real.as_integer_ratio(), z.imag.as_integer_ratio()))
        ratios.append(out)
    k = max((d.bit_length() - 1 for row in ratios for pair in row
             for _, d in pair), default=0)
    return [[(n << k + 1 - d.bit_length(), m << k + 1 - e.bit_length())
             for (n, d), (m, e) in row] for row in ratios], k


def _eliminate(m, n):
    """Bareiss elimination in place over Z[i] of the first n columns of
    the n rows of m, pivoting on the first nonzero entry of each column.
    Returns the sign of the row permutation, or 0 when a column has no
    pivot (the leading n x n block is singular).  Afterwards the entries
    of row i right of column i - 1 are those of the eliminated system,
    and m[n-1][n-1] is the determinant of the row-permuted block."""
    sign, qr, qi, width = 1, 1, 0, len(m[0])
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != (0, 0)), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        top = m[k]
        pr, pi = top[k]
        norm = qr * qr + qi * qi
        for row in m[k + 1:n]:
            ar, ai = row[k]
            for j in range(k + 1, width):
                br, bi = row[j]
                cr, ci = top[j]
                # (pivot * row[j] - row[k] * top[j]) / previous pivot
                xr = pr * br - pi * bi - ar * cr + ai * ci
                xi = pr * bi + pi * br - ar * ci - ai * cr
                row[j] = ((xr * qr + xi * qi) // norm,
                          (xi * qr - xr * qi) // norm)
        qr, qi = pr, pi
    return sign


def _ratio(num, den):
    """num / den for den > 0, rounded once; beyond the float range it
    is +-inf."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def det(rows) -> complex:
    """The determinant of the square complex matrix `rows`, exact from
    its entries and rounded once.  A singular matrix gives 0."""
    n = len(rows)
    if n == 0:
        return 1 + 0j
    m, k = _gaussian(rows)
    sign = _eliminate(m, n)
    if sign == 0:
        return 0j
    re, im = m[n - 1][n - 1]
    scale = 1 << (k * n)
    return complex(_ratio(sign * re, scale), _ratio(sign * im, scale))


def solve(rows, rhs) -> list:
    """x with rows x = rhs for a square complex matrix `rows`, exact from
    the entries and rounded once per component.  Raises Singular when
    the matrix is exactly singular."""
    n = len(rows)
    if n == 0:
        return []
    m, _ = _gaussian([list(row) + [b] for row, b in zip(rows, rhs)])
    if not _eliminate(m, n):
        raise Singular("singular matrix")
    # by Cramer's rule X_i = d x_i is a Gaussian integer, d the last
    # pivot; row i of the eliminated system gives
    # U_ii X_i = d b_i - sum_{j>i} U_ij X_j, an exact division
    dr, di = m[n - 1][n - 1]
    xs = [None] * n
    for i in reversed(range(n)):
        row = m[i]
        br, bi = row[n]
        sr, si = dr * br - di * bi, dr * bi + di * br
        for j in range(i + 1, n):
            ur, ui = row[j]
            yr, yi = xs[j]
            sr -= ur * yr - ui * yi
            si -= ur * yi + ui * yr
        pr, pi = row[i]
        norm = pr * pr + pi * pi
        xs[i] = ((sr * pr + si * pi) // norm, (si * pr - sr * pi) // norm)
    norm = dr * dr + di * di
    return [complex(_ratio(yr * dr + yi * di, norm),
                    _ratio(yi * dr - yr * di, norm)) for yr, yi in xs]
