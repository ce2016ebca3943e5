import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwbc.elimination import det, solve
from dwbc.errors import DwbcError, Singular


def _exact_det(rows):
    """det of the entries as Gaussian rationals (pairs of Fractions), by
    cofactor expansion along the last row, memoized over column sets."""
    n = len(rows)
    m = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in rows]
    minors = {0: (Fraction(1), Fraction(0))}
    for mask in range(1, 1 << n):
        row = m[bin(mask).count("1") - 1]
        re = im = Fraction(0)
        sign = 1
        for j in reversed(range(n)):
            if mask >> j & 1:
                sr, si = minors[mask & ~(1 << j)]
                ar, ai = row[j]
                re += sign * (ar * sr - ai * si)
                im += sign * (ar * si + ai * sr)
                sign = -sign
        minors[mask] = (re, im)
    return minors[(1 << n) - 1]


def _bits(z):
    return z.real.hex(), z.imag.hex()


@st.composite
def _floats(draw, spread=120):
    """0, or a float with up to 53 bits of mantissa at an exponent in
    [-spread, spread]; at spread 120 no 8 x 8 determinant overflows."""
    if draw(st.integers(0, 5)) == 0:
        return 0.0
    mant = draw(st.integers(-(1 << 53) + 1, (1 << 53) - 1))
    return math.ldexp(mant, draw(st.integers(-spread, spread)) - 53)


@st.composite
def _matrices(draw):
    """Square complex matrices of size 0..8, some singular or rank
    deficient (a zero row or column, a row or column a power of two
    times another) and some with a zero leading pivot."""
    n = draw(st.integers(0, 8))
    m = [[complex(draw(_floats()), draw(_floats())) for _ in range(n)]
         for _ in range(n)]
    kind = draw(st.sampled_from(
        ["general", "zero-pivot", "zero-row", "zero-col", "row-multiple",
         "col-multiple"]))
    if n == 0 or kind == "general":
        return m
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    scale = 2.0 ** draw(st.integers(-8, 8))
    if kind == "zero-pivot":
        m[0][0] = 0j
    elif kind == "zero-row":
        m[i] = [0j] * n
    elif kind == "zero-col":
        for row in m:
            row[j] = 0j
    elif kind == "row-multiple" and i != j:
        m[i] = [scale * z for z in m[j]]
    elif kind == "col-multiple" and i != j:
        for row in m:
            row[i] = scale * row[j]
    return m


class TestElimination:
    @settings(max_examples=40, deadline=None)
    @given(_matrices())
    def test_det_is_the_exact_determinant_rounded_once(self, m):
        re, im = _exact_det(m)
        assert _bits(det(m)) == _bits(complex(float(re), float(im)))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_solve_satisfies_the_system(self, data):
        # diagonally dominant, hence well conditioned; the residual is
        # taken exactly
        n = data.draw(st.integers(1, 8))
        m = [[complex(data.draw(_floats(20)), data.draw(_floats(20)))
              for _ in range(n)] for _ in range(n)]
        for i, row in enumerate(m):
            row[i] = 2 * sum(map(abs, row)) + 1
        b = [complex(data.draw(_floats(20)), data.draw(_floats(20)))
             for _ in range(n)]
        x = solve(m, b)
        for row, bi in zip(m, b):
            re = sum(Fraction(a.real) * Fraction(y.real)
                     - Fraction(a.imag) * Fraction(y.imag)
                     for a, y in zip(row, x)) - Fraction(bi.real)
            im = sum(Fraction(a.real) * Fraction(y.imag)
                     + Fraction(a.imag) * Fraction(y.real)
                     for a, y in zip(row, x)) - Fraction(bi.imag)
            size = sum(abs(a) * abs(y) for a, y in zip(row, x)) + abs(bi)
            assert abs(complex(float(re), float(im))) <= 1e-12 * size

    def test_empty_matrix(self):
        assert det([]) == 1 and solve([], []) == []

    def test_singular(self):
        assert _bits(det([[1.0, 2.0], [2.0, 4.0]])) == _bits(0j)
        with pytest.raises(Singular):
            solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 0.0])

    def test_overflow_is_infinite(self):
        # as a float LU would give, not an OverflowError
        assert det([[1e300, 0], [0, 1e300]]) == complex(math.inf, 0)
        assert det([[1e300, 0], [0, -1e300]]) == complex(-math.inf, 0)
        assert det([[0, 1e300], [1e300, 0]]) == complex(-math.inf, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_entry_is_an_error(self, bad):
        with pytest.raises(DwbcError):
            det([[1.0, bad], [2.0, 3.0]])
        with pytest.raises(DwbcError):
            solve([[1.0, 2.0], [2.0, 3.0]], [bad, 1.0])
