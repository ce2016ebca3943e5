"""Tower elements read the slow way, the tests' reference: a coefficient
of the level-0 variable read from an element's flat box, the iterated
residue as those reads level by level on a formed product, and the
agreement of two elements wherever both know their coefficients."""

import math

from dwbc.errors import OrderExceeded, PrecisionLoss
from dwbc.exact_core import Series, Tower, _empty, _exact, _trim

_INNER = {}


def inner(ring):
    """The tower of the levels 1.. of ring, where a coefficient in its
    level-0 variable lives; one per ring, so its elements mix."""
    out = _INNER.get(ring)
    if out is None:
        out = _INNER[ring] = Tower(ring.names[1:], ring.precs[1:])
    return out


def coefficient(x, k):
    """The coefficient of x^k in x, x the level-0 variable: its leaf
    times its pair on a one-level tower (the leaf itself where the pair
    is 1/1), else the slice of x's box at k, an element of `inner`.
    Raises PrecisionLoss past the window."""
    if k >= x.err[0]:
        raise PrecisionLoss(f"coefficient {x.ring.names[0]}^{k} beyond "
                            f"window O(^{x.err[0]})")
    lo, n = x.lo[0], x.shape[0]
    if len(x.lo) == 1:
        if x.coeffs and lo <= k < lo + n:
            c = x.coeffs[k - lo]
            return c if x.n == x.d == 1 else _exact(x.n * c, x.d)
        return 0
    ring = inner(x.ring)
    if k < lo:
        return ring.zero()
    if not x.coeffs or k >= lo + n:
        return _empty(ring, x.lo[1:], x.err[1:])
    st = len(x.coeffs) // n
    i = (k - lo) * st
    return _trim(ring, x.lo[1:], x.shape[1:], x.coeffs[i:i + st], x.err[1:],
                 x.n, x.d)


def residue(x, bound=None):
    """The coefficient of x^-1, x the level-0 variable.  With a bound, a
    nonzero coefficient below x^-bound raises OrderExceeded, and a
    below-bound slice of zero leaves over an inexact deeper level
    PrecisionLoss: it is only not known to vanish."""
    lo, var = x.lo[0], x.ring.names[0]
    if bound is not None and x.n and x.coeffs and lo < -bound:
        st = len(x.coeffs) // x.shape[0]
        low = x.coeffs[:min(x.shape[0], -bound - lo) * st]
        if any(low):
            first = lo + next(i for i, c in enumerate(low) if c) // st
            raise OrderExceeded(
                f"pole order {-first} in {var} exceeds bound {bound}")
        if any(e != math.inf for e in x.err[1:]):
            raise PrecisionLoss(f"cannot certify pole order bound {bound} "
                                f"in {var} (window exhausted)")
    return coefficient(x, -1)


def walk(x, bounds=None):
    """The iterated residue of x, `residue` level by level, each level
    with its bound from bounds (none when bounds is None)."""
    level = 0
    while isinstance(x, Series):
        x = residue(x, None if bounds is None else bounds[level])
        level += 1
    return x


def agree(a, b):
    """a and b have equal coefficients wherever both know them, at
    every level of their tower."""
    if not isinstance(a, Series):
        return a == b
    top = min(a.err[0], b.err[0])
    exps = ({a.lo[0] + i for i in range(a.shape[0])}
            | {b.lo[0] + i for i in range(b.shape[0])})
    return all(agree(coefficient(a, k), coefficient(b, k))
               for k in exps if k < top)


def same(a, b):
    """a - b has no nonzero known leaf: a and b, elements or numbers,
    are equal as far as either is known."""
    x = a - b
    return not (x.n and x.coeffs)
