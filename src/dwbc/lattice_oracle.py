"""Ground truth for every observable, straight from the model's definition.

Two independent backends:

* an *enumeration* backend that walks every arrow configuration of the
  N x N domain-wall lattice (configuration counts grow like the
  alternating sign matrix numbers, so this is capped at small N), and

* a *transfer* backend: a row sweep that carries the weights of every
  row state (vertical-edge bitmask) at once, upward from the all-up
  bottom boundary: rows N..s+1 give psi_bot of every row-s state.  A
  half-turn maps the lattice to itself (each vertex kind to itself, the
  all-down top to the all-up bottom), so psi_top is psi_bot of the
  turned lattice, and Z_N the cut sum at row N // 2; it is fast enough
  for N up to ~14.  Exact weights are scaled to integers first (D = lcm
  of the denominators of a, b, c), so the sweep adds and multiplies
  Python ints and divides by D^(vertices) once.  The states of a cut are
  one popcount class, held as a list in an order that turns one bit per
  vertex column, so crossing a column is a few passes over gathered
  values.  On integer weights a row can also cross in one step: its
  states below and above interlace like two rows of a monotone
  triangle, and each interlacing pair carries one monomial a^i b^j c^k,
  so the row is a sum of products per upper state; each row takes the
  smaller of the two plans up to N = 10.  The plans hold no weight, and
  a bounded store keeps them for the sweeps that follow.

Both run on exact rational weights (a, b, c) or on inhomogeneous weight
grids, exact or complex (a[alpha][k] = sin(l_alpha - nu_k + eta) etc.),
and they must agree bit-exactly in the exact regime; the rest of the
package is tested against them.  Their arithmetic is that of the leaf
values: a zero is 0 times the leaves' one, and a quotient is a Fraction
where both of its parts are ints or Fractions, so exact weights of any
class give exact values.

The prefactors of the closed-form routes, Z_M and h_M for every M <= N
at homogeneous weights, come from one upward transfer sweep over the
N x N lattice by the frozen-column identity: `_frozen_cuts` gives its
integers, and the routes' family (`ik_engine.BoundaryGenFamily`) makes
the Fractions.
On the bottom M rows, a cut state whose up arrows fill positions
1..N-M freezes those N - M columns to a-vertices and leaves the other
M columns an M x M lattice with domain-wall boundaries.  So after M
rows of the sweep that state holds a^(M(N-M)) Z_M, and after M - 1 rows
the state with positions 1..N-M and N-M+r holds a^((M-1)(N-M)) times
psi_bot of the M-lattice at row-1 position r; with psi_top of that row,
a^(M-r) c b^(r-1), the cut sum gives h_M.  `enumerate_Z`,
`boundary_generating_poly` and the psi functions below stay separate
sweeps, the independent oracle the routes are tested against.

Conventions: vertical lines are counted alpha = 1..N from the *right*,
horizontal lines k = 1..N from the top.  Row s is the set of N vertical
edges between horizontal lines s and s+1; it carries exactly s up
arrows, at positions 1 <= r_1 < ... < r_s <= N (again from the right).
"""

from __future__ import annotations

import os
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, islice, repeat
from math import comb, lcm
from operator import add, attrgetter, itemgetter, mul

from .errors import InvalidRegion, SizeLimit, Singular
from .rational import ExactPoly, as_fraction

ENUM_MAX_N = 6
TRANSFER_MAX_N = 14


def _max_n(kind: str) -> int:
    env = os.environ.get("DWBC_MAX_N")
    if env:
        return int(env)
    return ENUM_MAX_N if kind == "enum" else TRANSFER_MAX_N


def _check_size(N: int, kind: str):
    """N = 0 is the empty lattice; only the upper cap is configurable."""
    if N < 0:
        raise InvalidRegion(f"N={N}: a lattice needs N >= 0")
    cap = _max_n(kind)
    if N > cap:
        raise SizeLimit(f"N={N} above {cap} for the {kind} backend "
                        f"(override with DWBC_MAX_N)")


# ---------------------------------------------------------------------------
# weights and row configurations
# ---------------------------------------------------------------------------

class Record:
    """A plain class compared and printed by the fields named in its
    `_fields`.

    Two records are equal when they are of the same class with equal
    fields; the repr reads `Name(field=value, ...)`.  Defining `__eq__`
    leaves a Record unhashable.  Being plain classes, records need no
    import of the standard library's class generator, nor the `inspect`
    and `ast` it would load into every `dwbc` process.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record hashed by its fields, which `__init__` sets with
    `object.__setattr__` and nothing may assign or delete afterwards."""

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class WeightTriple(FrozenRecord):
    """Exact positive Boltzmann weights of the homogeneous model."""

    _fields = ("a", "b", "c")

    def __init__(self, a, b, c):
        object.__setattr__(self, "a", as_fraction(a))
        object.__setattr__(self, "b", as_fraction(b))
        object.__setattr__(self, "c", as_fraction(c))
        if not (self.a > 0 and self.b > 0 and self.c > 0):
            raise ValueError("weights must be strictly positive")

    def delta(self) -> Fraction:
        return (self.a**2 + self.b**2 - self.c**2) / (2 * self.a * self.b)

    def t(self) -> Fraction:
        return self.b / self.a

    def weight(self, alpha, k, kind):
        return getattr(self, kind)


ICE_POINT = WeightTriple(1, 1, 1)


class WeightMatrix:
    """Site-dependent weights a[alpha][k], b[alpha][k] and constant c.

    Indices are 1-based (alpha = vertical line from the right, k =
    horizontal line from the top), matching the lattice conventions.
    """

    def __init__(self, a_grid, b_grid, c):
        self.a_grid = [list(row) for row in a_grid]
        self.b_grid = [list(row) for row in b_grid]
        self.c = c
        self.n = len(self.a_grid)

    def weight(self, alpha, k, kind):
        if kind == "c":
            return self.c
        grid = self.a_grid if kind == "a" else self.b_grid
        return grid[alpha - 1][k - 1]


class RowConfig(FrozenRecord):
    """Strictly increasing up-arrow positions on a row.

    `n` is the lattice size, `positions` the tuple r_1 < ... < r_s
    (possibly empty: the 0th row carries no up arrows).
    """

    _fields = ("n", "positions")

    def __init__(self, n, positions):
        positions = tuple(int(p) for p in positions)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "positions", positions)
        if any(p2 <= p1 for p1, p2 in zip(positions, positions[1:])):
            raise InvalidRegion("positions must be strictly increasing")
        if positions and not (1 <= positions[0] and positions[-1] <= n):
            raise InvalidRegion(f"positions must lie in 1..{n}")

    @property
    def s(self) -> int:
        return len(self.positions)

    def complement(self) -> "RowConfig":
        """Positions of the n - s down arrows, increasing."""
        taken = set(self.positions)
        return RowConfig(self.n, tuple(p for p in range(1, self.n + 1)
                                       if p not in taken))

    def bitmask(self) -> int:
        """Bit alpha-1 set iff the edge at position alpha points up."""
        return _bitmask(self.positions)


def _bitmask(positions):
    """The row-state mask of up-arrow positions: bit p-1 for each p."""
    m = 0
    for p in positions:
        m |= 1 << (p - 1)
    return m


# ---------------------------------------------------------------------------
# enumeration backend
# ---------------------------------------------------------------------------
#
# Vertex types by (left, right, top, bottom) arrow directions, with R/L
# the direction of the arrow on a horizontal edge and U/D on a vertical
# edge:  a: (R,R,U,U), (L,L,D,D);  b: (R,R,D,D), (L,L,U,U);
#        c: (R,L,U,D), (L,R,D,U).
# Any other local pattern violates the ice rule and is pruned.

def _row_transitions(N, w, k, state_above):
    """All (state_below, weight) continuations of one horizontal line.

    `state_above` is the bitmask of up arrows on the vertical edges just
    above line k; the walk goes left to right across columns p = 1..N
    (column p is vertical line alpha = N - p + 1), carrying the
    horizontal arrow direction.  Boundary: enter pointing L, exit R.
    """
    out = []

    def step(p, h_right, state_below, weight):
        # h_right == True means the arrow on the edge to the LEFT of
        # column p+1 points right
        if p == N:
            if h_right:
                out.append((state_below, weight))
            return
        alpha = N - p
        up_above = (state_above >> (alpha - 1)) & 1
        if h_right and up_above:
            # a: (R,R,U,U) or c: (R,L,U,D)
            step(p + 1, True, state_below | (1 << (alpha - 1)),
                 weight * w.weight(alpha, k, "a"))
            step(p + 1, False, state_below,
                 weight * w.weight(alpha, k, "c"))
        elif h_right and not up_above:
            # b: (R,R,D,D)
            step(p + 1, True, state_below, weight * w.weight(alpha, k, "b"))
        elif not h_right and up_above:
            # b: (L,L,U,U)
            step(p + 1, False, state_below | (1 << (alpha - 1)),
                 weight * w.weight(alpha, k, "b"))
        else:
            # a: (L,L,D,D) or c: (L,R,D,U)
            step(p + 1, False, state_below, weight * w.weight(alpha, k, "a"))
            step(p + 1, True, state_below | (1 << (alpha - 1)),
                 weight * w.weight(alpha, k, "c"))

    step(0, False, 0, _one_like(w))
    return out


def region_state_weights(N, w, k_first, k_last, top_state):
    """True enumeration of rows k_first..k_last from a fixed top cut.

    Walks every arrow configuration of the strip (no state merging) and
    buckets the total weight by the resulting bottom-cut state.
    """
    out = {}

    def rec(k, state, weight):
        if k > k_last:
            if state in out:
                out[state] = out[state] + weight
            else:
                out[state] = weight
            return
        for st2, wt2 in _row_transitions(N, w, k, state):
            rec(k + 1, st2, weight * wt2)

    rec(k_first, top_state, _one_like(w))
    return out


def enumerate_region(N, w, k_first, k_last, top_state, bottom_state):
    """Weighted configuration sum of rows k_first..k_last with fixed
    vertical-edge states at the top and bottom cuts."""
    one = _one_like(w)
    if k_first > k_last:
        return one if top_state == bottom_state else 0 * one
    dist = region_state_weights(N, w, k_first, k_last, top_state)
    return dist.get(bottom_state, 0 * one)


def enumerate_Z(N, w, method="auto"):
    """Partition function Z_N, exact when the weights are exact.

    method: 'enum' walks every configuration of the lattice one by one
    (the independent check; N <= 6 unless DWBC_MAX_N raises the cap);
    'transfer' sums psi_top * psi_bot over the states of row N // 2,
    from ceil(N/2) rows of sweep at site-independent weights; 'auto' is
    'transfer', for every weight type.  Z_0 = 1 (empty lattice).
    """
    if N == 0:
        return _one_like(w)
    if method in ("auto", "transfer"):
        _check_size(N, "transfer")
        weight, d = _leaves(w)
        top, bot = _split_states(N, w, weight, N // 2)
        z = sum(map(mul, bot.values(), _paired(N, N // 2, top)))
        return _ratio(z, d ** (N * N))
    if method == "enum":
        _check_size(N, "enum")
        all_up = (1 << N) - 1
        return enumerate_region(N, w, 1, N, 0, all_up)
    raise ValueError(f"unknown method {method!r}")


def row_state_weights(N, w, s):
    """Unnormalized row-s marginal: {bitmask: sum of config weights}.

    Pure enumeration: every complete lattice configuration contributes
    its weight to the bucket of its row-s edge state; value/Z is the row
    configuration probability.
    """
    _check_size(N, "enum")
    all_up = (1 << N) - 1
    out = {}

    def rec(k, state, weight, marked):
        if k == s:
            marked = state
        if k == N:
            if state == all_up:
                if marked in out:
                    out[marked] = out[marked] + weight
                else:
                    out[marked] = weight
            return
        for st2, wt2 in _row_transitions(N, w, k + 1, state):
            rec(k + 1, st2, weight * wt2, marked)

    rec(0, 0, _one_like(w), 0)
    return out


# ---------------------------------------------------------------------------
# transfer backend (row sweep)
# ---------------------------------------------------------------------------
#
# The sweep carries the value of every row state (vertical-edge bitmask)
# across the lattice one vertex at a time.  Part way along a row, the
# state also holds the arrow on the horizontal edge the sweep stands on,
# so a half-done row has two halves: `left` (that arrow points left) and
# `right` (it points right).  By the ice rule, a vertex entered with
# (horizontal arrow, vertical edge) on one side leaves with
#   R, up   -> a: R, up      c: L, down
#   R, down -> b: R, down
#   L, up   -> b: L, up
#   L, down -> a: L, down    c: R, up
# on the far side.  The one sweep direction is upward: right to left
# across each row (alpha = 1..N), entering pointing right and keeping the
# states that leave pointing left.  The top s rows are the bottom s rows
# of the half-turned lattice, whose vertex (alpha, k) is (N+1-alpha,
# N+1-k) here and whose row-(N-s) state rot(m) is row-s state m here.
# Weights that ignore the site (WeightTriple, NumericTriple) are their
# own half-turn and share one sweep; a WeightMatrix sweeps its turned grid.
#
# Popcount classes.  After j rows up from the all-up boundary the states
# are every mask with p = N - j up arrows.  Along the next row `right`
# stays that whole class and `left` fills the class of p - 1: crossing
# column `bit` (bit i, alpha = i + 1), with x a mask without `bit` and
# y = x | bit,
#   left[x]  <- right[y] c + left[x] a      left[y]  <- left[y] b
#   right[y] <- right[y] a + left[x] c      right[x] <- right[x] b,
# where a left[x] not reached yet adds nothing.  Before column i, `left`
# lacks exactly the masks that hold all of bits 0..i-1.
#
# Class lists.  Each half is a list over its class, ordered before column
# i by the key of column i: the mask turned left by N-1-i bits, which
# reads bits i, i-1, ..., 0, N-1, ..., i+1 from the top.  In that order
#   * the x's come first and the y's last: `rx` and `ry` are slices;
#   * x -> x | bit keeps the order, so the n-th x of `left` partners the
#     n-th y of `right`, a pairing that needs no index;
#   * the masks `left` lacks come last among its x's and last among its
#     y's, so its present x's, `lx`, and y's, `ly`, are slices too, and
#     `ry` splits into the `head` that lx partners and the `tail`.
# The key of column i + 1 is that of column i turned right by one bit, so
# one gather per class, its `turn`, takes a list to the next column's
# order.  After column N - 1 the key is the mask itself: a finished row
# is in increasing mask order, one turn from the next row's first order.
#
# Column plans.  `_row_columns` composes the slices and turns of a row
# into gathers of positions: each column gathers from the list the column
# before left and builds its own in one list display: the sums head c +
# lx a and lx c + head a, then tail c, tail a, ly b and rx b.  Each
# product is value * weight, as in the vertex-by-vertex dict sweep (kept
# in the tests as the reference); right[y] adds lx c + head a, the dict
# sweep's operands swapped, which no sum of ints, Fractions, floats or
# complex numbers can tell apart (IEEE addition commutes exactly).  So
# every value is bit-identical to the dict sweep's, and every dict
# returned has its keys in the same, increasing, order.
#
# Row steps.  A row's lower state x (popcount p) and upper state y (p - 1)
# interlace, as two rows of a monotone triangle do (Mills, Robbins and
# Rumsey, J. Combin. Theory A 34 (1983)): read from alpha = 1, the columns
# where they differ hold the up arrow of x, of y, of x, ..., of x in turn.
# Each such pair carries one monomial a^i b^j c^k, k = popcount(x ^ y),
# and a scan over alpha = 1..N gives its exponents: the arrow enters
# pointing right; a column where x and y differ is a c and turns it; any
# other is an a when it points right over two up edges or left over two
# down edges, and a b otherwise.  `_row_pairs` runs that scan for every
# pair of (N, p) at once, and `_row_plan` keeps the gather of each pair's
# x, the index of its monomial in a table the sweep builds once from a,
# b and c, and one slice of the pairs per y, in increasing order: a row
# is one map of products, summed per slice.  A term (a product by a
# monomial of N leaves, then a sum) costs about 5/4 of a column's product
# (timed row by row at N = 5..10), so a row takes the step where its
# terms are at most 4/5 of its column products: every row at N <= 8, all
# but the middle three or four at N = 9 and 10.  Past N = 10 the plans of
# one sweep no longer fit the store together, each sweep builds them
# again, and a row plan costs about ten times its columns to build, so
# columns cross every row there.  Only integer leaves take the step:
# their products and sums are exact in any order, so its values equal
# the columns'.  A float product by a monomial rounds differently from N
# products by one leaf, and a WeightMatrix's weights depend on the site.
#
# Class orders, both kinds of plan, the row-step flags and the half-turn
# pairings depend only on (N, p), so one store, `_INDEX`, keeps them
# across sweeps within a bound on the masks and positions it holds; a
# plan past the bound is built as the sweep reaches it (a column plan
# column by column) and dropped after.
#
# Leaves are integers for a WeightTriple: D = lcm of the denominators of
# (a, b, c) scales every vertex weight to an integer, a region of V
# vertices scales by D^V, and it is divided out once, at the end.
# Ratios of two N^2-vertex numbers (H, F, G, h_N) need no unscaling.
# Every other weight type runs through the same sweep with D = 1, and
# `_ratio` divides in the arithmetic of its leaves.

class _IntLeaves:
    """The leaf weight function of a WeightTriple scaled to the integers
    a, b and c; a sweep on it may cross a row in one step."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

    def __call__(self, alpha, k, kind):
        return getattr(self, kind)

    def monomials(self, N):
        """The table of the row step: a^i b^j c^k at i (N + 1) + j for
        every odd k = N - i - j, and 0 elsewhere."""
        a_pow = [self.a ** i for i in range(N + 1)]
        b_pow = [self.b ** j for j in range(N + 1)]
        table = [0] * (N + 1) ** 2
        for k in range(1, N + 1, 2):
            c_k = self.c ** k
            for i in range(N - k + 1):
                j = N - k - i
                table[i * (N + 1) + j] = a_pow[i] * b_pow[j] * c_k
        return table


def _leaves(w):
    """(weight(alpha, k, kind), D): the sweep's vertex weights, D times
    the true ones."""
    if isinstance(w, WeightTriple):
        d = lcm(w.a.denominator, w.b.denominator, w.c.denominator)
        return _IntLeaves(*(v.numerator * (d // v.denominator)
                            for v in (w.a, w.b, w.c))), d
    return w.weight, 1


def _ratio(num, den):
    """num / den, a Fraction where both are ints or Fractions; den = 0 is a
    vanishing Z."""
    if den == 0:
        raise Singular("Z = 0 at these weights: probabilities undefined")
    if isinstance(num, (int, Fraction)) and isinstance(den, (int, Fraction)):
        return Fraction(num, den)
    return num / den


def _gather(positions):
    """itemgetter(*positions), returning a sequence for any length."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions
                      else slice(0))


def _comb(n, k):
    return comb(n, k) if n >= 0 and k >= 0 else 0


class _IndexStore:
    """Index data of the sweep, built on first use and kept while it fits.

    It holds masks, list positions and the flags of `_row_steps`, never
    a leaf value, so an entry serves every weight swept after it.  `size`
    counts the masks and positions its entries hold (for a column plan,
    a bound on them).  It keeps what it holds: an entry that would take
    `size` past `bound` is built, used and dropped.
    """

    def __init__(self, bound):
        self.bound = bound
        self.size = 0
        self.entries = {}  # key -> (value, size)

    def get(self, build, *args):
        """`build(*args)` -> (value, size), kept under (build, args)."""
        key = build, args
        hit = self.entries.get(key)
        if hit is not None:
            return hit[0]
        value, size = build(*args)
        if self.size + size <= self.bound:
            self.entries[key] = (value, size)
            self.size += size
        return value


# every class order, plan and half-turn pairing of N <= 10 fits at once:
# 63420 of the bound, about 0.6 MB
_INDEX = _IndexStore(1 << 16)


def _class_order(N, q):
    """((the masks of popcount q below 2^N, increasing; `turn`, the gather
    that takes a list over them from one column's order to the next),
    the number of masks and positions held)."""
    pows = [1 << i for i in range(N - 1, -1, -1)]
    masks = tuple(map(sum, combinations(pows, q)))[::-1] \
        if 0 <= q <= N else ()
    # the next column's key turns the mask right by one more bit
    top = max(N - 1, 0)
    keys = [(m >> 1) | ((m & 1) << top) for m in masks]
    turn = sorted(range(len(masks)), key=keys.__getitem__)
    return (masks, _gather(turn)), 2 * len(masks)


def _column_plan(N, p):
    """((the masks of popcount p - 1, increasing; the columns that cross
    one row whose right half is the class of popcount p), a bound on the
    positions they hold).  Columns past the store's bound are built only
    as the sweep reaches them."""
    # a column holds 4h + t + u + xs_hi <= 3 xs_lo + n_lo + xs_hi of them,
    # and the masks n_lo more
    n_lo = _comb(N, p - 1)
    size = N * (3 * _comb(N - 1, p - 1) + _comb(N - 1, p)) + (N + 1) * n_lo
    columns = _row_columns(N, p)
    if size <= _INDEX.bound:
        columns = tuple(columns)
    return (_INDEX.get(_class_order, N, p - 1)[0], columns), size


def _row_columns(N, p):
    """Yield, for each column of a row whose right half is the class of
    popcount p, the gathers, from the list the column before left, of
    the values it multiplies by c, (head, lx, tail), and by a, (lx, head,
    tail); how many of those products the sums add pairwise; and the
    gather of the values it multiplies by b, (ly, rx).  A column's list
    is the sums head c + lx a and lx c + head a, then tail c, tail a,
    ly b and rx b; turns put `left` (sums, tail c, ly b) and `right`
    (rx b, sums, tail a) in the next column's order.  The last column
    keeps `left` alone, in increasing mask order."""
    masks_hi, turn_hi = _INDEX.get(_class_order, N, p)
    masks_lo, turn_lo = _INDEX.get(_class_order, N, p - 1)
    n_lo = len(masks_lo)
    xs_hi, xs_lo = _comb(N - 1, p), _comb(N - 1, p - 1)
    # one int object per position, shared by every gather of the row
    ints = tuple(range(len(masks_hi) + n_lo + xs_lo))
    pos_r, pos_l = turn_hi(ints[:len(masks_hi)]), ()
    for i in range(N):
        # `left` lacks the masks that hold bits 0..i-1: the last of its x's
        # and the last of its y's
        h = xs_lo - _comb(N - 1 - i, p - 1 - i)
        y_end = n_lo - _comb(N - 1 - i, p - 2 - i)
        rx, ry = pos_r[:xs_hi], pos_r[xs_hi:]
        lx, ly = pos_l[:h], pos_l[xs_lo:y_end]
        head, tail = ry[:h], ry[h:]
        if i == N - 1:
            yield _gather((*head, *tail)), _gather(lx), h, _gather(ly)
            return
        yield (_gather((*head, *lx, *tail)), _gather((*lx, *head, *tail)),
               2 * h, _gather((*ly, *rx)))
        t, u = len(tail), len(ly)
        o = 2 * h + 2 * t
        pos_l = turn_lo((*ints[:h], *ints[2 * h:2 * h + t], *ints[o:o + u],
                         *repeat(0, n_lo - y_end)))
        pos_r = turn_hi((*ints[o + u:o + u + xs_hi], *ints[h:2 * h],
                         *ints[2 * h + t:o]))


def _row_pairs(N, p, width):
    """The interlacing pairs of a row whose lower cut has popcount p, each
    one int y << (N + width) | x << width | m: x the state below, y the
    state above, and m = i (N + 1) + j, the index of the pair's weight
    a^i b^j c^(N-i-j) in the table of `_IntLeaves.monomials`.  One scan
    over alpha = 1..N grows every pair at once, by the vertex rules of
    the comment above; a path that can no longer end pointing left with
    p - 1 up arrows above is dropped."""
    last = p - 1
    paths = {(False, 0): [0]}  # (points left, up arrows above) -> pairs
    for n in range(N):
        x_up, rest = 1 << (width + n), N - 1 - n
        y_up = x_up << N
        both = x_up | y_up
        grown = {}

        def extend(left, q, pairs, step):
            if q <= last and last - q + (not left) <= rest:
                grown.setdefault((left, q), []).extend(
                    [z + step for z in pairs])

        for (left, q), pairs in paths.items():
            if left:
                extend(True, q, pairs, N + 1)  # a, both edges down
                extend(True, q + 1, pairs, both + 1)  # b, both up
                extend(False, q + 1, pairs, y_up)  # c, the edge above up
            else:
                extend(False, q + 1, pairs, both + N + 1)  # a, both up
                extend(False, q, pairs, 1)  # b, both down
                extend(True, q, pairs, x_up)  # c, the edge below up
        paths = grown
    return paths.get((True, last), [])


def _row_plan(N, p):
    """((the masks of popcount p - 1, increasing; `sources`, the gather of
    each interlacing pair's lower state from a list over the class of
    popcount p; `monomials`, the gather of each pair's weight from the
    table of `_IntLeaves.monomials`; one slice of the pairs per upper
    state, in increasing mask order), the number of masks, positions
    and slice ends held)."""
    masks_hi = _INDEX.get(_class_order, N, p)[0]
    masks_lo = _INDEX.get(_class_order, N, p - 1)[0]
    width = ((N + 1) ** 2).bit_length()
    pairs = sorted(_row_pairs(N, p, width))  # by y, the top bits
    rank = dict(zip(masks_hi, range(len(masks_hi))))
    low, below = (1 << width) - 1, (1 << N) - 1
    ends = list(map(bisect_left, repeat(pairs),
                    [(y + 1) << (N + width) for y in masks_lo]))
    return ((masks_lo, _gather([rank[z >> width & below] for z in pairs]),
             _gather([z & low for z in pairs]),
             tuple(map(slice, [0, *ends[:-1]], ends))),
            2 * (len(pairs) + len(masks_lo)))


def _row_terms(N, p):
    """The number of interlacing pairs of a row whose lower cut has
    popcount p: the states differ in 2m + 1 columns, and p - 1 - m of
    the others hold both up arrows."""
    return sum(_comb(N, 2 * m + 1) * _comb(N - 2 * m - 1, p - 1 - m)
               for m in range(p))


def _column_products(N, p):
    """The products the columns of `_column_plan` form crossing the row."""
    xs_hi, xs_lo = _comb(N - 1, p), _comb(N - 1, p - 1)
    total = 0
    for i in range(N):
        h = xs_lo - _comb(N - 1 - i, p - 1 - i)
        u = _comb(N, p - 1) - _comb(N - 1 - i, p - 2 - i) - xs_lo
        total += xs_lo + h + u if i == N - 1 else \
            2 * (xs_lo + h) + u + xs_hi
    return total


def _row_steps(N):
    """((for p = 0..N, whether a row whose lower cut has popcount p crosses
    in one step on integer leaves; the comment above says where), the
    N + 1 flags held)."""
    return tuple(0 < p and 5 * _row_terms(N, p) <= 4 * _column_products(N, p)
                 for p in range(N + 1)), N + 1


_ROW_STEP_MAX_N = 10  # where every plan of a sweep fits in `_INDEX`


def _transfer_bracket(N, weight, rows, states, cuts=None):
    """Sweep row-state values upward across `rows`, in the order given,
    from `states`, a dict over every mask of one popcount class on the
    cut below the first row; `weight` is the leaf weight function of
    `_leaves`.  Returns {mask: value} on the cut above the last row, in
    increasing mask order; a dict `cuts` receives, under each of its keys
    j > 0, the same for the cut after j rows."""
    p = next(iter(states)).bit_count()
    masks = _INDEX.get(_class_order, N, p)[0]
    values = [states[m] for m in masks]
    steps = table = None
    if type(weight) is _IntLeaves and N <= _ROW_STEP_MAX_N:
        steps = _INDEX.get(_row_steps, N)
    for j, k in enumerate(rows, 1):
        if steps and steps[p]:
            if table is None:
                table = weight.monomials(N)
            masks, sources, monomials, slices = _INDEX.get(_row_plan, N, p)
            terms = list(map(mul, sources(values), monomials(table)))
            values = list(map(sum, map(terms.__getitem__, slices)))
        else:
            masks, columns = _INDEX.get(_column_plan, N, p)
            for alpha, (by_c, by_a, sums, ly_rx) in enumerate(columns, 1):
                c = map(mul, by_c(values), repeat(weight(alpha, k, "c")))
                a = map(mul, by_a(values), repeat(weight(alpha, k, "a")))
                values = [*map(add, islice(c, sums), a), *c, *a,
                          *map(mul, ly_rx(values),
                               repeat(weight(alpha, k, "b")))]
        p -= 1
        if cuts is not None and j in cuts:
            cuts[j] = dict(zip(masks, values))
    return dict(zip(masks, values))


def _rot(N, m):
    """The half-turn of row state m: its N-bit reversal, complemented."""
    return ((1 << N) - 1) ^ int(format(m, f"0{N}b")[::-1], 2)


def _paired(N, s, top):
    """The values of `top` (row-s states keyed by their half-turns, in
    increasing order of those) in increasing order of the row-s states."""
    return _INDEX.get(_half_turn, N, s)(tuple(top.values()))


def _half_turn(N, s):
    """(the gather of `_paired`, the number of positions it holds)."""
    turned = _INDEX.get(_class_order, N, N - s)[0]
    rank = dict(zip(turned, range(len(turned))))
    return _gather([rank[_rot(N, m)]
                    for m in _INDEX.get(_class_order, N, s)[0]]), len(rank)


def _bottom_states(N, weight, s, cuts=None):
    """Sweep values of the N x (N-s) bottom sublattice, for every row-s
    state."""
    return _transfer_bracket(N, weight, range(N, s, -1), {(1 << N) - 1: 1},
                             cuts)


def _top_states(N, w, weight, s):
    """Sweep values of the N x s top sublattice, for every row-s state m
    keyed by rot(m): the bottom sublattice of the half-turned lattice."""
    if isinstance(w, WeightMatrix):
        weight = (lambda alpha, k, kind, f=weight:
                  f(N + 1 - alpha, N + 1 - k, kind))
    return _bottom_states(N, weight, N - s)


def _split_states(N, w, weight, s):
    """(`_top_states`, `_bottom_states`) at row s, from one sweep over
    max(s, N - s) rows unless the weights depend on the site."""
    if isinstance(w, WeightMatrix):
        return _top_states(N, w, weight, s), _bottom_states(N, weight, s)
    cuts = dict.fromkeys((s, N - s), {(1 << N) - 1: 1})  # 0 rows: the start
    _bottom_states(N, weight, min(s, N - s), cuts)
    return cuts[s], cuts[N - s]


def _frozen_cuts(N, w):
    """[(the frozen-mask cut value, its unscaling denominator, psi) for
    M = 0..N] at homogeneous weights (a WeightTriple, or any triple whose
    `weight` ignores the site), from one upward sweep over the N x N
    lattice by the frozen-column identity of the module docstring, in
    the arithmetic of the scaled leaves (ints for a WeightTriple).  Z_M
    is the cut value over its denominator and h_M the psi list over its
    sum (`ik_engine.BoundaryGenFamily` divides); M = 0 gives (1, 1,
    []): the empty lattice has no first row."""
    _check_size(N, "transfer")
    weight, d = _leaves(w)
    a, b, c = (weight(1, 1, kind) for kind in "abc")
    cuts = dict.fromkeys(range(N + 1), {(1 << N) - 1: 1})  # M rows: cuts[M]
    _bottom_states(N, weight, 0, cuts)
    out = [(1, 1, [])]
    for M in range(1, N + 1):
        frozen = (1 << (N - M)) - 1
        psi = [a ** (M - r) * c * b ** (r - 1)
               * cuts[M - 1][frozen | 1 << (N - M + r - 1)]
               for r in range(1, M + 1)]
        out.append((cuts[M][frozen], a ** (M * (N - M)) * d ** (M * M), psi))
    return out


def psi_top(cfg: RowConfig, w, method="transfer"):
    """Partition function of the N x s top sublattice with up arrows of
    `cfg` on its lower cut: an upward sweep over the half-turned top
    rows, read at rot(cfg).  The 0-row sublattice has psi_top = 1."""
    N, s = cfg.n, cfg.s
    if s == 0:
        return _one_like(w)
    if method == "transfer":
        _check_size(N, "transfer")
        weight, d = _leaves(w)
        top = _top_states(N, w, weight, s)
        return _ratio(top[_rot(N, cfg.bitmask())], d ** (N * s))
    _check_size(N, "enum")
    return enumerate_region(N, w, 1, s, 0, cfg.bitmask())


def psi_bot(cfg: RowConfig, w, method="transfer"):
    """Partition function of the N x (N-s) bottom sublattice with the
    arrows of `cfg` on its upper cut: an upward sweep over rows N..s+1
    from the all-up bottom boundary, read at `cfg`.  For s = N it is 1;
    for s = 0 it is Z_N."""
    N, s = cfg.n, cfg.s
    if s == N:
        return _one_like(w)
    if method == "transfer":
        _check_size(N, "transfer")
        weight, d = _leaves(w)
        bot = _bottom_states(N, weight, s)
        return _ratio(bot[cfg.bitmask()], d ** (N * (N - s)))
    _check_size(N, "enum")
    all_up = (1 << N) - 1
    return enumerate_region(N, w, s + 1, N, cfg.bitmask(), all_up)


def _one_like(w):
    """1 in the arithmetic of the leaves of `w`, the int 1 for a matrix
    with no vertex; 0 times it is their 0."""
    if isinstance(w, WeightMatrix) and not w.n:
        return 1
    return w.weight(1, 1, "a") ** 0


# ---------------------------------------------------------------------------
# correlation functions
# ---------------------------------------------------------------------------

def _row_probabilities(N, w, s, groups, method):
    """For each group of row-s position tuples, the sum of their row
    configuration probabilities psi_top * psi_bot / Z_N.  The tuples are
    valid (a RowConfig's, or drawn by `combinations`), so the transfer
    backend reads their masks without making a RowConfig.

    The transfer backend splits the lattice at row s once: the sweeps of
    `_split_states` give psi_top and psi_bot of every row-s state, and
    Z_N is the cut identity sum_states psi_top * psi_bot.
    """
    if method != "transfer":
        z = enumerate_Z(N, w, "enum")
        out = []
        for group in groups:
            total = 0 * _one_like(w)
            for pos in group:
                cfg = RowConfig(N, pos)
                total += psi_top(cfg, w, method) * psi_bot(cfg, w, method)
            out.append(_ratio(total, z))
        return out
    _check_size(N, "transfer")
    weight, _ = _leaves(w)  # every ratio below is of two N^2-vertex values
    top, bot = _split_states(N, w, weight, s)
    prod = dict(zip(bot, map(mul, _paired(N, s, top), bot.values())))
    z = sum(prod.values())
    return [_ratio(sum(prod[_bitmask(pos)] for pos in group), z)
            for group in groups]


def row_config_probability(cfg: RowConfig, w, method="transfer"):
    """H_N^(r_1..r_s) = psi_top * psi_bot / Z_N."""
    return _row_probabilities(cfg.n, w, cfg.s, [[cfg.positions]], method)[0]


class EfpQuery(FrozenRecord):
    """Region of an EFP evaluation: 1 <= s <= r <= N, n = r - s."""

    _fields = ("N", "r", "s")

    def __init__(self, N, r, s):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        if not (1 <= s <= r <= N):
            raise InvalidRegion(
                f"need 1 <= s <= r <= N, got r={r}, s={s}, N={N}")

    @property
    def n(self) -> int:
        return self.r - self.s


def efp_oracle(N, r, s, w, route="efp", method="transfer"):
    """Emptiness formation probability F_N^(r,s) by direct summation.

    route 'efp' sums H over configurations confined to 1..r on row s;
    route 'efpn' freezes positions 1..s on row r = s+n and sums over the
    remaining n up arrows.  The two must agree exactly.
    """
    EfpQuery(N, r, s)
    if route == "efp":
        row, cfgs = s, list(combinations(range(1, r + 1), s))
    elif route == "efpn":
        frozen = tuple(range(1, s + 1))
        row, cfgs = r, [frozen + extra
                        for extra in combinations(range(s + 1, N + 1), r - s)]
    else:
        raise ValueError(f"unknown route {route!r}")
    return _row_probabilities(N, w, row, [cfgs], method)[0]


def polarization_oracle(N, r, s, w, method="transfer"):
    """Probability G_N^(r,s) of an up arrow at position r on row s."""
    if not (1 <= r <= N and 1 <= s <= N):
        raise InvalidRegion(f"need 1 <= r, s <= N, got r={r}, s={s}, N={N}")
    cfgs = [pos for pos in combinations(range(1, N + 1), s) if r in pos]
    return _row_probabilities(N, w, s, [cfgs], method)[0]


def boundary_generating_poly(N, w, method="transfer") -> ExactPoly:
    """h_N(z) = sum_r H_N^(r) z^(r-1), the generating polynomial of the
    first-row one-point boundary correlation.

    Normalization (asserted exactly in the tests): h_N(1) = 1 and
    h_N(0) = a^(2(N-1)) c Z_{N-1} / Z_N -- the value at the origin is
    the single-configuration probability H_N^(1), so it carries the
    1/Z_N that a probability requires.  h_N needs a first row: N >= 1.
    """
    if N < 1:
        raise InvalidRegion(f"h_N needs N >= 1, got N={N}")
    coeffs = _row_probabilities(N, w, 1, [[(r,)] for r in range(1, N + 1)],
                                method)
    if isinstance(w, WeightTriple):
        return ExactPoly(coeffs)
    return coeffs  # numeric mode: plain coefficient list
