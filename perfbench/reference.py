"""Independent exact reference for the lattice observables.

A vertex-by-vertex transfer over (vertical-edge bitmask, horizontal
arrow) states, in Python integers.  It shares no code with
`dwbc.lattice_oracle` (which multiplies QISM monodromy operators over
`Fraction` leaves); the benchmark compares the program's answers with
it bit for bit.

Rational weights (a, b, c) are scaled by D = lcm of their denominators
to integers.  Every vertex carries exactly one weight, so a region of V
vertices scales by D^V; probabilities are ratios of regions with the
same total vertex count and need no rescaling.

Conventions follow the model's definition: vertical lines are numbered
alpha = 1..N from the right, rows k = 1..N from the top; bit alpha-1 of
a row state is set when that vertical edge points up.  The top boundary
is all down, the bottom all up; every row enters from the left with its
horizontal arrow pointing left and leaves pointing right.
"""

from fractions import Fraction
from math import lcm

# (incoming horizontal arrow points right, edge above up) ->
#     [(outgoing arrow points right, edge below up, weight kind)]
_RULES = {
    (True, 1): [(True, 1, "a"), (False, 0, "c")],
    (True, 0): [(True, 0, "b")],
    (False, 1): [(False, 1, "b")],
    (False, 0): [(False, 0, "a"), (True, 1, "c")],
}
# the same table read backwards: (outgoing arrow, edge below) -> inputs
_INVERSE = {}
for (h_in, up_in), outs in _RULES.items():
    for h_out, up_out, kind in outs:
        _INVERSE.setdefault((h_out, up_out), []).append((h_in, up_in, kind))

# alternating sign matrix counts: Z_N at the ice point a = b = c = 1
ASM_COUNTS = (1, 1, 2, 7, 42, 429, 7436, 218348, 10850216, 911835460,
              129534272700, 31095744852375, 12611311859677500)


def integer_weights(w):
    """(A, B, C, D) with A = D*a etc. integers."""
    a, b, c = (Fraction(w.a), Fraction(w.b), Fraction(w.c))
    d = lcm(a.denominator, b.denominator, c.denominator)
    return {"a": int(a * d), "b": int(b * d), "c": int(c * d)}, d


def _row_forward(n, wt, states):
    """Push {bitmask: weight} across one row of vertices."""
    cur = {(m, False): v for m, v in states.items()}
    for p in range(n):  # left to right: vertical line alpha = n - p
        bit = 1 << (n - p - 1)
        nxt = {}
        for (m, h), v in cur.items():
            for h2, up2, kind in _RULES[(h, 1 if m & bit else 0)]:
                key = ((m | bit) if up2 else (m & ~bit), h2)
                nxt[key] = nxt.get(key, 0) + v * wt[kind]
        cur = nxt
    return {m: v for (m, h), v in cur.items() if h}


def _row_backward(n, wt, values):
    """Pull {bitmask below the row: weight to finish} up across one row."""
    cur = {(m, True): v for m, v in values.items()}
    for p in reversed(range(n)):
        bit = 1 << (n - p - 1)
        prv = {}
        for (m, h2), v in cur.items():
            for h, up_in, kind in _INVERSE.get((h2, 1 if m & bit else 0), ()):
                key = ((m | bit) if up_in else (m & ~bit), h)
                prv[key] = prv.get(key, 0) + v * wt[kind]
        cur = prv
    return {m: v for (m, h), v in cur.items() if not h}


def top_weights(n, s, wt):
    """{row-s bitmask: integer weight of the top n x s sublattice}."""
    states = {0: 1}
    for _ in range(s):
        states = _row_forward(n, wt, states)
    return states


def bottom_weights(n, s, wt):
    """{row-s bitmask: integer weight of the bottom n x (n-s) sublattice}."""
    values = {(1 << n) - 1: 1}
    for _ in range(n - s):
        values = _row_backward(n, wt, values)
    return values


class RowSplit:
    """Top and bottom sublattice weights of every row-s state at once."""

    def __init__(self, n, s, w):
        wt, self.d = integer_weights(w)
        self.n, self.s = n, s
        self.top = top_weights(n, s, wt)
        self.bot = bottom_weights(n, s, wt)
        # Z_N by the cut identity: the sum over every row-s state
        self.z_int = sum(v * self.bot.get(m, 0) for m, v in self.top.items())

    def z(self):
        return Fraction(self.z_int, self.d ** (self.n * self.n))

    def weight(self, positions):
        m = sum(1 << (p - 1) for p in positions)
        return self.top.get(m, 0) * self.bot.get(m, 0)

    def psi_top(self, positions):
        m = sum(1 << (p - 1) for p in positions)
        return Fraction(self.top.get(m, 0), self.d ** (self.n * self.s))

    def psi_bot(self, positions):
        m = sum(1 << (p - 1) for p in positions)
        return Fraction(self.bot.get(m, 0),
                        self.d ** (self.n * (self.n - self.s)))

    def probability(self, positions_list):
        """Sum of row configuration probabilities over `positions_list`."""
        return Fraction(sum(self.weight(p) for p in positions_list), self.z_int)
