"""The trigonometric parametrization of the vertex weights.

    a(l, n) = sin(l - n + eta),   b(l, n) = sin(l - n - eta),
    c = sin 2eta,   d(x, y) = sin(x - y),   e(x, y) = sin(x - y + 2eta).

Every sine and cosine of a float parameter in the package is taken
here: the weight functions, the spectral-parameter record `TrigParams`
with its weight matrix, the homogeneous triple `NumericTriple`, and the
few sines and cosines the Hankel moments and the Taylor calculus of
`ik_numeric` and `hankel_orthopoly` start from.  The module needs only
`lattice_oracle`'s record and weight classes, so an oracle subcommand
given float parameters loads no part of the exact engine.
"""

from __future__ import annotations

import cmath

from .errors import NearDegenerate
from .lattice_oracle import FrozenRecord, WeightMatrix

DEGENERACY_TOL = 1e-8


def a_fn(l, n, eta):
    return cmath.sin(l - n + eta)


def b_fn(l, n, eta):
    return cmath.sin(l - n - eta)


def c_fn(eta):
    return cmath.sin(2 * eta)


def d_fn(x, y):
    return cmath.sin(x - y)


def e_fn(x, y, eta):
    return cmath.sin(x - y + 2 * eta)


def sin_cos(x):
    """(sin x, cos x)."""
    return cmath.sin(x), cmath.cos(x)


def sin_ratio(x, y):
    """sin x / sin y."""
    return cmath.sin(x) / cmath.sin(y)


def check_distinct(name, vals):
    """Refuse two parameters x, y of `vals` with |d(x, y)| within
    DEGENERACY_TOL of 0, where a prefactor dividing by d(x, y) is 0/0."""
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(d_fn(vals[i], vals[j])) <= DEGENERACY_TOL:
                raise NearDegenerate(f"{name}[{i}] and {name}[{j}] collide "
                                     f"within {DEGENERACY_TOL}")


class TrigParams(FrozenRecord):
    """Spectral parameters of the inhomogeneous model.

    lambdas attach to vertical lines (right to left), nus to horizontal
    lines (top to bottom); eta is the coupling.  The nus must be
    pairwise distinct, or every route's prefactor is 0/0.  The lambdas
    may coincide: the lattice and the coordinate wavefunction are
    defined there (all lambdas equal is the classic wavefunction limit),
    and the routes that divide by d(l_i, l_j) check them themselves.
    """

    _fields = ("lambdas", "nus", "eta")

    def __init__(self, lambdas, nus, eta):
        object.__setattr__(self, "lambdas", tuple(lambdas))
        object.__setattr__(self, "nus", tuple(nus))
        object.__setattr__(self, "eta", eta)
        check_distinct("nu", self.nus)

    @property
    def n(self):
        return len(self.lambdas)

    def weight_matrix(self) -> WeightMatrix:
        """Numeric vertex weights a_{alpha k} = a(l_alpha, nu_k) etc."""
        a = [[a_fn(l, v, self.eta) for v in self.nus] for l in self.lambdas]
        b = [[b_fn(l, v, self.eta) for v in self.nus] for l in self.lambdas]
        return WeightMatrix(a, b, c_fn(self.eta))


def homogeneous_abc(lam, eta):
    """Weights of the homogeneous model (nu = 0): a = sin(lam+eta),
    b = sin(lam-eta), c = sin 2eta."""
    return (cmath.sin(lam + eta), cmath.sin(lam - eta), c_fn(eta))


class NumericTriple(FrozenRecord):
    """Homogeneous complex weights with the lattice_oracle interface,
    hashed by value like WeightTriple."""

    _fields = ("a", "b", "c")

    def __init__(self, a, b, c):
        object.__setattr__(self, "a", complex(a))
        object.__setattr__(self, "b", complex(b))
        object.__setattr__(self, "c", complex(c))

    def weight(self, alpha, k, kind):
        return getattr(self, kind)

    @staticmethod
    def zero():
        return 0j
