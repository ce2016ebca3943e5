"""The trigonometric parametrization of the vertex weights.

    a(l, n) = sin(l - n + eta),   b(l, n) = sin(l - n - eta),
    c = sin 2eta,   d(x, y) = sin(x - y),   e(x, y) = sin(x - y + 2eta).

Every sine and cosine of a float parameter in the package is taken
here: the weight functions, the spectral-parameter record `TrigParams`
with its weight matrix, the homogeneous triple `NumericTriple`, and the
few sines and cosines the Hankel moments and the Taylor calculus of
`ik_engine` and `hankel_orthopoly` start from.  The module needs only
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


class TrigParams(FrozenRecord):
    """Spectral parameters of the inhomogeneous model.

    lambdas attach to vertical lines (right to left), nus to horizontal
    lines (top to bottom); eta is the coupling.  Each set must be
    pairwise distinct or the determinant prefactors are 0/0; the
    coordinate-wavefunction limit legitimately takes all lambdas equal,
    which `allow_coincident_lambdas` admits (nu's stay constrained).
    """

    _fields = ("lambdas", "nus", "eta")

    def __init__(self, lambdas, nus, eta, allow_coincident_lambdas=False):
        object.__setattr__(self, "lambdas", tuple(lambdas))
        object.__setattr__(self, "nus", tuple(nus))
        object.__setattr__(self, "eta", eta)
        sets = [("nu", self.nus)]
        if not allow_coincident_lambdas:
            sets.append(("lambda", self.lambdas))
        for name, vals in sets:
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    if abs(d_fn(vals[i], vals[j])) <= DEGENERACY_TOL:
                        raise NearDegenerate(
                            f"{name}[{i}] and {name}[{j}] collide within "
                            f"{DEGENERACY_TOL}")

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
    """Homogeneous complex weights with the lattice_oracle interface;
    hashes by value, like WeightTriple, so `ik_engine.family` caches
    it."""

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
