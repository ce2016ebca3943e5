"""Relative error of the numeric routes against exact references.

Each case compares a float route with a reference whose digits are
known, relative, within DEFAULT_RTOL: the exact lattice oracle at the
dyadic weights that the route's float weights are, or the float
transfer oracle where that is pinned against an exact value.  A known
drift is a strict xfail naming its ROADMAP item, so that a fix shows as
an XPASS and fails the run until its marker goes.  Covered so far:
`zn --method ik`, both forms (ROADMAP item 13 lists the rest).
"""

import json
from fractions import Fraction

import pytest

from dwbc.cli import main
from dwbc.exact_core import DEFAULT_RTOL
from dwbc.ik_numeric import ik_homogeneous
from dwbc.lattice_oracle import WeightMatrix, WeightTriple, enumerate_Z
from dwbc.trig import TrigParams, homogeneous_abc

# the inhomogeneous parameters of the ROADMAP's Baseline, N = 10
LAMBDAS = (1.444, 1.128, 1.961, 1.327, 1.343, 0.36, 1.07, 1.394, 1.338,
           0.502)
NUS = (-0.287, -0.226, 0.563, 0.304, 0.558, -0.654, -0.38, 0.053, -0.614,
       -0.379)
ETA = 0.402
# the exact Z_10 at the rational point of those parameters
EXACT_Z10 = 4.159255514349083e-05

ITEM_11 = "ROADMAP item 11: the float IK determinant drifts with N"


def _relative(got, want):
    return abs(got - want) / abs(want)


def _dyadic(x):
    """The exact value of a float weight, a complex one with no
    imaginary part."""
    assert x.imag == 0
    return Fraction(x.real)


class TestInhomogeneousIK:
    """`zn --method ik` with --lambdas/--nus against the float transfer
    oracle, each transfer value pinned against an exact one."""

    def _printed(self, capsys, N, method):
        """Z_N as `dwbc zn` prints it at the first N Baseline
        parameters."""
        assert main(["zn", "--size", str(N),
                     "--lambdas", *map(str, LAMBDAS[:N]),
                     "--nus", *map(str, NUS[:N]), "--eta", str(ETA),
                     "--method", method]) == 0
        return complex(json.loads(capsys.readouterr().out)["Z"])

    def test_transfer_is_pinned_at_10(self, capsys):
        assert _relative(self._printed(capsys, 10, "transfer"),
                         EXACT_Z10) <= DEFAULT_RTOL

    def test_transfer_is_pinned_at_8(self, capsys):
        p = TrigParams(LAMBDAS[:8], NUS[:8], ETA)
        m = p.weight_matrix()
        exact = enumerate_Z(8, WeightMatrix(
            [[_dyadic(x) for x in row] for row in m.a_grid],
            [[_dyadic(x) for x in row] for row in m.b_grid],
            _dyadic(m.c)), "transfer")
        assert _relative(self._printed(capsys, 8, "transfer"),
                         float(exact)) <= DEFAULT_RTOL

    def test_ik_at_8(self, capsys):
        want = self._printed(capsys, 8, "transfer")
        assert _relative(self._printed(capsys, 8, "ik"), want) <= DEFAULT_RTOL

    # relative error 3.0e-6
    @pytest.mark.xfail(strict=True, reason=ITEM_11)
    def test_ik_at_10(self, capsys):
        want = self._printed(capsys, 10, "transfer")
        assert _relative(self._printed(capsys, 10, "ik"), want) <= DEFAULT_RTOL


class TestHomogeneousIK:
    """`ik_homogeneous` at lambda = 0.9, eta = 0.3 against the exact
    sweep at the dyadic weights its float sines are."""

    @pytest.mark.parametrize("N", [
        8, 10,
        # relative errors 2.7e-9 and 3.4e-7
        pytest.param(12, marks=pytest.mark.xfail(strict=True, reason=ITEM_11)),
        pytest.param(14, marks=pytest.mark.xfail(strict=True, reason=ITEM_11)),
    ])
    def test_against_the_exact_sweep(self, N):
        lam, eta = 0.9, 0.3
        w = WeightTriple(*map(_dyadic, homogeneous_abc(lam, eta)))
        want = float(enumerate_Z(N, w, "transfer"))
        assert _relative(ik_homogeneous(N, lam, eta), want) <= DEFAULT_RTOL
