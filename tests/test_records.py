"""The value classes: equal and hashed by value, unassignable when
frozen, printed as `Name(field=value, ...)`, and validated on
construction."""

from fractions import Fraction

import pytest

from dwbc.errors import InvalidRegion, NearDegenerate
from dwbc.identity_suite import IdentityCase
from dwbc.ik_engine import family
from dwbc.lattice_oracle import EfpQuery, RowConfig, WeightTriple
from dwbc.trig import NumericTriple, TrigParams

# each built twice from different but equal arguments, and a third
# instance that differs in one field
_FROZEN = [
    (lambda: WeightTriple("3/2", 2, "5/3"),
     lambda: WeightTriple(Fraction(3, 2), 2, Fraction(5, 3)),
     lambda: WeightTriple("3/2", 2, "5/4")),
    (lambda: RowConfig(5, [1, 3]), lambda: RowConfig(5.0, ("1", 3)),
     lambda: RowConfig(5, (1, 4))),
    (lambda: EfpQuery(5, 4, 2), lambda: EfpQuery(5, 4, 2),
     lambda: EfpQuery(5, 4, 1)),
    (lambda: TrigParams([0.3, 0.8], (0.1, 0.25), 0.35),
     lambda: TrigParams((0.3, 0.8), [0.1, 0.25], 0.35),
     lambda: TrigParams((0.3, 0.8), (0.1, 0.25), 0.36)),
    (lambda: NumericTriple(1, 2.5, 0.5j),
     lambda: NumericTriple(1 + 0j, 2.5, complex(0, 0.5)),
     lambda: NumericTriple(1, 2.5, 0.25j)),
]
_IDS = ["WeightTriple", "RowConfig", "EfpQuery", "TrigParams",
        "NumericTriple"]


@pytest.mark.parametrize("make, again, other", _FROZEN, ids=_IDS)
def test_equal_and_hashed_by_value(make, again, other):
    x, y, z = make(), again(), other()
    assert x is not y
    assert x == y and hash(x) == hash(y)
    assert x != z and not x == z
    assert len({x, y, z}) == 2
    # a record never equals an object of another class
    assert x != tuple(vars(x).values()) and x != object()


@pytest.mark.parametrize("make, again, other", _FROZEN, ids=_IDS)
def test_fields_cannot_be_assigned(make, again, other):
    x = make()
    for name in list(vars(x)):
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, before)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is before
    with pytest.raises(AttributeError):
        x.extra = 1


def test_family_caches_equal_triples_once():
    a = WeightTriple("3/2", 2, "5/3")
    b = WeightTriple(Fraction(3, 2), 2, Fraction(5, 3))
    assert family(a) is family(b)
    assert family(NumericTriple(1, 2, 3)) is family(NumericTriple(1, 2, 3))


def test_repr_text():
    # the text the classes printed as frozen dataclasses
    assert repr(WeightTriple("3/2", 2, "5/3")) == (
        "WeightTriple(a=Fraction(3, 2), b=Fraction(2, 1), c=Fraction(5, 3))")
    assert repr(RowConfig(5, [1, 3])) == "RowConfig(n=5, positions=(1, 3))"
    assert repr(RowConfig(3, ())) == "RowConfig(n=3, positions=())"
    assert repr(EfpQuery(5, 4, 2)) == "EfpQuery(N=5, r=4, s=2)"
    assert repr(TrigParams([0.3, 0.8], (0.1, 0.25), 0.35)) == (
        "TrigParams(lambdas=(0.3, 0.8), nus=(0.1, 0.25), eta=0.35)")
    assert repr(TrigParams([0.3, 0.8], (0.1, 0.25), 0.35 + 0.1j)) == (
        "TrigParams(lambdas=(0.3, 0.8), nus=(0.1, 0.25), eta=(0.35+0.1j))")
    assert repr(NumericTriple(1, 2.5, 0.5j)) == (
        "NumericTriple(a=(1+0j), b=(2.5+0j), c=0.5j)")
    assert repr(IdentityCase("kmst", "numeric", {"s": 2})) == (
        "IdentityCase(name='kmst', mode='numeric', params={'s': 2}, "
        "lhs=None, rhs=None, residual=0.0, ok=True)")
    case = IdentityCase("cantini", "exact", {"s": 1, "delta": Fraction(1, 2)},
                        Fraction(3), Fraction(3), 0.0, True)
    assert repr(case) == (
        "IdentityCase(name='cantini', mode='exact', params={'s': 1, "
        "'delta': Fraction(1, 2)}, lhs=Fraction(3, 1), rhs=Fraction(3, 1), "
        "residual=0.0, ok=True)")


def test_identity_case_is_a_mutable_unhashable_record():
    a = IdentityCase("psxx", "exact", {"s": 2})
    b = IdentityCase("psxx", "exact", {"s": 2}, None, None, 0.0, True)
    assert a == b
    a.lhs = a.rhs = Fraction(1, 3)
    assert a != b
    b.lhs = b.rhs = Fraction(1, 3)
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("build", [
    lambda: RowConfig(4, (3, 1)),
    lambda: RowConfig(4, (2, 2)),
    lambda: RowConfig(3, (0, 2)),
    lambda: RowConfig(3, (1, 4)),
    lambda: EfpQuery(3, 2, 3),
    lambda: EfpQuery(3, 4, 1),
    lambda: EfpQuery(3, 1, 0),
    lambda: EfpQuery(0, 0, 0),
])
def test_invalid_regions(build):
    with pytest.raises(InvalidRegion):
        build()


def test_near_degenerate_parameters():
    with pytest.raises(NearDegenerate):
        TrigParams([0.3, 0.3], [0.1, 0.2], 0.35)
    with pytest.raises(NearDegenerate):
        TrigParams([0.3, 0.3 + 1e-10], [0.1, 0.2], 0.35)
    with pytest.raises(NearDegenerate):
        TrigParams([0.3, 0.8], [0.1, 0.1 + 3.141592653589793], 0.35)
    with pytest.raises(NearDegenerate):
        TrigParams([0.3, 0.8], [0.1, 0.1], 0.35, allow_coincident_lambdas=True)
    p = TrigParams([0.3, 0.3], [0.1, 0.2], 0.35, allow_coincident_lambdas=True)
    assert p.n == 2


def test_weights_must_be_positive():
    for abc in ((0, 1, 1), (1, "-1/2", 1), (1, 1, -3)):
        with pytest.raises(ValueError):
            WeightTriple(*abc)
