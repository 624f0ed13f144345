"""QQ keeps integral values as ints; arithmetic must not care.

``QQ.coerce`` and ``QQ.inv`` return an int exactly when the value is
integral, while products and sums of Fractions may still leave an integral
``Fraction`` in a term map.  Both representations of one value must give
equal polynomials, equal text and equal hashes under every operation.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from towerval.bridge import lift_tower
from towerval.polyring import GF, QQ, Polynomial, grlex_key, parse_polynomial
from towerval.tower import CenterSpec, blow_up, new_tower

NVARS = 2


@st.composite
def twin_polys(draw, max_terms=4):
    """Two term maps of one QQ polynomial: integral coefficients as ints in
    the first, and each drawn as ``n`` or ``Fraction(n)`` in the second."""
    exps = st.tuples(*[st.integers(0, 3)] * NVARS)
    values = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    items = draw(st.dictionaries(exps, st.tuples(values, st.booleans()), max_size=max_terms))
    ints, mixed = {}, {}
    for m, (c, as_fraction) in items.items():
        if c:
            ints[m] = QQ.coerce(c)
            mixed[m] = Fraction(c) if as_fraction else QQ.coerce(c)
    return Polynomial(QQ, NVARS, ints), Polynomial(QQ, NVARS, mixed)


def monic(f):
    return f.scale(f.domain.inv(f.terms[max(f.terms, key=grlex_key)]))


def assert_same(a, b):
    assert a == b
    assert a.text() == b.text()
    assert hash(a) == hash(b)


@given(twin_polys(), twin_polys())
def test_ring_operations_ignore_the_representation(f, g):
    (fi, fm), (gi, gm) = f, g
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        assert_same(op(fi, gi), op(fm, gm))
        assert_same(op(fi, gi), op(fm, gi))


@given(twin_polys(max_terms=3), st.integers(0, 4),
       st.sampled_from([2, Fraction(2), Fraction(-1, 3)]))
def test_powers_scaling_and_derivatives_ignore_the_representation(f, e, c):
    fi, fm = f
    assert_same(fi ** e, fm ** e)
    assert_same(fi.scale(c), fm.scale(c))
    for i in range(NVARS):
        assert_same(fi.derivative(i), fm.derivative(i))
    if not fi.is_zero():
        assert_same(monic(fi), monic(fm))


@given(twin_polys(max_terms=3), twin_polys(max_terms=3), twin_polys(max_terms=3))
def test_substitution_and_evaluation_ignore_the_representation(f, g, h):
    (fi, fm), (gi, gm), (hi, hm) = f, g, h
    assert_same(fi.substitute([gi, hi]), fm.substitute([gm, hm]))
    for point in ((0, 1), (Fraction(2), Fraction(-1)), (Fraction(1, 2), 3)):
        vi, vm = fi.evaluate(point), fm.evaluate(point)
        assert vi == vm and hash(vi) == hash(vm)


@given(st.one_of(
    st.integers(-10**30, 10**30),
    st.integers(-50, 50).map(Fraction),
    st.fractions(max_denominator=12),
))
def test_coerce_and_inv_return_an_int_exactly_for_integral_values(x):
    c = QQ.coerce(x)
    assert c == x and (type(c) is int) == (Fraction(x).denominator == 1)
    if x:
        r = QQ.inv(x)
        assert r == 1 / Fraction(x) and (type(r) is int) == (r.denominator == 1)


def test_parsed_and_lifted_constants_are_ints():
    f = parse_polynomial("4/2*x1 - 3/1 + 1/2*x2", QQ, NVARS)
    assert sorted(map(type, f.terms.values()), key=str) == [Fraction, int, int]
    t, _ = blow_up(new_tower(NVARS, GF(5)), CenterSpec.make(0, {0: 0, 1: 3}, GF(5)))
    (step,) = lift_tower(t).steps
    assert step.center.constraints == ((0, 0), (1, 3))
    assert all(type(c) is int for _, c in step.center.constraints)


# -- Polynomial is read-only, and its hash is a function of its value --------------


@pytest.mark.parametrize("name", ["domain", "nvars", "terms", "_hash"])
def test_polynomial_attributes_cannot_be_set(name):
    f = parse_polynomial("x1 + 2*x2", QQ, NVARS)
    hash(f)
    with pytest.raises(AttributeError):
        setattr(f, name, None)
    fresh = parse_polynomial("x1", GF(7), NVARS)
    with pytest.raises(AttributeError):
        setattr(fresh, name, None)  # also before the hash is first computed


@pytest.mark.parametrize("dom", [QQ, GF(7)], ids=repr)
def test_equal_polynomials_hash_equal_however_built(dom):
    x1, x2 = (Polynomial.variable(dom, NVARS, i) for i in range(NVARS))
    one = Polynomial.constant(dom, NVARS, 1)
    built = [
        Polynomial.from_terms(dom, NVARS, [((2, 0), 1), ((1, 1), 2), ((0, 2), 1)]),
        (x1 + x2) ** 2,
        x1 * x1 + (x1 * x2).scale(2) + x2 * x2,
        (x1 + one).substitute([x1 + x2 - one, x2]) ** 2,
        parse_polynomial("(x1 + x2)^2", dom, NVARS),
    ]
    for f in built[1:]:
        assert f == built[0] and hash(f) == hash(built[0])


def test_a_hash_does_not_change_once_computed():
    f = parse_polynomial("x1^2 - 1/3*x2", QQ, NVARS)
    first = hash(f)
    seen = {f: 1, f * f: 2, f.substitute([f, f]): 3}
    assert hash(f) == first and seen[f] == 1
    assert first == hash(parse_polynomial("x1^2 - 1/3*x2", QQ, NVARS))
