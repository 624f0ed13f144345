from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towerval import errors
from towerval.polyring import (
    GF,
    _is_prime,
    QQ,
    Ideal,
    MultiIdeal,
    Polynomial,
    coordinate_ideal,
    lift_to_q,
    parse_polynomial,
)

from oracles import order_at_origin


def test_primality_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(20000))
    for carmichael in (561, 41041, 825265):
        assert not _is_prime(carmichael)
        with pytest.raises(errors.NonPrimeModulus):
            GF(carmichael)


def P(text, domain, nvars=2):
    return parse_polynomial(text, domain, nvars)


def random_poly(rng, domain, nvars, max_deg=4, max_terms=5):
    items = []
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if domain.p:
            c = rng.randint(0, domain.p - 1)
        else:
            c = rng.randint(-9, 9)
        items.append((exps, c))
    return Polynomial.from_terms(domain, nvars, items)


# -- domains -----------------------------------------------------------------

def test_gf_requires_prime_modulus():
    GF(2)
    GF(101)
    for bad in (0, 1, 4, 9, 100):
        with pytest.raises(errors.NonPrimeModulus):
            GF(bad)


def test_gf_constants_are_canonical_residues():
    d = GF(5)
    assert d.coerce(7) == 2
    assert d.coerce(-1) == 4
    with pytest.raises(errors.ConstantNotInField):
        d.coerce(Fraction(1, 2))


def test_rational_constants_become_fractions():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce(Fraction(6, 2)) == 3
    with pytest.raises(errors.ConstantNotInField):
        QQ.coerce(0.5)


# -- canonical form and arithmetic ---------------------------------------------

def test_no_zero_coefficients_survive_construction():
    f = Polynomial.from_terms(GF(5), 2, [((1, 0), 5), ((0, 1), 3)])
    assert f.terms == {(0, 1): 3}


def test_equality_is_term_map_identity():
    f = P("x1^2 + 2*x2", QQ)
    g = P("2*x2 + x1^2", QQ)
    assert f == g and hash(f) == hash(g)
    assert f != P("x1^2 + 2*x2 + 1", QQ)


def test_addition_cancels_exactly():
    f = P("x1^2 + x2", QQ)
    g = P("-x1^2 + x2", QQ)
    assert (f + g) == P("2*x2", QQ)
    assert (f - f).is_zero()


def test_product_matches_hand_expansion():
    f = P("x1 + x2", QQ)
    assert f * f == P("x1^2 + 2*x1*x2 + x2^2", QQ)
    assert f ** 3 == P("x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3", QQ)


def test_frobenius_power_over_gf5():
    f = P("x1 + x2", GF(5))
    assert f ** 5 == P("x1^5 + x2^5", GF(5))


# -- reduction and lifting -------------------------------------------------------

def lift(f):
    """The ``lift_to_q`` image of one GF(p) polynomial; zero lifts to zero."""
    if f.is_zero():
        return Polynomial.zero(QQ, f.nvars)
    (g,) = lift_to_q(Ideal(f.domain, f.nvars, [f])).gens
    return g


def reduce_mod(g, p):
    """Coefficient-wise reduction of an integral QQ polynomial mod p."""
    return Polynomial.from_terms(GF(p), g.nvars, g.terms.items())


def test_lift_canonical_representatives():
    f = P("2*x1 + 3", GF(5))
    assert lift(f) == P("2*x1 + 3", QQ)
    with pytest.raises(errors.ZeroIdeal):
        lift_to_q(Ideal(GF(5), 2, [Polynomial.zero(GF(5), 2)]))
    with pytest.raises(errors.RingMismatch):
        lift_to_q(Ideal(QQ, 2, [P("x1", QQ)]))


def test_reduce_after_lift_is_identity_on_random_polynomials():
    rng = random.Random(401)
    for p in (5, 101):
        dom = GF(p)
        for _ in range(200):
            f = random_poly(rng, dom, 3)
            g = lift(f)
            assert reduce_mod(g, p) == f
            assert frozenset(g.terms) == frozenset(f.terms)


def test_reduction_is_a_ring_homomorphism():
    rng = random.Random(402)
    for _ in range(100):
        f = random_poly(rng, QQ, 2)
        g = random_poly(rng, QQ, 2)
        assert reduce_mod(f * g, 7) == reduce_mod(f, 7) * reduce_mod(g, 7)
        assert reduce_mod(f + g, 7) == reduce_mod(f, 7) + reduce_mod(g, 7)


# -- orders ----------------------------------------------------------------------

def order_at_point(f, point):
    """Vanishing order at a point: translate the point to the origin by the
    exact substitution x -> x + q and take the minimal term degree."""
    dom, n = f.domain, f.nvars
    images = [
        Polynomial.variable(dom, n, i) + Polynomial.constant(dom, n, q)
        for i, q in enumerate(point)
    ]
    return order_at_origin(f.substitute(images))


def test_order_at_point_examples():
    f = P("x1^2*x2 + x1^3", QQ)
    assert order_at_point(f, (0, 0)) == 3
    assert order_at_point(P("5", QQ), (0, 0)) == 0
    g = P("x1^2 + x2^3", QQ)
    assert order_at_point(g, (1, 0)) == 0
    assert order_at_point(g, (0, 0)) == 2
    with pytest.raises(errors.ZeroPolynomial):
        order_at_point(Polynomial.zero(QQ, 2), (0, 0))


def test_order_is_additive_over_a_field():
    rng = random.Random(403)
    for _ in range(60):
        f = random_poly(rng, QQ, 2)
        g = random_poly(rng, QQ, 2)
        if f.is_zero() or g.is_zero():
            continue
        assert order_at_point(f * g, (0, 0)) == (
            order_at_point(f, (0, 0)) + order_at_point(g, (0, 0))
        )


def test_canonical_lift_preserves_order_at_origin():
    rng = random.Random(404)
    for _ in range(60):
        f = random_poly(rng, GF(5), 2)
        if f.is_zero():
            continue
        assert order_at_origin(f) == order_at_origin(lift(f))


# -- substitution, evaluation, derivatives ----------------------------------------

def test_substitute_composes_ring_maps():
    f = P("x1^2 + x2", QQ)
    u = Polynomial.variable(QQ, 2, 0)
    v = Polynomial.variable(QQ, 2, 1)
    assert f.substitute([u, u * v]) == P("x1^2 + x1*x2", QQ)


def test_evaluate_agrees_with_substitution():
    rng = random.Random(405)
    for _ in range(40):
        f = random_poly(rng, GF(11), 3)
        pt = [rng.randint(0, 10) for _ in range(3)]
        images = [Polynomial.constant(GF(11), 3, c) for c in pt]
        assert f.substitute(images).constant_term() == f.evaluate(pt)


def test_derivative_rules():
    f = P("x1^3 + x1*x2", QQ)
    assert f.derivative(0) == P("3*x1^2 + x2", QQ)
    assert f.derivative(1) == P("x1", QQ)
    # char p kills p-th powers
    assert P("x1^5", GF(5)).derivative(0).is_zero()


def test_divide_var_power():
    f = P("x1^2 + x1^3*x2", QQ)
    assert f.divide_var_power(0, 2) == P("1 + x1*x2", QQ)
    with pytest.raises(ValueError):
        f.divide_var_power(0, 3)


# -- parsing and printing -----------------------------------------------------------

def test_parse_round_trips_through_text():
    rng = random.Random(406)
    for _ in range(50):
        f = random_poly(rng, QQ, 3)
        assert parse_polynomial(f.text(), QQ, 3) == f


def big_numbers():
    """Integers of up to 12 000 digits, past the 4 300 that int() reads and
    str() prints by default."""
    return st.builds(lambda lead, k, tail, sign: sign * (lead * 10**k + tail),
                     st.integers(1, 9), st.one_of(st.integers(0, 40), st.integers(4_300, 12_000)),
                     st.integers(0, 10**6),
                     st.sampled_from([1, -1]))


@settings(max_examples=60)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          big_numbers(), big_numbers().filter(bool)), min_size=1, max_size=3))
def test_large_coefficients_print_and_parse_back(items):
    f = Polynomial.from_terms(QQ, 2, [(m, Fraction(a, b)) for m, a, b in items])
    assert parse_polynomial(f.text(), QQ, 2) == f


def test_parse_rational_literals():
    f = parse_polynomial("1/2*x1 - 3/4", QQ, 2)
    assert f.terms[(1, 0)] == Fraction(1, 2)
    assert f.terms[(0, 0)] == Fraction(-3, 4)
    with pytest.raises(errors.ConstantNotInField):
        parse_polynomial("1/2*x1", GF(5), 2)


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(errors.ScriptSyntaxError):
        parse_polynomial("x3 + 1", QQ, 2)


def test_parse_rejects_garbage():
    for bad in ("x1 +", "2**x1", "(x1", "x1 x2", "y1", "x1^x2"):
        with pytest.raises(errors.ScriptSyntaxError):
            parse_polynomial(bad, QQ, 2)


def test_parse_refuses_parentheses_nested_past_one_hundred():
    def nested(k):
        return "(" * k + "x1" + ")" * k

    assert parse_polynomial(nested(100), QQ, 2) == parse_polynomial("x1", QQ, 2)
    with pytest.raises(errors.ScriptSyntaxError,
                       match=r"^parentheses nested deeper than 100 at column 101$"):
        parse_polynomial(nested(101), QQ, 2)
    # the bound counts depth, not parentheses
    assert parse_polynomial("*".join(["(x1)"] * 300), GF(5), 2) == parse_polynomial("x1^300", GF(5), 2)


def test_text_is_deterministic_and_readable():
    f = P("x2 + x1^2 - 3", QQ)
    assert f.text() == "x1^2 + x2 - 3"
    assert Polynomial.zero(QQ, 2).text() == "0"


# -- ideals -----------------------------------------------------------------------

def test_coordinate_ideal_and_multi_ideal_validation():
    m = coordinate_ideal(QQ, 2)
    assert [g.text() for g in m.gens] == ["x1", "x2"]
    assert m.vanishes_at_origin()
    MultiIdeal([(m, Fraction(1, 2))])
    with pytest.raises(ValueError):
        MultiIdeal([(m, 0)])
    with pytest.raises(errors.RingMismatch):
        MultiIdeal([(m, 1), (coordinate_ideal(QQ, 3), 1)])


def test_domain_equality_and_hash():
    assert GF(5) == GF(5) and GF(5) is not GF(5)
    assert hash(GF(5)) == hash(GF(5))
    assert GF(5) != GF(7)
    assert QQ != GF(5) and GF(5) != QQ
    assert QQ == QQ and hash(QQ) == hash(QQ)


_MAXIMAL = coordinate_ideal(GF(5), 2)
_PRODUCT = MultiIdeal([(_MAXIMAL, 1)])


@pytest.mark.parametrize(
    "value, name",
    [(GF(5), "p"), (GF(5), "q"), (QQ, "p"), (QQ, "q"), (_MAXIMAL, "gens"), (_MAXIMAL, "domain"),
     (_MAXIMAL, "extra"), (_PRODUCT, "factors"), (_PRODUCT, "extra")],
)
def test_value_types_refuse_setattr(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, None)


def test_ideal_refuses_a_generator_from_another_ring():
    with pytest.raises(errors.RingMismatch):
        Ideal(QQ, 2, [parse_polynomial("x1", GF(5), 2)])
    with pytest.raises(errors.RingMismatch):
        Ideal(GF(5), 2, [parse_polynomial("x1", GF(5), 3)])
    assert Ideal(QQ, 2, [Polynomial.zero(GF(5), 3)]).is_zero()  # zero generators drop first


def test_ideals_built_apart_are_equal_and_hash_equal():
    a = Ideal(GF(5), 2, [parse_polynomial("x1^2 + 4*x2", GF(5), 2), Polynomial.zero(GF(5), 2)])
    b = Ideal(GF(5), 2, [parse_polynomial("4*x2 + x1^2", GF(5), 2)])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Ideal(QQ, 2, [parse_polynomial("x1^2 + 4*x2", QQ, 2)])
    assert repr(a) == "<ideal (x1^2 + 4*x2)>"


def test_multi_ideal_is_the_tuple_of_its_pairs():
    a, b = coordinate_ideal(QQ, 2), Ideal(QQ, 2, [parse_polynomial("x1", QQ, 2)])
    ma = MultiIdeal([(a, 1), (b, Fraction(1, 2))])
    assert len(ma) == 2 and ma[0] == (a, 1) and ma[1][0] == b
    assert list(ma) == [(a, Fraction(1)), (b, Fraction(1, 2))]
    assert all(type(e) is Fraction for _, e in ma)
    assert not MultiIdeal([])
