"""Differential corpus and ring-map properties for the polynomial kernel.

The expected texts and digests below were recorded from the arithmetic
before it moved onto the term-map kernels; sums, products, powers and
substitutions now all accumulate through ``_add_multiple``, which
``_mul_terms`` calls once per term of its first factor.  They are
determined by their inputs, so the kernels must reproduce them byte for
byte.  The chart-pullback kernel
(``_chart_pullback``) must equal ``substitute`` with the chart's images,
and the order kernel (``_order_on``) must equal the order of ``substitute``
with the center shifted to the origin, which is >= 1 exactly when
``substitute`` with the center's images gives zero.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from towerval import acceptance_corpus, build_case, errors
from towerval.jets import grevlex_key
from towerval.polyring import (
    GF,
    QQ,
    Polynomial,
    _center_plan,
    _chart_pullback,
    _order_on,
    grlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    parse_polynomial,
)
from towerval.tower import CenterSpec, blow_up, new_tower, valuation_of_poly

from oracles import center_images, chart_chain, chart_images, order_along

DOMAINS = {"GF2": GF(2), "GF7": GF(7), "GF101": GF(101), "QQ": QQ}


def rand_poly(rng, dom, n, max_terms=4, max_deg=3):
    items = []
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        if dom == QQ:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        else:
            c = rng.randint(-9, 9)
        items.append((exps, c))
    return Polynomial.from_terms(dom, n, items)


def blowup_images(dom, n, pivot, consts):
    """The chart pullback x_j -> c_j + u_pivot*u_j, x_pivot -> c_pivot + u_pivot."""
    return chart_images(dom, n, pivot, enumerate(consts))


def blowup_pull(f, pivot, consts):
    """``f.substitute(blowup_images(...))`` through the chart-pullback kernel."""
    dom = f.domain
    center = tuple((j, dom.coerce(c)) for j, c in enumerate(consts))
    return Polynomial(dom, f.nvars, _chart_pullback(f.terms, pivot, _center_plan(dom, center)))


def kernel_cases():
    """(name, thunk) pairs; each thunk returns the Polynomial to pin."""
    rng = random.Random(31337)
    cases = []
    for label, dom in DOMAINS.items():
        n = 3 if label in ("GF7", "QQ") else 2
        f, g, h = (rand_poly(rng, dom, n) for _ in range(3))
        zero = Polynomial.zero(dom, n)
        cases += [
            (f"{label}-mul", lambda f=f, g=g: f * g),
            (f"{label}-mul3", lambda f=f, g=g, h=h: (f + h) * g * h),
            (f"{label}-mul-zero", lambda f=f, zero=zero: f * zero),
            (f"{label}-pow0", lambda f=f: f ** 0),
            (f"{label}-pow1", lambda f=f: f ** 1),
            (f"{label}-pow5", lambda f=f: f ** 5),
            (f"{label}-zero-pow0", lambda zero=zero: zero ** 0),
            (f"{label}-zero-pow3", lambda zero=zero: zero ** 3),
        ]
        consts = [rng.randint(0, 2) for _ in range(n)]
        pivot = rng.randrange(n)
        images = blowup_images(dom, n, pivot, consts)
        cases.append((f"{label}-blowup-sub", lambda f=f, images=images: f.substitute(images)))
        cases.append((f"{label}-blowup-pull",
                      lambda f=f, pivot=pivot, consts=consts: blowup_pull(f, pivot, consts)))
        deep = blowup_images(dom, n, 0, [0] * n)
        cases.append(
            (f"{label}-blowup-sub-twice",
             lambda g=g, images=images, deep=deep: g.substitute(images).substitute(deep))
        )
        cases.append(
            (f"{label}-blowup-pull-twice",
             lambda g=g, pivot=pivot, consts=consts, n=n:
             blowup_pull(blowup_pull(g, pivot, consts), 0, [0] * n))
        )
    return cases


EXPECTED = {
    'GF2-mul': 'x1^5*x2 + x1^4*x2^2 + x1^2',
    'GF2-mul3': 'x1^6*x2^2 + x1^4*x2^4 + x1^3*x2 + x1^2*x2^2',
    'GF2-mul-zero': '0',
    'GF2-pow0': '1',
    'GF2-pow1': 'x1^2',
    'GF2-pow5': 'x1^10',
    'GF2-zero-pow0': '1',
    'GF2-zero-pow3': '0',
    'GF2-blowup-sub': 'x1^2*x2^2',
    'GF2-blowup-sub-twice': 'x1^7*x2^4 + x1^6*x2^4 + x1^6*x2^3 + x1^4*x2^2 + 1',
    'GF7-mul': (
        '6*x1^3*x2^3*x3^3 + 6*x1^2*x2^5*x3^2 + 4*x1*x2^2*x3^5 + 4*x1^2*x2'
        '^2*x3^2'
    ),
    'GF7-mul3': (
        'x1^3*x2^3*x3^5 + x1^2*x2^5*x3^4 + 3*x1*x2^2*x3^7 + 3*x1*x2^2*x3^'
        '6 + 3*x1^2*x2^2*x3^4'
    ),
    'GF7-mul-zero': '0',
    'GF7-pow0': '1',
    'GF7-pow1': '2*x1^2*x2*x3 + 2*x1*x2^3 + 6*x3^3 + 6*x1',
    'GF7-pow5': (
        '4*x1^10*x2^5*x3^5 + 6*x1^9*x2^7*x3^4 + 5*x1^8*x2^9*x3^3 + 5*x1^7'
        '*x2^11*x3^2 + 6*x1^6*x2^13*x3 + 4*x1^5*x2^15 + 4*x1^8*x2^4*x3^7 '
        '+ 2*x1^7*x2^6*x3^6 + 3*x1^6*x2^8*x3^5 + 2*x1^5*x2^10*x3^4 + 4*x1'
        '^4*x2^12*x3^3 + 3*x1^6*x2^3*x3^9 + 2*x1^5*x2^5*x3^8 + 2*x1^4*x2^'
        '7*x3^7 + 3*x1^3*x2^9*x3^6 + 4*x1^9*x2^4*x3^4 + 2*x1^8*x2^6*x3^3 '
        '+ 3*x1^7*x2^8*x3^2 + 2*x1^6*x2^10*x3 + 4*x1^5*x2^12 + 2*x1^4*x2^'
        '2*x3^11 + 4*x1^3*x2^4*x3^10 + 2*x1^2*x2^6*x3^9 + 6*x1^7*x2^3*x3^'
        '6 + 4*x1^6*x2^5*x3^5 + 4*x1^5*x2^7*x3^4 + 6*x1^4*x2^9*x3^3 + 3*x'
        '1^2*x2*x3^13 + 3*x1*x2^3*x3^12 + 6*x1^5*x2^2*x3^8 + 5*x1^4*x2^4*'
        'x3^7 + 6*x1^3*x2^6*x3^6 + 6*x3^15 + 3*x1^8*x2^3*x3^3 + 2*x1^7*x2'
        '^5*x3^2 + 2*x1^6*x2^7*x3 + 3*x1^5*x2^9 + 5*x1^3*x2*x3^10 + 5*x1^'
        '2*x2^3*x3^9 + 6*x1^6*x2^2*x3^5 + 5*x1^5*x2^4*x3^4 + 6*x1^4*x2^6*'
        'x3^3 + 2*x1*x3^12 + 4*x1^4*x2*x3^7 + 4*x1^3*x2^3*x3^6 + 2*x1^7*x'
        '2^2*x3^2 + 4*x1^6*x2^4*x3 + 2*x1^5*x2^6 + 4*x1^2*x3^9 + 5*x1^5*x'
        '2*x3^4 + 5*x1^4*x2^3*x3^3 + 4*x1^3*x3^6 + 3*x1^6*x2*x3 + 3*x1^5*'
        'x2^3 + 2*x1^4*x3^3 + 6*x1^5'
    ),
    'GF7-zero-pow0': '1',
    'GF7-zero-pow3': '0',
    'GF7-blowup-sub': (
        '2*x1^2*x2^4*x3 + 6*x2^3*x3^3 + 2*x1^2*x2^3 + 2*x1*x2^4 + 4*x2^2*'
        'x3^2 + 6*x1*x2 + 4*x2*x3 + 6'
    ),
    'GF7-blowup-sub-twice': '3*x1^8*x2^5*x3^2 + 6*x1^6*x2^4*x3 + 3*x1^4*x2^3',
    'GF101-mul': (
        '99*x1^2*x2^6 + 97*x1^4*x2^3 + 4*x1^2*x2^5 + 12*x1*x2^5 + 24*x1^3'
        '*x2^2 + 77*x1*x2^4'
    ),
    'GF101-mul3': (
        '25*x1^4*x2^9 + 10*x1^3*x2^9 + 20*x1^5*x2^6 + 32*x1^3*x2^8 + 41*x'
        '1^2*x2^8 + 82*x1^4*x2^5 + 19*x1^2*x2^7'
    ),
    'GF101-mul-zero': '0',
    'GF101-pow0': '1',
    'GF101-pow1': '99*x2^3 + 97*x1^2 + 4*x2^2',
    'GF101-pow5': (
        '69*x2^15 + 84*x1^2*x2^12 + 17*x2^14 + 33*x1^4*x2^9 + 35*x1^2*x2^'
        '11 + 33*x2^13 + 66*x1^6*x2^6 + 4*x1^4*x2^8 + 97*x1^2*x2^10 + 35*'
        'x2^12 + 66*x1^8*x2^3 + 39*x1^6*x2^5 + 93*x1^4*x2^7 + 39*x1^2*x2^'
        '9 + 66*x2^11 + 87*x1^10 + 70*x1^8*x2^2 + 62*x1^6*x2^4 + 39*x1^4*'
        'x2^6 + 31*x1^2*x2^8 + 14*x2^10'
    ),
    'GF101-zero-pow0': '1',
    'GF101-zero-pow3': '0',
    'GF101-blowup-sub': '99*x1^3*x2^3 + 4*x1^2*x2^2 + 97*x1^2 + 85*x1 + 85',
    'GF101-blowup-sub-twice': (
        'x1^8*x2^3 + 4*x1^7*x2^3 + 4*x1^6*x2^3 + 95*x1^5*x2^2 + 89*x1^4*x'
        '2^2'
    ),
    'QQ-mul': '45*x1^5*x2^3*x3 + 45/4*x1^2*x2^3*x3',
    'QQ-mul3': '245*x1^8*x2^6*x3^5 + 315*x1^8*x2^6*x3^3 + 315/4*x1^5*x2^6*x3^3',
    'QQ-mul-zero': '0',
    'QQ-pow0': '1',
    'QQ-pow1': '9*x1^3*x2^3 + 9/4*x2^3',
    'QQ-pow5': (
        '59049*x1^15*x2^15 + 295245/4*x1^12*x2^15 + 295245/8*x1^9*x2^15 +'
        ' 295245/32*x1^6*x2^15 + 295245/256*x1^3*x2^15 + 59049/1024*x2^15'
    ),
    'QQ-zero-pow0': '1',
    'QQ-zero-pow3': '0',
    'QQ-blowup-sub': '9*x1^3*x2^6 + 27*x1^2*x2^5 + 27*x1*x2^4 + 45/4*x2^3',
    'QQ-blowup-sub-twice': (
        '5*x1^6*x2^3*x3 + 10*x1^4*x2^2*x3 + 5*x1^4*x2^2 + 5*x1^2*x2*x3 + '
        '10*x1^2*x2 + 5'
    ),
}


@pytest.mark.parametrize(
    "name,thunk", [pytest.param(name, thunk, id=name) for name, thunk in kernel_cases()]
)
def test_kernel_corpus_matches_recorded_text(name, thunk):
    # a *-blowup-pull case is pinned to the text of its *-blowup-sub twin
    assert thunk().text() == EXPECTED[name.replace("-blowup-pull", "-blowup-sub")]


def tower_digest(case):
    t, _ = build_case(case)
    h = hashlib.sha256()
    for chart in t.charts:
        h.update(f"chart {chart.cid}\n".encode())
        for f in chart.frame:
            h.update(f"frame {f.text()}\n".encode())
        # a divisor of the chain that has left the chart reads as its unit equation 1
        for did in sorted(ch.step for ch in chart_chain(t, chart.cid)):
            eq = chart.divisor_eqs.get(did)
            h.update(f"E{did} {'1' if eq is None else eq.text()}\n".encode())
    return h.hexdigest()[:16]


TOWER_DIGESTS = {
    'a2-first-divisor': '7ecc4bec41ae51e5',
    'a3-first-divisor': 'd33fcc9a257607e4',
    'a2-cusp-on-e2': '8fde829d3f160eba',
    'a2-chain-depth3': '88266cc9bbc5cdff',
    'a3-subspace-step2': '704a7eba1d7ea60e',
    'a2-two-ideals': '7ecc4bec41ae51e5',
    'a2-off-divisor-point': 'e73bd972c75dc0fe',
    'a3-two-ideals-deep': '0c78d0fc5f86a319',
    'random-01-n2-p5': '8fde829d3f160eba',
    'random-02-n2-p5': '7ecc4bec41ae51e5',
    'random-03-n2-p101': '9248264e465ae643',
    'random-04-n2-p101': 'f37b5a7920890e75',
    'random-05-n3-p5': 'cc945a2e860306aa',
    'random-06-n3-p5': '3f673c4e9a04c461',
    'random-07-n3-p101': '40d354f92bfd86bd',
    'random-08-n3-p101': '405244f8c1ba37ba',
    'random-09-n2-p101': '59d4a2b55efaeb8e',
    'random-10-n3-p5': '7cd3389bd339e570',
    'random-11-n2-p5': '8fde829d3f160eba',
    'random-12-n3-p101': 'bfa1709136ace91f',
}


def test_acceptance_towers_frames_and_divisor_equations_are_pinned():
    assert {case.name: tower_digest(case) for case in acceptance_corpus()} == TOWER_DIGESTS


# -- ring-map properties --------------------------------------------------------------

PROP_DOMAINS = (GF(2), GF(7), QQ)


def coeffs(dom):
    if dom == QQ:
        return st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.integers(-9, 9)


@st.composite
def polys(draw, dom, n, max_terms=4):
    exps = st.tuples(*[st.integers(0, 3)] * n)
    items = draw(st.lists(st.tuples(exps, coeffs(dom)), max_size=max_terms))
    return Polynomial.from_terms(dom, n, items)


@st.composite
def ring_map_inputs(draw):
    """f, g in k[x1..x(n)] and images in k[y1..y(m)].  (Lifting GF(p) into
    QQ is coefficientwise and not a ring map, so substitute refuses it.)"""
    dom = draw(st.sampled_from(PROP_DOMAINS))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    f, g = draw(polys(dom, n)), draw(polys(dom, n))
    images = [draw(polys(dom, m, max_terms=3)) for _ in range(n)]
    return f, g, images


@given(ring_map_inputs())
def test_substitute_is_a_ring_map(data):
    f, g, images = data
    fi, gi = f.substitute(images), g.substitute(images)
    assert (f * g).substitute(images) == fi * gi
    assert (f + g).substitute(images) == fi + gi
    assert (f - g).substitute(images) == fi - gi
    assert (f - g) + g == f and (f - f).is_zero()


@given(st.sampled_from(PROP_DOMAINS).flatmap(lambda d: polys(d, 3)))
def test_identity_images_return_f(f):
    assert f.substitute([Polynomial.variable(f.domain, 3, i) for i in range(3)]) == f


@given(st.sampled_from(PROP_DOMAINS).flatmap(lambda d: polys(d, 2, max_terms=3)), st.integers(0, 6))
def test_power_is_repeated_product(f, e):
    expected = Polynomial.constant(f.domain, 2, 1)
    for _ in range(e):
        expected = expected * f
    assert f ** e == expected


@given(st.sampled_from([GF(2), GF(3), GF(5), GF(101)]).flatmap(lambda d: st.tuples(
    polys(d, 2, max_terms=3 if d.p < 101 else 2), st.integers(0, max(40, 2 * d.p + 3)))))
def test_frobenius_power_is_repeated_product(data):
    # e runs past p^2 over F_2, F_3 and F_5 and past 2p over F_101, so most
    # draws take two or more base-p digits
    f, e = data
    expected = Polynomial.constant(f.domain, 2, 1)
    for _ in range(e):
        expected = expected * f
    assert f ** e == expected


@given(polys(GF(7), 2), polys(QQ, 2), polys(GF(7), 3))
def test_mismatched_rings_still_raise(f, q, wide):
    for other in (q, wide):
        for op in (f.__add__, f.__sub__, f.__mul__):
            with pytest.raises(errors.RingMismatch):
                op(other)
    with pytest.raises(errors.RingMismatch):
        f.substitute([Polynomial.variable(GF(7), 2, 0), Polynomial.variable(QQ, 2, 1)])


def test_qq_coefficients_have_no_map_into_gf_p():
    f = parse_polynomial("1/2*x1 + x2", QQ, 2)
    with pytest.raises(errors.RingMismatch):
        f.substitute([Polynomial.variable(GF(5), 2, i) for i in range(2)])


def test_gf_p_polynomials_do_not_substitute_into_qq_images():
    f = parse_polynomial("6*x1^3 + 3*x1*x2 + 5", GF(7), 2)
    with pytest.raises(errors.RingMismatch):
        f.substitute(blowup_images(QQ, 2, 0, [2, 1]))


def test_constant_coerces_into_the_domain():
    assert Polynomial.constant(GF(5), 2, 5).is_zero()
    assert Polynomial.constant(GF(5), 2, 7) == parse_polynomial("2", GF(5), 2)
    with pytest.raises(errors.ConstantNotInField):
        Polynomial.constant(QQ, 2, True)
    with pytest.raises(errors.ConstantNotInField):
        Polynomial.constant(GF(5), 2, Fraction(1, 2))


# -- the chart-pullback kernel -----------------------------------------------------------

PULL_DOMAINS = (GF(2), GF(3), GF(5), QQ)


def field_elements(dom):
    if dom.p:
        return st.integers(0, dom.p - 1)
    return st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def chart_pullback_inputs(draw):
    """f over a small field with exponents up to p + 2 (4 over QQ), and a
    center: a pivot among two or more constrained coordinates, with
    constants anywhere in the field."""
    dom = draw(st.sampled_from(PULL_DOMAINS))
    n = draw(st.integers(2, 4))
    top = dom.p + 2 if dom.p else 4
    term = st.tuples(st.tuples(*[st.integers(0, top)] * n), field_elements(dom))
    f = Polynomial.from_terms(dom, n, draw(st.lists(term, min_size=1, max_size=5)))
    support = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    pivot = draw(st.sampled_from(support))
    center = tuple(sorted((j, dom.coerce(draw(field_elements(dom)))) for j in support))
    return f, pivot, center


@given(chart_pullback_inputs())
def test_chart_pullback_equals_substitute_with_the_chart_images(data):
    f, pivot, center = data
    dom, n = f.domain, f.nvars
    pulled = Polynomial(dom, n, _chart_pullback(f.terms, pivot, _center_plan(dom, center)))
    assert pulled == f.substitute(chart_images(dom, n, pivot, center))
    assert all(c != 0 for c in pulled.terms.values())
    if not f.is_zero():
        # f vanishes on the center exactly when u_pivot divides its pullback
        on_center = f.substitute(center_images(dom, n, center))
        assert (pulled.var_min_exponent(pivot) > 0) == on_center.is_zero()


def test_binomial_coefficients_that_vanish_mod_p_are_not_stored():
    dom = GF(5)
    t, _ = blow_up(new_tower(2, dom), CenterSpec.make(0, {0: 1, 1: 0}, dom))
    chart = t.chart(1)
    assert chart.pivot == 0
    assert chart.pull(parse_polynomial("x1^5", dom, 2)).text() == "x1^5 + 1"
    assert chart.pull(parse_polynomial("x1^5 - 1", dom, 2)).text() == "x1^5"


def test_each_field_expands_the_same_power_by_its_own_row():
    # (c + u)^5 at c = 1 has its own row over every field
    expected = {
        GF(5): "x1^5 + 1",
        GF(7): "x1^5 + 5*x1^4 + 3*x1^3 + 3*x1^2 + 5*x1 + 1",
        QQ: "x1^5 + 5*x1^4 + 10*x1^3 + 10*x1^2 + 5*x1 + 1",
    }
    for dom in (GF(5), GF(7), QQ, GF(5)):
        f = parse_polynomial("x1^5", dom, 2)
        pulled = blowup_pull(f, 0, (1, 0))
        assert pulled == f.substitute(blowup_images(dom, 2, 0, (1, 0)))
        assert pulled.text() == expected[dom]


def test_a_steps_charts_share_one_center_plan():
    # the center is split once, by blow_up, and each chart pulls through it
    dom = GF(7)
    t, _ = blow_up(new_tower(3, dom), CenterSpec.make(0, {0: 1, 1: 0, 2: 2}, dom))
    charts = [t.chart(cid) for cid in t.divisor(1).chart_ids]
    assert all(chart.plan is charts[0].plan for chart in charts)
    assert charts[0].plan == _center_plan(dom, ((0, 1), (1, 0), (2, 2))) == (7, (1,), ((0, 1), (2, 2)))
    f = parse_polynomial("x1^3*x3^2 + x1^3 + x2", dom, 3)
    center = t.divisor(1).center.constraints
    assert [chart.pull(f) for chart in charts] == [
        f.substitute(chart_images(dom, 3, chart.pivot, center)) for chart in charts]


@given(chart_pullback_inputs(), st.integers(0, 3))
def test_order_on_the_center_equals_the_order_of_the_shifted_substitution(data, k):
    """And the order adds on products: times the k-th power of the sum of
    the x_j - c_j, whose lowest parts cancel in the expansion, it grows by k."""
    f, _, center = data
    dom, n = f.domain, f.nvars
    if f.is_zero():
        with pytest.raises(errors.ZeroPolynomial):
            _order_on(f.terms, _center_plan(dom, center))
        return
    order = order_along(f, center)
    assert _order_on(f.terms, _center_plan(dom, center)) == order
    line = Polynomial.zero(dom, n)
    for j, c in center:
        line = line + Polynomial.variable(dom, n, j) - Polynomial.constant(dom, n, c)
    assert _order_on((f * line**k).terms, _center_plan(dom, center)) == order + k


@given(chart_pullback_inputs())
def test_vanishing_on_the_center_equals_the_center_substitution(data):
    f, _, center = data
    dom, n = f.domain, f.nvars
    on_center = f.substitute(center_images(dom, n, center))
    if f.is_zero():  # the zero map has no order, and vanishes everywhere
        assert on_center.is_zero()
        with pytest.raises(errors.ZeroPolynomial):
            _order_on(f.terms, _center_plan(dom, center))
    else:
        assert (_order_on(f.terms, _center_plan(dom, center)) >= 1) == on_center.is_zero()


@pytest.mark.parametrize("dom, text, center, vanishes", [
    (GF(5), "x1^5 + 4", ((0, 1), (1, 0)), True),  # 1 + 4 is 0 only mod 5
    (QQ, "x1^5 + 4", ((0, 1), (1, 0)), False),
    (GF(5), "x1^5 + 4 + x2", ((0, 1), (1, 0)), True),
    (GF(5), "x1^5 + 4 + x3", ((0, 1), (1, 0)), False),  # x3 is off the center
    (GF(3), "x1*x2 + 2*x1", ((0, 0), (1, 2)), True),
    (GF(3), "x2*x3 + x3 + x2^2 + 2", ((0, 0), (1, 2)), True),  # 3*x3 + 6
    (GF(3), "x2*x3 + x3 + x2^2", ((0, 0), (1, 2)), False),  # 3*x3 + 4
    (QQ, "x1^2 - 1/4", ((0, Fraction(1, 2)), (1, 0)), True),
])
def test_vanishing_on_the_center_examples(dom, text, center, vanishes):
    f = parse_polynomial(text, dom, 3)
    assert (_order_on(f.terms, _center_plan(dom, center)) >= 1) is vanishes
    assert f.substitute(center_images(dom, 3, center)).is_zero() is vanishes


@pytest.mark.parametrize("dom", [GF(5), QQ])
def test_the_zero_polynomial_has_no_valuation(dom):
    # a point center with a nonzero constant, then the origin of a new chart
    t, _ = blow_up(new_tower(2, dom), CenterSpec.make(0, {0: 1, 1: 2}, dom))
    t, _ = blow_up(t, CenterSpec.make(1, {0: 0, 1: 0}, dom))
    for did in (1, 2):
        with pytest.raises(errors.ZeroPolynomial):
            valuation_of_poly(t, did, Polynomial.zero(dom, 2))


# -- monomial kernels ------------------------------------------------------------------

# Reference definitions written over zip, as the kernels were before they
# moved onto map and operator functions.
REFERENCE_PAIR_OPS = (
    (mono_div, lambda b, a: tuple(y - x for x, y in zip(a, b))),
    (mono_divides, lambda a, b: all(x <= y for x, y in zip(a, b))),
    (mono_lcm, lambda a, b: tuple(max(x, y) for x, y in zip(a, b))),
)
REFERENCE_KEYS = (
    (grlex_key, lambda a: (sum(a), a)),
    (grevlex_key, lambda a: (sum(a), tuple(-e for e in reversed(a)))),
)


def exponents(n):
    return st.tuples(*[st.integers(0, 9)] * n)


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(exponents(n), exponents(n))))
def test_monomial_kernels_match_zip_references(pair):
    a, b = pair
    for kernel, reference in REFERENCE_PAIR_OPS:
        assert kernel(a, b) == reference(a, b)
        assert kernel(b, a) == reference(b, a)
    for key, reference in REFERENCE_KEYS:
        assert key(a) == reference(a)


@given(st.integers(0, 6).flatmap(lambda n: st.lists(exponents(n), max_size=12)))
def test_monomial_keys_sort_like_zip_references(monos):
    for key, reference in REFERENCE_KEYS:
        assert sorted(monos, key=key) == sorted(monos, key=reference)
