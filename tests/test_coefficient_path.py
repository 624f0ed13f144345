"""Differential corpus for the per-coefficient methods of ``Polynomial``.

Negation, ``scale``, ``from_terms``, ``derivative`` and ``evaluate`` run
their coefficient arithmetic on the term-map kernels of ``polyring``.  The
expected texts below were recorded from the per-element ``Domain``
arithmetic the kernels replaced; every case is determined by its inputs,
so the kernels must reproduce it byte for byte.  The corpus stresses the
places where reduction mod p matters: a scale by a multiple of p, repeated
exponents whose coefficients sum to 0 mod p, and a derivative by an
exponent that is 0 mod p.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from towerval.polyring import GF, QQ, Polynomial

DOMAINS = {"GF2": GF(2), "GF7": GF(7), "GF101": GF(101), "QQ": QQ}


def rand_coeff(rng, dom):
    if dom == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return rng.randint(-9, 9)


def rand_poly(rng, dom, n, max_deg=3):
    items = [
        (tuple(rng.randint(0, max_deg) for _ in range(n)), rand_coeff(rng, dom))
        for _ in range(rng.randint(3, 7))
    ]
    return Polynomial.from_terms(dom, n, items)


def rand_point(rng, dom, n):
    if dom == QQ:
        return [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    return [rng.randint(-250, 250) for _ in range(n)]


def coefficient_cases():
    """(name, thunk) pairs; each thunk returns a Polynomial or a coefficient."""
    rng = random.Random(80808)
    cases = []
    for label, dom in DOMAINS.items():
        p = dom.characteristic
        n = 3 if label in ("GF7", "QQ") else 2
        f, g = rand_poly(rng, dom, n), rand_poly(rng, dom, n)
        zero = Polynomial.zero(dom, n)
        k = p or 7  # a multiple of p over GF(p), a plain integer over QQ
        pad = (0,) * (n - 2)
        x1, x2, x1k = (1, 0) + pad, (0, 1) + pad, (k, 0) + pad
        cancel = [(x1, 3), (x2, 1), (x1, k - 3 if p else -3)]
        repeat = [(x2, 5), (x1, -1), (x2, 5), (x2, k - 10 if p else 4), (x1, 2)]
        all_cancel = [(x1, k), (x2, 1), (x2, -1)]
        exponent_p = Polynomial.from_terms(
            dom, n, [((k, 1) + pad, 3), ((k + 1, 0) + pad, 2), (x2, 1)]
        )
        power_p = Polynomial.from_terms(dom, n, [(x1k, 1), (x2, -1), ((0,) * n, 1)])
        cases += [
            (f"{label}-neg", lambda f=f: -f),
            (f"{label}-neg-neg", lambda g=g: -(-g)),
            (f"{label}-neg-zero", lambda zero=zero: -zero),
            (f"{label}-neg-sum", lambda f=f, g=g: -(f + g) + g),
            (f"{label}-scale", partial(f.scale, rand_coeff(rng, dom))),
            (f"{label}-scale-by-p", partial(f.scale, k)),
            (f"{label}-scale-by-minus-p", partial(g.scale, -k)),
            (f"{label}-scale-by-2p-plus-1", partial(f.scale, 2 * k + 1)),
            (f"{label}-scale-by-minus-1", partial(g.scale, -1)),
            (f"{label}-scale-zero", partial(f.scale, 0)),
            (f"{label}-scale-of-zero", partial(zero.scale, 3)),
            (f"{label}-from-terms-cancel", partial(Polynomial.from_terms, dom, n, cancel)),
            (f"{label}-from-terms-repeat", partial(Polynomial.from_terms, dom, n, repeat)),
            (f"{label}-from-terms-all-cancel", partial(Polynomial.from_terms, dom, n, all_cancel)),
            (f"{label}-derivative-0", partial(f.derivative, 0)),
            (f"{label}-derivative-last", partial(g.derivative, n - 1)),
            (f"{label}-derivative-twice", lambda f=f: f.derivative(0).derivative(1)),
            (f"{label}-derivative-exponent-p", partial(exponent_p.derivative, 0)),
            (f"{label}-evaluate", partial(f.evaluate, rand_point(rng, dom, n))),
            (f"{label}-evaluate-2", partial(g.evaluate, rand_point(rng, dom, n))),
            (f"{label}-evaluate-origin", partial(f.evaluate, [0] * n)),
            (f"{label}-evaluate-zero", partial(zero.evaluate, [1] * n)),
            (f"{label}-evaluate-power-p", partial(power_p.evaluate, [3, 5] + [0] * (n - 2))),
        ]
    return cases


def pin(value) -> str:
    return value.text() if isinstance(value, Polynomial) else str(value)


EXPECTED = {
    'GF2-neg': 'x1^3*x2^3 + x2^3 + x1*x2',
    'GF2-neg-neg': 'x1*x2^2 + x1',
    'GF2-neg-zero': '0',
    'GF2-neg-sum': 'x1^3*x2^3 + x2^3 + x1*x2',
    'GF2-scale': '0',
    'GF2-scale-by-p': '0',
    'GF2-scale-by-minus-p': '0',
    'GF2-scale-by-2p-plus-1': 'x1^3*x2^3 + x2^3 + x1*x2',
    'GF2-scale-by-minus-1': 'x1*x2^2 + x1',
    'GF2-scale-zero': '0',
    'GF2-scale-of-zero': '0',
    'GF2-from-terms-cancel': 'x2',
    'GF2-from-terms-repeat': 'x1',
    'GF2-from-terms-all-cancel': '0',
    'GF2-derivative-0': 'x1^2*x2^3 + x2',
    'GF2-derivative-last': '0',
    'GF2-derivative-twice': 'x1^2*x2^2 + 1',
    'GF2-derivative-exponent-p': '0',
    'GF2-evaluate': '1',
    'GF2-evaluate-2': '0',
    'GF2-evaluate-origin': '0',
    'GF2-evaluate-zero': '0',
    'GF2-evaluate-power-p': '1',
    'GF7-neg': 'x1^2*x2*x3^2 + x1*x2*x3^2',
    'GF7-neg-neg': '2*x1^2*x2^3*x3^2 + x1^3*x2*x3 + 5*x1^2*x3^2 + x1*x2*x3^2 + 5*x2^2*x3',
    'GF7-neg-zero': '0',
    'GF7-neg-sum': 'x1^2*x2*x3^2 + x1*x2*x3^2',
    'GF7-scale': 'x1^2*x2*x3^2 + x1*x2*x3^2',
    'GF7-scale-by-p': '0',
    'GF7-scale-by-minus-p': '0',
    'GF7-scale-by-2p-plus-1': '6*x1^2*x2*x3^2 + 6*x1*x2*x3^2',
    'GF7-scale-by-minus-1': (
        '5*x1^2*x2^3*x3^2 + 6*x1^3*x2*x3 + 2*x1^2*x3^2 + 6*x1*x2*x3^2 + 2'
        '*x2^2*x3'
    ),
    'GF7-scale-zero': '0',
    'GF7-scale-of-zero': '0',
    'GF7-from-terms-cancel': 'x2',
    'GF7-from-terms-repeat': 'x1',
    'GF7-from-terms-all-cancel': '0',
    'GF7-derivative-0': '5*x1*x2*x3^2 + 6*x2*x3^2',
    'GF7-derivative-last': '4*x1^2*x2^3*x3 + x1^3*x2 + 3*x1^2*x3 + 2*x1*x2*x3 + 5*x2^2',
    'GF7-derivative-twice': '5*x1*x3^2 + 6*x3^2',
    'GF7-derivative-exponent-p': '2*x1^7',
    'GF7-evaluate': '0',
    'GF7-evaluate-2': '5',
    'GF7-evaluate-origin': '0',
    'GF7-evaluate-zero': '0',
    'GF7-evaluate-power-p': '6',
    'GF101-neg': '99*x1^3*x2^3 + 98*x1*x2^2 + 2*x2^3',
    'GF101-neg-neg': '5*x1*x2^3 + 92*x1^3 + 92*x1*x2',
    'GF101-neg-zero': '0',
    'GF101-neg-sum': '99*x1^3*x2^3 + 98*x1*x2^2 + 2*x2^3',
    'GF101-scale': '97*x1^3*x2^3 + 95*x1*x2^2 + 4*x2^3',
    'GF101-scale-by-p': '0',
    'GF101-scale-by-minus-p': '0',
    'GF101-scale-by-2p-plus-1': '2*x1^3*x2^3 + 3*x1*x2^2 + 99*x2^3',
    'GF101-scale-by-minus-1': '96*x1*x2^3 + 9*x1^3 + 9*x1*x2',
    'GF101-scale-zero': '0',
    'GF101-scale-of-zero': '0',
    'GF101-from-terms-cancel': 'x2',
    'GF101-from-terms-repeat': 'x1',
    'GF101-from-terms-all-cancel': '0',
    'GF101-derivative-0': '6*x1^2*x2^3 + 3*x2^2',
    'GF101-derivative-last': '15*x1*x2^2 + 92*x1',
    'GF101-derivative-twice': '18*x1^2*x2^2 + 6*x2',
    'GF101-derivative-exponent-p': '2*x1^101',
    'GF101-evaluate': '89',
    'GF101-evaluate-2': '76',
    'GF101-evaluate-origin': '0',
    'GF101-evaluate-zero': '0',
    'GF101-evaluate-power-p': '100',
    'QQ-neg': '-1/2*x1^2*x3^3 - 5/2*x1^3*x2 - 2*x2*x3^2',
    'QQ-neg-neg': (
        '2*x1^3*x2*x3^2 - 1/2*x1^3*x2*x3 + 7*x1^3*x3^2 - x1*x2^2*x3^2 + 3'
        '*x2^3*x3 + 9*x1'
    ),
    'QQ-neg-zero': '0',
    'QQ-neg-sum': '-1/2*x1^2*x3^3 - 5/2*x1^3*x2 - 2*x2*x3^2',
    'QQ-scale': '-3/4*x1^2*x3^3 - 15/4*x1^3*x2 - 3*x2*x3^2',
    'QQ-scale-by-p': '7/2*x1^2*x3^3 + 35/2*x1^3*x2 + 14*x2*x3^2',
    'QQ-scale-by-minus-p': (
        '-14*x1^3*x2*x3^2 + 7/2*x1^3*x2*x3 - 49*x1^3*x3^2 + 7*x1*x2^2*x3^'
        '2 - 21*x2^3*x3 - 63*x1'
    ),
    'QQ-scale-by-2p-plus-1': '15/2*x1^2*x3^3 + 75/2*x1^3*x2 + 30*x2*x3^2',
    'QQ-scale-by-minus-1': (
        '-2*x1^3*x2*x3^2 + 1/2*x1^3*x2*x3 - 7*x1^3*x3^2 + x1*x2^2*x3^2 - '
        '3*x2^3*x3 - 9*x1'
    ),
    'QQ-scale-zero': '0',
    'QQ-scale-of-zero': '0',
    'QQ-from-terms-cancel': 'x2',
    'QQ-from-terms-repeat': 'x1 + 14*x2',
    'QQ-from-terms-all-cancel': '7*x1',
    'QQ-derivative-0': 'x1*x3^3 + 15/2*x1^2*x2',
    'QQ-derivative-last': '4*x1^3*x2*x3 - 1/2*x1^3*x2 + 14*x1^3*x3 - 2*x1*x2^2*x3 + 3*x2^3',
    'QQ-derivative-twice': '15/2*x1^2',
    'QQ-derivative-exponent-p': '16*x1^7 + 21*x1^6*x2',
    'QQ-evaluate': '-1676/27',
    'QQ-evaluate-2': '368',
    'QQ-evaluate-origin': '0',
    'QQ-evaluate-zero': '0',
    'QQ-evaluate-power-p': '2183',
}


@pytest.mark.parametrize(
    "name,thunk", [pytest.param(name, thunk, id=name) for name, thunk in coefficient_cases()]
)
def test_coefficient_corpus_matches_recorded_text(name, thunk):
    assert pin(thunk()) == EXPECTED[name]


def canonical(dom, c) -> bool:
    """Whether c is the representative ``coerce`` returns, type included."""
    d = dom.coerce(c)
    return d == c and type(d) is type(c)


@st.composite
def ring_and_poly(draw):
    dom = draw(st.sampled_from(list(DOMAINS.values())))
    n = draw(st.integers(1, 3))
    if dom == QQ:
        coeff = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    else:
        coeff = st.integers(-300, 300)
    items = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 9)] * n), coeff), max_size=6))
    point = draw(st.lists(coeff, min_size=n, max_size=n))
    return dom, n, items, point


@given(ring_and_poly(), st.integers(-300, 300))
def test_every_result_over_gf_p_holds_reduced_residues(data, c):
    dom, n, items, point = data
    f = Polynomial.from_terms(dom, n, items)
    polys = [f, -f, f.scale(c)] + [f.derivative(i) for i in range(n)]
    if dom.characteristic:
        p = dom.characteristic
        assert all(0 < v < p for g in polys for v in g.terms.values())
        assert 0 <= f.evaluate(point) < p
    else:
        assert all(v != 0 for g in polys for v in g.terms.values())


@given(ring_and_poly())
def test_from_terms_derivative_and_evaluate_return_canonical_coefficients(data):
    dom, n, items, point = data
    f = Polynomial.from_terms(dom, n, items)
    for g in [f] + [f.derivative(i) for i in range(n)]:
        assert all(canonical(dom, v) for v in g.terms.values())
    assert canonical(dom, f.evaluate(point))
