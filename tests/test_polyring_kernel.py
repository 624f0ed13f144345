"""Differential corpus and ring-map properties for the polynomial kernel.

The expected texts and digests below were recorded from the arithmetic
before it moved onto the term-map helpers (``_mul_terms``/``_add_into``).
Products, powers and substitutions are determined by their inputs, so the
kernel must reproduce them byte for byte.
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
    ZZ,
    Polynomial,
    grlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_polynomial,
)

DOMAINS = {"GF2": GF(2), "GF7": GF(7), "GF101": GF(101), "QQ": QQ, "ZZ": ZZ}


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
    u = [Polynomial.variable(dom, n, i) for i in range(n)]
    out = []
    for j in range(n):
        c = Polynomial.constant(dom, n, consts[j])
        out.append(c + u[pivot] if j == pivot else c + u[pivot] * u[j])
    return out


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
        images = blowup_images(dom, n, rng.randrange(n), consts)
        cases.append((f"{label}-blowup-sub", lambda f=f, images=images: f.substitute(images)))
        deep = blowup_images(dom, n, 0, [0] * n)
        cases.append(
            (f"{label}-blowup-sub-twice",
             lambda g=g, images=images, deep=deep: g.substitute(images).substitute(deep))
        )
    # Cross-domain maps: ZZ -> GF(p) drops the multiple of p, GF(p) -> QQ and
    # ZZ -> QQ lift coefficients.
    fz = parse_polynomial("14*x1^2*x2 + 3*x2^3 - 5*x1 + 22", ZZ, 2)
    for p in (2, 7, 101):
        dom = GF(p)
        images = blowup_images(dom, 2, 1, [1, 0])
        cases.append((f"ZZ-to-GF{p}-sub", lambda images=images: fz.substitute(images)))
    f7 = parse_polynomial("6*x1^3 + 3*x1*x2 + 5", GF(7), 2)
    cases.append(("GF7-to-QQ-sub", lambda: f7.substitute(blowup_images(QQ, 2, 0, [2, 1]))))
    cases.append(("ZZ-to-QQ-sub", lambda: fz.substitute(blowup_images(QQ, 2, 0, [0, 3]))))
    cases.append(
        ("ZZ-to-QQ-3vars",
         lambda: fz.substitute([parse_polynomial(t, QQ, 3) for t in ("x1 + 1/2*x3", "x2*x3 - 1")]))
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
    'ZZ-mul': (
        '8*x1^6*x2^3 + 5*x1^5*x2^4 - 4*x1^3*x2^5 - 40*x1^3*x2^3 - 25*x1^2'
        '*x2^4 - 88*x1^4*x2 - 55*x1^3*x2^2 + 20*x2^5 + 44*x1*x2^3'
    ),
    'ZZ-mul3': (
        '-9*x1^9*x2^4 + 45*x1^8*x2^5 - 36*x1^6*x2^6 + 45*x1^6*x2^4 - 225*'
        'x1^5*x2^5 + 99*x1^7*x2^2 - 465*x1^6*x2^3 - 15*x1^5*x2^4 + 180*x1'
        '^3*x2^6 + 396*x1^4*x2^4 + 12*x1^3*x2^5 - 150*x1^3*x2^3 + 75*x1^2'
        '*x2^4 - 330*x1^4*x2 + 156*x1^3*x2^2 - 60*x2^5 - 132*x1*x2^3 + 45'
        '*x2^2 + 99*x1'
    ),
    'ZZ-mul-zero': '0',
    'ZZ-pow0': '1',
    'ZZ-pow1': '-8*x1^3*x2 - 5*x1^2*x2^2 + 4*x2^3',
    'ZZ-pow5': (
        '-32768*x1^15*x2^5 - 102400*x1^14*x2^6 - 128000*x1^13*x2^7 - 8000'
        '0*x1^12*x2^8 - 25000*x1^11*x2^9 - 3125*x1^10*x2^10 + 81920*x1^12'
        '*x2^7 + 204800*x1^11*x2^8 + 192000*x1^10*x2^9 + 80000*x1^9*x2^10'
        ' + 12500*x1^8*x2^11 - 81920*x1^9*x2^9 - 153600*x1^8*x2^10 - 9600'
        '0*x1^7*x2^11 - 20000*x1^6*x2^12 + 40960*x1^6*x2^11 + 51200*x1^5*'
        'x2^12 + 16000*x1^4*x2^13 - 10240*x1^3*x2^13 - 6400*x1^2*x2^14 + '
        '1024*x2^15'
    ),
    'ZZ-zero-pow0': '1',
    'ZZ-zero-pow3': '0',
    'ZZ-blowup-sub': (
        '-8*x1^3*x2^4 - 16*x1^3*x2^3 - 5*x1^2*x2^4 - 68*x1^2*x2^3 - 116*x'
        '1^2*x2^2 - 20*x1*x2^3 - 176*x1*x2^2 + 4*x2^3 - 272*x1*x2 + 4*x2^'
        '2 - 96*x2 - 176'
    ),
    'ZZ-blowup-sub-twice': (
        '-x1^8*x2^5 - 4*x1^7*x2^4 - 6*x1^6*x2^4 - 4*x1^6*x2^3 - 24*x1^5*x'
        '2^3 - 12*x1^4*x2^3 - 24*x1^4*x2^2 - 48*x1^3*x2^2 - 3*x1^2*x2^2 -'
        ' 37*x1^2*x2 - 12*x1*x2 + 10'
    ),
    'ZZ-to-GF2-sub': 'x2^3 + x1*x2 + 1',
    'ZZ-to-GF7-sub': '3*x2^3 + 2*x1*x2 + 3',
    'ZZ-to-GF101-sub': '14*x1^2*x2^3 + 28*x1*x2^2 + 3*x2^3 + 96*x1*x2 + 14*x2 + 17',
    'GF7-to-QQ-sub': '6*x1^3 + 3*x1^2*x2 + 36*x1^2 + 6*x1*x2 + 75*x1 + 59',
    'ZZ-to-QQ-sub': (
        '3*x1^3*x2^3 + 14*x1^3*x2 + 27*x1^2*x2^2 + 42*x1^2 + 81*x1*x2 - 5'
        '*x1 + 103'
    ),
    'ZZ-to-QQ-3vars': (
        '3*x2^3*x3^3 + 14*x1^2*x2*x3 + 14*x1*x2*x3^2 - 9*x2^2*x3^2 + 7/2*'
        'x2*x3^3 - 14*x1^2 - 14*x1*x3 + 9*x2*x3 - 7/2*x3^2 - 5*x1 - 5/2*x'
        '3 + 19'
    ),
}


@pytest.mark.parametrize(
    "name,thunk", [pytest.param(name, thunk, id=name) for name, thunk in kernel_cases()]
)
def test_kernel_corpus_matches_recorded_text(name, thunk):
    assert thunk().text() == EXPECTED[name]


def tower_digest(case):
    t, _ = build_case(case)
    h = hashlib.sha256()
    for chart in t.charts:
        h.update(f"chart {chart.cid}\n".encode())
        for f in chart.frame:
            h.update(f"frame {f.text()}\n".encode())
        for did, eq in sorted(chart.divisor_eqs.items()):
            h.update(f"E{did} {eq.text()}\n".encode())
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

PROP_DOMAINS = (GF(2), GF(7), QQ, ZZ)


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
    """f, g in k[x1..x(n)] and images in k'[y1..y(m)], where k -> k' is a
    ring map: the identity, or ZZ into QQ or GF(7).  (Lifting GF(p) into QQ
    is coefficientwise and not a ring map.)"""
    src = draw(st.sampled_from(PROP_DOMAINS))
    dst = draw(st.sampled_from((ZZ, QQ, GF(7)) if src == ZZ else (src,)))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    f, g = draw(polys(src, n)), draw(polys(src, n))
    images = [draw(polys(dst, m, max_terms=3)) for _ in range(n)]
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


def test_constant_coerces_into_the_domain():
    assert Polynomial.constant(GF(5), 2, 5).is_zero()
    assert Polynomial.constant(GF(5), 2, 7) == parse_polynomial("2", GF(5), 2)
    with pytest.raises(errors.ConstantNotInField):
        Polynomial.constant(QQ, 2, True)
    with pytest.raises(errors.ConstantNotInField):
        Polynomial.constant(ZZ, 2, Fraction(1, 2))


# -- monomial kernels ------------------------------------------------------------------

# Reference definitions written over zip, as the kernels were before they
# moved onto map and operator functions.
REFERENCE_PAIR_OPS = (
    (mono_mul, lambda a, b: tuple(x + y for x, y in zip(a, b))),
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
