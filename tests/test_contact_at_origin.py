"""The contact path expands jets along arcs through the origin.

The Groebner route of a contact cell (``groebner_contact_codim``) once
expanded every generator along x_l(t) = sum_{q>=0} x_l^(q) t^q,
substituted x_l^(0) -> 0 into each coefficient and added the x_l^(0) as
linear generators.  It now asks
``jet_equations`` for the expansion along arcs through the origin, in the
ring of the x_l^(q) with q >= 1 alone.  The Groebner input must be the old
recipe's coefficients, in the same order, with the x_l^(0) generators and
slots dropped; the recipe is rebuilt here as the reference.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from towerval import errors, jets
from towerval.jets import groebner_contact_codim, jet_equations
from towerval.polyring import GF, QQ, Ideal, Polynomial

DOMAINS = (QQ, GF(2), GF(3), GF(7))


def nonzero_coeffs(dom):
    if dom == QQ:
        return st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    return st.integers(1, dom.characteristic - 1)


@st.composite
def contact_factors(draw, with_unit=False):
    """1-2 (ideal, level) factors over one ring, levels 1-4, every ideal
    vanishing at the origin; with ``with_unit`` one generator of one factor
    also gets a nonzero constant term."""
    dom = draw(st.sampled_from(DOMAINS))
    n = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        terms = st.dictionaries(exps, nonzero_coeffs(dom), min_size=1, max_size=3)
        gens = [
            Polynomial.from_terms(dom, n, draw(terms).items())
            for _ in range(draw(st.integers(1, 2)))
        ]
        factors.append([gens, draw(st.integers(1, 4))])
    if with_unit:
        gens = draw(st.sampled_from(factors))[0]
        k = draw(st.integers(0, len(gens) - 1))
        gens[k] = gens[k] + Polynomial.constant(dom, n, draw(nonzero_coeffs(dom)))
    return [(Ideal(dom, n, gens), m) for gens, m in factors]


def kill_origin_recipe(factors):
    """The coefficients F^(j), j < m, of the q >= 0 expansion at level L-1,
    with x_l^(0) -> 0 and x_l^(q) -> the (l, q) variable of the ring of the
    N*(L-1) variables with q >= 1 substituted into each."""
    dom, n = factors[0][0].domain, factors[0][0].nvars
    L = max(m for _, m in factors)
    nv = n * (L - 1)
    gens = []
    kill_origin = [
        Polynomial.zero(dom, nv) if q == 0 else Polynomial.variable(dom, nv, l * (L - 1) + q - 1)
        for l in range(n)
        for q in range(L)
    ]
    for a, m in factors:
        for coeffs in jet_equations(a, L - 1).coefficients:
            for j in range(m):
                g = coeffs[j].substitute(kill_origin)
                if g.is_constant():
                    assert g.is_zero()  # the ideals vanish at the origin
                    continue
                gens.append(g)
    return gens


class Captured(Exception):
    pass


def captured_generators(factors):
    """The generators ``groebner_contact_codim`` hands to
    ``ideal_dimension``, taken before any Groebner work runs."""
    seen = []

    def capture(gens, **_):
        seen.append(list(gens))
        raise Captured

    with mock.patch.object(jets, "ideal_dimension", capture):
        with pytest.raises(Captured):
            groebner_contact_codim(factors)
    return seen


@given(contact_factors())
def test_origin_expansion_gives_the_kill_origin_generators(factors):
    expected = kill_origin_recipe(factors)
    if expected:
        assert captured_generators(factors) == [expected]
    else:
        # no nonzero condition: codim N, with no Groebner run
        with mock.patch.object(jets, "ideal_dimension", side_effect=AssertionError):
            codim = groebner_contact_codim(factors)
        assert codim == factors[0][0].nvars


@given(contact_factors(with_unit=True))
def test_a_nonzero_constant_term_is_still_a_unit_ideal(factors):
    # the unit generator must be caught before any Groebner work runs
    with mock.patch.object(jets, "ideal_dimension", side_effect=AssertionError):
        with pytest.raises(errors.UnitIdeal):
            groebner_contact_codim(factors)


def test_origin_expansion_has_no_constant_slot():
    a = Ideal(QQ, 2, [Polynomial.from_terms(QQ, 2, [((2, 0), 1), ((0, 3), Fraction(1, 2))])])
    at_origin = jet_equations(a, 3, at_origin=True)
    assert at_origin.nvars == 6
    assert at_origin.var_names() == ["x1_1", "x1_2", "x1_3", "x2_1", "x2_2", "x2_3"]
    assert [at_origin.var_index(l, q) for l in range(2) for q in (1, 2, 3)] == list(range(6))
    (coeffs,) = at_origin.coefficients
    assert [c.text(at_origin.var_names()) for c in coeffs] == [
        "0", "0", "x1_1^2", "1/2*x2_1^3 + 2*x1_1*x1_2",
    ]
