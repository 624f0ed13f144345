from __future__ import annotations

import random

import pytest

from towerval import errors
from towerval.polyring import GF, QQ, Ideal, Polynomial, coordinate_ideal, parse_polynomial
from towerval.tower import (
    CenterSpec,
    blow_up,
    discrepancy_via_jacobian,
    new_tower,
    point_on_divisor_avoiding,
    suspend,
    valuation,
    valuation_of_poly,
    weak_transform,
)

from oracles import describe, equivalent_center_specs


def P(text, domain, nvars=2):
    return parse_polynomial(text, domain, nvars)


def origin(n):
    return {i: 0 for i in range(n)}


def chain_tower(domain, n, depth):
    """Blow up the origin, then the origin of the first new chart, depth times."""
    t = new_tower(n, domain)
    chart = 0
    for _ in range(depth):
        t, did = blow_up(t, CenterSpec.make(chart, origin(n), domain))
        chart = t.divisor(did).home_chart
    return t


# -- construction and discrepancies ------------------------------------------


def test_new_tower_validates_dimension():
    assert new_tower(2, GF(5)).n == 2
    assert len(new_tower(3, QQ).steps) == 0
    with pytest.raises(errors.BadDimension):
        new_tower(1, GF(5))


def test_codim1_center_rejected():
    t = new_tower(2, QQ)
    with pytest.raises(errors.Codim1Center):
        blow_up(t, CenterSpec.make(0, {0: 0}, QQ))


def test_unknown_chart_rejected():
    t = new_tower(2, QQ)
    with pytest.raises(errors.UnknownChart):
        blow_up(t, CenterSpec.make(5, origin(2), QQ))


def test_constants_checked_against_field():
    t = new_tower(2, GF(5))
    from fractions import Fraction

    with pytest.raises(errors.ConstantNotInField):
        blow_up(t, CenterSpec.make(0, {0: Fraction(1, 2), 1: 0}, GF(5)))


def test_first_origin_blowup_discrepancy():
    t, e1 = blow_up(new_tower(2, GF(5)), CenterSpec.make(0, origin(2), GF(5)))
    assert t.divisor(e1).k == 1
    assert t.divisor(e1).contained_in == ()
    t3, f1 = blow_up(new_tower(3, QQ), CenterSpec.make(0, origin(3), QQ))
    assert t3.divisor(f1).k == 2


def test_point_on_divisor_adds_its_discrepancy():
    # A^3: blow up origin (k=2), then the origin of chart 1 which lies on E_1.
    t, e1 = blow_up(new_tower(3, QQ), CenterSpec.make(0, origin(3), QQ))
    t, e2 = blow_up(t, CenterSpec.make(1, origin(3), QQ))
    assert t.divisor(e2).contained_in == (e1,)
    assert t.divisor(e2).k == 4


def test_three_step_chain_matches_known_pattern():
    # Blow origin of A^2, origin of chart 1 (on E_1), then the origin of the
    # newest chart, which lies on E_2 only: k values 1, 2, 3.
    t = chain_tower(QQ, 2, 3)
    assert [d.k for d in t.divisors] == [1, 2, 3]
    assert t.divisors[1].contained_in == (1,)
    assert t.divisors[2].contained_in == (2,)


def test_center_off_all_divisors_restarts_recursion():
    t = chain_tower(QQ, 2, 1)
    t, e2 = blow_up(t, CenterSpec.make(0, {0: 1, 1: 1}, QQ))
    assert t.divisor(e2).contained_in == ()
    assert t.divisor(e2).k == 1


def test_subspace_center_codimension_sets_base_term():
    # A^3, blow up the line x1 = x2 = 0: codim 2, so k = 1.
    t, e1 = blow_up(new_tower(3, QQ), CenterSpec.make(0, {0: 0, 1: 0}, QQ))
    assert t.divisor(e1).k == 1


# -- valuations ------------------------------------------------------------------


def test_valuation_of_maximal_ideal_is_one():
    t = chain_tower(GF(5), 2, 1)
    assert valuation(t, 1, coordinate_ideal(GF(5), 2)) == 1


def test_valuation_cusp_example():
    t = chain_tower(QQ, 2, 1)
    a = Ideal(QQ, 2, [P("x1^2 + x2^3", QQ)])
    assert valuation(t, 1, a) == 2


def test_two_step_coordinate_valuations():
    t = chain_tower(QQ, 2, 2)
    assert valuation_of_poly(t, 2, P("x2", QQ)) == 2
    assert valuation_of_poly(t, 2, P("x1", QQ)) == 1
    a = Ideal(QQ, 2, [P("x1^2 + x2^3", QQ)])
    assert valuation(t, 2, a) == 2


def test_valuation_rejects_zero_ideal_and_unknown_divisor():
    t = chain_tower(QQ, 2, 1)
    with pytest.raises(errors.ZeroIdeal):
        valuation(t, 1, Ideal(QQ, 2, []))
    with pytest.raises(errors.UnknownDivisor):
        valuation(t, 7, coordinate_ideal(QQ, 2))


def test_valuation_is_additive_on_products():
    rng = random.Random(411)
    t = chain_tower(GF(5), 2, 2)
    for _ in range(100):
        f = _random_poly(rng, GF(5), 2)
        g = _random_poly(rng, GF(5), 2)
        if f.is_zero() or g.is_zero():
            continue
        for did in (1, 2):
            assert valuation_of_poly(t, did, f * g) == valuation_of_poly(
                t, did, f
            ) + valuation_of_poly(t, did, g)
            h = f + g
            if not h.is_zero():
                assert valuation_of_poly(t, did, h) >= min(
                    valuation_of_poly(t, did, f), valuation_of_poly(t, did, g)
                )


@pytest.mark.parametrize("dom", [QQ, GF(5)])
def test_tied_lowest_terms_can_cancel(dom):
    # On divisor 2 the frame is (w1, w1 + w1^2*w2): both of x1 and x2 have
    # pivot order 1, and their lowest terms cancel in x2 - x1.
    t = new_tower(2, dom)
    t, _ = blow_up(t, CenterSpec.make(0, {0: 0, 1: 0}, dom))
    t, did = blow_up(t, CenterSpec.make(1, {0: 0, 1: 1}, dom))
    assert valuation_of_poly(t, did, P("x1", dom)) == valuation_of_poly(t, did, P("x2", dom)) == 1
    assert valuation_of_poly(t, did, P("x2 - x1", dom)) == 2
    assert valuation_of_poly(t, did, P("x2 + x1", dom)) == 1


def test_unique_lowest_term_expands_nothing(monkeypatch):
    t = chain_tower(QQ, 2, 4)
    t.chart(t.divisor(4).home_chart).frame  # build the frame first
    calls = []
    real = Polynomial.substitute
    monkeypatch.setattr(Polynomial, "substitute", lambda f, images: calls.append(f) or real(f, images))
    assert valuation_of_poly(t, 4, P("x1^2 + x2^3", QQ)) == 2
    assert calls == []


def _random_poly(rng, domain, nvars, max_deg=3, max_terms=4):
    items = []
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = rng.randint(0, domain.p - 1) if domain.p else rng.randint(-5, 5)
        items.append((exps, c))
    return Polynomial.from_terms(domain, nvars, items)


# -- weak transforms ----------------------------------------------------------------


def test_weak_transform_of_maximal_ideal_is_unit():
    t = chain_tower(QQ, 2, 1)
    wt, removed = weak_transform(t, coordinate_ideal(QQ, 2), 1)
    assert sorted(g.text() for g in wt.gens) == ["1", "x2"]
    assert removed == [(1, 1)]


def test_weak_transform_monomial_example():
    t = chain_tower(QQ, 2, 1)
    a = Ideal(QQ, 2, [P("x1^2", QQ), P("x2^3", QQ)])
    wt, removed = weak_transform(t, a, 1)
    assert sorted(g.text() for g in wt.gens) == ["1", "x1*x2^3"]
    assert removed == [(1, 2)]


def test_weak_transform_principal_gives_proper_transform():
    t = chain_tower(QQ, 2, 1)
    wt, _ = weak_transform(t, Ideal(QQ, 2, [P("x2", QQ)]), 1)
    assert [g.text() for g in wt.gens] == ["x2"]


def test_weak_transform_strips_stepwise_valuations():
    t = chain_tower(QQ, 2, 2)
    a = Ideal(QQ, 2, [P("x1^2 + x2^3", QQ)])
    home = t.divisor(2).home_chart
    wt, removed = weak_transform(t, a, home)
    # first strip is v_{E_1}(a), by definition of both sides
    assert removed[0] == (1, valuation(t, 1, a))
    # nothing of the last pivot remains after stripping
    assert min(g.var_min_exponent(t.chart(home).pivot) for g in wt.gens) == 0


# -- general point search --------------------------------------------------------------


def test_point_search_accepts_origin_when_nothing_excludes_it():
    t = chain_tower(GF(5), 2, 1)
    wt, _ = weak_transform(t, coordinate_ideal(GF(5), 2), 1)
    spec = point_on_divisor_avoiding(t, 1, avoid_loci=[wt])
    assert spec.chart == t.divisor(1).home_chart
    assert spec.as_dict() == {0: 0, 1: 0}


def test_point_search_skips_divisor_points():
    # after blowing up a point of E_1, look for a point on E_2 avoiding E_1
    t = chain_tower(GF(5), 2, 2)
    spec = point_on_divisor_avoiding(t, 2, avoid_divisors=[1])
    home = t.chart(t.divisor(2).home_chart)
    eq = home.divisor_eqs[1]
    pt = [dict(spec.constraints)[i] for i in range(2)]
    assert eq.evaluate(pt) != 0


def test_point_search_exhaustion_over_f2():
    t = chain_tower(GF(2), 2, 1)
    # x2*(x1 + x2) has weak transform vanishing at every candidate point of E_1
    a = Ideal(GF(2), 2, [P("x1*x2 + x2^2", GF(2))])
    wt, _ = weak_transform(t, a, 1)
    with pytest.raises(errors.GeneralPointNotFound):
        point_on_divisor_avoiding(t, 1, avoid_loci=[wt])


def _avoiding_roots(roots, domain=QQ):
    """An ideal of the A^2 chart vanishing exactly where x2 is one of the roots."""
    g = Polynomial.constant(domain, 2, 1)
    for r in roots:
        g = g * (P("x2", domain) - Polynomial.constant(domain, 2, r))
    return Ideal(domain, 2, [g])


def test_point_search_over_q_runs_zero_then_plus_and_minus():
    t = chain_tower(QQ, 2, 1)
    home = t.divisor(1).home_chart
    assert t.chart(home).pivot == 0
    order = [0, 1, -1, 2, -2, 3]
    for k, expected in enumerate(order):
        spec = point_on_divisor_avoiding(t, 1, avoid_loci=[_avoiding_roots(order[:k])])
        assert spec.chart == home
        assert spec.as_dict() == {0: 0, 1: expected}


def test_point_search_over_q_stops_at_the_radius():
    t = chain_tower(QQ, 2, 1)
    blocked = _avoiding_roots([0, 1, -1])
    with pytest.raises(errors.GeneralPointNotFound):
        point_on_divisor_avoiding(t, 1, avoid_loci=[blocked], radius=1)
    assert point_on_divisor_avoiding(t, 1, avoid_loci=[blocked], radius=2).as_dict() == {0: 0, 1: 2}


def test_point_search_over_a_prime_field_stops_at_the_radius():
    dom = GF(103)
    t = chain_tower(dom, 2, 1)
    blocked = _avoiding_roots([0, 1, 2], dom)
    with pytest.raises(errors.GeneralPointNotFound):
        point_on_divisor_avoiding(t, 1, avoid_loci=[blocked], radius=1)
    assert point_on_divisor_avoiding(t, 1, avoid_loci=[blocked], radius=2).as_dict() == {0: 0, 1: 3}


# -- suspension ---------------------------------------------------------------------------


def test_suspend_preserves_valuation_and_shifts_k():
    t = chain_tower(QQ, 2, 1)
    a = coordinate_ideal(QQ, 2)
    s, a_bar = suspend(t, a)
    assert s.n == 3
    assert valuation(s, 1, a_bar) == valuation(t, 1, a) == 1
    assert s.divisor(1).k == 2 and t.divisor(1).k == 1


def test_suspend_empty_tower():
    s, nothing = suspend(new_tower(2, QQ))
    assert s.n == 3 and len(s.steps) == 0 and nothing is None


def test_suspend_deep_tower_valuations_match():
    t = chain_tower(GF(5), 2, 3)
    a = Ideal(GF(5), 2, [P("x1^2 + x2^3", GF(5)), P("x2^4", GF(5))])
    s, a_bar = suspend(t, a)
    for did in (1, 2, 3):
        assert valuation(s, did, a_bar) == valuation(t, did, a)


# -- cross-checks ---------------------------------------------------------------------------


def test_jacobian_order_agrees_with_recursion():
    for domain in (QQ, GF(5)):
        t = chain_tower(domain, 2, 3)
        for d in t.divisors:
            assert discrepancy_via_jacobian(t, d.did) == d.k
    t3 = chain_tower(QQ, 3, 2)
    for d in t3.divisors:
        assert discrepancy_via_jacobian(t3, d.did) == d.k
    # subspace center
    t, _ = blow_up(new_tower(3, GF(7)), CenterSpec.make(0, {0: 0, 1: 0}, GF(7)))
    t, e2 = blow_up(t, CenterSpec.make(1, origin(3), GF(7)))
    for d in t.divisors:
        assert discrepancy_via_jacobian(t, d.did) == d.k


def test_chart_independence_of_k_and_valuations():
    dom = GF(5)
    t1, _ = blow_up(new_tower(2, dom), CenterSpec.make(0, origin(2), dom))
    center = CenterSpec.make(1, {0: 0, 1: 1}, dom)
    alts = equivalent_center_specs(t1, center)
    assert len(alts) == 1 and alts[0].chart == 2
    a = Ideal(dom, 2, [P("x1^2 + x2^3", dom)])
    m = coordinate_ideal(dom, 2)
    ta, e2a = blow_up(t1, center)
    tb, e2b = blow_up(t1, alts[0])
    assert ta.divisor(e2a).k == tb.divisor(e2b).k
    for ideal in (a, m):
        assert valuation(ta, e2a, ideal) == valuation(tb, e2b, ideal)


def test_describe_is_plain_and_deterministic():
    t = chain_tower(GF(5), 2, 2)
    d = describe(t)
    assert d["N"] == 2 and d["charts"] == 5
    assert d["steps"][0] == {"chart": 0, "set": [["x1", "0"], ["x2", "0"]]}
    assert d["divisors"][1]["k"] == 2
    assert describe(t) == d
