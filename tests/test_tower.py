from __future__ import annotations

import random

import pytest

from towerval import errors, tower
from towerval.polyring import GF, QQ, Ideal, Polynomial, coordinate_ideal, parse_polynomial
from towerval.tower import (
    CenterSpec,
    Chart,
    Tower,
    blow_up,
    discrepancy_via_jacobian,
    new_tower,
    point_on_divisor_avoiding,
    suspend,
    valuation,
    valuation_of_poly,
    weak_transform,
)

from oracles import describe, equivalent_center_specs, walked_weak_transform


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


def test_bools_are_not_chart_divisor_or_variable_ids():
    # True and False are ints to isinstance; as ids they are refused, as
    # Domain.coerce refuses them as constants
    t = chain_tower(GF(5), 2, 2)
    for bad in (True, False):
        with pytest.raises(errors.UnknownChart) as info:
            t.chart(bad)
        assert str(info.value) == f"no chart {bad!r} (tower has charts 0..4)"
        with pytest.raises(errors.UnknownDivisor) as info:
            t.divisor(bad)
        assert str(info.value) == f"no divisor {bad!r} (tower has divisors 1..2)"
        with pytest.raises(errors.UnknownChart):
            blow_up(t, CenterSpec(bad, ((0, 0), (1, 0))))
        with pytest.raises(errors.UnknownDivisor):
            point_on_divisor_avoiding(t, bad)
        with pytest.raises(errors.UnknownChart):
            weak_transform(t, coordinate_ideal(GF(5), 2), bad)
    for center in (((False, 0), (1, 0)), ((0, 0), (True, 0))):
        with pytest.raises(ValueError, match="out of range"):
            blow_up(t, CenterSpec(1, center))
    t1, _ = blow_up(t, CenterSpec(1, ((0, 0), (1, 0))))
    assert (t1.steps[-1].center.chart, t1.steps[-1].center.constraints) == (1, ((0, 0), (1, 0)))


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


def _record_pullbacks(monkeypatch):
    """From here on, list the chart of every ``Chart.pull`` call and the
    polynomial of every ``Polynomial.substitute`` call."""
    calls = {"pull": [], "substitute": []}
    pull, substitute = Chart.pull, Polynomial.substitute
    monkeypatch.setattr(Chart, "pull", lambda ch, f: calls["pull"].append(ch.cid) or pull(ch, f))
    monkeypatch.setattr(Polynomial, "substitute",
                        lambda f, images: calls["substitute"].append(f) or substitute(f, images))
    return calls


@pytest.mark.parametrize("dom", [QQ, GF(5)])
def test_tied_lowest_terms_can_cancel(dom, monkeypatch):
    # On divisor 2 the frame is (w1, w1 + w1^2*w2): both of x1 and x2 have
    # pivot order 1, and their lowest terms cancel in x2 - x1.
    t = new_tower(2, dom)
    t, _ = blow_up(t, CenterSpec.make(0, {0: 0, 1: 0}, dom))
    t, did = blow_up(t, CenterSpec.make(1, {0: 0, 1: 1}, dom))
    assert valuation_of_poly(t, did, P("x1", dom)) == valuation_of_poly(t, did, P("x2", dom)) == 1
    calls = _record_pullbacks(monkeypatch)
    assert valuation_of_poly(t, did, P("x2 - x1", dom)) == 2
    assert valuation_of_poly(t, did, P("x2 + x1", dom)) == 1
    # the first tie of an f pulls it once through every chart from the root
    # to the center's chart, which keep it, and takes its order along the
    # center there: a repeated tie pulls nothing
    home = t.chart(t.divisor(did).home_chart)
    assert calls == {"pull": [home.parent] * 2, "substitute": []}
    calls["pull"].clear()
    assert valuation_of_poly(t, did, P("x2 - x1", dom)) == 2
    assert valuation_of_poly(t, did, P("x2 + x1", dom)) == 1
    assert calls == {"pull": [], "substitute": []}
    # pivot orders are read off the parent's frame: the home chart's is never built
    assert "frame" not in home._memo


def test_a_tie_at_a_shifted_point_below_an_origin_chain_stops_in_the_center_chart(monkeypatch):
    # Over Q: the origin, a line in chart 1, 24 origin steps in the newest
    # chart, then a point with nonzero coordinates in chart 75.  Pulling
    # g^2 (degree 858 in chart 75) through the shifted chart of step 27
    # expands every power binomially; its order along the point does not.
    n = 3
    t, _ = blow_up(new_tower(n, QQ), CenterSpec.make(0, origin(n), QQ))
    t, _ = blow_up(t, CenterSpec.make(1, {0: 0, 1: 1}, QQ))
    for _ in range(24):
        t, _ = blow_up(t, CenterSpec.make(len(t.charts) - 1, origin(n), QQ))
    point = (2, -1, 3)
    t, did = blow_up(t, CenterSpec.make(75, dict(enumerate(point)), QQ))
    assert did == 27
    g = P("x1^2*x2 + 3*x3^2 - x1*x2*x3 + x2^3", QQ, n)
    image = [x.evaluate(point) for x in t.chart(75).frame]
    g = g - Polynomial.constant(QQ, n, g.evaluate(image))
    calls = _record_pullbacks(monkeypatch)
    assert valuation_of_poly(t, did, g * g) == 2
    assert not set(calls["pull"]) & set(t.divisor(did).chart_ids)


def test_unique_lowest_term_expands_nothing(monkeypatch):
    t = chain_tower(QQ, 2, 4)
    # build the frame that the pivot orders read: the center's chart's
    t.chart(t.chart(t.divisor(4).home_chart).parent).frame
    calls = _record_pullbacks(monkeypatch)
    assert valuation_of_poly(t, 4, P("x1^2 + x2^3", QQ)) == 2
    assert calls == {"pull": [], "substitute": []}


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
    a = coordinate_ideal(QQ, 2)
    wt = weak_transform(t, a, 1)
    assert sorted(g.text() for g in wt.gens) == ["1", "x2"]
    assert walked_weak_transform(t, a, 1) == (wt, [(1, 1)])


def test_weak_transform_monomial_example():
    t = chain_tower(QQ, 2, 1)
    a = Ideal(QQ, 2, [P("x1^2", QQ), P("x2^3", QQ)])
    wt = weak_transform(t, a, 1)
    assert sorted(g.text() for g in wt.gens) == ["1", "x1*x2^3"]
    assert walked_weak_transform(t, a, 1) == (wt, [(1, 2)])


def test_weak_transform_principal_gives_proper_transform():
    t = chain_tower(QQ, 2, 1)
    wt = weak_transform(t, Ideal(QQ, 2, [P("x2", QQ)]), 1)
    assert [g.text() for g in wt.gens] == ["x2"]


def test_weak_transform_strips_stepwise_valuations():
    t = chain_tower(QQ, 2, 2)
    a = Ideal(QQ, 2, [P("x1^2 + x2^3", QQ)])
    home = t.divisor(2).home_chart
    wt = weak_transform(t, a, home)
    walked, removed = walked_weak_transform(t, a, home)
    assert walked == wt
    # first strip is v_{E_1}(a), by definition of both sides
    assert removed[0] == (1, valuation(t, 1, a))
    # nothing of the last pivot remains after stripping
    assert min(g.var_min_exponent(t.chart(home).pivot) for g in wt.gens) == 0


# -- general point search --------------------------------------------------------------


def test_point_search_accepts_origin_when_nothing_excludes_it():
    t = chain_tower(GF(5), 2, 1)
    wt = weak_transform(t, coordinate_ideal(GF(5), 2), 1)
    spec = point_on_divisor_avoiding(t, 1, avoid_loci=[wt])
    assert spec.chart == t.divisor(1).home_chart
    assert spec.as_dict() == {0: 0, 1: 0}


def test_point_search_skips_divisor_points():
    # tower point=(0,0), then chart=2 point=(0,0): E_1 meets E_2's home chart
    # as x2, so the search on E_2 steps off the origin
    dom = GF(5)
    t = new_tower(2, dom)
    for chart in (0, 2):
        t, _ = blow_up(t, CenterSpec.make(chart, origin(2), dom))
    home = t.chart(t.divisor(2).home_chart)
    assert home.divisor_eqs[1] == P("x2", dom)
    spec = point_on_divisor_avoiding(t, 2)
    assert spec.chart == home.cid
    assert spec.as_dict() == {0: 0, 1: 1}


@pytest.mark.parametrize("did", [0, 3, "1"])
def test_point_search_refuses_a_divisor_outside_the_tower(did):
    t = chain_tower(GF(5), 2, 2)
    with pytest.raises(errors.UnknownDivisor) as info:
        point_on_divisor_avoiding(t, did)
    assert str(info.value) == f"no divisor {did!r} (tower has divisors 1..2)"


def test_point_search_exhaustion_over_f2():
    t = chain_tower(GF(2), 2, 1)
    # x2*(x1 + x2) has weak transform vanishing at every candidate point of E_1
    a = Ideal(GF(2), 2, [P("x1*x2 + x2^2", GF(2))])
    wt = weak_transform(t, a, 1)
    with pytest.raises(errors.GeneralPointNotFound):
        point_on_divisor_avoiding(t, 1, avoid_loci=[wt])


def test_point_search_refuses_a_locus_from_another_ring():
    t = chain_tower(GF(5), 2, 1)
    # read over F_5, x2 - 5 is x2, which the origin lies on
    over_f5 = Ideal(GF(5), 2, [P("x2 - 5", GF(5))])
    assert point_on_divisor_avoiding(t, 1, avoid_loci=[over_f5]).as_dict() == {0: 0, 1: 1}
    for locus in (Ideal(QQ, 2, [P("x2 - 5", QQ)]), Ideal(GF(5), 3, [P("x2", GF(5), 3)])):
        with pytest.raises(errors.RingMismatch):
            point_on_divisor_avoiding(t, 1, avoid_loci=[locus])


def test_point_search_refuses_to_avoid_the_zero_ideal():
    t = chain_tower(GF(5), 2, 1)
    with pytest.raises(errors.ZeroIdeal) as info:
        point_on_divisor_avoiding(t, 1, avoid_loci=[Ideal(GF(5), 2, [])])
    assert str(info.value) == "cannot avoid the zero locus of the zero ideal"


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


def test_point_search_over_q_stops_at_the_radius(monkeypatch):
    t = chain_tower(QQ, 2, 1)
    blocked = _avoiding_roots([0, 1, -1])
    monkeypatch.setattr(tower, "_RADIUS", 1)
    with pytest.raises(errors.GeneralPointNotFound):
        point_on_divisor_avoiding(t, 1, avoid_loci=[blocked])
    monkeypatch.setattr(tower, "_RADIUS", 2)
    assert point_on_divisor_avoiding(t, 1, avoid_loci=[blocked]).as_dict() == {0: 0, 1: 2}


def test_point_search_over_a_prime_field_stops_at_the_radius(monkeypatch):
    dom = GF(103)
    t = chain_tower(dom, 2, 1)
    blocked = _avoiding_roots([0, 1, 2], dom)
    monkeypatch.setattr(tower, "_RADIUS", 1)
    with pytest.raises(errors.GeneralPointNotFound):
        point_on_divisor_avoiding(t, 1, avoid_loci=[blocked])
    monkeypatch.setattr(tower, "_RADIUS", 2)
    assert point_on_divisor_avoiding(t, 1, avoid_loci=[blocked]).as_dict() == {0: 0, 1: 3}


def test_point_search_steps_past_a_blocked_line_without_evaluating(monkeypatch):
    # the locus x2 blocks every point with x2 = 0; the plain walk tried
    # the 101^3 of them first, one evaluate per point
    dom = GF(101)
    t = chain_tower(dom, 5, 1)
    calls = []
    real = Polynomial.evaluate
    monkeypatch.setattr(Polynomial, "evaluate", lambda *a: calls.append(1) or real(*a))
    spec = point_on_divisor_avoiding(t, 1, avoid_loci=[Ideal(dom, 5, [P("x2", dom, 5)])])
    assert (spec.chart, spec.as_dict()) == (1, {0: 0, 1: 1, 2: 0, 3: 0, 4: 0})
    assert calls == []


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


def test_suspend_refuses_an_ideal_outside_the_base_ring():
    t = chain_tower(QQ, 2, 1)
    for a in (Ideal(GF(5), 2, [P("x1^2 + 4*x2", GF(5))]), Ideal(QQ, 3, [P("x3", QQ, 3)])):
        with pytest.raises(errors.RingMismatch):
            suspend(t, a)
    with pytest.raises(errors.ZeroIdeal):
        suspend(t, Ideal(QQ, 2, []))


def test_suspend_deep_tower_valuations_match():
    t = chain_tower(GF(5), 2, 3)
    a = Ideal(GF(5), 2, [P("x1^2 + x2^3", GF(5)), P("x2^4", GF(5))])
    s, a_bar = suspend(t, a)
    for did in (1, 2, 3):
        assert valuation(s, did, a_bar) == valuation(t, did, a)


def test_tower_refuses_setattr_and_compares_by_its_fields():
    t = chain_tower(QQ, 2, 1)
    for name in ("domain", "n", "charts", "steps", "extra"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
    again = Tower(t.domain, t.n, t.charts, t.steps)
    assert again == t and hash(again) == hash(t)
    assert chain_tower(QQ, 2, 1) != t  # same steps, charts of their own


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
