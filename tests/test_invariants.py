from __future__ import annotations

import random
from fractions import Fraction

import pytest

from towerval import errors
from towerval.invariants import (
    certify_not_log_canonical,
    lct_witness,
    log_discrepancy,
    realize_toric_weight,
    toric_weight_search,
)
from towerval.jets import lct_estimate_at_origin
from towerval.polyring import (
    GF,
    QQ,
    Ideal,
    MultiIdeal,
    coordinate_ideal,
    parse_polynomial,
)
from towerval.tower import CenterSpec, blow_up, new_tower, valuation


def I(domain, nvars, *texts):
    return Ideal(domain, nvars, [parse_polynomial(t, domain, nvars) for t in texts])


def origin_blowup(domain=QQ, n=2):
    t = new_tower(n, domain)
    return blow_up(t, CenterSpec.make(0, {i: 0 for i in range(n)}, domain))


# -- log discrepancy -----------------------------------------------------------


def test_log_discrepancy_first_divisor():
    t, e1 = origin_blowup()
    ma = MultiIdeal([(coordinate_ideal(QQ, 2), 1)])
    report = log_discrepancy(t, e1, ma)
    assert report.a == 1
    assert report.k == 1
    assert report.valuations == ((0, 1),)


def test_log_discrepancy_trivial_product():
    t, e1 = origin_blowup()
    assert log_discrepancy(t, e1, MultiIdeal([])).a == 2


def test_log_discrepancy_exponent_three_is_negative():
    t, e1 = origin_blowup()
    ma = MultiIdeal([(coordinate_ideal(QQ, 2), 3)])
    assert log_discrepancy(t, e1, ma).a == -1


def test_log_discrepancy_matches_formula_on_random_inputs():
    rng = random.Random(424)
    t, e1 = origin_blowup(GF(5))
    t, e2 = blow_up(t, CenterSpec.make(1, {0: 0, 1: 0}, GF(5)))
    for _ in range(20):
        ideals = []
        for _ in range(rng.randint(1, 3)):
            gens = []
            for _ in range(rng.randint(1, 2)):
                items = [
                    ((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 3))
                ]
                from towerval.polyring import Polynomial

                g = Polynomial.from_terms(GF(5), 2, items)
                if not g.is_zero():
                    gens.append(g)
            if gens:
                ideals.append((Ideal(GF(5), 2, gens), Fraction(rng.randint(1, 5), rng.randint(1, 3))))
        if not ideals:
            continue
        ma = MultiIdeal(ideals)
        for did in (e1, e2):
            report = log_discrepancy(t, did, ma)
            recomputed = Fraction(report.k + 1) - sum(
                e * v for (_, e), (_, v) in zip(ma, report.valuations)
            )
            assert report.a == recomputed
            for idx, v in report.valuations:
                assert v == valuation(t, did, ma[idx][0])


def test_log_discrepancy_strictly_decreases_under_scaling():
    t, e1 = origin_blowup()
    a = coordinate_ideal(QQ, 2)
    values = [
        log_discrepancy(t, e1, MultiIdeal([(a, Fraction(lam, 4))])).a
        for lam in range(1, 9)
    ]
    assert all(x > y for x, y in zip(values, values[1:]))


# -- lct witnesses ----------------------------------------------------------------


def test_lct_witness_first_divisor():
    t, e1 = origin_blowup()
    w = lct_witness(t, e1, coordinate_ideal(QQ, 2))
    assert w.z == 2 and w.k == 1 and w.v == 1 and w.divisor == e1


def test_lct_witness_three_step_cusp_divisor():
    t, did = realize_toric_weight(QQ, (3, 2))
    assert len(t.steps) == 3
    w = lct_witness(t, did, I(QQ, 2, "x1^2", "x2^3"))
    assert w.z == Fraction(5, 6) and (w.k, w.v) == (4, 6)


def test_lct_witness_principal_square():
    t, e1 = origin_blowup()
    w = lct_witness(t, e1, I(QQ, 2, "x1^2"))
    assert w.z == 1


def test_lct_witness_rejects_missed_ideal():
    t = new_tower(2, QQ)
    t, did = blow_up(t, CenterSpec.make(0, {0: 1, 1: 1}, QQ))
    with pytest.raises(errors.DivisorMissesIdeal):
        lct_witness(t, did, coordinate_ideal(QQ, 2))


# -- toric realization ----------------------------------------------------------


def test_realize_unit_weights_is_single_blowup():
    t, did = realize_toric_weight(QQ, (1, 1))
    assert len(t.steps) == 1 and t.divisor(did).k == 1


def test_realize_weight_order_does_not_matter_for_k():
    for w in [(2, 3), (3, 2), (1, 4), (4, 1)]:
        t, did = realize_toric_weight(QQ, w)
        assert t.divisor(did).k == sum(w) - 1


def test_realize_random_weights_over_both_characteristics():
    # realize_toric_weight asserts k and the coordinate valuations
    # internally, so surviving the call is already the point here.
    rng = random.Random(425)
    from math import gcd

    seen = 0
    while seen < 15:
        w = tuple(rng.randint(1, 6) for _ in range(rng.choice([2, 3])))
        if gcd(*w) != 1:
            continue
        seen += 1
        for domain in (QQ, GF(5)):
            t, did = realize_toric_weight(domain, w)
            assert t.divisor(did).k == sum(w) - 1


def test_realize_rejects_bad_weights():
    with pytest.raises(ValueError):
        realize_toric_weight(QQ, (2, 4))
    with pytest.raises(ValueError):
        realize_toric_weight(QQ, (0, 1))


# -- toric weight search ------------------------------------------------------------


def test_search_maximal_ideal():
    w = toric_weight_search(coordinate_ideal(QQ, 2), 4)
    assert w.z == 2 and w.weights == (1, 1)


def test_search_cusp_pair():
    w = toric_weight_search(I(QQ, 2, "x1^2", "x2^3"), 6)
    assert w.z == Fraction(5, 6) and w.weights == (3, 2)
    assert (w.k, w.v) == (4, 6)


def test_search_principal_monomial_prefers_lopsided_weights():
    w = toric_weight_search(I(QQ, 2, "x1^2*x2"), 4)
    assert w.z == Fraction(5, 9) and w.weights == (4, 1)
    assert toric_weight_search(I(QQ, 2, "x1^2*x2"), 1).z == Fraction(2, 3)


def test_search_three_variables():
    w = toric_weight_search(coordinate_ideal(QQ, 3), 2)
    assert w.z == 3 and w.weights == (1, 1, 1)


def test_search_agrees_with_jet_estimate_when_threshold_is_attained():
    for texts, bound, cap in [
        (("x1", "x2"), 1, 1),
        (("x1^2", "x2^3"), 6, 6),
        (("x1*x2",), 3, 3),
    ]:
        a = I(QQ, 2, *texts)
        assert toric_weight_search(a, bound).z == lct_estimate_at_origin(a, cap)[0]


def test_search_rejects_bad_inputs():
    with pytest.raises(errors.NonMonomialIdeal):
        toric_weight_search(I(QQ, 2, "x1 + x2^2"), 3)
    with pytest.raises(errors.BadDimension):
        toric_weight_search(coordinate_ideal(QQ, 4), 3)
    with pytest.raises(errors.IdealNotAtOrigin):
        toric_weight_search(I(QQ, 2, "3"), 3)
    with pytest.raises(ValueError):
        toric_weight_search(coordinate_ideal(QQ, 2), 0)
    with pytest.raises(errors.BudgetExceeded, match="weight bound 317 in 2 variables"):
        toric_weight_search(coordinate_ideal(QQ, 2), 317)
    with pytest.raises(errors.BudgetExceeded, match="weight bound 47 in 3 variables"):
        toric_weight_search(coordinate_ideal(QQ, 3), 47)
    with pytest.raises(errors.BudgetExceeded, match="weight bound 100000000 in 3 variables"):
        toric_weight_search(coordinate_ideal(QQ, 3), 10**8)  # 10^24 weights: no loop could end


def test_search_scores_a_box_at_the_bound():
    assert toric_weight_search(coordinate_ideal(QQ, 3), 46).weights == (1, 1, 1)


# -- non log canonical certificates ------------------------------------------------


def test_certificate_for_cubed_maximal_ideal():
    ma = MultiIdeal([(coordinate_ideal(QQ, 2), 3)])
    cert = certify_not_log_canonical(ma, 3)
    assert cert is not None
    assert cert.mvec == (1,) and cert.codim == 2 and cert.value == -1


def test_no_certificate_for_log_canonical_pair():
    ma = MultiIdeal([(coordinate_ideal(QQ, 2), 1)])
    assert certify_not_log_canonical(ma, 3) is None


def test_certificate_for_squared_hyperplane():
    ma = MultiIdeal([(I(QQ, 2, "x1"), 2)])
    cert = certify_not_log_canonical(ma, 3)
    assert cert.mvec == (2,) and cert.codim == 3 and cert.value == -1


def test_certificate_scans_depth_then_lex():
    # both factors admit a violation at total depth 2; the scan must
    # report the lexicographically first one, (0, 2), before (2, 0).
    ma = MultiIdeal([(I(QQ, 2, "x1"), 2), (I(QQ, 2, "x2"), 2)])
    cert = certify_not_log_canonical(ma, 3)
    assert cert.mvec == (0, 2)


def test_certificate_works_in_positive_characteristic():
    ma = MultiIdeal([(coordinate_ideal(GF(5), 2), 3)])
    cert = certify_not_log_canonical(ma, 3)
    assert cert.mvec == (1,) and cert.value == -1


def test_certificate_skips_unit_cells_and_trivial_product():
    assert certify_not_log_canonical(MultiIdeal([]), 3) is None
    ma = MultiIdeal([(I(QQ, 2, "x1 + 1"), 5)])
    assert certify_not_log_canonical(ma, 2) is None
