from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from towerval import errors
from towerval.bridge import (
    BridgeCase,
    acceptance_corpus,
    bridge_construct,
    build_case,
    cross_characteristic_suite,
    lift_tower,
    shifted_log_discrepancy_check,
)
from towerval.polyring import (
    GF,
    QQ,
    Ideal,
    coordinate_ideal,
    parse_polynomial,
)
from towerval.tower import CenterSpec, blow_up, new_tower

from oracles import describe


def I(domain, nvars, *texts):
    return Ideal(domain, nvars, [parse_polynomial(t, domain, nvars) for t in texts])


def origin_tower(domain, n=2, depth=1):
    t = new_tower(n, domain)
    chart = 0
    for _ in range(depth):
        t, did = blow_up(t, CenterSpec.make(chart, {i: 0 for i in range(n)}, domain))
        chart = t.divisor(did).home_chart
    return t


# -- lifting towers ----------------------------------------------------------------


def test_lift_origin_tower_preserves_k():
    t = origin_tower(GF(5))
    lifted = lift_tower(t)
    assert lifted.domain == QQ
    assert [d.k for d in lifted.divisors] == [d.k for d in t.divisors]


def test_lift_three_step_point_tower():
    dom = GF(5)
    t = new_tower(2, dom)
    t, _ = blow_up(t, CenterSpec.make(0, {0: 0, 1: 0}, dom))
    t, _ = blow_up(t, CenterSpec.make(1, {0: 0, 1: 0}, dom))
    t, _ = blow_up(t, CenterSpec.make(3, {0: 1, 1: 0}, dom))
    lifted = lift_tower(t)
    assert [d.k for d in lifted.divisors] == [d.k for d in t.divisors]
    assert [d.contained_in for d in lifted.divisors] == [
        d.contained_in for d in t.divisors
    ]
    assert [c for c, _ in lifted.steps[2].center.constraints] == [0, 1]
    assert [c for _, c in lifted.steps[2].center.constraints] == [Fraction(1), Fraction(0)]


def test_lift_then_reduce_replays_to_the_same_tower():
    dom = GF(5)
    t = new_tower(2, dom)
    t, _ = blow_up(t, CenterSpec.make(0, {0: 0, 1: 0}, dom))
    t, _ = blow_up(t, CenterSpec.make(2, {0: 2, 1: 0}, dom))
    lifted = lift_tower(t)
    replayed = new_tower(2, dom)
    for step in lifted.steps:
        assignment = {i: int(c) % dom.p for i, c in step.center.constraints}
        replayed, _ = blow_up(replayed, CenterSpec.make(step.center.chart, assignment, dom))
    assert describe(replayed) == describe(t)


def test_lift_rejects_rational_towers():
    with pytest.raises(errors.RingMismatch):
        lift_tower(origin_tower(QQ))


# -- the bridge proper -------------------------------------------------------------


def test_bridge_first_divisor_of_the_plane():
    t = origin_tower(GF(5))
    report = bridge_construct(t, [coordinate_ideal(GF(5), 2)])
    assert report.k_e == 1 and report.k_middle == 2 and report.k_f == 3
    assert report.valuations == ((1, 1, 1),)
    assert report.k_identity_ok and report.v_identity_ok


def test_bridge_first_divisor_of_three_space():
    t = origin_tower(GF(5), n=3)
    report = bridge_construct(t, [coordinate_ideal(GF(5), 3)])
    assert report.k_f == 6 and report.valuations == ((1, 1, 1),)


def test_bridge_cusp_on_second_divisor():
    t = origin_tower(GF(5), depth=2)
    report = bridge_construct(t, [I(GF(5), 2, "x1^2 + x2^3")])
    assert report.k_e == 2 and report.k_f == 4
    assert report.valuations == ((2, 2, 2),)


def test_bridge_report_is_self_consistent():
    t = origin_tower(GF(101), depth=3)
    report = bridge_construct(t, [I(GF(101), 2, "x1^2", "x2^3")])
    assert report.k_middle == (report.n - 1) + report.k_e
    assert report.k_f == 2 * (report.n - 1) + report.k_e
    assert report.tower_q.divisor(report.final_divisor).k == report.k_f
    for ve, vp, vq in report.valuations:
        assert ve == vp == vq
    # the lifted points are the coefficient-wise lifts of the chosen points
    for pt, lifted in [
        (report.point_1, report.lifted_point_1),
        (report.point_2, report.lifted_point_2),
    ]:
        assert lifted.chart == pt.chart
        assert [(i, Fraction(c)) for i, c in pt.constraints] == list(lifted.constraints)


def test_bridge_points_stay_off_everything_else():
    t = origin_tower(GF(101), depth=2)
    report = bridge_construct(t, [coordinate_ideal(GF(101), 2)])
    tp = report.tower_p
    assert tp.divisor(report.middle_divisor).contained_in == (report.input_divisor,)
    assert tp.divisor(report.final_divisor).contained_in == (report.middle_divisor,)


def test_bridge_rejects_bad_inputs():
    dom = GF(5)
    with pytest.raises(errors.FirstStepNotOrigin):
        bridge_construct(new_tower(2, dom), [coordinate_ideal(dom, 2)])
    off = new_tower(2, dom)
    off, _ = blow_up(off, CenterSpec.make(0, {0: 1, 1: 0}, dom))
    with pytest.raises(errors.FirstStepNotOrigin):
        bridge_construct(off, [coordinate_ideal(dom, 2)])
    t = origin_tower(dom)
    with pytest.raises(errors.IdealNotAtOrigin):
        bridge_construct(t, [I(dom, 2, "x1 + 1")])
    with pytest.raises(errors.ZeroIdeal):
        bridge_construct(t, [Ideal(dom, 2, [])])
    with pytest.raises(errors.RingMismatch):
        bridge_construct(origin_tower(QQ), [coordinate_ideal(QQ, 2)])


def test_tampered_lift_is_refused():
    t = origin_tower(GF(5))
    with pytest.raises(errors.BridgeIdentityFailed):
        bridge_construct(t, [coordinate_ideal(GF(5), 2)], tamper=True)


def test_small_field_exhaustion_is_reported():
    dom = GF(2)
    t = origin_tower(dom)
    with pytest.raises(errors.GeneralPointNotFound):
        bridge_construct(t, [I(dom, 2, "x1*x2 + x2^2")])


# -- shifted log discrepancies -----------------------------------------------------


def test_shift_identity_unit_exponent():
    t = origin_tower(GF(5))
    report = bridge_construct(t, [coordinate_ideal(GF(5), 2)])
    report = shifted_log_discrepancy_check(report, [1])
    ((evec, a_p, a_q),) = report.shifted
    assert evec == (1,) and a_p == 1 and a_q == 3


def test_shift_identity_half_exponent():
    t = origin_tower(GF(5))
    report = bridge_construct(t, [coordinate_ideal(GF(5), 2)])
    report = shifted_log_discrepancy_check(report, [Fraction(1, 2)])
    ((_, a_p, a_q),) = report.shifted
    assert a_p == Fraction(3, 2) and a_q == Fraction(7, 2)


def test_shift_identity_two_factors():
    dom = GF(5)
    t = origin_tower(dom)
    report = bridge_construct(t, [coordinate_ideal(dom, 2), I(dom, 2, "x1")])
    report = shifted_log_discrepancy_check(report, [(1, 1), (1, 2)])
    assert len(report.shifted) == 2
    for evec, a_p, a_q in report.shifted:
        assert a_q == 2 * (report.n - 1) + a_p


def test_shift_rejects_wrong_arity():
    t = origin_tower(GF(5))
    report = bridge_construct(t, [coordinate_ideal(GF(5), 2)])
    with pytest.raises(errors.DimensionMismatch):
        shifted_log_discrepancy_check(report, [(1, 2)])


def test_shift_failure_prints_the_vector_as_num_den():
    t = origin_tower(GF(5))
    report = bridge_construct(t, [coordinate_ideal(GF(5), 2)])
    bent = replace(report, n=3)  # now expects a shift of 4; the towers give 2
    with pytest.raises(errors.BridgeIdentityFailed) as info:
        shifted_log_discrepancy_check(bent, [Fraction(1, 2)])
    assert str(info.value) == (
        "shift failed for exponents (1/2): a over F_5 is 3/2, a over Q is 7/2, expected 11/2"
    )


# -- cross-characteristic comparisons ---------------------------------------------


def test_crosschar_monomial_pair_is_tight():
    rep = cross_characteristic_suite(coordinate_ideal(GF(5), 2), 3)
    assert all(c.codim_p == c.codim_q for c in rep.cells)
    assert rep.mld_p == rep.mld_q == 1
    assert rep.lct_p == rep.lct_q == 2


def test_crosschar_frobenius_square_is_strict():
    # over F_2 the generator is (x1 + x2)^2, so from depth 4 on the
    # contact locus is genuinely bigger than its characteristic-zero lift
    rep = cross_characteristic_suite(I(GF(2), 2, "x1^2 + x2^2"), 6)
    by_depth = {c.mvec[0]: c for c in rep.cells}
    assert (by_depth[4].codim_p, by_depth[4].codim_q) == (3, 4)
    assert by_depth[3].codim_p == by_depth[3].codim_q == 3
    assert rep.lct_p == Fraction(2, 3) and rep.lct_q == 1
    assert rep.mld_p == -2 and rep.mld_q == 0
    assert rep.mld_ordered and rep.lct_ordered


def test_crosschar_spec_pair_is_ordered_without_strictness():
    rep = cross_characteristic_suite(I(GF(5), 2, "x1^5 + x2^2"), 4)
    assert all(c.codim_p <= c.codim_q for c in rep.cells)
    assert rep.mld_ordered and rep.lct_ordered


def test_crosschar_cusp_over_f7():
    rep = cross_characteristic_suite(I(GF(7), 2, "x1^2 + x2^3"), 6)
    assert rep.lct_p == rep.lct_q == Fraction(5, 6)
    assert all(c.codim_p <= c.codim_q for c in rep.cells)


def test_crosschar_budget_blowups_are_cells_not_errors():
    rep = cross_characteristic_suite(I(GF(5), 2, "x1^2 + x2^3"), 6, budget=1)
    notes = {c.mvec[0]: c.note for c in rep.cells}
    assert notes == {1: None, 2: None, 3: "budget", 4: "budget", 5: "budget", 6: "budget"}
    # estimates fall back to the cells that did complete
    assert rep.mld_p == 0 and rep.lct_p == 1


def test_crosschar_multi_factor_grid():
    dom = GF(5)
    from towerval.polyring import MultiIdeal

    ma = MultiIdeal([(coordinate_ideal(dom, 2), 1), (I(dom, 2, "x1"), Fraction(1, 2))])
    rep = cross_characteristic_suite(ma, (2, 2))
    assert len(rep.cells) == 8  # 3*3 grid minus the zero vector
    assert rep.mld_ordered


def test_crosschar_rejects_bad_inputs():
    with pytest.raises(errors.RingMismatch):
        cross_characteristic_suite(coordinate_ideal(QQ, 2), 3)
    with pytest.raises(errors.DimensionMismatch):
        cross_characteristic_suite(coordinate_ideal(GF(5), 2), (1, 2))


# -- the corpus --------------------------------------------------------------------


def test_corpus_shape():
    cases = acceptance_corpus()
    assert len(cases) >= 20
    assert {c.n for c in cases} == {2, 3}
    assert {c.p for c in cases} == {5, 101}
    assert len({c.name for c in cases}) == len(cases)
    assert all(1 <= len(c.centers) <= 4 for c in cases)
    assert acceptance_corpus() == cases  # deterministic


def test_corpus_case_replays():
    case = acceptance_corpus()[0]
    t, ideals = build_case(case)
    assert t.n == case.n and t.domain == GF(case.p)
    report = bridge_construct(t, ideals)
    assert report.k_identity_ok and report.v_identity_ok
