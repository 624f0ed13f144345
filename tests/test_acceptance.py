"""Acceptance gate: one test per release criterion.

Each test is self-contained and states its own tolerance and runtime
bound, so `pytest -v tests/test_acceptance.py` reads as a checklist.
Everything here is exact arithmetic; there are no float comparisons.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from towerval import (
    CenterSpec,
    Ideal,
    MultiIdeal,
    Polynomial,
    acceptance_corpus,
    blow_up,
    bridge_construct,
    build_case,
    compare_heights,
    coordinate_ideal,
    cross_characteristic_suite,
    errors,
    groebner_basis,
    ideal_dimension,
    lct_estimate_at_origin,
    mld_estimate,
    new_tower,
    parse_polynomial,
    shifted_log_discrepancy_check,
    suspend,
    toric_weight_search,
    valuation,
    valuation_of_poly,
)
from towerval.cli import main
from towerval.polyring import GF, QQ, grlex_key, lift_to_q

from oracles import equivalent_center_specs, verify_groebner

GB_BUDGET = 10**5

# Ideals exercising the characteristic-p side of the contact comparison.
# The first three degenerate in char 2 (the binomial square collapses),
# and the x1^p + x2^2 rows keep a Frobenius power at each listed prime.
CROSSCHAR_SPECS = (
    (2, 2, ("x1^2 + x2^2",)),
    (2, 2, ("x1^2 + x1*x2 + x2^2",)),
    (3, 2, ("x1^2 + x2^2 + x3^2",)),
    (2, 3, ("x1^3 + x2^2",)),
    (2, 5, ("x1^5 + x2^2",)),
    (2, 5, ("x1^2 + x2^3",)),
    (2, 5, ("x1^2 + x2^2",)),
    (2, 5, ("x1", "x2")),
    (2, 5, ("x1^2", "x2^3")),
    (2, 5, ("x1*x2",)),
    (3, 5, ("x1*x2 + x3^2",)),
    (2, 7, ("x1^7 + x2^2",)),
)


def _ideal(n, p, texts):
    dom = GF(p)
    return Ideal(dom, n, [parse_polynomial(s, dom, n) for s in texts])


def _random_poly(rng, dom, n, p, at_origin=False):
    while True:
        terms = {}
        for _ in range(rng.randint(1, 2)):
            while True:
                mono = tuple(rng.randint(0, 2) for _ in range(n))
                if not at_origin or any(mono):
                    break
            terms[mono] = dom.coerce(rng.randint(1, p - 1))
        f = Polynomial.from_terms(dom, n, terms.items())
        if not f.is_zero():
            return f


@pytest.fixture(scope="module")
def corpus_runs():
    """Bridge every corpus case once; later criteria reuse the reports."""
    start = time.monotonic()
    runs = []
    for case in acceptance_corpus():
        t, ideals = build_case(case)
        runs.append((case, t, ideals, bridge_construct(t, ideals)))
    return time.monotonic() - start, runs


def test_criterion_1_bridge_identity_suite(corpus_runs):
    elapsed, runs = corpus_runs
    assert len(runs) >= 20
    for case, t, ideals, rep in runs:
        assert case.n in (2, 3) and case.p in (5, 101)
        assert 1 <= len(case.centers) <= 4
        assert t.first_step_at_origin()
        assert rep.k_f == 2 * (rep.n - 1) + rep.k_e
        assert rep.k_middle == (rep.n - 1) + rep.k_e
        for v_e, v_fp, v_fq in rep.valuations:
            assert v_e == v_fp == v_fq
    assert elapsed < 60.0


def test_criterion_2_shifted_log_discrepancy(corpus_runs):
    _, runs = corpus_runs
    seen = set()
    for case, _, _, rep in runs:
        checked = shifted_log_discrepancy_check(rep, case.exponent_vectors)
        for evec, a_p, a_q in checked.shifted:
            seen.add(evec)
            # recompute both sides from the raw report numbers, bypassing
            # the module's own log-discrepancy path
            lhs = Fraction(rep.k_e + 1) - sum(
                e * v for e, (v, _, _) in zip(evec, rep.valuations)
            )
            rhs = Fraction(rep.k_f + 1) - sum(
                e * v for e, (_, _, v) in zip(evec, rep.valuations)
            )
            assert a_p == lhs and a_q == rhs
            assert a_q == 2 * (rep.n - 1) + a_p
    assert {(Fraction(1),), (Fraction(1, 2),), (Fraction(1), Fraction(2))} <= seen


def test_criterion_3_jets_golden_values():
    start = time.monotonic()
    for dom in (GF(5), QQ):
        for n in (2, 3):
            value, depth = lct_estimate_at_origin(coordinate_ideal(dom, n), cap=4)
            assert value == Fraction(n) and depth == 1
    cusp = _ideal(2, 5, ("x1^2", "x2^3"))
    cusp_q = lift_to_q(cusp)
    for a in (cusp, cusp_q):
        value, depth = lct_estimate_at_origin(a, cap=6)
        assert value == Fraction(5, 6) and depth == 6
    mval, mdepths = mld_estimate(
        MultiIdeal([(coordinate_ideal(QQ, 2), Fraction(1))]), cap=3
    )
    assert mval == Fraction(1) and mdepths == (1,)
    witness = toric_weight_search(cusp_q, 6)
    assert witness.z == Fraction(5, 6) and witness.weights == (3, 2)
    assert witness.z == lct_estimate_at_origin(cusp_q, cap=6)[0]
    assert time.monotonic() - start < 10.0


def test_criterion_4_cross_characteristic_inequality():
    start = time.monotonic()
    assert len(CROSSCHAR_SPECS) >= 10
    strict_cells = 0
    for n, p, texts in CROSSCHAR_SPECS:
        report = cross_characteristic_suite(
            MultiIdeal([(_ideal(n, p, texts), 1)]), 4, budget=GB_BUDGET
        )
        for cell in report.cells:
            assert cell.note is None, (texts, cell)
            assert cell.codim_p <= cell.codim_q, (texts, cell)
            if cell.codim_p < cell.codim_q:
                strict_cells += 1
        assert report.mld_p <= report.mld_q
        assert report.lct_p <= report.lct_q
    # the char-2 squares must actually degenerate, or the comparison
    # would be testing nothing
    assert strict_cells >= 2
    assert time.monotonic() - start < 300.0


def test_criterion_5_oracle_equivalences():
    rng = random.Random(73011)
    dom = GF(5)
    for _ in range(100):
        n = rng.randint(2, 8)
        gens = []
        for _ in range(rng.randint(1, 6)):
            while True:
                mono = tuple(rng.randint(0, 2) for _ in range(n))
                if any(mono):
                    break
            gens.append(
                Polynomial.from_terms(dom, n, [(mono, dom.coerce(rng.randint(1, 4)))])
            )
        supports = [frozenset(i for i, e in enumerate(max(g.terms, key=grlex_key)) if e) for g in gens]
        brute = 0
        for size in range(n, -1, -1):
            if any(
                all(not s <= set(keep) for s in supports)
                for keep in itertools.combinations(range(n), size)
            ):
                brute = size
                break
        assert ideal_dimension(gens, budget=GB_BUDGET) == brute

    inputs = [_ideal(n, p, texts) for n, p, texts in CROSSCHAR_SPECS]
    for case in acceptance_corpus():
        _, ideals = build_case(case)
        inputs.extend(ideals)
    for a in inputs:
        for side in (a, lift_to_q(a)):
            basis = groebner_basis(list(side.gens), budget=GB_BUDGET)
            assert verify_groebner(basis, list(side.gens), budget=GB_BUDGET)

    for p in (5, 101):
        field = GF(p)
        for _ in range(500):
            f = _random_poly(rng, field, rng.choice([2, 3, 4]), p)
            (lifted,) = lift_to_q(Ideal(field, f.nvars, [f])).gens
            assert lifted.domain == QQ
            assert Polynomial.from_terms(field, f.nvars, lifted.terms.items()) == f


def test_criterion_6_structural_invariants(corpus_runs):
    _, runs = corpus_runs
    rng = random.Random(90217)

    for case, t, _, _ in runs:
        dom = GF(case.p)
        did = t.last_divisor_id()
        for _ in range(200):
            f = _random_poly(rng, dom, case.n, case.p)
            g = _random_poly(rng, dom, case.n, case.p)
            assert valuation_of_poly(t, did, f * g) == valuation_of_poly(
                t, did, f
            ) + valuation_of_poly(t, did, g)

    alternates = 0
    for case, t_main, ideals, _ in runs:
        dom = GF(case.p)
        prefix = new_tower(case.n, dom)
        for step_index, (chart, constraints) in enumerate(case.centers):
            spec = CenterSpec.make(chart, dict(constraints), dom)
            did_main = t_main.divisors[step_index].did
            for alt in equivalent_center_specs(prefix, spec):
                t_alt, did_alt = blow_up(prefix, alt)
                assert t_alt.divisor(did_alt).k == t_main.divisor(did_main).k
                for a in ideals:
                    assert valuation(t_alt, did_alt, a) == valuation(t_main, did_main, a)
                alternates += 1
            prefix, _ = blow_up(prefix, spec)
    assert alternates >= 1

    for case, t, ideals, _ in runs:
        for a in ideals:
            suspended, padded = suspend(t, a)
            for rec in t.divisors:
                assert valuation(suspended, rec.did, padded) == valuation(t, rec.did, a)

    for _ in range(50):
        n = rng.choice([2, 3])
        dom = GF(5)
        gens = [_random_poly(rng, dom, n, 5, at_origin=True) for _ in range(rng.randint(1, 3))]
        ht_p, ht_q = compare_heights(Ideal(dom, n, gens), budget=GB_BUDGET)
        assert ht_p <= ht_q


def test_criterion_7_failure_behavior(tmp_path, capsys):
    dom = GF(2)
    t = new_tower(2, dom)
    t, _ = blow_up(t, CenterSpec.make(0, {0: 0, 1: 0}, dom))
    saturating = Ideal(dom, 2, [parse_polynomial("x1*x2 + x2^2", dom, 2)])
    with pytest.raises(errors.GeneralPointNotFound):
        bridge_construct(t, [saturating])

    t5 = new_tower(2, GF(5))
    t5, _ = blow_up(t5, CenterSpec.make(0, {0: 0, 1: 0}, GF(5)))
    with pytest.raises(errors.BridgeIdentityFailed):
        bridge_construct(t5, [coordinate_ideal(GF(5), 2)], tamper=True)

    exhausted = tmp_path / "exhausted.tv"
    exhausted.write_text(
        "ring N=2 p=2\n"
        "ideal a: x1*x2 + x2^2\n"
        "tower T: blowup chart=root point=(0,0)\n"
        "bridge T a\n"
    )
    assert main(["--script", str(exhausted)]) == 3

    tampered = tmp_path / "tampered.tv"
    tampered.write_text(
        "ring N=2 p=5\n"
        "ideal a: x1, x2\n"
        "tower T: blowup chart=root point=(0,0)\n"
        "bridge T a tamper\n"
    )
    assert main(["--script", str(tampered)]) == 1
    capsys.readouterr()
