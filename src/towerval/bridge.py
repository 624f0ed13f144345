"""Lift towers and ideals from a prime field to the rationals and verify.

The construction appends two extra blow-ups to a given tower: a general
point on the last divisor, then a general point on the divisor that
created.  Both points avoid every other divisor and the zero locus of
each ideal's weak transform, so the discrepancy recursion adds exactly
n - 1 twice and the valuations of the supplied ideals ride along
unchanged.  Lifting the whole configuration coefficient-wise to the
rationals is then supposed to preserve all of it, and this module
checks that it actually does, identity by identity, raising
BridgeIdentityFailed with the offending numbers when anything is off.

Verification failures are hard errors on purpose.  The point of the
exercise is the check itself, so a report object only ever describes a
run in which every identity held.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    BridgeIdentityFailed,
    BudgetExceeded,
    ContainmentBroken,
    DimensionMismatch,
    FirstStepNotOrigin,
    IdealNotAtOrigin,
    RingMismatch,
)
from .invariants import log_discrepancy
from .jets import DEFAULT_GB_BUDGET, contact_cells, contact_codim_at_origin
from .polyring import (
    QQ,
    Ideal,
    MultiIdeal,
    Polynomial,
    lift_to_q,
)
from .tower import (
    CenterSpec,
    Tower,
    blow_up,
    new_tower,
    point_on_divisor_avoiding,
    valuation,
    weak_transform,
)


@dataclass(frozen=True)
class BridgeReport:
    """Everything a successful run produced, raw numbers included.

    The identity booleans are redundant given the raw k and v values on
    purpose: a reader can redo the arithmetic from the report alone.
    """

    n: int
    p: int
    input_divisor: int
    k_e: int
    middle_divisor: int
    k_middle: int
    final_divisor: int
    k_f: int
    point_1: CenterSpec
    point_2: CenterSpec
    lifted_point_1: CenterSpec
    lifted_point_2: CenterSpec
    tower_p: Tower
    tower_q: Tower
    ideals: tuple
    lifted_ideals: tuple
    valuations: tuple  # per factor: (v_E, v_F over F_p, v_F over Q)
    k_identity_ok: bool
    v_identity_ok: bool
    shifted: tuple = ()  # (exponent vector, a over F_p, a over Q)


def lift_tower(t: Tower) -> Tower:
    """Replay a prime-field tower over the rationals, constant by constant.

    Residues lift to their representatives in 0..p-1.  The replay must
    reproduce the containment pattern and the discrepancy of every step,
    and raises ContainmentBroken when it does not.  That happens when a
    nonzero center constant's representative changes the incidences: the
    center then meets a different set of lifted divisors than the residue
    did over F_p (ROADMAP item 5 plans a lift that keeps them).
    """
    if not t.domain.p:
        raise RingMismatch("only towers over a prime field can be lifted")
    out = new_tower(t.n, QQ)
    for step in t.steps:
        center = CenterSpec.make(
            step.center.chart,
            step.center.as_dict(),
            QQ,
        )
        out, did = blow_up(out, center)
        mine, theirs = out.divisor(did), t.divisor(did)
        if mine.contained_in != theirs.contained_in:
            raise ContainmentBroken(
                f"step {did}: lifted center lies on divisors {mine.contained_in}, "
                f"original lay on {theirs.contained_in}"
            )
        if mine.k != theirs.k:
            raise ContainmentBroken(
                f"step {did}: lifted discrepancy {mine.k} != original {theirs.k}"
            )
    return out


def _check_ideals(t: Tower, ideals) -> tuple:
    out = tuple(ideals)
    for a in out:
        if a.domain != t.domain or a.nvars != t.n:
            raise RingMismatch("ideal does not live in the tower's base ring")
        a.require_nonzero()
        for g in a.gens:
            if g.order_at_origin() < 1:
                raise IdealNotAtOrigin(
                    "bridge inputs must vanish at the origin; "
                    f"generator {g.text()} does not"
                )
    return out


def _general_point_blowup(t: Tower, did: int, ideals):
    """Blow up the first point of the divisor clear of everything else."""
    home = t.divisor(did).home_chart
    loci = [weak_transform(t, a, home)[0] for a in ideals]
    others = [d for d in range(1, len(t.steps) + 1) if d != did]
    pt = point_on_divisor_avoiding(t, did, others, loci)
    t2, new_did = blow_up(t, pt)
    return t2, new_did, pt


def bridge_construct(t: Tower, ideals, *, tamper: bool = False) -> BridgeReport:
    """Append the two general-point blow-ups, lift, and verify.

    ``tamper`` deliberately bends one lifted generator by adding the
    characteristic (a different valid pointwise lift, but not the
    coefficient-wise one) so that callers can watch the verification
    refuse it.
    """
    if not t.domain.p:
        raise RingMismatch("bridge runs start over a prime field")
    if not t.first_step_at_origin():
        raise FirstStepNotOrigin("the input tower must start by blowing up the origin")
    ideals = _check_ideals(t, ideals)
    p, n = t.domain.p, t.n

    e_did = t.last_divisor_id()
    k_e = t.divisor(e_did).k

    t2, f1, point_1 = _general_point_blowup(t, e_did, ideals)
    k_f1 = t2.divisor(f1).k
    if k_f1 != (n - 1) + k_e:
        raise BridgeIdentityFailed(
            f"first appended divisor has k={k_f1}, expected {(n - 1) + k_e}; "
            f"point {point_1.as_dict()} cannot have been general"
        )

    t3, f2, point_2 = _general_point_blowup(t2, f1, ideals)
    k_f2 = t3.divisor(f2).k
    if k_f2 != 2 * (n - 1) + k_e:
        raise BridgeIdentityFailed(
            f"second appended divisor has k={k_f2}, expected {2 * (n - 1) + k_e}; "
            f"point {point_2.as_dict()} cannot have been general"
        )

    tq = lift_tower(t3)
    lifted = tuple(lift_to_q(a) for a in ideals)
    if tamper:
        bent = lifted[0].gens[0] + Polynomial.constant(QQ, n, p)
        lifted = (Ideal(QQ, n, (bent,) + lifted[0].gens[1:]),) + lifted[1:]

    k_f = tq.divisor(f2).k
    triples = []
    for a, al in zip(ideals, lifted):
        triples.append(
            (valuation(t3, e_did, a), valuation(t3, f2, a), valuation(tq, f2, al))
        )

    k_ok = k_f == 2 * (n - 1) + k_e
    v_ok = all(ve == vp == vq for ve, vp, vq in triples)
    if not (k_ok and v_ok):
        raise BridgeIdentityFailed(
            f"lift broke the identities: k_E={k_e}, k_F={k_f} "
            f"(expected {2 * (n - 1) + k_e}); valuation triples "
            f"(v_E, v_F over F_{p}, v_F over Q) = {triples}"
        )

    return BridgeReport(
        n=n,
        p=p,
        input_divisor=e_did,
        k_e=k_e,
        middle_divisor=f1,
        k_middle=k_f1,
        final_divisor=f2,
        k_f=k_f,
        point_1=point_1,
        point_2=point_2,
        lifted_point_1=tq.steps[f1 - 1].center,
        lifted_point_2=tq.steps[f2 - 1].center,
        tower_p=t3,
        tower_q=tq,
        ideals=ideals,
        lifted_ideals=lifted,
        valuations=tuple(triples),
        k_identity_ok=k_ok,
        v_identity_ok=v_ok,
    )


def shifted_log_discrepancy_check(report: BridgeReport, exponent_vectors) -> BridgeReport:
    """Verify the 2(n-1) shift of log discrepancies for each exponent vector.

    Both sides are evaluated from scratch, one over the prime field on
    the input divisor and one over the rationals on the final divisor,
    rather than being derived from the k and v identities already in
    the report.
    """
    shifted = list(report.shifted)
    for evec in exponent_vectors:
        if not isinstance(evec, (tuple, list)):
            evec = (evec,)
        evec = tuple(Fraction(e) for e in evec)
        if len(evec) != len(report.ideals):
            raise DimensionMismatch(
                f"exponent vector {_evec_text(evec)} has {len(evec)} entries for "
                f"{len(report.ideals)} ideals"
            )
        a_p = log_discrepancy(
            report.tower_p, report.input_divisor, MultiIdeal(zip(report.ideals, evec))
        ).a
        a_q = log_discrepancy(
            report.tower_q, report.final_divisor, MultiIdeal(zip(report.lifted_ideals, evec))
        ).a
        if a_q != 2 * (report.n - 1) + a_p:
            raise BridgeIdentityFailed(
                f"shift failed for exponents {_evec_text(evec)}: "
                f"a over F_{report.p} is {a_p}, "
                f"a over Q is {a_q}, expected {2 * (report.n - 1) + a_p}"
            )
        shifted.append((evec, a_p, a_q))
    return replace(report, shifted=tuple(shifted))


def _evec_text(evec) -> str:
    """An exponent vector as the CLI prints it: ``(1/1,1/2)``."""
    return "(" + ",".join(f"{e.numerator}/{e.denominator}" for e in evec) + ")"


# -- cross-characteristic inequalities ----------------------------------------


@dataclass(frozen=True)
class CrossCharCell:
    mvec: tuple
    codim_p: int | None
    codim_q: int | None
    note: str | None  # "budget" when either side ran out of steps


@dataclass(frozen=True)
class CrossCharReport:
    p: int
    caps: tuple
    cells: tuple
    mld_p: Fraction
    mld_q: Fraction
    lct_p: Fraction | None
    lct_q: Fraction | None

    @property
    def mld_ordered(self) -> bool:
        return self.mld_p <= self.mld_q

    @property
    def lct_ordered(self) -> bool:
        if self.lct_p is None or self.lct_q is None:
            return True
        return self.lct_p <= self.lct_q


def cross_characteristic_suite(ma, caps, budget: int = DEFAULT_GB_BUDGET) -> CrossCharReport:
    """Compare contact codimensions against the canonical lift, cell by cell.

    Asserts codim over F_p <= codim over Q at every depth vector within
    the caps where both sides finished inside the budget, and reports
    the mld and lct estimates those shared cells induce.  A budget blow
    on one side drops the cell from both minima, keeping the reported
    inequalities honest.
    """
    if isinstance(ma, Ideal):
        ma = MultiIdeal([(ma, 1)])
    r = len(ma.factors)
    if r == 0:
        raise ValueError("nothing to compare for an empty multi-ideal")
    dom = ma.factors[0][0].domain
    if not dom.p:
        raise RingMismatch("the comparison starts from a prime field")
    caps = tuple(caps) if isinstance(caps, (tuple, list)) else (caps,) * r
    if len(caps) != r:
        raise DimensionMismatch(f"{len(caps)} caps for {r} factors")
    n = ma.factors[0][0].nvars
    lifts = {a: lift_to_q(a) for a, _ in ma.factors}

    cells = []
    mld_p, mld_q = Fraction(n), Fraction(n)
    lct_p = lct_q = None
    for mvec, active, weight in contact_cells(ma.factors, caps):
        cp = cq = note = None
        try:
            cp = contact_codim_at_origin(active, budget=budget)
            cq = contact_codim_at_origin([(lifts[a], m) for a, m in active], budget=budget)
        except BudgetExceeded:
            note = "budget"
        cells.append(CrossCharCell(mvec, cp, cq, note))
        if note:
            continue
        if cp > cq:
            raise BridgeIdentityFailed(
                f"contact codimension dropped under lifting at depth {mvec}: "
                f"{cp} over F_{dom.p} vs {cq} over Q"
            )
        mld_p = min(mld_p, cp - weight)
        mld_q = min(mld_q, cq - weight)
        if r == 1:
            zp, zq = Fraction(cp, mvec[0]), Fraction(cq, mvec[0])
            lct_p = zp if lct_p is None else min(lct_p, zp)
            lct_q = zq if lct_q is None else min(lct_q, zq)

    return CrossCharReport(dom.p, caps, tuple(cells), mld_p, mld_q, lct_p, lct_q)


# -- the deterministic corpus ---------------------------------------------------


@dataclass(frozen=True)
class BridgeCase:
    """A replayable bridge input: centers as plain data, ideals as text."""

    name: str
    n: int
    p: int
    centers: tuple  # (chart id, ((var index, int constant), ...)) per step
    ideal_texts: tuple  # tuple of generator-text tuples
    exponent_vectors: tuple


def build_case(case: BridgeCase):
    """Replay a corpus case into a live tower and ideal list."""
    from .polyring import GF, parse_polynomial

    dom = GF(case.p)
    t = new_tower(case.n, dom)
    for chart, constraints in case.centers:
        t, _ = blow_up(t, CenterSpec.make(chart, dict(constraints), dom))
    ideals = tuple(
        Ideal(dom, case.n, [parse_polynomial(s, dom, case.n) for s in texts])
        for texts in case.ideal_texts
    )
    return t, ideals


def _origin(n):
    return tuple((i, 0) for i in range(n))


def _random_sparse_texts(rng, n, count):
    """Generator strings for a random ideal vanishing at the origin."""
    names = [f"x{i + 1}" for i in range(n)]
    out = []
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 3)):
            exps = [0] * n
            for _ in range(rng.randint(1, 4)):
                exps[rng.randrange(n)] += 1
            coef = rng.randint(1, 4)
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps)
                if e
            )
            terms.append(f"{coef}*{mono}")
        out.append(" + ".join(terms))
    return tuple(out)


def acceptance_corpus():
    """The fixed list of bridge cases the acceptance tests run.

    Handcrafted cases pin the worked examples; seeded random cases add
    breadth.  Every case was verified once to pass bridge_construct, so
    the list is load-bearing: changing a seed or a recipe here changes
    what the acceptance suite certifies.
    """
    cases = []

    def add(name, n, p, centers, ideal_texts, evecs):
        cases.append(BridgeCase(name, n, p, tuple(centers), tuple(ideal_texts), tuple(evecs)))

    m2 = ("x1", "x2")
    m3 = ("x1", "x2", "x3")

    add("a2-first-divisor", 2, 5, [(0, _origin(2))], [m2], (1, Fraction(1, 2)))
    add("a3-first-divisor", 3, 5, [(0, _origin(3))], [m3], (1, Fraction(1, 2)))
    add("a2-cusp-on-e2", 2, 5, [(0, _origin(2)), (1, _origin(2))],
        [("x1^2 + x2^3",)], (1, Fraction(1, 2)))
    add("a2-chain-depth3", 2, 101,
        [(0, _origin(2)), (1, _origin(2)), (3, _origin(2))],
        [("x1^2", "x2^3")], (1,))
    add("a3-subspace-step2", 3, 5,
        [(0, _origin(3)), (1, ((0, 0), (1, 0)))],
        [m3], (1, Fraction(1, 2)))
    add("a2-two-ideals", 2, 5, [(0, _origin(2))],
        [m2, ("x1",)], ((1, 2), (1, 1)))
    add("a2-off-divisor-point", 2, 101,
        [(0, _origin(2)), (1, ((0, 1), (1, 0)))],
        [("x1*x2", "x2^2")], (1,))
    add("a3-two-ideals-deep", 3, 101,
        [(0, _origin(3)), (1, _origin(3)), (4, _origin(3))],
        [m3, ("x1^2 + x2*x3",)], ((1, 2),))

    rng = random.Random(90217)
    serial = 0
    for n, p, depth in [
        (2, 5, 2), (2, 5, 1), (2, 101, 3), (2, 101, 4),
        (3, 5, 2), (3, 5, 3), (3, 101, 3), (3, 101, 4),
        (2, 101, 2), (3, 5, 2), (2, 5, 2), (3, 101, 4),
    ]:
        serial += 1
        centers = [(0, _origin(n))]
        chart_count = 1 + n
        last_charts = list(range(1, chart_count))
        for _ in range(depth - 1):
            chart = rng.choice(last_charts)
            if n == 3 and rng.random() < 0.3:
                pair = sorted(rng.sample(range(n), 2))
                constraints = tuple((i, 0) for i in pair)
            else:
                constraints = tuple(
                    (i, rng.choice([0, 0, 1])) for i in range(n)
                )
            centers.append((chart, constraints))
            width = len(constraints)
            last_charts = list(range(chart_count, chart_count + width))
            chart_count += width
        kind = rng.choice(["maximal", "monomial", "sparse"])
        if kind == "maximal":
            texts = [tuple(f"x{i + 1}" for i in range(n))]
        elif kind == "monomial":
            texts = [tuple(
                f"x{i + 1}^{rng.randint(1, 3)}" for i in range(n)
            )]
        else:
            texts = [_random_sparse_texts(rng, n, rng.randint(1, 2))]
        if rng.random() < 0.25:
            texts.append(("x1",))
        evecs = ((1, 2),) if len(texts) == 2 else (1, Fraction(1, 2))
        add(f"random-{serial:02d}-n{n}-p{p}", n, p, centers, texts, evecs)

    return cases
