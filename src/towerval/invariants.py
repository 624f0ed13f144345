"""Log discrepancies, lct witnesses, and certificate searches.

Everything in this module reduces to exact arithmetic on two integers
the tower already knows how to produce: the discrepancy k of a divisor
and its valuation v on an ideal.  Reports carry those ingredients next
to the derived rational so every number can be rechecked by eye.

The toric weight search is the one genuinely independent oracle here.
It never touches a jet space, yet on monomial ideals its minimum agrees
with the contact-locus estimate.  Candidate weight vectors are scored
by arithmetic alone; the winner is then realized as an actual tower of
coordinate blow-ups, and the closed-form predictions for k, for the
coordinate valuations and for the ideal's valuation are asserted
against the tower's own answers before the witness is reported.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .errors import (
    BadDimension,
    BudgetExceeded,
    DivisorMissesIdeal,
    IdealNotAtOrigin,
    MathCheckFailed,
    NonMonomialIdeal,
)
from .jets import DEFAULT_GB_BUDGET, contact_cells, contact_codim_at_origin
from .polyring import Domain, Ideal, MultiIdeal, Polynomial
from .tower import CenterSpec, Tower, blow_up, new_tower, valuation, valuation_of_poly


class LogDiscrepancyReport(namedtuple("LogDiscrepancyReport", "divisor k valuations a")):
    """The value a = k - sum(e_i * v_i) + 1 together with its ingredients;
    ``valuations`` holds (factor index, valuation) pairs."""

    __slots__ = ()


class LctWitness(namedtuple("LctWitness", "z k v divisor weights", defaults=(None, None))):
    """An upper bound z = (k + 1)/v for the log canonical threshold.

    Exactly one of ``divisor`` and ``weights`` is set, recording whether
    the bound came from a divisor of an explicit tower or from the toric
    weight search, whose winning weight has been realized by a tower.
    """

    __slots__ = ()


class NotLogCanonicalCertificate(namedtuple("NotLogCanonicalCertificate", "mvec codim value")):
    """A jet-depth vector whose contact locus is too big to be log canonical."""

    __slots__ = ()


def log_discrepancy(t: Tower, did: int, ma: MultiIdeal) -> LogDiscrepancyReport:
    """Exact log discrepancy of a divisor against a multi-ideal."""
    rec = t.divisor(did)
    vals = []
    weighted = Fraction(0)
    for idx, (ideal, e) in enumerate(ma):
        v = valuation(t, did, ideal)
        vals.append((idx, v))
        weighted += e * v
    return LogDiscrepancyReport(did, rec.k, tuple(vals), Fraction(rec.k + 1) - weighted)


def lct_witness(t: Tower, did: int, a: Ideal) -> LctWitness:
    rec = t.divisor(did)
    v = valuation(t, did, a)
    if v == 0:
        raise DivisorMissesIdeal(
            f"divisor {did} has valuation 0 on the ideal and bounds nothing"
        )
    return LctWitness(z=Fraction(rec.k + 1, v), k=rec.k, v=v, divisor=did)


# -- toric weight search ------------------------------------------------------

_TORIC_BOX_BOUND = 100_000  # weights in {1..B}^N: B <= 316 for N = 2, B <= 46 for N = 3


def realize_toric_weight(domain: Domain, w: tuple) -> tuple:
    """Build a tower whose last divisor is the monomial valuation of weight w.

    The walk keeps the coordinates of w in the basis of the current
    chart's rays.  Blowing up the coordinate subspace on the support of
    those coordinates, and passing to the chart of a smallest positive
    coordinate, leaves the coordinate vector nonnegative while strictly
    dropping its sum, so the loop stops, and it can only stop when the
    newest ray is w itself.  Returns (tower, divisor id), once its k is
    sum(w) - 1 and each v(x_j) is w_j.
    """
    n = len(w)
    if any(not isinstance(c, int) or c < 1 for c in w):
        raise ValueError(f"weights must be positive integers, got {w!r}")
    if math.gcd(*w) != 1:
        raise ValueError(f"weight vector {w!r} is not primitive")
    t = new_tower(n, domain)
    cid = 0
    lam = list(w)
    did = None
    while sorted(lam) != [0] * (n - 1) + [1]:
        support = tuple(i for i in range(n) if lam[i] > 0)
        pivot = min(i for i in support if lam[i] == min(lam[j] for j in support))
        t, did = blow_up(t, CenterSpec.make(cid, dict.fromkeys(support, 0), domain))
        cid = t.steps[-1].chart_ids[support.index(pivot)]
        for i in support:
            if i != pivot:
                lam[i] -= lam[pivot]

    rec = t.divisor(did)
    if rec.k != sum(w) - 1:
        raise MathCheckFailed(
            f"toric realization of {w!r}: tower reports k={rec.k}, formula says {sum(w) - 1}"
        )
    for j in range(n):
        got = valuation_of_poly(t, did, Polynomial.variable(domain, n, j))
        if got != w[j]:
            raise MathCheckFailed(
                f"toric realization of {w!r}: v(x{j + 1})={got}, expected {w[j]}"
            )
    return t, did


def toric_weight_search(a: Ideal, weight_bound: int) -> LctWitness:
    """Best lct bound over monomial valuations with weights up to the bound.

    Each primitive w in {1..weight_bound}^N scores z = sum(w)/v, where v
    is min <w, m> over the generators' exponents m; ties go to the first
    w in lexicographic order.  Only the winner is realized, and its tower
    must give the same v, so the reported (k, v) is produced twice.  A box
    of more than _TORIC_BOX_BOUND weights raises ``BudgetExceeded``.
    """
    a.require_nonzero()
    if a.nvars not in (2, 3):
        raise BadDimension(
            f"toric weight search handles 2 or 3 variables, not {a.nvars}"
        )
    if not a.is_monomial():
        raise NonMonomialIdeal("toric weight search needs a monomial ideal")
    exponents = [next(iter(g.terms)) for g in a.gens]
    if any(sum(m) == 0 for m in exponents):
        raise IdealNotAtOrigin("ideal contains a unit; no weight vector bounds it")
    if not isinstance(weight_bound, int) or weight_bound < 1:
        raise ValueError(f"weight bound must be a positive integer, got {weight_bound!r}")
    if weight_bound ** a.nvars > _TORIC_BOX_BOUND:
        raise BudgetExceeded(f"the toric box for weight bound {weight_bound} in {a.nvars} "
                             f"variables holds more than {_TORIC_BOX_BOUND} weights")

    best = None
    for w in itertools.product(range(1, weight_bound + 1), repeat=a.nvars):
        if math.gcd(*w) != 1:
            continue
        v = min(sum(wj * mj for wj, mj in zip(w, m)) for m in exponents)
        z = Fraction(sum(w), v)
        if best is None or z < best.z:
            best = LctWitness(z=z, k=sum(w) - 1, v=v, weights=w)
    t, did = realize_toric_weight(a.domain, best.weights)
    v_tower = valuation(t, did, a)
    if v_tower != best.v:
        raise MathCheckFailed(
            f"weight {best.weights!r}: grid valuation {best.v} != tower valuation {v_tower}"
        )
    return best


# -- log canonicity certificates ------------------------------------------------

def certify_not_log_canonical(
    ma: MultiIdeal,
    cap: int,
    budget: int = DEFAULT_GB_BUDGET,
) -> NotLogCanonicalCertificate | None:
    """Search for a contact locus that violates the log canonical bound.

    Scans depth vectors by total depth, then lexicographically, and
    returns the first one whose codimension falls short of the weighted
    depth.  A hit proves the minimal log discrepancy is minus infinity.
    ``None`` means no violation within the cap, which decides nothing.
    """
    if cap == 0:  # ``contact_cells`` refuses the other bad caps
        raise ValueError(f"cap must be a positive integer, got {cap!r}")
    for mvec, active, weight in contact_cells(ma, cap):
        codim = contact_codim_at_origin(active, budget=budget)
        if codim < weight:
            return NotLogCanonicalCertificate(mvec, codim, Fraction(codim - weight))
    return None
