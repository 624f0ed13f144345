"""Jet equations, a Groebner engine, and truncated contact-locus estimators.

The geometric quantity everything here feeds is the codimension, at a
finite truncation level, of a contact locus intersected with the fiber of
arcs through the origin.  That codimension turns into a Krull dimension
computation for an explicit polynomial ideal in the jet variables
x_l^(q).  The dimension depends only on the radical, so every coordinate
that a generator is a power of is cut first, at no step; what remains goes
to a small Buchberger implementation in its one monomial order, grevlex.
Over Q the engine keeps primitive integer polynomials and reduces without
dividing.  It returns the basis its pair loop leaves, never interreduced,
and the dimension reads only that basis's leading monomials.  A power
x_l(t)^e of a jet series is built by repeated squaring, and along arcs
through the origin a monomial of degree above the level is skipped, so a
large exponent costs O(log e) products or none.  Most contact cells take a
closed form over the Newton strata that builds no jets, and the rest take the
Groebner route, which the tests also run alone as an independent oracle.

Estimates produced here are upper bounds by construction: enlarging the
truncation cap can only lower them.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mul, neg

from .errors import (
    BudgetExceeded,
    IdealNotAtOrigin,
    MathCheckFailed,
    RingMismatch,
    UnitIdeal,
)
from .polyring import (
    Ideal,
    Polynomial,
    _add_multiple,
    _mul_terms,
    lift_to_q,
    mono_div,
    mono_divides,
    mono_lcm,
)

DEFAULT_GB_BUDGET = 100_000


def grevlex_key(a):
    """Sort key of graded reverse lex, the engine's one monomial order: total
    degree first, ties broken in favour of the smaller exponent in the last
    variable where they differ.  The larger key is the larger monomial."""
    return (sum(a), tuple(map(neg, reversed(a))))


def _descending_key(a):
    """grevlex the other way round, so that a min-heap pops the largest
    monomial first."""
    return (-sum(a), a[::-1])


class StepBudget:
    """Counts Groebner steps; raises once the cap is crossed.

    A step is one pair taken from the pair queue of ``groebner_basis`` and
    reduced, or one reduction step of ``normal_form`` (subtracting a
    multiple of a basis element to cancel a leading term).  Pairs that the
    criteria of ``groebner_basis`` drop cost nothing, and so does the
    dimension path's cut of the coordinates a generator is a power of.
    The strata route spends only the steps of its nondegeneracy tests, on
    the faces it meets before its walk stops (``_strata_codim``); the walk
    itself costs nothing.  Steps do not count coefficient size, which over
    Q grows with them.
    """

    __slots__ = ("cap", "used")

    def __init__(self, cap: int):
        if cap < 0:
            raise ValueError(f"step budget must be >= 0, got {cap}")
        self.cap = cap
        self.used = 0

    def spend(self, amount: int = 1):
        self.used += amount
        if self.used > self.cap:
            raise BudgetExceeded(f"step budget of {self.cap} exhausted")


def _as_budget(budget) -> StepBudget:
    return budget if isinstance(budget, StepBudget) else StepBudget(int(budget))


def _monic(f: Polynomial, lm) -> Polynomial:
    return f.scale(f.domain.inv(f.terms[lm]))


def _engine_form(f: Polynomial, lm) -> Polynomial:
    """f scaled the way the engine keeps a basis element: monic over F_p;
    over Q the primitive integer multiple (integer coefficients without a
    common factor) with a positive coefficient at lm."""
    if f.domain.p:
        return _monic(f, lm)
    den = lcm(*(c.denominator for c in f.terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}
    k = gcd(*ints.values())
    if ints[lm] < 0:
        k = -k
    return Polynomial(f.domain, f.nvars, {m: c // k for m, c in ints.items()})


def _ratio(a, b):
    """(c, k) with c / k = a / b in lowest terms and k > 0, for nonzero
    rationals a and b.  k * a - c * b is zero, so scaling by k and
    subtracting c times cancels a term without dividing, and integer
    coefficients stay integral."""
    if type(a) is int and type(b) is int:
        d = gcd(a, b)
        if b < 0:
            d = -d
        return a // d, b // d
    r = Fraction(a, b)
    return r.numerator, r.denominator


def normal_form(f: Polynomial, basis, budget: StepBudget, lms) -> Polynomial:
    """Fully reduce f against ``basis``; the remainder is exact up to a
    nonzero scalar.

    ``lms`` are the basis elements' leading monomials, which the caller
    keeps.  Over F_p the basis must be monic; over Q it may be any, and
    the engine's own is integral (``_engine_form``).  The remainder is
    built in one mutable term map, whose monomials wait in a heap of
    ``_descending_key``s, pushed as they enter the map.  Each step pops
    the leading term lc * x^lm, takes the first g with x^q * lm(g) = x^lm
    and writes lc / lc(g) = c / k in lowest terms (``_ratio``); it
    multiplies the remainder by k and subtracts c * x^q * g, which is one
    step of ``budget``.  No step divides, so an integer f reduced by an
    integer basis stays integral, and against a monic basis k is 1 and the
    remainder is the exact one.  A popped monomial that has cancelled since
    it was pushed is skipped.
    """
    dom = f.domain
    work = dict(f.terms)
    heap = [(_descending_key(m), m) for m in work]
    heapq.heapify(heap)
    tail: dict = {}
    while heap:
        lm = heapq.heappop(heap)[1]
        lc = work.pop(lm, None)
        if lc is None:
            continue
        for g, glm in zip(basis, lms):
            if mono_divides(glm, lm):
                break
        else:
            tail[lm] = lc
            continue
        budget.spend()
        gc = g.terms[glm]
        if gc != 1:
            lc, k = _ratio(lc, gc)
            if k != 1:
                for terms in (work, tail):
                    for m in terms:
                        terms[m] *= k
        for m in _add_multiple(dom, work, -lc, mono_div(lm, glm), g.terms, glm):
            heapq.heappush(heap, (_descending_key(m), m))
    return Polynomial(dom, f.nvars, tail)


def _spoly(f: Polynomial, g: Polynomial, lf, lg) -> Polynomial:
    """S-polynomial of f and g, whose leading monomials are lf and lg, up
    to a nonzero scalar: with lc(f) / lc(g) = c / k in lowest terms it is
    k * x^(t - lf) * f - c * x^(t - lg) * g, t = lcm(lf, lg).  Integer
    inputs give an integer S-polynomial, monic ones the usual one.  The
    leading terms cancel and are skipped."""
    dom = f.domain
    t = mono_lcm(lf, lg)
    c, k = _ratio(f.terms[lf], g.terms[lg])
    acc: dict = {}
    _add_multiple(dom, acc, k, mono_div(t, lf), f.terms, lf)
    _add_multiple(dom, acc, -c, mono_div(t, lg), g.terms, lg)
    return Polynomial(dom, f.nvars, acc)


def groebner_basis(gens, budget=DEFAULT_GB_BUDGET):
    """Grevlex Groebner basis: Buchberger with the Gebauer-Moeller
    criteria and a hard step budget.

    Each new element h goes through the ``UPDATE`` of Gebauer & Moeller
    (1988):
    - a queued pair (i, j) is dropped when lm(h) divides lcm(i, j) and
      both lcm(i, h) and lcm(h, j) differ from it (criterion B_k);
    - of the new pairs (k, h), one whose lcm another one's properly
      divides is dropped (M), of those sharing an lcm one is kept (F), and
      none is kept where one of them has coprime leading monomials (the
      product criterion), so no coprime pair is ever queued;
    - an element whose leading monomial h's divides makes no new pairs.
    A step is one pair taken from the queue and reduced, or one reduction
    step of ``normal_form``; a pair the criteria drop costs nothing.

    Elements are kept in ``_engine_form``: monic over F_p, primitive
    integer polynomials over Q, so the loop makes no ``Fraction``.
    Deterministic: pairs leave a heap by (grevlex key of the lcm, indices),
    and dropped ones are skipped there.  Returns the basis as the loop
    leaves it, in ``_engine_form`` and in the order found, neither minimal
    nor reduced: its leading monomials span the leading-term ideal, which
    is all the dimension reads.
    """
    budget = _as_budget(budget)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    dom = gens[0].domain
    for g in gens:
        if g.domain != dom or g.nvars != gens[0].nvars:
            raise RingMismatch("generators live in different rings")

    basis, lms = [], []  # lms[k] is the leading monomial of basis[k]
    active = []  # the elements that still make pairs
    queue: list = []  # heap of (grevlex key of the lcm, i, j)
    live: dict = {}  # (i, j) -> lcm, for every queued pair not yet dropped

    def update(f, lm):
        h = len(basis)
        basis.append(f)
        lms.append(lm)
        for (i, j), t in list(live.items()):  # B_k
            if mono_divides(lm, t) and t != mono_lcm(lms[i], lm) and t != mono_lcm(lms[j], lm):
                del live[i, j]
        by_lcm: dict = {}
        for k in active:
            by_lcm.setdefault(mono_lcm(lms[k], lm), []).append(k)
        minimal = []
        for t in sorted(by_lcm, key=sum):  # a proper divisor has a smaller degree
            if any(mono_divides(s, t) for s in minimal):
                continue  # M
            minimal.append(t)
            ks = by_lcm[t]
            if any(not any(map(min, lms[k], lm)) for k in ks):
                continue  # F and the product criterion: a coprime pair has this lcm
            live[ks[0], h] = t
            heapq.heappush(queue, (grevlex_key(t), ks[0], h))
        active[:] = [k for k in active if not mono_divides(lm, lms[k])]
        active.append(h)

    for g in gens:
        lm = max(g.terms, key=grevlex_key)
        g = _engine_form(g, lm)
        if g not in basis:
            update(g, lm)
    while queue:
        _, i, j = heapq.heappop(queue)
        if live.pop((i, j), None) is None:
            continue  # dropped by B_k after it was queued
        budget.spend()
        nf = normal_form(_spoly(basis[i], basis[j], lms[i], lms[j]), basis, budget, lms)
        if not nf.is_zero():
            lm = max(nf.terms, key=grevlex_key)
            update(_engine_form(nf, lm), lm)
    return basis


# -- dimension ------------------------------------------------------------------


def _minimal_supports(lms):
    supports = sorted({frozenset(i for i, e in enumerate(m) if e) for m in lms}, key=sorted)
    out = []
    for s in sorted(supports, key=len):
        if not any(t <= s for t in out):
            out.append(s)
    return out


def _min_hitting_set_size(supports) -> int:
    best = [sum(len(s) for s in supports) + 1]

    def search(remaining, chosen):
        if chosen >= best[0]:
            return
        if not remaining:
            best[0] = chosen
            return
        pivot = min(remaining, key=len)
        for v in sorted(pivot):
            rest = [s for s in remaining if v not in s]
            search(rest, chosen + 1)

    search(supports, 0)
    return best[0]


def ideal_dimension(gens, budget=DEFAULT_GB_BUDGET) -> int:
    """Krull dimension of the quotient by the ideal the generators span.

    The dimension depends only on the radical, and a generator c * x_v^k
    puts x_v in it.  So every such coordinate is cut first: x_v is set to
    0 in every generator, and the cut repeats while it exposes new powers.
    A cut costs no step.  What remains goes to a Groebner basis, and its
    dimension is the largest number of the uncut variables that no leading
    monomial lives entirely inside (via the complement, a minimum hitting
    set).  Those monomials are read off the basis ``groebner_basis``
    returns, which is not interreduced: that would cost steps and leave the
    ideal they span as it is.  The zero ideal has the dimension of the
    whole space; the unit ideal, a nonzero constant among the cut
    generators or a leading monomial 1, is rejected distinctly.  The
    answer does not depend on the monomial order; the engine's grevlex
    gives far smaller bases of jet ideals than grlex (Bayer & Stillman 1987).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("cannot infer the ring from an empty generator list")
    nvars, unit = gens[0].nvars, (0,) * gens[0].nvars
    cut: set = set()
    while True:
        lone = [m for g in gens if len(g.terms) == 1 for m in g.terms]
        if unit in lone:
            raise UnitIdeal("the generators span the whole ring")
        powers = {m.index(max(m)) for m in lone if nvars - m.count(0) == 1}
        if not powers:
            break
        cut |= powers
        gens = [Polynomial(g.domain, g.nvars, {m: c for m, c in g.terms.items()
                                               if not any(m[v] for v in powers)}) for g in gens]
    if not (gens := [g for g in gens if not g.is_zero()]):
        return nvars - len(cut)
    lms = [max(g.terms, key=grevlex_key) for g in groebner_basis(gens, budget)]
    if unit in lms:
        raise UnitIdeal("the generators span the whole ring")
    return nvars - len(cut) - _min_hitting_set_size(_minimal_supports(lms))


def height_of_ideal(a: Ideal, budget=DEFAULT_GB_BUDGET) -> int:
    """Codimension: number of variables minus the dimension."""
    a.require_nonzero()
    return a.nvars - ideal_dimension(a.gens, budget=budget)


def compare_heights(a: Ideal, budget=DEFAULT_GB_BUDGET):
    """Height of a GF(p) ideal against its canonical lift over Q.

    Returns (ht_p, ht_q) and insists on ht_p <= ht_q: lifting can only
    grow the height, so a drop means a bug somewhere and raises.
    """
    a.require_nonzero()
    lifted = lift_to_q(a)
    ht_p = height_of_ideal(a, budget=budget)
    ht_q = height_of_ideal(lifted, budget=budget)
    if ht_p > ht_q:
        raise MathCheckFailed(f"height dropped under lifting: {ht_p} > {ht_q}")
    return ht_p, ht_q


# -- jet equations -----------------------------------------------------------------


class JetSystem(namedtuple("JetSystem", "n level domain coefficients at_origin")):
    """Truncated jet data of an ideal: level m, variables x_l^(q) for
    0 <= q <= m (1 <= q <= m ``at_origin``), and per generator the
    coefficients F^(0), ..., F^(m) of its expansion along
    x_l -> sum_q x_l^(q) t^q (``coefficients``: one tuple of m+1
    polynomials per input generator)."""

    __slots__ = ()

    @property
    def lowest_order(self) -> int:
        """The lowest q with a variable x_l^(q)."""
        return 1 if self.at_origin else 0

    @property
    def nvars(self) -> int:
        return self.n * (self.level + 1 - self.lowest_order)

    def var_index(self, l: int, q: int) -> int:
        lo = self.lowest_order
        return l * (self.level + 1 - lo) + q - lo

    def var_names(self) -> list:
        orders = range(self.lowest_order, self.level + 1)
        return [f"x{l + 1}_{q}" for l in range(self.n) for q in orders]


def jet_equations(a: Ideal, m: int, *, at_origin: bool = False) -> JetSystem:
    """Expand each generator along truncated jets and split off t-powers.

    With ``at_origin`` the expansion runs along arcs through the origin,
    x_l(t) = sum_{q>=1} x_l^(q) t^q, in the ring of the N*m variables
    x_l^(q), q >= 1: F^(0) is the constant term of the generator.
    """
    a.require_nonzero()
    if m < 0:
        raise ValueError("jet level must be >= 0")
    dom = a.domain
    js = JetSystem(n=a.nvars, level=m, domain=dom, coefficients=(), at_origin=at_origin)
    width, lo, jet_nvars = m + 1, js.lowest_order, js.nvars
    unit = (0,) * jet_nvars

    # A series is a list of ``width`` term maps, the coefficients of t^0..t^m.
    def series(c=None):
        return [{} if c is None else {unit: c}] + [{} for _ in range(m)]

    def series_mul(A, B, out):
        """out += A * B truncated after t^m, in place; returns out."""
        for i, ai in enumerate(A):
            if ai:
                for j, bj in enumerate(B[: width - i]):
                    if bj:
                        _mul_terms(dom, ai, bj, out[i + j])
        return out

    power_cache = {
        (l, 1): [{}] * lo
        + [Polynomial.variable(dom, jet_nvars, js.var_index(l, q)).terms for q in range(lo, width)]
        for l in range(js.n)
    }

    def series_power(l, e):
        """x_l(t)^e: the square of x_l(t)^(e/2) for even e, else x_l(t)^(e-1)
        times x_l(t), so O(log e) products; every power built is kept."""
        key = (l, e)
        if key not in power_cache:
            if e % 2:
                power_cache[key] = series_mul(series_power(l, e - 1), power_cache[l, 1], series())
            else:
                half = series_power(l, e // 2)
                power_cache[key] = series_mul(half, half, series())
        return power_cache[key]

    one = series(1)
    out = []
    for g in a.gens:
        acc = series()
        for mono, c in g.terms.items():
            if at_origin and sum(mono) > m:
                continue  # every arc through the origin gives it order above m
            factors = [series_power(l, e) for l, e in enumerate(mono) if e] or [one]
            piece = series(c)
            for f in factors[:-1]:
                piece = series_mul(piece, f, series())
            series_mul(piece, factors[-1], acc)
        out.append(tuple(Polynomial(dom, jet_nvars, terms) for terms in acc))
    return js._replace(coefficients=tuple(out))


# -- contact loci ---------------------------------------------------------------------


def _check_factors(factors):
    if not factors:
        raise ValueError("need at least one (ideal, level) factor")
    for a, m in factors:
        a.require_nonzero()
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"contact level must be a positive integer, got {m!r}")
        if (a.domain, a.nvars) != (factors[0][0].domain, factors[0][0].nvars):
            raise RingMismatch("contact factors live in different rings")


def monomial_contact_codim(factors) -> int:
    """The strata route of monomial factors, at no step.  Nothing in the
    package calls it; it stays bound for the benchmark's tracer."""
    _check_factors(factors)
    if not all(a.is_monomial() for a, _ in factors):
        raise ValueError("fast path needs monomial ideals")
    return _strata_codim(factors, StepBudget(0))


def _by_total(lo: int, caps):
    """The integer vectors v with lo <= v_i <= caps[i], by increasing
    sum(v) and lexicographically within one sum."""

    def with_total(total, caps):
        if len(caps) == 1:
            if lo <= total <= caps[0]:
                yield (total,)
            return
        rest = caps[1:]
        for v in range(max(lo, total - sum(rest)), min(caps[0], total - lo * len(rest)) + 1):
            for tail in with_total(total - v, rest):
                yield (v, *tail)

    if not caps:
        yield ()
        return
    for total in range(lo * len(caps), sum(caps) + 1):
        yield from with_total(total, caps)


def _strata_codim(factors, budget: StepBudget):
    """Codim of a cell with at most one non-monomial factor, principal
    (f, level mf), or None for another cell or a degenerate face of f.

    The arcs through the origin with coordinate orders a in {1..L}^N (a_l = L
    for order at least L) have codim sum(a), and x^w has order <a, w> on
    them, so a monomial factor keeps all of them or none.  So does f when
    its order o = min <a, w> is at least mf.  Otherwise in_a f, the terms of
    weight o, must vanish on the arcs' leading coefficients, which lie in
    the torus: a monomial never does, and a nondegenerate one spends one
    codim more on each of the mf - o conditions (Kouchnirenko 1976; Ein,
    Lazarsfeld & Mustata 2004).  The codim is the least score.

    The walk visits the order vectors by increasing sum(a), and
    lexicographically within one sum, and stops at the first sum that is at
    least the best score so far.  That is exact: a stratum scores at least
    sum(a), and its part of the locus has codim at least sum(a) whether or
    not its face is degenerate, so no stratum left unvisited can go below
    the best.  Only the faces met before the stop are tested, and a
    degenerate one among them returns None.
    """
    others = [(a.gens, m) for a, m in factors if not a.is_monomial()]
    if len(others) > 1 or others and len(others[0][0]) > 1:
        return None
    f, mf = (others[0][0][0].terms, others[0][1]) if others else ({}, 0)
    constraints = [(w, m) for a, m in factors if a.is_monomial() for g in a.gens for w in g.terms]
    dom, n = factors[0][0].domain, factors[0][0].nvars
    L = max(m for _, m in factors)
    faces: dict = {}  # initial form -> whether it is nondegenerate
    best = None
    for vec in _by_total(1, (L,) * n):
        score = sum(vec)
        if best is not None and score >= best:
            break
        if any(sum(map(mul, vec, w)) < m for w, m in constraints):
            continue
        if f:
            weight = {w: sum(map(mul, vec, w)) for w in f}
            o = min(weight.values())
            if o < mf:
                face = frozenset(w for w in f if weight[w] == o)
                if len(face) == 1:
                    continue
                if face not in faces:
                    faces[face] = _nondegenerate(dom, f, face, budget)
                if not faces[face]:
                    return None
                score += mf - o
        if best is None or score < best:
            best = score
    if best is None:
        raise UnitIdeal("contact conditions are unsatisfiable")
    return best


def _nondegenerate(dom, f: dict, face, budget: StepBudget) -> bool:
    """Whether g, the terms of f on ``face``, and its partials have no common
    zero in the torus over ``dom``: (g, dg/dx_l, 1 - y * prod x_l) is (1)."""
    n = len(next(iter(face)))
    g = Polynomial(dom, n + 1, {w + (0,): f[w] for w in face})
    torus = tuple(int(any(w[l] for w in face)) for l in range(n)) + (1,)
    try:
        ideal_dimension([g] + [g.derivative(l) for l in range(n)]
                        + [Polynomial(dom, n + 1, {(0,) * (n + 1): 1, torus: -1})], budget)
    except UnitIdeal:
        return True
    return False


# A CLI session folds lct, mld, notlc and crosschar over the same ideals, so
# contact cells, a pure function of their factors, are kept once per process.
# The memo holds at most _MEMO_SIZE entries and drops its oldest one when full,
# so a long-lived process does not grow without limit.
_MEMO_SIZE = 256
_cell_memo: dict = {}  # factors -> (codim, steps)


def contact_codim_at_origin(factors, budget=DEFAULT_GB_BUDGET) -> int:
    """Codimension of the intersection of the contact loci with the arcs
    through the origin, evaluated at truncation level max(m_i).

    A cell of monomial factors and at most one principal factor takes the
    strata route (``_strata_codim``), which expands no jets and spends only
    the steps of its nondegeneracy tests; an all-monomial cell spends none.
    Any other cell, or one whose walk meets a degenerate face before it
    stops, takes the Groebner route (``groebner_contact_codim``).  Such a
    face has already spent its test's steps, so the cell spends those
    before the Groebner route's.

    Cells are memoised per process, keyed by the factors.  A new cell runs
    on ``budget`` itself and is stored with the steps it spent there.  A
    repeat returns the stored codim and spends those steps on ``budget``,
    so the result, ``budget.used`` and the point where a budget runs out
    are as if the cell were recomputed.  A cell that raises is not stored.
    """
    budget = _as_budget(budget)
    factors = tuple((a, m) for a, m in factors)
    _check_factors(factors)
    hit = _cell_memo.get(factors)
    if hit is not None:
        budget.spend(hit[1])
        return hit[0]
    before = budget.used
    codim = _strata_codim(factors, budget)
    if codim is None:
        codim = groebner_contact_codim(factors, budget)
    if len(_cell_memo) >= _MEMO_SIZE:
        del _cell_memo[next(iter(_cell_memo))]
    _cell_memo[factors] = (codim, budget.used - before)
    return codim


def groebner_contact_codim(factors, budget=DEFAULT_GB_BUDGET) -> int:
    """The Groebner route of ``contact_codim_at_origin``, with no memo and
    no check of the factors; the tests run it alone as the oracle.

    The locus lives in the N*L jet variables with q < L.  On it all
    x_l^(0) vanish, so it is cut out by the coefficients F^(j), j < m_i,
    of factor i's generators expanded along arcs through the origin
    (``at_origin``), an ideal in the N*(L-1) variables x_l^(q),
    1 <= q <= L-1; the codim is N*L minus that ideal's dimension, and its
    steps are steps of ``groebner_basis``.  A cell with no nonzero
    condition has codim N and runs no Groebner basis.
    """
    n = factors[0][0].nvars
    L = max(m for _, m in factors)  # jet variables x_l^(q), 1 <= q <= L-1
    gens = _contact_generators(factors)
    return n * L - (ideal_dimension(gens, budget=budget) if gens else n * (L - 1))


def _contact_generators(factors) -> list:
    """The Groebner input of a contact cell: the nonzero F^(j), j < m_i,
    of factor i's generators expanded along arcs through the origin at
    level max(m_i) - 1.  A nonzero constant among them raises UnitIdeal."""
    L = max(m for _, m in factors)
    gens = []
    for a, m in factors:
        for coeffs in jet_equations(a, L - 1, at_origin=True).coefficients:
            for g in coeffs[:m]:
                if g.is_constant():
                    if g.is_zero():
                        continue
                    raise UnitIdeal("a contact condition is a nonzero constant")
                gens.append(g)
    return gens


# -- estimators ------------------------------------------------------------------------


def contact_cells(factors, cap: int):
    """The depth grid every contact-locus estimator folds over.

    ``factors`` are (ideal, exponent) pairs and ``cap`` is one depth cap
    for all of them.  Yields (mvec, active, weight) for every nonzero depth
    vector m in {0..cap}^r, by total depth and then lexicographically:
    ``active`` holds the (ideal, m_i) pairs with m_i >= 1 and ``weight`` is
    sum(e_i * m_i).  Cells where an active ideal misses the origin are
    skipped: their contact locus through the origin is empty, and exactly
    there ``contact_codim_at_origin`` would raise UnitIdeal.  A zero ideal
    in any position raises ZeroIdeal, and a cap that is not a nonnegative
    int ValueError, before the first cell; this is the estimators' one
    check of their cap.
    """
    for a, _ in factors:
        a.require_nonzero()
    if not isinstance(cap, int) or cap < 0:
        raise ValueError(f"depth caps must be nonnegative integers, got {cap!r}")
    cells = _by_total(0, (cap,) * len(factors))
    next(cells)  # the zero vector
    for mvec in cells:
        active = [(a, m) for (a, _), m in zip(factors, mvec) if m]
        if all(a.vanishes_at_origin() for a, _ in active):
            yield mvec, active, sum(e * m for (_, e), m in zip(factors, mvec))


def mld_estimate(ma, cap: int, budget=DEFAULT_GB_BUDGET, nvars: int | None = None):
    """Truncated minimal log discrepancy bound at the origin.

    Minimizes codim - sum(e_i * m_i) over contact level vectors m in
    {0..cap}^r; the all-zero vector contributes the ambient dimension N.
    The result is an upper bound, non-increasing in cap.  Cells whose
    contact locus is empty are skipped.  Returns (value, minimizing m),
    the lexicographically smallest m on a tie.

    An empty product has no ring attached, so ``nvars`` must be passed for
    that degenerate case (the answer is then just N).
    """
    factors = list(ma)
    if factors:
        n = factors[0][0].nvars
    elif nvars is not None:
        n = nvars
    else:
        raise ValueError("an empty product needs an explicit nvars")
    return min(
        [(Fraction(n), (0,) * len(factors))]
        + [
            (Fraction(contact_codim_at_origin(active, budget=budget) - weight), mvec)
            for mvec, active, weight in contact_cells(factors, cap)
        ]
    )


def lct_estimate_at_origin(a: Ideal, cap: int, budget=DEFAULT_GB_BUDGET):
    """Truncated log canonical threshold bound at the origin.

    min over 1 <= m <= cap of codim(contact >= m through origin) / m.
    Exact in the limit over the rationals; an upper bound in char p.
    Returns (value, minimizing level), the smallest level on a tie.
    """
    a.require_nonzero()
    if not a.vanishes_at_origin():
        raise IdealNotAtOrigin("the ideal's locus must pass through the origin")
    if cap == 0:  # ``contact_cells`` refuses the other bad caps
        raise ValueError(f"cap must be a positive integer, got {cap!r}")
    return min(
        (Fraction(contact_codim_at_origin(active, budget=budget), m), m)
        for (m,), active, _ in contact_cells([(a, 1)], cap)
    )
