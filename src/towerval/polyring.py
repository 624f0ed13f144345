"""Exact multivariate polynomial arithmetic over F_p and Q.

Everything downstream (towers, jets, Groebner bases, the lifting checks)
reduces to arithmetic in this module, so the representation is kept as
plain as possible:

* a coefficient domain is ``GF(p)`` (p prime, elements the ints
  ``0..p-1``) or ``QQ`` (elements ints and ``fractions.Fraction`` values:
  ``QQ.coerce`` and ``QQ.inv`` return an int for an integral value, and
  a sum or product may still hold an integral ``Fraction``, which equals
  and hashes like its int);
* a monomial is a dense exponent tuple of length ``nvars``;
* a polynomial is an immutable term map {exponent tuple: nonzero
  coefficient}.  Two polynomials are equal iff their term maps are equal,
  which makes canonical forms trivial and hashing cheap.

All coefficient arithmetic on term maps runs in three private kernels.
``_add_multiple`` adds a monomial multiple of a map into an accumulator,
optionally without one term, and returns the monomials that entered: it
is the one accumulation loop.  ``+`` and ``-`` add a +-1 multiple at the
zero shift, negation is ``scale(-1)``, the parser sums each expression's
signed terms into one map, ``substitute`` adds each finished term into
its result, and the reduction step and S-polynomials of ``jets`` skip
the leading term.  ``_mul_terms``, which adds a product into a map
(``*``, ``**``, ``scale``, ``substitute`` and the jet expansion in
``jets``), is a loop of ``_add_multiple`` calls, one per term of its
first factor.  ``_chart_pullback`` pulls a map back through one
blow-up chart by rewriting its exponents (a coordinate with a nonzero
center constant is expanded by the binomial row ``_binomial_row``
builds), and ``_order_on`` gives the order of a map
along a blow-up center (the valuation of the divisor the center makes;
order >= 1 is containment).  Both take the center as the plan
``_center_plan`` splits it into once per blow-up, shared by the step's
charts: the indices whose constant is 0, and the (index, constant) pairs
whose constant is not.  The pullback kernel is the one pullback of
the package: frames, divisor equations, weak and total transforms all go
through ``tower.Chart.pull``.  ``_specialize`` sets one coordinate of a
map to a constant for the general-point search of ``tower``; at a nonzero
constant it is a loop of ``_add_multiple`` calls.  ``det`` is the one
determinant, for the Jacobian check of ``tower`` and the face minors of
``jets``.  ``substitute``, the
general ring map, is the reference the tests check both kernels against;
nothing else in the package calls it.  ``Domain`` is a namedtuple of one
field, ``p``, and keeps only ``coerce``, the one canonicaliser
(``from_terms``, ``derivative`` and ``evaluate`` end with it), and
``inv``.  ``Ideal`` is a namedtuple too, and a ``MultiIdeal`` is the
tuple of its pairs.
``lift_to_q`` is the one map between domains (residues 0..p-1 read as
rationals), and every other operation, ``substitute`` included, stays
inside one domain.  Nothing outside this module reduces mod p.  A
``Polynomial`` is built only at the API boundary, once per result, never
for intermediate factors.
``read_number`` reads every number written in a script, and
``Polynomial.text`` prints coefficients of any size.

No floating point appears anywhere in the package.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import add as _add, le as _le, sub as _sub

from .errors import (
    BudgetExceeded,
    ConstantNotInField,
    InputError,
    NonPrimeModulus,
    RingMismatch,
    ScriptSyntaxError,
    ZeroIdeal,
    ZeroPolynomial,
)

Mono = tuple  # exponent tuple, one entry per variable


# Miller-Rabin over the twelve prime bases up to 37 decides primality exactly
# below this bound, the least strong pseudoprime to all of them (Sorenson &
# Webster 2017; OEIS A014233); larger moduli are refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_TEST_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Exact for n < _PRIME_TEST_BOUND."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Domain(namedtuple("Domain", "p", defaults=(None,))):
    """A coefficient domain: the prime field GF(p), or QQ when ``p`` is None.

    Use the ``GF`` factory and the ``QQ`` singleton instead of calling the
    constructor directly.
    """

    __slots__ = ()

    @property
    def characteristic(self) -> int:
        return self.p or 0

    def __repr__(self):
        return f"GF({self.p})" if self.p else "QQ"

    # -- element arithmetic ----------------------------------------------

    def coerce(self, c):
        """Return the canonical representative of ``c``, or raise.

        GF(p) accepts ints (reduced mod p); QQ accepts ints and Fractions
        and returns an int exactly when the value is integral.
        """
        if self.p:
            if isinstance(c, bool) or not isinstance(c, int):
                raise ConstantNotInField(f"{c!r} is not an element of {self!r}")
            return c % self.p
        if isinstance(c, bool):
            raise ConstantNotInField(f"{c!r} is not a rational")
        if isinstance(c, int):
            return c
        if isinstance(c, Fraction):
            return c.numerator if c.denominator == 1 else c
        raise ConstantNotInField(f"{c!r} is not a rational")

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, self.p - 2, self.p)
        a = Fraction(1) / a
        return a.numerator if a.denominator == 1 else a


def GF(p: int) -> Domain:
    if isinstance(p, int) and p >= _PRIME_TEST_BOUND:
        raise InputError(
            f"modulus {p} is beyond the certified primality range "
            f"(below {_PRIME_TEST_BOUND})"
        )
    if not isinstance(p, int) or not _is_prime(p):
        raise NonPrimeModulus(f"modulus {p!r} is not a prime")
    return Domain(p)


QQ = Domain()


# -- monomial helpers ---------------------------------------------------------

def mono_deg(a: Mono) -> int:
    return sum(a)


def mono_divides(a: Mono, b: Mono) -> bool:
    """Whether x^a divides x^b."""
    return all(map(_le, a, b))


def mono_div(b: Mono, a: Mono) -> Mono:
    return tuple(map(_sub, b, a))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def grlex_key(a: Mono):
    """Sort key of grlex, the order ``Polynomial.text`` prints terms in:
    total degree first, ties broken lexicographically with x1 > x2 > ... .
    The Groebner engine orders by ``jets.grevlex_key``."""
    return (sum(a), a)


def default_names(nvars: int) -> list[str]:
    return [f"x{i + 1}" for i in range(nvars)]


class Polynomial:
    """An immutable multivariate polynomial in canonical form."""

    # Not a namedtuple: ``_hash`` is filled lazily and ``terms`` is a dict, which a tuple cannot hash.
    __slots__ = ("domain", "nvars", "terms", "_hash")

    def __init__(self, domain: Domain, nvars: int, terms: dict):
        """``terms`` must already be canonical; prefer the classmethods.
        ``_hash`` stays unset until ``__hash__`` first fills it."""
        _set_domain(self, domain)
        _set_nvars(self, nvars)
        _set_terms(self, terms)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, domain: Domain, nvars: int, items: Iterable) -> "Polynomial":
        """Build from (exponent tuple, coefficient) pairs, canonicalizing."""
        acc: dict = {}
        for exps, c in items:
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r} for {nvars} variables")
            c = domain.coerce(c)
            acc[exps] = domain.coerce(acc[exps] + c) if exps in acc else c
        return cls(domain, nvars, {m: c for m, c in acc.items() if c != 0})

    @classmethod
    def zero(cls, domain: Domain, nvars: int) -> "Polynomial":
        return cls(domain, nvars, {})

    @classmethod
    def constant(cls, domain: Domain, nvars: int, c) -> "Polynomial":
        c = domain.coerce(c)
        return cls(domain, nvars, {(0,) * nvars: c} if c != 0 else {})

    @classmethod
    def variable(cls, domain: Domain, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        exps = (0,) * i + (1,) + (0,) * (nvars - i - 1)
        return cls(domain, nvars, {exps: 1})

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_deg(m) == 0 for m in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    def _check_ring(self, other: "Polynomial"):
        if self.domain != other.domain or self.nvars != other.nvars:
            raise RingMismatch(
                f"operands live in different rings: "
                f"{self.domain!r}[{self.nvars}] vs {other.domain!r}[{other.nvars}]"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.domain == other.domain
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.domain, self.nvars, frozenset(self.terms.items())))
            _set_hash(self, h)
            return h

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        acc = dict(self.terms)
        _add_multiple(self.domain, acc, 1, (0,) * self.nvars, other.terms)
        return Polynomial(self.domain, self.nvars, acc)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        acc = dict(self.terms)
        _add_multiple(self.domain, acc, -1, (0,) * self.nvars, other.terms)
        return Polynomial(self.domain, self.nvars, acc)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        terms = _mul_terms(self.domain, self.terms, other.terms, {})
        return Polynomial(self.domain, self.nvars, terms)

    def __pow__(self, n: int) -> "Polynomial":
        """Over F_p, (sum c * x^m)^p = sum c * x^(p * m), so for n = sum d_i * p^i
        this is the product of the F_i^(d_i), each by repeated squaring, where
        F_i is self with every exponent times p^i.  Over Q, n is one digit."""
        if n < 0:
            raise ValueError("negative power")
        dom = self.domain
        p = dom.p if dom.p and n >= dom.p else n + 1  # over Q or below p, n is one digit
        result, frob = {(0,) * self.nvars: 1}, self.terms
        while n:
            n, d = divmod(n, p)
            base = frob
            while d:
                if d & 1:
                    result = _mul_terms(dom, result, base, {})
                d >>= 1
                if d:
                    base = _mul_terms(dom, base, base, {})
            if n:
                frob = {tuple(e * p for e in m): c for m, c in frob.items()}
        return Polynomial(dom, self.nvars, result)

    def scale(self, c) -> "Polynomial":
        dom, n = self.domain, self.nvars
        c = dom.coerce(c)
        return Polynomial(dom, n, _mul_terms(dom, self.terms, {(0,) * n: c} if c else {}, {}))

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Apply the ring map x_i -> images[i].

        All images must live in one common ring over ``self``'s domain; that
        ring becomes the ring of the result.  Images over another domain
        raise ``RingMismatch``, as the arithmetic operators do.  This is the
        plain reference map: each term's product is built one ``_mul_terms``
        per factor and then added into the result by ``_add_multiple`` at
        the zero shift.  The package pulls back through ``_chart_pullback``
        and never calls it.
        """
        if len(images) != self.nvars:
            raise RingMismatch(f"expected {self.nvars} images, got {len(images)}")
        if not images:
            raise RingMismatch("cannot substitute in a ring with no variables")
        dom, tn = self.domain, images[0].nvars
        for g in images:
            if g.domain != dom or g.nvars != tn:
                raise RingMismatch(f"substitution images must live in one ring over {dom!r}")
        unit = (0,) * tn
        out: dict = {}
        for m, c in self.terms.items():
            piece = {unit: c}
            for g, e in zip(images, m):
                for _ in range(e):
                    piece = _mul_terms(dom, piece, g.terms, {})
            _add_multiple(dom, out, 1, unit, piece)
        return Polynomial(dom, tn, out)

    def evaluate(self, point: Sequence):
        """Exact evaluation at a tuple of constants; returns a coefficient."""
        if len(point) != self.nvars:
            raise RingMismatch(f"expected {self.nvars} coordinates, got {len(point)}")
        dom = self.domain
        p = dom.p  # None outside GF(p), where pow(x, e, None) is x ** e
        vals = [dom.coerce(c) for c in point]
        total = 0
        for m, c in self.terms.items():
            for x, e in zip(vals, m):
                if e:
                    c *= pow(x, e, p)
            total += c
        return dom.coerce(total)

    # -- per-variable structure ----------------------------------------------

    def var_min_exponent(self, i: int) -> int:
        """Largest e with x_i^e dividing the polynomial."""
        if self.is_zero():
            raise ZeroPolynomial("x-adic order of the zero polynomial")
        return min(m[i] for m in self.terms)

    def divide_var_power(self, i: int, e: int) -> "Polynomial":
        if e == 0:
            return self
        if any(m[i] < e for m in self.terms):
            raise ValueError(f"not divisible by variable {i} to the power {e}")
        out = {}
        for m, c in self.terms.items():
            mm = list(m)
            mm[i] -= e
            out[tuple(mm)] = c
        return Polynomial(self.domain, self.nvars, out)

    def derivative(self, i: int) -> "Polynomial":
        dom = self.domain
        acc: dict = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            cc = dom.coerce(c * e)
            if cc == 0:
                continue
            mm = list(m)
            mm[i] -= 1
            acc[tuple(mm)] = cc
        return Polynomial(dom, self.nvars, acc)

    # -- printing -------------------------------------------------------------

    def text(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero():
            return "0"
        if names is None:
            names = default_names(self.nvars)
        pieces = []
        for m in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[m]
            vars_txt = "*".join(
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(m)
                if e
            )
            negative = not self.domain.p and c < 0
            mag = -c if negative else c
            if not vars_txt:
                body = _number_text(mag)
            elif mag == 1:
                body = vars_txt
            else:
                body = f"{_number_text(mag)}*{vars_txt}"
            pieces.append(("-" if negative else "+", body))
        sign0, body0 = pieces[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"<{self.domain!r}[{self.nvars}] {self.text()}>"


# The slot descriptors' setters, bound once: ``__setattr__`` raises, and these
# are the only writers of a Polynomial's fields.
_set_domain = Polynomial.domain.__set__
_set_nvars = Polynomial.nvars.__set__
_set_terms = Polynomial.terms.__set__
_set_hash = Polynomial._hash.__set__


def _mul_terms(dom: Domain, a: dict, b: dict, acc: dict) -> dict:
    """acc += a * b, in place, and return acc: one ``_add_multiple`` of
    ``b`` per term of ``a``, whose coefficients may thus be any nonzero
    representatives."""
    for m, c in a.items():
        _add_multiple(dom, acc, c, m, b)
    return acc


def _add_multiple(dom: Domain, acc: dict, c, q: Mono, terms: dict, skip: Mono | None = None) -> list:
    """acc += c * x^q * (terms without the term at skip), in place; returns
    the monomials that entered acc.  ``skip=None`` skips nothing; the
    Groebner steps of ``jets`` skip the leading term and cancel it
    themselves.

    ``c`` is any representative of a nonzero coefficient (-1 over GF(p)
    too); over GF(p) each result is reduced mod p.  A monomial whose
    coefficient cancels leaves acc at once; ``terms`` is canonical, so
    only a monomial already in acc can cancel.
    """
    p = dom.p
    get = acc.get
    entered = []
    for m, v in terms.items():
        if m != skip:
            m = tuple(map(_add, m, q))
            v = c * v
            old = get(m)
            if old is None:
                # c and v are nonzero in a field, so their product is too
                acc[m] = v % p if p else v
                entered.append(m)
                continue
            v += old
            if p:
                v %= p
            if v:
                acc[m] = v
            else:
                del acc[m]
    return entered


_CenterPlan = namedtuple("_CenterPlan", "p flat shifted")


def _center_plan(dom: Domain, center: tuple) -> _CenterPlan:
    """The center given as (index, constant) pairs, split once for the
    kernels: ``p`` (None over QQ), ``flat``, the indices whose constant is
    0, and ``shifted``, the pairs whose constant is not.  A blow-up builds
    one and shares it among its charts."""
    return _CenterPlan(dom.p, tuple([j for j, c in center if not c]),
                       tuple([(j, c) for j, c in center if c]))


def _chart_pullback(terms: dict, pivot: int, plan: _CenterPlan) -> dict:
    """The term map of a blow-up chart's pullback, built without its images.

    ``plan`` is the blown-up center as ``_center_plan`` splits it,
    ``pivot`` among its indices.  The ring map is x_pivot -> c_pivot + u_pivot,
    x_j -> c_j + u_pivot*u_j for the other constrained j, and x_j -> u_j
    off the center.  Each term's exponent tuple is rewritten: u_pivot takes
    the degree over the constrained coordinates whose constant is 0, and
    only a coordinate with a nonzero constant is expanded, binomially, by
    the row ``_binomial_row`` builds for it: one choice of k_j per such
    coordinate gives u_j^k_j (u_pivot^k_pivot for the pivot) times
    u_pivot^(sum of the k_j), and each output monomial is built once, in
    one list.  Sums are reduced as in ``_add_multiple``.  A binomial
    coefficient that vanishes mod p (C(p, k) for 0 < k < p) is not in its
    row, so a product of row entries is never zero and never stored.
    """
    p, flat, shifted = plan.p, plan.flat, plan.shifted
    acc: dict = {}
    if not shifted:  # the rewrite is one-to-one on exponents: nothing sums
        for m, c in terms.items():
            base = list(m)
            base[pivot] = sum([m[j] for j in flat])
            acc[tuple(base)] = c
        return acc
    get = acc.get
    for m, c in terms.items():
        base = list(m)
        low = sum([m[j] for j in flat])
        js, rows = [], []
        for j, cj in shifted:
            e = m[j]
            if e:
                js.append(j)
                rows.append(_binomial_row(p, cj, e))
        for choice in itertools.product(*rows):
            deg, a = low, c
            for j, (k, b) in zip(js, choice):
                base[j] = k
                deg += k
                a *= b
            base[pivot] = deg  # after the loop: the pivot may be one of js
            mono = tuple(base)
            old = get(mono)
            if old is not None:
                a += old
            if p:
                a %= p
            if a:
                acc[mono] = a
            else:
                del acc[mono]
    return acc


def _order_on(terms: dict, plan: _CenterPlan) -> int:
    """The order of the term map along the center ``plan`` splits: its
    least degree in the x_j - c_j.

    A coordinate whose constant is 0 gives its whole exponent, so when all
    are 0, or one term alone has the least such degree, that degree is the
    answer.  Otherwise the shifted coordinates are expanded one degree d at
    a time (u^k in (c + u)^e has coefficient C(e, k) c^(e-k)) up to the
    first d whose part does not cancel: the pivot order of the pullback to
    a chart over the center.
    """
    if not terms:
        raise ZeroPolynomial("order of the zero polynomial along a center")
    p, flat, shifted = plan.p, plan.flat, plan.shifted  # p None over QQ: pow(c, e, None) is c ** e
    lows = [sum([m[j] for j in flat]) for m in terms]
    d = min(lows)
    if not shifted or lows.count(d) == 1:  # nothing can cancel at degree d
        return d
    while True:
        acc: dict = {}
        for (m, c), low in zip(terms.items(), lows):
            parts = [(m, c, d - low)]  # (monomial, coefficient, degree left)
            for j, cj in shifted:
                e = m[j]
                parts = [(q[:j] + (k,) + q[j + 1:], a * math.comb(e, k) * pow(cj, e - k, p), r - k)
                         for q, a, r in parts for k in range(min(e, r) + 1)]
            for q, a, r in parts:
                if not r:
                    acc[q] = acc.get(q, 0) + a
        if any(a % p if p else a for a in acc.values()):
            return d
        d += 1


def _binomial_row(p, c, e: int) -> list:
    """(c + u)^e as (k, coefficient of u^k) pairs, with the coefficients
    that vanish mod p left out; p is None over QQ."""
    row = []
    for k in range(e + 1):
        b = math.comb(e, k) * pow(c, e - k, p)
        if p:
            b %= p
        if b:
            row.append((k, b))
    return row


def _specialize(dom: Domain, terms: dict, j: int, v) -> dict:
    """The term map with x_j set to the constant v (a canonical element of
    ``dom``)."""
    if not v:  # the terms carrying x_j drop out, and the rest keep their monomials
        return {m: c for m, c in terms.items() if not m[j]}
    acc: dict = {}
    for m, c in terms.items():  # c * v^e is nonzero: v is a unit
        _add_multiple(dom, acc, c * pow(v, m[j], dom.p), (0,) * len(m), {m[:j] + (0,) + m[j + 1:]: 1})
    return acc


def det(rows) -> Polynomial:
    """The determinant of a square matrix of polynomials, expanded along its
    first row; a zero entry's cofactor is never expanded."""
    if len(rows) == 1:
        return rows[0][0]
    total = Polynomial.zero(rows[0][0].domain, rows[0][0].nvars)
    for j, entry in enumerate(rows[0]):
        if entry.terms:
            piece = entry * det([row[:j] + row[j + 1:] for row in rows[1:]])
            total = total + (piece if j % 2 == 0 else -piece)
    return total


class Ideal(namedtuple("Ideal", "domain nvars gens")):
    """A finite generator list in a fixed ring.

    Zero generators are dropped at construction; an empty generator list is
    the zero ideal, which every invariant computation rejects explicitly.
    """

    __slots__ = ()

    def __new__(cls, domain: Domain, nvars: int, gens: Iterable[Polynomial]):
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.domain != domain or g.nvars != nvars:
                raise RingMismatch("generator not in the declared ring")
        return super().__new__(cls, domain, nvars, gens)

    def is_zero(self) -> bool:
        return not self.gens

    def require_nonzero(self):
        if self.is_zero():
            raise ZeroIdeal("operation rejects the zero ideal")
        return self

    def is_monomial(self) -> bool:
        return bool(self.gens) and all(len(g.terms) == 1 for g in self.gens)

    def vanishes_at_origin(self) -> bool:
        return all(g.constant_term() == 0 for g in self.gens)

    def __repr__(self):
        return f"<ideal ({', '.join(g.text() for g in self.gens) or '0'})>"


def coordinate_ideal(domain: Domain, nvars: int) -> Ideal:
    """The maximal ideal (x1, ..., xN) at the origin."""
    return Ideal(domain, nvars, [Polynomial.variable(domain, nvars, i) for i in range(nvars)])


def lift_to_q(a: Ideal) -> Ideal:
    """Coefficient-wise lift of a nonzero GF(p) ideal, read in the rationals
    so tower and jet operations apply."""
    a.require_nonzero()
    if not a.domain.p:
        raise RingMismatch("lift_to_q expects a GF(p) ideal")
    # residues 0..p-1 are already canonical rationals
    return Ideal(QQ, a.nvars, [Polynomial(QQ, a.nvars, dict(g.terms)) for g in a.gens])


class MultiIdeal(tuple):
    """A formal product of ideals with positive rational exponents: the
    tuple of its (ideal, Fraction) pairs."""

    __slots__ = ()

    def __new__(cls, factors: Iterable):
        out = []
        ring = None
        for ideal, e in factors:
            e = Fraction(e)
            if e <= 0:
                raise ValueError(f"exponent {e} is not positive")
            if ring is None:
                ring = (ideal.domain, ideal.nvars)
            elif (ideal.domain, ideal.nvars) != ring:
                raise RingMismatch("multi-ideal factors live in different rings")
            out.append((ideal, e))
        return super().__new__(cls, out)


# -- numbers ------------------------------------------------------------------

_NUMBER = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")
_ECHO_BOUND = 40  # a message echoes at most this many characters of a text


def clip(text: str) -> str:
    """``text`` as a one-line message echoes it: past _ECHO_BOUND
    characters, its start and its length."""
    return text if len(text) <= _ECHO_BOUND else f"{text[:_ECHO_BOUND]}... ({len(text)} characters)"


def read_number(text: str, where: str = ""):
    """The value of an ASCII literal ``[+-]?[0-9]+(/[0-9]+)?``: an int, or a
    Fraction when it has a denominator, of any length.  Every number in a
    script is read here.  Any other text or a zero denominator raises
    ScriptSyntaxError; ``where`` (" at column C") ends its message."""
    m = _NUMBER.fullmatch(text)
    if not m:
        raise ScriptSyntaxError(f"bad number {clip(text)!r}{where}")
    num = -_read_digits(m[2]) if m[1] == "-" else _read_digits(m[2])
    if m[3] is None:
        return num
    den = _read_digits(m[3])
    if not den:
        raise ScriptSyntaxError(f"zero denominator in {clip(text)}{where}")
    return Fraction(num, den)


def _read_digits(digits: str) -> int:
    """int(digits) for ASCII digits of any length: past the interpreter's
    limit on the digits ``int`` reads, the two halves are read apart, as
    ``_number_text`` prints them."""
    try:
        return int(digits)
    except ValueError:
        k = len(digits) // 2
        return _read_digits(digits[:-k]) * 10**k + _read_digits(digits[-k:])


def _number_text(c) -> str:
    """``str(c)`` of an int or a Fraction of any size: an int past the
    interpreter's limit on the digits ``str`` prints is printed as the two
    halves of a split by a power of ten."""
    if isinstance(c, Fraction):
        num, den = c.numerator, c.denominator
        return _number_text(num) if den == 1 else f"{_number_text(num)}/{_number_text(den)}"
    try:
        return str(c)
    except ValueError:
        k = c.bit_length() * 3 // 20  # about half the digits: log10(2) < 3/10
        high, low = divmod(abs(c), 10**k)
        return "-" * (c < 0) + _number_text(high) + _number_text(low).zfill(k)


# -- parsing --------------------------------------------------------------------

# A parsed power of a base with t >= 2 terms may have comb(e + t - 1, t - 1)
# terms; past this bound, the size of the default Groebner step budget, the
# parser refuses it rather than expand it.  A power c^e of one term over Q
# has up to e times as many bits in its numerator and denominator as c has;
# past the bit bound it is refused too (0, 1 and -1 never grow).
_POWER_TERM_BOUND = 100_000
_POWER_BIT_BOUND = 100_000
# The parser recurses a few frames per parenthesis, so it refuses nesting
# deeper than this, well inside Python's recursion limit.
_NESTING_BOUND = 100


def parse_polynomial(text: str, domain: Domain, nvars: int) -> Polynomial:
    """Parse the canonical text syntax into a polynomial.

    Grammar (strict, no implicit multiplication)::

        expr   := [sign] term (sign term)*        sign := '+' | '-'
        term   := factor ('*' factor)*
        factor := atom ['^' INT]
        atom   := NUM | VAR | '(' expr ')'
        NUM    := INT ['/' INT]                   (no spaces inside a/b)
        INT    := ASCII digits 0-9
        VAR    := 'x' INT                         (1-based, up to nvars)

    Whitespace is ASCII whitespace.  Parentheses nest at most 100 deep.
    """
    tokens = _lex(text)
    pos = depth = 0
    unit = (0,) * nvars

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", "", len(text), None)

    def take(kind=None):
        nonlocal pos
        tok = peek()
        if kind is not None and tok[0] != kind:
            raise ScriptSyntaxError(
                f"expected {kind} at column {tok[2] + 1}, found {tok[1] or 'end of input'!r}"
            )
        pos += 1
        return tok

    def parse_expr() -> Polynomial:
        acc: dict = {}
        sign = 1
        if peek()[0] in ("+", "-"):
            sign = -1 if take()[0] == "-" else 1
        while True:
            _add_multiple(domain, acc, sign, unit, parse_term().terms)
            if peek()[0] not in ("+", "-"):
                return Polynomial(domain, nvars, acc)
            sign = -1 if take()[0] == "-" else 1

    def parse_term() -> Polynomial:
        out = parse_factor()
        while peek()[0] == "*":
            take()
            out = out * parse_factor()
        return out

    def parse_factor() -> Polynomial:
        start = peek()[2]
        base = parse_atom()
        if peek()[0] == "^":
            take()
            tok = take("num")
            e, t = tok[3], len(base.terms)
            if isinstance(e, Fraction):
                raise ScriptSyntaxError(f"exponent must be an integer at column {tok[2] + 1}")
            growth = None
            if t > 1 and math.comb(e + t - 1, t - 1) > _POWER_TERM_BOUND:
                growth = f"expand to more than {_POWER_TERM_BOUND} terms"
            elif t == 1 and not domain.p:
                (c,) = base.terms.values()
                bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                if bits > 1 and e * bits > _POWER_BIT_BOUND:
                    growth = f"grow a coefficient past {_POWER_BIT_BOUND} bits"
            if growth:
                power = text[start : tok[2] + len(tok[1])]
                raise BudgetExceeded(f"the power {power} may {growth}")
            return base ** e
        return base

    def parse_atom() -> Polynomial:
        tok = peek()
        if tok[0] == "num":
            take()
            c = tok[3]
            if domain.p and isinstance(c, Fraction):
                if c.denominator != 1:
                    raise ConstantNotInField(f"literal {tok[1]} needs rational coefficients")
                c = c.numerator
            return Polynomial.constant(domain, nvars, c)
        if tok[0] == "var":
            take()
            idx = tok[3]
            if not 1 <= idx <= nvars:
                raise ScriptSyntaxError(
                    f"variable {clip(tok[1])} out of range (ring has {nvars} variables)"
                    f" at column {tok[2] + 1}"
                )
            return Polynomial.variable(domain, nvars, idx - 1)
        if tok[0] == "(":
            nonlocal depth
            if depth == _NESTING_BOUND:
                raise ScriptSyntaxError(
                    f"parentheses nested deeper than {_NESTING_BOUND} at column {tok[2] + 1}"
                )
            take()
            depth += 1
            inner = parse_expr()
            depth -= 1
            take(")")
            return inner
        raise ScriptSyntaxError(
            f"unexpected {tok[1] or 'end of input'!r} at column {tok[2] + 1}"
        )

    result = parse_expr()
    tok = peek()
    if tok[0] != "end":
        raise ScriptSyntaxError(f"trailing input {tok[1]!r} at column {tok[2] + 1}")
    return result


# One token per match: a number, a variable, an operator, a run of whitespace,
# or else one character outside the grammar (an 'x' with no digit after it).
_TOKEN = re.compile(
    r"(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<var>x[0-9]+)|(?P<op>[-+*^()])|(?P<space>\s+)|(?P<bad>.)",
    re.ASCII | re.DOTALL,
)


def _lex(text: str):
    """(kind, text, column, value) tokens: the value of a number, the index
    of a variable, None for an operator, which is its own kind."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok, col = m.lastgroup, m[0], m.start()
        if kind == "num":
            tokens.append((kind, tok, col, read_number(tok, f" at column {col + 1}")))
        elif kind == "var":
            tokens.append((kind, tok, col, read_number(tok[1:], f" at column {col + 2}")))
        elif kind == "op":
            tokens.append((tok, tok, col, None))
        elif kind == "bad":
            if tok == "x":
                raise ScriptSyntaxError(f"bad variable name at column {col + 1}")
            raise ScriptSyntaxError(f"unexpected character {tok!r} at column {col + 1}")
    return tokens
