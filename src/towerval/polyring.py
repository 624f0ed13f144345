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

All coefficient arithmetic on term maps runs in three private kernels:
``_mul_terms`` adds a product into a map (``*``, ``**``, ``scale``,
``substitute`` and the jet expansion in ``jets``), ``_add_into`` adds a
map with a sign (``+``, ``-``, negation and the sum of substituted
terms), and ``_add_multiple`` adds a monomial multiple of a map without
its leading term (the reduction step of ``jets``).  ``Domain`` keeps only
``coerce``, the one canonicaliser (``from_terms``, ``derivative`` and
``evaluate`` end with it), and ``inv``.  ``lift_to_q`` is the one map
between domains (residues 0..p-1 read as rationals), and every other
operation, ``substitute`` included, stays inside one domain.  Nothing
outside this module reduces mod p.  A ``Polynomial`` is built only at
the API boundary, once per result, never for intermediate factors.

No floating point appears anywhere in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add as _add, le as _le, sub as _sub
from typing import Iterable, Sequence

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


class Domain:
    """A coefficient domain: the prime field GF(p), or QQ when ``p`` is None.

    Use the ``GF`` factory and the ``QQ`` singleton instead of calling the
    constructor directly.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):
        raise AttributeError("Domain is immutable")

    # -- structure ------------------------------------------------------

    @property
    def characteristic(self) -> int:
        return self.p or 0

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Domain) and self.p == other.p)

    def __hash__(self):
        return hash(self.p)

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

def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(_add, a, b))


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
    """Sort key of the one canonical monomial order: total degree first,
    ties broken lexicographically with x1 > x2 > ... ."""
    return (sum(a), a)


def default_names(nvars: int) -> list[str]:
    return [f"x{i + 1}" for i in range(nvars)]


class Polynomial:
    """An immutable multivariate polynomial in canonical form."""

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

    def order_at_origin(self) -> int:
        """Min total degree among terms (the vanishing order at 0)."""
        if not self.terms:
            raise ZeroPolynomial("order of the zero polynomial")
        return min(mono_deg(m) for m in self.terms)

    def support(self) -> frozenset:
        return frozenset(self.terms)

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
        _add_into(self.domain, acc, other.terms, 1)
        return Polynomial(self.domain, self.nvars, acc)

    def __neg__(self) -> "Polynomial":
        acc: dict = {}
        _add_into(self.domain, acc, self.terms, -1)
        return Polynomial(self.domain, self.nvars, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        acc = dict(self.terms)
        _add_into(self.domain, acc, other.terms, -1)
        return Polynomial(self.domain, self.nvars, acc)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        terms = _mul_terms(self.domain, self.terms, other.terms, {})
        return Polynomial(self.domain, self.nvars, terms)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return Polynomial.constant(self.domain, self.nvars, 1)
        dom, base, result = self.domain, self.terms, None
        while True:
            if n & 1:
                result = base if result is None else _mul_terms(dom, result, base, {})
            n >>= 1
            if not n:
                return Polynomial(dom, self.nvars, result)
            base = _mul_terms(dom, base, base, {})

    def scale(self, c) -> "Polynomial":
        dom, n = self.domain, self.nvars
        c = dom.coerce(c)
        return Polynomial(dom, n, _mul_terms(dom, self.terms, {(0,) * n: c} if c else {}, {}))

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Apply the ring map x_i -> images[i].

        All images must live in one common ring over ``self``'s domain; that
        ring becomes the ring of the result.  Images over another domain
        raise ``RingMismatch``, as the arithmetic operators do.
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
        powers: dict = {}  # (i, e) -> term map of images[i] ** e, for this call only
        out: dict = {}
        for m, c in self.terms.items():
            piece = None if c == 1 else {unit: c}  # a unit coefficient scales nothing
            for i, e in enumerate(m):
                if e:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = images[i].terms if e == 1 else (images[i] ** e).terms
                        powers[i, e] = pw
                    piece = pw if piece is None else _mul_terms(dom, piece, pw, {})
            _add_into(dom, out, {unit: c} if piece is None else piece, 1)
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

    # -- leading data under the canonical order -------------------------------

    def leading_monomial(self) -> Mono:
        if self.is_zero():
            raise ZeroPolynomial("leading monomial of zero")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Polynomial":
        dom = self.domain
        return self.scale(dom.inv(self.leading_coefficient()))

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
                body = str(mag)
            elif mag == 1:
                body = vars_txt
            else:
                body = f"{mag}*{vars_txt}"
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
    """acc += a * b, in place, and return acc: the one multiplication loop.

    Coefficients are inlined (one ``% p`` per product-and-add over GF(p))
    and a monomial whose coefficient cancels leaves the map at once.  Both
    factors are canonical, so a product of two coefficients is never zero
    and only a monomial already in the map can cancel.
    """
    p = dom.p
    get = acc.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(_add, ma, mb))
            c = ca * cb
            old = get(m)
            if old is not None:
                c += old
            if p:
                c %= p
            if c:
                acc[m] = c
            else:
                del acc[m]
    return acc


def _add_into(dom: Domain, acc: dict, terms: dict, sign: int) -> None:
    """acc += sign * terms, in place; the one accumulation loop.

    ``terms`` is canonical, so only a monomial already in ``acc`` can cancel.
    """
    p = dom.p
    get = acc.get
    for m, c in terms.items():
        if sign < 0:
            c = -c
        old = get(m)
        if old is not None:
            c += old
        if p:
            c %= p
        if c:
            acc[m] = c
        else:
            del acc[m]


def _add_multiple(dom: Domain, acc: dict, c, q: Mono, terms: dict, lm: Mono) -> None:
    """acc += c * x^q * (terms without the term at lm), in place.

    The caller cancels the skipped term itself.  ``c`` is any representative
    of a nonzero coefficient; each sum is reduced as in ``_add_into``.
    """
    p = dom.p
    get = acc.get
    for m, v in terms.items():
        if m != lm:
            m = tuple(map(_add, m, q))
            v = c * v
            old = get(m)
            if old is not None:
                v += old
            if p:
                v %= p
            if v:
                acc[m] = v
            else:
                del acc[m]


class Ideal:
    """A finite generator list in a fixed ring.

    Zero generators are dropped at construction; an empty generator list is
    the zero ideal, which every invariant computation rejects explicitly.
    """

    __slots__ = ("domain", "nvars", "gens")

    def __init__(self, domain: Domain, nvars: int, gens: Iterable[Polynomial]):
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.domain != domain or g.nvars != nvars:
                raise RingMismatch("generator not in the declared ring")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "gens", gens)

    def __setattr__(self, *a):
        raise AttributeError("Ideal is immutable")

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

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.domain == other.domain
            and self.nvars == other.nvars
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.domain, self.nvars, self.gens))

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


class MultiIdeal:
    """A formal product of ideals with positive rational exponents."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable):
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
        object.__setattr__(self, "factors", tuple(out))

    def __setattr__(self, *a):
        raise AttributeError("MultiIdeal is immutable")

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)


# -- parsing --------------------------------------------------------------------

# A parsed power of a base with t >= 2 terms may have comb(e + t - 1, t - 1)
# terms; past this bound, the size of the default Groebner step budget, the
# parser refuses it rather than expand it.  A power c^e of one term over Q
# has up to e times as many bits in its numerator and denominator as c has;
# past the bit bound it is refused too (0, 1 and -1 never grow).
_POWER_TERM_BOUND = 100_000
_POWER_BIT_BOUND = 100_000


def parse_polynomial(text: str, domain: Domain, nvars: int) -> Polynomial:
    """Parse the canonical text syntax into a polynomial.

    Grammar (strict, no implicit multiplication)::

        expr   := [sign] term (sign term)*        sign := '+' | '-'
        term   := factor ('*' factor)*
        factor := atom ['^' INT]
        atom   := NUM | VAR | '(' expr ')'
        NUM    := digits ['/' digits]             (no spaces inside a/b)
        VAR    := 'x' digits                      (1-based, up to nvars)
    """
    tokens = _lex(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", "", len(text))

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
        sign = 1
        if peek()[0] in ("+", "-"):
            sign = -1 if take()[0] == "-" else 1
        out = parse_term().scale(sign)
        while peek()[0] in ("+", "-"):
            s = -1 if take()[0] == "-" else 1
            out = out + parse_term().scale(s)
        return out

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
            if "/" in tok[1]:
                raise ScriptSyntaxError(f"exponent must be an integer at column {tok[2] + 1}")
            e, t = int(tok[1]), len(base.terms)
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
            if "/" in tok[1]:
                num, den = tok[1].split("/")
                value = Fraction(int(num), int(den))
                if value.denominator != 1 and domain.p:
                    raise ConstantNotInField(
                        f"literal {tok[1]} needs rational coefficients"
                    )
                c = int(value) if domain.p else value
            else:
                c = int(tok[1])
            return Polynomial.constant(domain, nvars, c)
        if tok[0] == "var":
            take()
            idx = int(tok[1][1:])
            if not 1 <= idx <= nvars:
                raise ScriptSyntaxError(
                    f"variable {tok[1]} out of range (ring has {nvars} variables)"
                    f" at column {tok[2] + 1}"
                )
            return Polynomial.variable(domain, nvars, idx - 1)
        if tok[0] == "(":
            take()
            inner = parse_expr()
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


def _lex(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            if i < len(text) and text[i] == "/" and i + 1 < len(text) and text[i + 1].isdigit():
                i += 1
                while i < len(text) and text[i].isdigit():
                    i += 1
            tokens.append(("num", text[start:i], start))
            continue
        if ch == "x":
            start = i
            i += 1
            if i >= len(text) or not text[i].isdigit():
                raise ScriptSyntaxError(f"bad variable name at column {start + 1}")
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(("var", text[start:i], start))
            continue
        raise ScriptSyntaxError(f"unexpected character {ch!r} at column {i + 1}")
    return tokens
