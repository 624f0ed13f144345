"""Exception hierarchy.

Three branches matter to callers and to the CLI exit-code mapping:

* ``InputError``      -- the request itself is malformed (exit code 2),
* ``MathCheckFailed`` -- a verified identity or inequality does not hold
  (exit code 1); these are never downgraded to warnings,
* ``ResourceExhausted`` -- a search or step budget ran out before an answer
  was reached (exit code 3); distinct from a wrong answer.
"""

from __future__ import annotations


class TowervalError(Exception):
    """Base class for every error raised by this package."""


class InputError(TowervalError):
    """Malformed or out-of-contract input."""


class MathCheckFailed(TowervalError):
    """A mathematical identity that the engine verifies came out false."""


class ResourceExhausted(TowervalError):
    """A budgeted computation hit its cap before completing."""


# -- input errors -----------------------------------------------------------

class NonPrimeModulus(InputError):
    pass


class ZeroIdeal(InputError):
    pass


class ZeroPolynomial(InputError):
    pass


class BadDimension(InputError):
    pass


class Codim1Center(InputError):
    pass


class UnknownChart(InputError):
    pass


class ConstantNotInField(InputError):
    pass


class UnknownDivisor(InputError):
    pass


class UnitIdeal(InputError):
    """The ideal is the whole ring; its locus is empty and has no dimension."""


class IdealNotAtOrigin(InputError):
    pass


class NonMonomialIdeal(InputError):
    pass


class DivisorMissesIdeal(InputError):
    """The divisor has valuation 0 on the ideal and carries no information."""


class FirstStepNotOrigin(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class RingMismatch(InputError):
    pass


class ScriptSyntaxError(InputError):
    """Parse error in the CLI script language, with line/column context."""


class UnknownName(InputError):
    pass


# -- failed mathematical checks ---------------------------------------------

class BridgeIdentityFailed(MathCheckFailed):
    """A lifting identity did not verify; the message carries the trace."""


class ContainmentBroken(MathCheckFailed):
    """A lifted center does not lie on exactly the lifted divisors.

    Fires when a nonzero center constant, lifted to its representative in
    0..p-1, changes which divisors the center lies on.
    """


# -- resource errors ---------------------------------------------------------

class BudgetExceeded(ResourceExhausted):
    pass


class GeneralPointNotFound(ResourceExhausted):
    """The deterministic point search exhausted its candidates."""
