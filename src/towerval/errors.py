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


class LiftHypothesisFailed(InputError):
    """The lift from F_p to Q does not meet the bridge's hypothesis.

    The lifted tower must keep every step's containments and discrepancy,
    and each lifted ideal its valuation on the input divisor.  Lifting a
    nonzero center constant to its representative in 0..p-1 can break
    either; the input is then outside what the bridge can check.
    """


# -- failed mathematical checks ---------------------------------------------

class BridgeIdentityFailed(MathCheckFailed):
    """A lifting identity did not verify; the message carries the trace."""


# -- resource errors ---------------------------------------------------------

class BudgetExceeded(ResourceExhausted):
    pass


class GeneralPointNotFound(ResourceExhausted):
    """The deterministic point search exhausted its candidates."""
