"""Exception hierarchy shared by all frontal-lab modules.

Three broad families matter for the CLI exit codes: input problems
(bad expressions, malformed files), mathematical preconditions that
fail on valid input (vanishing curvature, non-transversal fields,
non-extendable limits), and verification failures (compatibility or
residual gates that genuinely do not hold for the data).
"""


class FrontalLabError(Exception):
    """Base class for everything raised on purpose by this package."""


# --- input / expression problems (CLI exit code 2) ---------------------

class ExprSyntaxError(FrontalLabError):
    """Source text does not parse; carries a byte offset and expectation."""

    def __init__(self, position, expected, message=None):
        self.position = position
        self.expected = tuple(expected)
        super().__init__(message or f"syntax error at offset {position}, "
                                    f"expected one of {sorted(self.expected)}")


class UnknownIdentifier(FrontalLabError):
    def __init__(self, name, position):
        self.name = name
        self.position = position
        super().__init__(f"unknown identifier {name!r} at offset {position}")


class DomainError(FrontalLabError):
    """Evaluation left the domain of a primitive (sqrt of a negative, ...)."""


class InputError(FrontalLabError):
    """Malformed file, bad grid shape, inconsistent structure data."""


# --- jet / numerics ------------------------------------------------------

class DivisionByZeroValue(FrontalLabError):
    """Quotient of jets whose denominator vanishes at the base point."""


class InsufficientJetOrder(FrontalLabError):
    """An operation requested a derivative beyond the carried order."""


class QuadratureNonConvergent(FrontalLabError):
    """Doubling nodes kept changing the integral beyond tolerance."""


# --- mathematical preconditions (CLI exit code 3) -----------------------

class DegenerateBasis(FrontalLabError):
    """Moving-basis columns numerically dependent at a sampled point."""


class NotAFrontal(FrontalLabError):
    """The supplied basis does not factor the differential of the map."""


class NotTransversal(FrontalLabError):
    """Candidate transversal field lies in the tangent plane somewhere."""


class SingularPoint(FrontalLabError):
    """Operation only defined on the regular set was asked at a singular point."""


class KVanishes(FrontalLabError):
    """Extended Gaussian curvature vanishes; no Blaschke field exists."""


class NotExtendable(FrontalLabError):
    """Directional limits disagree; the quantity has no continuous extension."""


class Indeterminate(FrontalLabError):
    """Limit sequences failed to settle; no verdict either way."""


class SingularIIOmega(FrontalLabError):
    """Second-form matrix singular at a regular point: inconsistent with
    the non-vanishing-curvature hypothesis, reported rather than patched."""


class ConditionFailed(FrontalLabError):
    """Ideal-membership extension criterion does not hold."""


class DegenerateMetric(FrontalLabError):
    """det of the affine fundamental form vanishes where it must not."""


class RankDeficient(FrontalLabError):
    """Least-squares alignment has no unique solution (coplanar data)."""


# Errors that make one sample of a limit probe unusable (the probe drops
# it, as it drops samples on the singular set); anything else is a fault.
UNUSABLE_SAMPLE = (KVanishes, SingularIIOmega, DomainError,
                   DivisionByZeroValue, DegenerateBasis)


# --- verification failures (CLI exit code 4) ----------------------------

class VerificationError(FrontalLabError):
    """A residual gate failed on data that was supposed to satisfy it."""


class CompatibilityViolated(VerificationError):
    """Frame-system compatibility residual or path audit exceeded tolerance."""


class IntegrabilityViolated(VerificationError):
    """Position-system integrability residual or path audit exceeded tolerance."""


class FrameDegenerate(VerificationError):
    """Integrated frame lost invertibility along the way."""
