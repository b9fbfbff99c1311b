"""Exception hierarchy.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them to exit codes (input errors -> 2, exhausted or
internal inconsistencies -> 3).
"""


class TorusLabError(Exception):
    """Base class for all library errors."""


class InvariantViolation(TorusLabError, AssertionError):
    """A proved invariant failed; unlike ``assert`` it also runs under -O."""


def invariant(condition, message: str) -> None:
    if not condition:
        raise InvariantViolation(message)


# ---- exact field arithmetic ------------------------------------------------

class DivisionByZero(TorusLabError, ZeroDivisionError):
    pass


class NotInvertible(TorusLabError):
    """Linear system for a field division is singular.

    For a genuinely independent monomial basis this cannot happen; it
    signals that the declared independence of the generators is wrong.
    """


class PrecisionExhausted(TorusLabError):
    """Interval refinement hit its iteration cap before deciding."""


class NotReal(TorusLabError):
    pass


class IncompatibleGenerators(TorusLabError):
    """Two fields declare the same generator name with different data."""


class IndependenceSuspect(TorusLabError):
    """Q-linear independence of a field's monomial basis is in doubt.

    Independence is certified exactly (`exactfield.certify_independence`);
    the subclass UncertifiedBasis names the generator the certificate
    refused and why.
    """


class UncertifiedBasis(IndependenceSuspect):
    """The independence certificate refused a field at one generator."""

    def __init__(self, generator: str, reason: str):
        super().__init__(f"generator {generator!r}: {reason}; the monomial basis "
                         "is not certified Q-linearly independent")
        self.generator = generator
        self.reason = reason


# ---- torus construction ----------------------------------------------------

class DegenerateLattice(TorusLabError):
    pass


class NotSquareRootOfD(TorusLabError):
    pass


class NotAnEndomorphism(TorusLabError):
    pass


class PerfectSquare(TorusLabError):
    pass


# ---- endomorphism rings ----------------------------------------------------

class NotClosed(TorusLabError):
    """A product of basis endomorphisms left the computed Z-span."""


class UnrecognizedStructure(TorusLabError):
    pass


class NotPolarization(TorusLabError):
    pass


class NotStable(TorusLabError):
    """The Rosati image of an endomorphism fell outside the ring."""


class NoSuchElement(TorusLabError):
    pass


class NegativeDiscriminant(TorusLabError):
    """A Rosati-symmetric element has a non-positive discriminant; with a
    genuine polarization this contradicts a proved invariant."""


# ---- Neron-Severi ----------------------------------------------------------

class ScalarD(TorusLabError):
    pass


class NotInND(TorusLabError):
    pass


class NotABasis(TorusLabError):
    pass


class NotRational(TorusLabError):
    pass


class NotInEndo(TorusLabError):
    pass


# ---- example builders ------------------------------------------------------

class SquareProduct(TorusLabError):
    pass


class GenerationFailed(TorusLabError):
    pass


# ---- CLI -------------------------------------------------------------------

class ParseError(TorusLabError):
    pass


class ValidationError(TorusLabError):
    pass
