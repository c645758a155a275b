"""Exceptions shared across the package."""


class CoxAutoError(Exception):
    """Base class for all package-specific errors."""


class InvalidLabel(CoxAutoError, ValueError):
    """A Coxeter matrix entry or edge label is out of range."""


class InvalidGroupSpec(CoxAutoError, ValueError):
    """A group description (preset name or matrix block) failed to parse."""


class OutOfField(CoxAutoError, ValueError):
    """cos(pi/m) was requested for an m that does not divide the field's N."""


class ShadowViolation(CoxAutoError, RuntimeError):
    """A set claimed to be a Garside shadow failed a structural property."""


class BudgetExceeded(CoxAutoError, RuntimeError):
    """An enumeration outgrew its configured element budget."""


class LowElementsNotShadow(CoxAutoError, RuntimeError):
    """The n-low elements, for some n > 0, are not a Garside shadow.

    Their join closure is a theorem and their suffix closure the dyho1
    conjecture, so a failure is a counterexample to it; no join is decided
    in such a set.
    """

    def __init__(self, level: int, reason: str, witness: tuple[str, ...]):
        detail = f": {' '.join(witness)}" if witness else ""
        super().__init__(f"{level}-low elements are not a Garside shadow "
                         f"({reason}{detail})")
        self.level = level


class UnsupportedRank(CoxAutoError, ValueError):
    """An operation restricted to a specific rank was called outside it."""


class InternalInvariant(CoxAutoError, RuntimeError):
    """An internal consistency check failed; indicates a bug."""
