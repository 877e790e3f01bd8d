"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for every domain error raised by this package."""


class UniverseError(AlgebraError, ValueError):
    """A universe cannot be formed: duplicate or ambiguous element names."""


class UniverseMismatch(AlgebraError):
    """Two universes were expected to coincide but do not."""

    def __init__(self, left, right, context=""):
        self.left = left
        self.right = right
        where = f" in {context}" if context else ""
        super().__init__(
            f"universe mismatch{where}: {left.name!r} ({len(left)} elements) "
            f"!= {right.name!r} ({len(right)} elements)"
        )


class UnknownElement(AlgebraError):
    """An element identifier does not belong to the universe at hand."""

    def __init__(self, element, where):
        self.element = element
        super().__init__(f"unknown element {element!r} in {where}")


class AxiomViolation(AlgebraError):
    """A structural law failed; carries the law name and the first offender."""

    def __init__(self, law, offender=None, detail=""):
        self.law = law
        self.offender = offender
        msg = f"axiom {law!r} violated"
        if offender is not None:
            msg += f" at {offender!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class PreconditionFailed(AlgebraError):
    """An operation was called on data outside its stated domain."""


class IsMonomorphism(AlgebraError):
    """Raised when a cancellation witness is requested for a mono."""


class BudgetExceeded(AlgebraError):
    """An enumeration would exceed its configured budget."""


class DocumentError(AlgebraError):
    """A document failed to parse or to satisfy its schema."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
