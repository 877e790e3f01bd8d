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
    """A structural law failed; carries the law name and the first offender.

    The offender may be passed as a zero-argument callable, such as a
    closure over first_difference.  It is then computed on first access
    to `offender` or to the message, so a caller that only reads `law`
    never pays for it; the value, the sorted-least offending pair, and
    the message are the same as when it is passed eagerly.
    """

    def __init__(self, law, offender=None, detail=""):
        super().__init__(law)
        self.law = law
        self.detail = detail
        self._offender = offender

    @property
    def offender(self):
        if callable(self._offender):
            self._offender = self._offender()
        return self._offender

    def __str__(self) -> str:
        msg = f"axiom {self.law!r} violated"
        if self.offender is not None:
            msg += f" at {self.offender!r}"
        if self.detail:
            msg += f": {self.detail}"
        return msg


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
