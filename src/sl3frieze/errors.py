"""Exception hierarchy shared across the package."""


class FriezeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(FriezeError):
    """Arguments violate a documented precondition (range, duplicates, shape)."""


class MalformedFileError(InvalidInputError):
    """A JSON/text input file does not match its documented format, or a file
    cannot be read or written."""


class ConditionViolationError(InvalidInputError):
    """A candidate star graph fails one of the realizability conditions.

    ``condition`` is one of "i".."v".
    """

    def __init__(self, condition: str, message: str):
        super().__init__(f"condition ({condition}): {message}")
        self.condition = condition


class InvalidMoveError(FriezeError):
    """A mutation move cannot be applied to the given family."""


class PreconditionError(FriezeError):
    """A valuation-level precondition (e.g. unitarity at x) does not hold."""


class ZeroPivotError(FriezeError):
    """Exchange would divide by a zero Pluecker value."""


class InconsistentRowsError(FriezeError):
    """The two row recursions disagree; the quiddity rows are corrupted."""


class BudgetExceededError(FriezeError):
    """Mutation search exhausted its expansion budget."""

    def __init__(self, budget: int, expanded: int, message: str = ""):
        detail = message or "search budget exhausted"
        super().__init__(f"{detail} (budget={budget}, expanded={expanded})")
        self.budget = budget
        self.expanded = expanded


class InternalConsistencyError(FriezeError):
    """A guaranteed structural invariant failed; indicates an upstream bug."""
