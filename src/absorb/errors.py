"""Exception types shared across the package."""


class AbsorbError(Exception):
    """Base class for all package-specific errors."""


class LengthNotEvaluable(AbsorbError):
    """Word length is not congruent to 1 mod (arity - 1), so no product exists."""


class NotAssociative(AbsorbError):
    """Operation expected an associative table."""


class NotClosed(AbsorbError):
    """Subset is not closed under the table's operation."""


class NotProperSubuniverse(AbsorbError):
    """Subuniverse equals the full carrier where a proper one is required."""


class BudgetExceeded(AbsorbError):
    """A construction's size passes its cap; raised by core._require_within alone."""


class PreconditionsUnmet(AbsorbError):
    """Operation invoked outside its stated preconditions."""

