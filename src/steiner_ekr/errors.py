"""Shared exception types."""

__all__ = ["BudgetExceeded", "DomainError"]


class DomainError(Exception):
    """Input violates the documented contract of an operation."""


class BudgetExceeded(DomainError):
    """A bounded search hit its explicit case or output budget.

    Raised instead of silently truncating, so a partial result can never be
    mistaken for an exhaustive one.
    """

    def __init__(self, message: str, count: int | None = None):
        super().__init__(message)
        self.count = count
