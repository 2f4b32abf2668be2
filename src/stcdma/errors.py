"""Exception types shared across the package."""


class ScenarioError(ValueError):
    """A scenario field is missing, unknown, or violates a constraint."""

    def __init__(self, message, key=None, line=None):
        self.key = key
        self.line = line
        prefix = ""
        if key is not None:
            prefix += f"{key}: "
        if line is not None:
            prefix += f"(line {line}) "
        super().__init__(prefix + message)


class SingularConstraintError(ValueError):
    """The constraint Gram matrix is rank deficient, so no projector exists."""


class ConditioningError(ArithmeticError):
    """A linear solve hit a numerically singular or non-finite matrix."""
