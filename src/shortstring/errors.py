"""Exception types shared across the package."""


class CycleError(ValueError):
    """The automaton is cyclic; the message names one offending arc."""


class ParseError(ValueError):
    """A lattice or symbol-table text could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyLanguageError(ValueError):
    """The automaton accepts no string at all."""

    stats = None    # the search's Stats when the search raised it


class BudgetExceededError(RuntimeError):
    """A configured state or path budget was exhausted."""

    stats = None    # the search's Stats when the search raised it
