"""Exception types shared across the package."""


class BdmcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BdmcError):
    """Malformed BDMC or DIMACS input.

    Carries the 1-based line (and column, when known) of the offending token.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class InputError(BdmcError):
    """Caller passed data violating an operation's contract (bad assignment, alien variable, ...)."""


class StructureError(BdmcError):
    """Graph fails a structural requirement (bad parts, a cycle, an unreached node, ...)."""


class PreconditionError(BdmcError):
    """Operation invoked on a graph that does not meet its stated assumptions."""


class BudgetExceededError(BdmcError):
    """Requested exhaustive work exceeds the configured budget."""
