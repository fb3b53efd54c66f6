"""Exception hierarchy shared by all polardeg modules."""


class PolardegError(Exception):
    """Base class for all errors raised by polardeg."""


class FieldMismatchError(PolardegError):
    """Operands live over different fields or different variable counts."""


class ParseError(PolardegError):
    """Input text rejected by the polynomial or weight grammar."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class DegenerateInputError(PolardegError, ValueError):
    """Input violates a mathematical precondition (zero weight, zero form,
    a level out of range, ...)."""


class ResourceLimitError(PolardegError):
    """A configured computation cap (S-pair count, basis size) was exceeded."""


class GenericityError(PolardegError):
    """Random genericity draws kept failing past the retry budget."""
