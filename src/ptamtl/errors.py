"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ConcatOrderError(ToolkitError):
    """Concatenation attempted with overlapping timestamps."""


class ComputationValidationError(ToolkitError):
    """A computation object does not chain under the machine's step relation."""


class EncodingPreconditionError(ToolkitError):
    """encode() was given a faulty computation or an ill-typed layout."""


class DecodeStructureError(ToolkitError):
    """A timed word does not have the block shape required for decoding."""


class DecodeInsertionError(ToolkitError):
    """Decoding refused: the word contains inserted symbols (width exceeds the
    declared display size)."""


class AlignmentViolationError(ToolkitError):
    """No strictly increasing offset-preserving map exists between two adjacent
    blocks; indicates malformed input or a checker bug."""


class InjectionError(ToolkitError):
    """inject_insertion() got an unusable block or offset, or left the language."""


class ParseError(ToolkitError):
    """Syntax error in one of the text formats."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + location)
        self.line = line
        self.column = column
