"""Exception types shared across the package."""


class EmptyPattern(ValueError):
    """Preprocessing was asked for a zero-length pattern."""


class SuffixTooLong(ValueError):
    """A hash scheme needs more trailing elements than the pattern has."""


class CorrectnessMismatch(RuntimeError):
    """Benchmarked algorithms disagreed about a match position."""


class TestFileError(ValueError):
    """A test-case file is malformed (e.g. truncated mid-triple)."""
