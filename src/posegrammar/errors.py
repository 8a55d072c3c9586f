"""Exception types shared across the package."""


class PoseGrammarError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PoseGrammarError, ValueError):
    """Malformed input: bad documents, out-of-range values, broken invariants."""


class MissingEntryError(PoseGrammarError, KeyError):
    """A required lookup (score entry, model edge, part id) has no entry.

    str() of a KeyError repr-quotes its argument, which garbles multi-word
    messages, so override it to return the plain message.
    """

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class InfeasibleParseError(PoseGrammarError):
    """A part in the expansion order has no proposals to choose from."""


class DegenerateDataError(PoseGrammarError, ValueError):
    """Too little data to fit the requested model."""
