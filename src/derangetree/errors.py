"""Exception types shared across the package."""


class FormatError(ValueError):
    """Serialized text that cannot be parsed."""


class DomainError(ValueError):
    """A structurally valid value that violates an operation's contract."""


class InternalInvariantError(RuntimeError):
    """A structural guarantee of the construction failed to hold.

    No library code raises it.  It stays public as the contract behind
    exhaustive verification, which records one as a failure instead of
    silently producing a wrong answer, and behind the CLI's exit code 3.
    """


class VerificationLimitError(RuntimeError):
    """An exhaustive verification would exceed the configured size ceiling."""
