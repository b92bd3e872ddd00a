"""Exception types shared across the package."""


class MalformedWordError(ValueError):
    """A braid-word text or letter violates the word format."""


class MalformedGBaseError(ValueError):
    """A g-base text or link list violates the encoding conventions."""


class InternalStateError(RuntimeError):
    """An algorithmic invariant was violated; indicates a bug, not bad input."""


class ResourceLimitError(RuntimeError):
    """A work ceiling was exceeded (g-base lists and oracle images grow exponentially)."""
