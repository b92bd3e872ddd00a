"""Braid-word equality through normal forms of g-base link lists.

Words in the braid group act on a basis of loops around the punctures of a
disk. Each loop is stored as a list of (point, position) links; a generator
acts as a local half-twist rewrite of that list, and four deletion rules
bring the result back to a unique normal form, so braid-word equality
becomes list equality. An independent free-group action double-checks every
verdict.
"""

from .braidword import (
    BraidWord,
    Letter,
    concat,
    format_word,
    inverse,
    parse_word,
    permutation_of_word,
)
from .errors import (
    InternalStateError,
    MalformedGBaseError,
    MalformedWordError,
    ResourceLimitError,
)
from .gbase import (
    GBaseWord,
    Link,
    Violation,
    endpoints_permutation,
    format_gbase,
    parse_gbase,
    standard_gbase,
    validate,
)
from .oracle import oracle_equal, word_image
from .solver import (
    TwistStats,
    apply_letter,
    is_identity,
    normal_form,
    process_word,
    reduce,
    words_equal,
)

__all__ = [
    "BraidWord",
    "GBaseWord",
    "InternalStateError",
    "Letter",
    "Link",
    "MalformedGBaseError",
    "MalformedWordError",
    "ResourceLimitError",
    "TwistStats",
    "Violation",
    "apply_letter",
    "concat",
    "endpoints_permutation",
    "format_gbase",
    "format_word",
    "inverse",
    "is_identity",
    "normal_form",
    "oracle_equal",
    "parse_gbase",
    "parse_word",
    "permutation_of_word",
    "process_word",
    "reduce",
    "standard_gbase",
    "validate",
    "word_image",
    "words_equal",
]
