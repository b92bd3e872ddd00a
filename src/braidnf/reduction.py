"""Normalization of g-base lists to their unique reduced form.

Four deletion rules, each a homotopy of the encoded paths:

  R1  two adjacent equal links: the path sidesteps a puncture and immediately
      retraces, so both links go;
  R2  (j,+-1) directly before (j,0): a near-pass right next to the endpoint;
  R3  anything strictly between an endpoint and the next separator is debris
      left behind by a twist connector;
  R4  a block of below-passes directly after a separator: a path leaving the
      basepoint may always start with the straight segment instead.

The scan is a single left-to-right pass over a growing output stack: each
incoming link is weighed against the stack top with the rules in the order
above, retrying after every R2 pop, so every newly adjacent pair is
re-examined before anything else happens. One step of retrace is enough and
each link is handled at most twice, which keeps the work linear. Separators
and endpoint links are never deleted, R1 refuses position-0 links outright,
and no rule matches across a separator. The fixpoint is the same whatever
order the rules are applied in (the test suite checks this against a
randomized applier), which is what makes list equality decide braid-word
equality.
"""

from __future__ import annotations

from . import engine
from .gbase import GBaseWord, require_valid


def reduce(gbase: GBaseWord) -> GBaseWord:
    """Reduce a structurally valid (possibly unreduced) g-base to normal form."""
    require_valid(gbase)
    codes, _, _ = engine.reduce_codes(gbase.codes)
    return GBaseWord(gbase.strand_count, codes)
