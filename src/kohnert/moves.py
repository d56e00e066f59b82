"""The move rules of a diagram walk and the cap that stops one.

These are the names a sweep table and the command-line parser read about
walks without walking.  ``diagrams`` walks and re-exports them, so a
process that reads every closure from the cache, or builds none, never
loads ``diagrams``.
"""

from __future__ import annotations

from typing import NamedTuple


class MoveRule(NamedTuple):
    """A move rule: its CLI name, and whether a move may leave a ghost.

    >>> sorted(RULES), K_KOHNERT.ghosts, KOHNERT.ghosts
    (['kkohnert', 'kohnert'], True, False)
    """

    name: str
    ghosts: bool


KOHNERT = MoveRule("kohnert", False)
K_KOHNERT = MoveRule("kkohnert", True)
RULES = {r.name: r for r in (KOHNERT, K_KOHNERT)}

DEFAULT_CLOSURE_CAP = 500_000


class ClosureCapError(RuntimeError):
    """Raised when a closure enumeration exceeds its cap.

    ``partial_count`` holds the number of distinct diagrams found before
    giving up.
    """

    def __init__(self, cap: int, partial_count: int):
        super().__init__(f"closure exceeded cap {cap} (found {partial_count} so far)")
        self.cap = cap
        self.partial_count = partial_count
