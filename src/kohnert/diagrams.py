"""Kohnert-style diagram moves with ghosts, closures and their polynomials.

A diagram is a finite set of cells in the positive quadrant, each labelled
'+' (a movable marker) or 'g' (a ghost).  Columns are indexed from 1 going
right, rows from 1 going up, so the southwest corner is (1, 1).  Text
rendering prints the top row first.

A '+' may move when no occupied cell (of either kind) lies above it in its
column; it goes to the rightmost unoccupied position strictly to its left in
its row.  The plain rule relocates the '+'.  The ghost variant additionally
allows it to relocate while writing a 'g' at the vacated cell; ghosts never
move and block like any occupied cell.  Two diagrams with the same occupied
positions but different '+'/'g' labels are distinct.

The column weight of a diagram counts occupied cells (both kinds) per
column.  Ghosts contribute to the weight; dropping them would not reproduce
the generating polynomials this construction is defined by.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterable, Mapping

from .perms import Composition, Permutation, composition, perm_inverse, permutation
from .poly import Exponent, Polynomial, trim

PLUS = "+"
GHOST = "g"

KOHNERT = "kohnert"
K_KOHNERT = "k_kohnert"

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


class Diagram:
    """Immutable labelled cell set; equality and hashing use the full labels."""

    __slots__ = ("cells", "_key")

    def __init__(self, cells: Mapping[tuple[int, int], str] | None = None):
        store: dict[tuple[int, int], str] = {}
        for (col, row), marker in (cells or {}).items():
            if col < 1 or row < 1:
                raise ValueError(f"cell ({col}, {row}) outside the positive quadrant")
            if marker not in (PLUS, GHOST):
                raise ValueError(f"bad marker {marker!r}")
            store[(col, row)] = marker
        self.cells = store
        self._key = tuple(sorted(store.items()))

    @classmethod
    def from_cells(cls, cells: Iterable[tuple[int, int, str]]) -> "Diagram":
        out: dict[tuple[int, int], str] = {}
        for col, row, marker in cells:
            if (col, row) in out:
                raise ValueError(f"duplicate cell ({col}, {row})")
            out[(col, row)] = marker
        return cls(out)

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def plus_count(self) -> int:
        return sum(1 for m in self.cells.values() if m == PLUS)

    def ghost_count(self) -> int:
        return sum(1 for m in self.cells.values() if m == GHOST)

    def max_col(self) -> int:
        return max((c for c, _ in self.cells), default=0)

    def max_row(self) -> int:
        return max((r for _, r in self.cells), default=0)

    def render(self, cols: int | None = None, rows: int | None = None) -> str:
        """One line per row, top row first; '.' marks an empty position."""
        cols = cols if cols is not None else self.max_col()
        rows = rows if rows is not None else self.max_row()
        if cols == 0 or rows == 0:
            return ""
        lines = []
        for r in range(rows, 0, -1):
            lines.append("".join(self.cells.get((c, r), ".") for c in range(1, cols + 1)))
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {"cells": [[c, r, m] for (c, r), m in sorted(self.cells.items())]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Diagram":
        return cls.from_cells((int(c), int(r), m) for c, r, m in obj["cells"])

    def __repr__(self) -> str:
        return f"Diagram({sorted(self.cells.items())})"


def skyline(alpha: Composition) -> Diagram:
    """Columns of '+' cells, alpha_i high in column i."""
    a = composition(alpha)
    return Diagram({(i + 1, y): PLUS for i, h in enumerate(a) for y in range(1, h + 1)})


def rothe(w: Permutation) -> Diagram:
    """Inversion diagram: cells (x, y) with y < w(x) and x < w^{-1}(y)."""
    w = permutation(w)
    inv = perm_inverse(w)
    n = len(w)
    cells = {}
    for col in range(1, n + 1):
        for row in range(1, w[col - 1]):
            if col < (inv[row - 1] if row <= len(inv) else row):
                cells[(col, row)] = PLUS
    return Diagram(cells)


def _moves(diagram: Diagram) -> list[tuple[int, int, int]]:
    """All legal moves as (col, row, dest_col) for the moving '+'."""
    cells = diagram.cells
    tops: dict[int, int] = {}
    for col, row in cells:
        if row > tops.get(col, 0):
            tops[col] = row
    out = []
    for col, row in sorted(tops.items()):
        if cells[(col, row)] != PLUS:
            continue
        for dest in range(col - 1, 0, -1):
            if (dest, row) not in cells:
                out.append((col, row, dest))
                break
    return out


def kohnert_successors(diagram: Diagram) -> set[Diagram]:
    """One successor per movable '+': the marker relocated to its destination."""
    out = set()
    for col, row, dest in _moves(diagram):
        cells = dict(diagram.cells)
        del cells[(col, row)]
        cells[(dest, row)] = PLUS
        out.add(Diagram(cells))
    return out


def k_kohnert_successors(diagram: Diagram) -> set[Diagram]:
    """Two successors per movable '+': relocated, and relocated leaving a ghost."""
    out = set()
    for col, row, dest in _moves(diagram):
        cells = dict(diagram.cells)
        del cells[(col, row)]
        cells[(dest, row)] = PLUS
        out.add(Diagram(cells))
        ghost_cells = dict(cells)
        ghost_cells[(col, row)] = GHOST
        out.add(Diagram(ghost_cells))
    return out


def closure(
    start: Diagram,
    mode: str = KOHNERT,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> frozenset[Diagram]:
    """All diagrams reachable from ``start`` (inclusive), deduplicated.

    Breadth-first with canonical-key deduplication.  Raises ClosureCapError
    when more than ``cap`` distinct diagrams appear.
    """
    if mode == KOHNERT:
        successors = kohnert_successors
    elif mode == K_KOHNERT:
        successors = k_kohnert_successors
    else:
        raise ValueError(f"unknown move mode {mode!r}")
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        # Moves only go left and stay inside the start's bounding box; the
        # '+' column sum strictly drops, which forces termination (the
        # closure tests check this on every successor edge).
        for nxt in successors(current):
            if nxt not in seen:
                if len(seen) >= cap:
                    raise ClosureCapError(cap, len(seen))
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def diagram_weight(diagram: Diagram) -> Exponent:
    """Occupied-cell count per column ('+' and 'g' alike)."""
    counts: dict[int, int] = {}
    for col, _ in diagram.cells:
        counts[col] = counts.get(col, 0) + 1
    width = max(counts, default=0)
    return trim(counts.get(c, 0) for c in range(1, width + 1))


def ghost_weighted_sum(diagrams: Iterable[Diagram]) -> Polynomial:
    """Sum of b^(ghost count) * x^(column weight) over the diagrams."""
    return Polynomial.from_counts(
        Counter((diagram_weight(d), d.ghost_count()) for d in diagrams)
    )


def j_polynomial(alpha: Composition, cap: int = DEFAULT_CLOSURE_CAP) -> Polynomial:
    """Ghost-weighted sum over the ghost-move closure of the skyline of alpha.

    Setting b = 0 leaves the ghost-free slice, the key polynomial of alpha;
    b = -1 gives the sign-by-ghost-count evaluation.
    """
    return ghost_weighted_sum(closure(skyline(alpha), K_KOHNERT, cap))


def k_polynomial(w: Permutation, cap: int = DEFAULT_CLOSURE_CAP) -> Polynomial:
    """Ghost-weighted sum over the ghost-move closure of the Rothe diagram of w.

    Setting b = 0 leaves the Schubert polynomial of w.
    """
    return ghost_weighted_sum(closure(rothe(w), K_KOHNERT, cap))
