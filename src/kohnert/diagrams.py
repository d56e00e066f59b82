"""Kohnert-style diagram moves with ghosts, closures and their polynomials.

A diagram is a finite set of cells in the positive quadrant, each labelled
'+' (a movable marker) or 'g' (a ghost).  Columns are indexed from 1 going
right, rows from 1 going up, so the southwest corner is (1, 1).  A diagram
is stored as its rows: one string per row, bottom row first, with '.' at an
empty position and no trailing '.' or trailing empty row, so equal diagrams
have equal rows.  Cells given from outside are checked once, on the way in.
Text rendering prints the top row first.

A '+' may move when no occupied cell (of either kind) lies above it in its
column; it goes to the rightmost unoccupied position strictly to its left in
its row.  The plain rule relocates the '+'.  The ghost variant additionally
allows it to relocate while writing a 'g' at the vacated cell; ghosts never
move and block like any occupied cell.  Two diagrams with the same occupied
positions but different '+'/'g' labels are distinct.

Moves are made on integer masks: each row becomes a (plus mask, ghost mask)
pair with bit c - 1 for column c, and ``_moves`` is the one implementation
of the rule for both modes.  The columns with a cell in a higher row are
one int, and a '+' at ``bit`` lands on the top set bit of
``~occupied & (bit - 1)``.  ``successors`` and ``closure`` convert a
diagram to masks once on the way in and back to rows at the boundary.

The column weight of a diagram counts occupied cells (both kinds) per
column.  Ghosts contribute to the weight; dropping them would not reproduce
the generating polynomials this construction is defined by.
``closure_polynomial`` sums b^(ghost count) * x^(column weight) over a
closure without building a Diagram per node: the depth-first walk carries
each node's weight and ghost count, a plain move moving one unit of weight
from its source column to its destination and a ghost move adding one at
the destination and one ghost.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .perms import Composition, Permutation, composition, perm_inverse, permutation
from .poly import Exponent, Polynomial

PLUS = "+"
GHOST = "g"
EMPTY = "."

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
    """Immutable labelled cell set; ``rows`` (see the module docstring) is
    its one field, and equality and hashing use it."""

    __slots__ = ("rows",)

    def __init__(self, cells: Mapping[tuple[int, int], str] | None = None):
        lines: dict[int, dict[int, str]] = {}
        for (col, row), marker in (cells or {}).items():
            if not (isinstance(col, int) and isinstance(row, int)) or col < 1 or row < 1:
                raise ValueError(f"cell ({col}, {row}) outside the positive quadrant")
            if marker not in (PLUS, GHOST):
                raise ValueError(f"bad marker {marker!r}")
            lines.setdefault(row, {})[col] = marker
        self.rows = tuple(
            "".join(line.get(c, EMPTY) for c in range(1, max(line, default=0) + 1))
            for line in (lines.get(r, {}) for r in range(1, max(lines, default=0) + 1))
        )

    @classmethod
    def from_cells(cls, cells: Iterable[tuple[int, int, str]]) -> "Diagram":
        out: dict[tuple[int, int], str] = {}
        for col, row, marker in cells:
            if (col, row) in out:
                raise ValueError(f"duplicate cell ({col}, {row})")
            out[(col, row)] = marker
        return cls(out)

    @property
    def cells(self) -> dict[tuple[int, int], str]:
        """The occupied positions, {(col, row): marker}."""
        rows = enumerate(self.rows, start=1)
        return {(c, r): m for r, line in rows for c, m in enumerate(line, start=1) if m != EMPTY}

    def key(self) -> tuple:
        """The cells sorted by (col, row), the order of ``diagrams --list``."""
        return tuple(sorted(self.cells.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def plus_count(self) -> int:
        return sum(line.count(PLUS) for line in self.rows)

    def ghost_count(self) -> int:
        return sum(line.count(GHOST) for line in self.rows)

    def max_col(self) -> int:
        return max(map(len, self.rows), default=0)

    def max_row(self) -> int:
        return len(self.rows)

    def render(self, cols: int | None = None, rows: int | None = None) -> str:
        """One line per row, top row first; '.' marks an empty position."""
        cols = cols if cols is not None else self.max_col()
        rows = rows if rows is not None else self.max_row()
        if cols == 0 or rows == 0:
            return ""
        padded = self.rows[:rows] + ("",) * (rows - len(self.rows))
        return "\n".join(line[:cols].ljust(cols, EMPTY) for line in reversed(padded))

    def to_json_obj(self) -> dict:
        return {"cells": [[c, r, m] for (c, r), m in self.key()]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Diagram":
        return cls.from_cells((int(c), int(r), m) for c, r, m in obj["cells"])

    def __repr__(self) -> str:
        return f"Diagram({list(self.key())})"


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


def _mode_ghosts(mode: str) -> bool:
    """Whether a move in ``mode`` may leave a ghost behind."""
    if mode not in (KOHNERT, K_KOHNERT):
        raise ValueError(f"unknown move mode {mode!r}")
    return mode == K_KOHNERT


def _masks(diagram: Diagram) -> tuple[tuple[int, int], ...]:
    """The rows as (plus mask, ghost mask) pairs, bit c - 1 for column c."""
    return tuple(
        (
            sum(1 << c for c, m in enumerate(line) if m == PLUS),
            sum(1 << c for c, m in enumerate(line) if m == GHOST),
        )
        for line in diagram.rows
    )


def _diagram(masks: tuple[tuple[int, int], ...]) -> Diagram:
    """The diagram with these row masks.  No move empties a row, so masks
    reached from a diagram have no trailing empty row."""
    d = Diagram.__new__(Diagram)
    d.rows = tuple(
        "".join(
            PLUS if plus >> c & 1 else GHOST if ghost >> c & 1 else EMPTY
            for c in range((plus | ghost).bit_length())
        )
        for plus, ghost in masks
    )
    return d


def _moves(masks: tuple[tuple[int, int], ...], ghost_moves: bool):
    """Every move from the diagram with these row masks, as (successor
    masks, source column, destination column, whether a ghost was left),
    columns counted from 0.  This is the one place the move rule lives."""
    covered = 0  # columns with a cell in a higher row
    for r in range(len(masks) - 1, -1, -1):
        plus, ghost = masks[r]
        occupied = plus | ghost
        movable = plus & ~covered
        covered |= occupied
        while movable:
            bit = movable & -movable
            movable ^= bit
            free = ~occupied & (bit - 1)
            if not free:
                continue
            dest = free.bit_length() - 1
            moved = plus ^ bit | 1 << dest
            head, tail, c = masks[:r], masks[r + 1 :], bit.bit_length() - 1
            yield head + ((moved, ghost),) + tail, c, dest, False
            if ghost_moves:
                yield head + ((moved, ghost | bit),) + tail, c, dest, True


def successors(diagram: Diagram, mode: str = KOHNERT) -> set[Diagram]:
    """The diagrams one move away: per movable '+', the marker relocated
    and, in the ghost mode, also relocated leaving a ghost."""
    ghost_moves = _mode_ghosts(mode)
    return {_diagram(nxt) for nxt, _, _, _ in _moves(_masks(diagram), ghost_moves)}


def _walk(start: Diagram, mode: str, cap: int):
    """Yield (masks, column weight, ghost count) once for every diagram
    reachable from ``start`` (inclusive), depth-first with an explicit
    stack.  The weight is carried through each move rather than read off
    the reached diagram.  Raises ClosureCapError when more than ``cap``
    distinct diagrams appear."""
    ghost_moves = _mode_ghosts(mode)
    node = (_masks(start), diagram_weight(start), start.ghost_count())
    seen = {node[0]}
    stack = [node]
    yield node
    while stack:
        masks, weight, ghosts = stack.pop()
        # Moves only go left and stay inside the start's bounding box; the
        # '+' column sum strictly drops, which forces termination (the
        # closure tests check this on every successor edge).
        for nxt, c, dest, ghosted in _moves(masks, ghost_moves):
            if nxt in seen:
                continue
            if len(seen) >= cap:
                raise ClosureCapError(cap, len(seen))
            seen.add(nxt)
            moved = list(weight)
            moved[dest] += 1
            if ghosted:
                node = (nxt, tuple(moved), ghosts + 1)
            else:
                moved[c] -= 1
                node = (nxt, tuple(moved), ghosts)
            stack.append(node)
            yield node


def closure(
    start: Diagram,
    mode: str = KOHNERT,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> frozenset[Diagram]:
    """All diagrams reachable from ``start`` (inclusive), deduplicated.

    Raises ClosureCapError when more than ``cap`` distinct diagrams appear.
    """
    return frozenset(_diagram(masks) for masks, _, _ in _walk(start, mode, cap))


def closure_polynomial(
    start: Diagram,
    mode: str = KOHNERT,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> Polynomial:
    """``ghost_weighted_sum(closure(start, mode, cap))``, counted during the
    walk without building a Diagram per node; same ClosureCapError."""
    counts = Counter((weight, ghosts) for _, weight, ghosts in _walk(start, mode, cap))
    return Polynomial(counts)


def diagram_weight(diagram: Diagram) -> Exponent:
    """Occupied-cell count per column ('+' and 'g' alike)."""
    counts = [0] * diagram.max_col()
    for line in diagram.rows:
        for c, marker in enumerate(line):
            if marker != EMPTY:
                counts[c] += 1
    return tuple(counts)


def ghost_weighted_sum(diagrams: Iterable[Diagram]) -> Polynomial:
    """Sum of b^(ghost count) * x^(column weight) over the diagrams."""
    return Polynomial(Counter((diagram_weight(d), d.ghost_count()) for d in diagrams))


def j_polynomial(alpha: Composition, cap: int = DEFAULT_CLOSURE_CAP) -> Polynomial:
    """Ghost-weighted sum over the ghost-move closure of the skyline of alpha.

    Setting b = 0 leaves the ghost-free slice, the key polynomial of alpha;
    b = -1 gives the sign-by-ghost-count evaluation.
    """
    return closure_polynomial(skyline(alpha), K_KOHNERT, cap)


def k_polynomial(w: Permutation, cap: int = DEFAULT_CLOSURE_CAP) -> Polynomial:
    """Ghost-weighted sum over the ghost-move closure of the Rothe diagram of w.

    Setting b = 0 leaves the Schubert polynomial of w.
    """
    return closure_polynomial(rothe(w), K_KOHNERT, cap)
