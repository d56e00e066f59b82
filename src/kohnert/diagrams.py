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
positions but different '+'/'g' labels are distinct.  The rules themselves
(``MoveRule``, ``KOHNERT``, ``K_KOHNERT``, ``RULES``), ``DEFAULT_CLOSURE_CAP``
and ``ClosureCapError`` live in ``moves`` and are re-exported here, so a
process that only names a rule or catches the cap error never loads this
module.

Moves are made on one int per diagram.  In the bounding box of h rows and
w columns, row r (from 0, bottom first) holds a '+' in column c at bit
r*w + c - 1, so its '+' cells fill bits [r*w, (r+1)*w), and its ghosts sit
at the same bits shifted up by h*w.  A walk goes one frontier at a time:
``_expand`` makes every move from each diagram of a frontier, keeps the
successors not seen before, and returns them as the next frontier.  It is
the one implementation of every ``MoveRule``: the cells with a cell above
them are a few shifts of the occupied bits, and a move is a few big-int
operations.  ``successors`` is one expansion of one diagram.  ``skyline``
and ``rothe`` write their rows directly, ``successors`` and ``closure``
pack a diagram once on the way in and unpack it at the boundary, and the
box's masks and tables are kept for the last few box sizes.

The column weight of a diagram counts occupied cells (both kinds) per
column.  Ghosts contribute to the weight; dropping them would not reproduce
the generating polynomials this construction is defined by.
``closure_polynomial`` sums b^(ghost count) * x^(column weight) over a
closure without building a Diagram per node.  The walk maps each packed
diagram to its packed weight, one int holding the column weights in
byte-wide fields (wider only when a column can hold more than 255 cells)
and the ghost count in the field above them.  The start's packed weight is
read in the same pass that packs it; after that a plain move adds one unit
at the destination column and takes one from the source column, and a
ghost move adds one at the destination and one ghost.  Each distinct
packed weight is decoded once, from its bytes.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Iterable, Mapping

from .moves import DEFAULT_CLOSURE_CAP, K_KOHNERT, KOHNERT, RULES
from .moves import ClosureCapError, MoveRule
from .perms import Composition, Permutation, composition, multiplicities
from .perms import perm_inverse, permutation
from .poly import Exponent, Polynomial, _of, trim

PLUS = "+"
GHOST = "g"
EMPTY = "."


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

    def __repr__(self) -> str:
        return f"Diagram({list(self.key())})"


def _of_rows(rows: Iterable[str]) -> Diagram:
    """The diagram whose ``rows`` are ``rows`` themselves, for rows that are
    in the stored form by construction."""
    d = Diagram.__new__(Diagram)
    d.rows = tuple(rows)
    return d


def skyline(alpha: Composition) -> Diagram:
    """Columns of '+' cells, alpha_i high in column i."""
    a = composition(alpha)
    return _of_rows(
        "".join([PLUS if h >= y else EMPTY for h in a]).rstrip(EMPTY)
        for y in range(1, max(a, default=0) + 1)
    )


def rothe(w: Permutation) -> Diagram:
    """Inversion diagram: cells (x, y) with y < w(x) and x < w^{-1}(y)."""
    w = permutation(w)
    inv = perm_inverse(w)
    # row y holds a cell in each column x left of w^{-1}(y) with w(x) > y
    lines = [
        "".join([PLUS if v > y else EMPTY for v in w[: inv[y - 1] - 1]]).rstrip(EMPTY)
        for y in range(1, len(w) + 1)
    ]
    while lines and not lines[-1]:
        lines.pop()
    return _of_rows(lines)


def _field_width(rows: int) -> int:
    """Bits per column in a packed weight: a byte, unless a column of the
    box can hold more than 255 cells."""
    return 8 if rows < 256 else rows.bit_length()


def _pack(diagram: Diagram) -> tuple[int, int]:
    """The diagram as one int and its packed weight, in one pass.  With h
    rows and w columns, row r's plus mask sits at bits [r*w, (r+1)*w) and
    its ghost mask h*w bits higher.  The packed weight holds the column
    weights in ``_field_width(h)``-bit fields, column 1 lowest, and the
    ghost count in the field above them."""
    rows = diagram.rows
    cols = diagram.max_col()
    field = _field_width(len(rows))
    ghosts_at = len(rows) * cols
    one_ghost = 1 << cols * field
    packed = weight = 0
    for r, line in enumerate(rows):
        for c, marker in enumerate(line):
            if marker == PLUS:
                packed |= 1 << r * cols + c
                weight += 1 << c * field
            elif marker == GHOST:
                packed |= 1 << ghosts_at + r * cols + c
                weight += (1 << c * field) + one_ghost
    return packed, weight


def _unpack(packed: int, rows: int, cols: int) -> Diagram:
    """The diagram a packed int holds in a box of ``rows`` by ``cols``.  No
    move empties a row, so a diagram reached from a start has no trailing
    empty row."""
    full = (1 << cols) - 1
    ghosts_at = rows * cols
    lines = []
    for s in range(0, ghosts_at, cols or 1):
        plus, ghost = packed >> s & full, packed >> ghosts_at + s & full
        lines.append(
            "".join(
                PLUS if plus >> c & 1 else GHOST if ghost >> c & 1 else EMPTY
                for c in range((plus | ghost).bit_length())
            )
        )
    return _of_rows(lines)


@lru_cache(maxsize=64)
def _box(rows: int, cols: int) -> tuple:
    """What ``_expand`` needs of a box of ``rows`` by ``cols``: the mask of
    the plus bits, the shift of the ghost bits, the shifts that OR every
    higher row onto a row, per bit position the lowest bit of its row and
    the unit of its column in a packed weight, and one ghost in a packed
    weight.  A sweep walks many starts in a few boxes, so the last boxes
    are kept."""
    field = _field_width(rows)
    cells = rows * cols
    lifts = []
    span = 1  # shifting down one row shows a row the row above; a lift doubles it
    while span < rows - 1:
        lifts.append(span * cols)
        span *= 2
    row_start = tuple(1 << p - p % cols for p in range(cells))
    unit = tuple(1 << p % cols * field for p in range(cells))
    return (1 << cells) - 1, cells, cols, tuple(lifts), row_start, unit, 1 << cols * field


def _expand(
    frontier: list[int], seen: dict[int, int], box: tuple, rule: MoveRule, cap: float
) -> list[int]:
    """One step of a walk: every move under ``rule`` from each packed
    diagram of ``frontier`` in ``box`` (``_box``).  Each successor not in
    ``seen`` is added to it with its packed weight, and the new ones are
    returned as the next frontier.  Raises ClosureCapError when ``seen``
    would grow past ``cap``.  This is the one place a move rule is applied.

    The cells with a cell above them are the occupied bits shifted down by
    one row and OR-ed down by doubling shifts; the '+' bits outside them
    may move.  A '+' at ``bit`` lands on the top set bit ``dest`` of the
    unoccupied bits between its row's first bit and ``bit``.  The plain
    move is ``packed ^ bit | 1 << dest`` and moves one unit of weight from
    the source column to the destination column; the ghost move also sets
    the vacated cell's ghost bit, and adds one unit at the destination and
    one ghost.  A successor's weight is its parent's plus that change, not
    read off the successor."""
    ghosts = rule.ghosts
    plus_bits, ghosts_at, cols, lifts, row_start, unit, one_ghost = box
    found = []
    for packed in frontier:
        weight = seen[packed]
        plus = packed & plus_bits
        occupied = plus | packed >> ghosts_at
        covered = occupied >> cols
        for lift in lifts:
            covered |= covered >> lift
        movable = plus & ~covered
        vacant = ~occupied
        while movable:
            bit = movable & -movable
            movable ^= bit
            at = bit.bit_length() - 1
            free = vacant & (bit - row_start[at])
            if free:
                dest = free.bit_length() - 1
                moved = packed ^ bit | 1 << dest
                gained = weight + unit[dest]
                if moved not in seen:
                    if len(seen) >= cap:
                        raise ClosureCapError(cap, len(seen))
                    seen[moved] = gained - unit[at]
                    found.append(moved)
                if ghosts:
                    moved |= bit << ghosts_at
                    if moved not in seen:
                        if len(seen) >= cap:
                            raise ClosureCapError(cap, len(seen))
                        seen[moved] = gained + one_ghost
                        found.append(moved)
    return found


def successors(diagram: Diagram, rule: MoveRule = KOHNERT) -> set[Diagram]:
    """The diagrams one move away: per movable '+', the marker relocated
    and, under a rule with ghosts, also relocated leaving a ghost."""
    rows, cols = diagram.max_row(), diagram.max_col()
    packed, weight = _pack(diagram)
    found = _expand([packed], {packed: weight}, _box(rows, cols), rule, math.inf)
    return {_unpack(nxt, rows, cols) for nxt in found}


def _walk(start: Diagram, rule: MoveRule, cap: int) -> dict[int, int]:
    """Every diagram reachable from ``start`` (inclusive), packed, mapped to
    its packed weight (``_pack``), found one frontier at a time.  Raises
    ClosureCapError when more than ``cap`` distinct diagrams appear."""
    box = _box(start.max_row(), start.max_col())
    packed, weight = _pack(start)
    seen = {packed: weight}
    frontier = [packed]
    # Moves only go left and stay inside the start's bounding box; the '+'
    # column sum strictly drops, which forces termination (the closure
    # tests check this on every successor edge).
    while frontier:
        frontier = _expand(frontier, seen, box, rule, cap)
    return seen


def closure(
    start: Diagram,
    rule: MoveRule = KOHNERT,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> frozenset[Diagram]:
    """All diagrams reachable from ``start`` (inclusive), deduplicated.

    Raises ClosureCapError when more than ``cap`` distinct diagrams appear.
    """
    rows, cols = start.max_row(), start.max_col()
    return frozenset(_unpack(packed, rows, cols) for packed in _walk(start, rule, cap))


def closure_polynomial(
    start: Diagram,
    rule: MoveRule = KOHNERT,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> Polynomial:
    """``ghost_weighted_sum(closure(start, rule, cap))``, counted during the
    walk without building a Diagram per node; same ClosureCapError.  Each
    distinct packed weight is decoded once.

    The 13 diagrams of the ghost closure of the skyline of 1,0,2 give 12
    terms, and b = 0 keeps the 5 ghost-free ones, the key polynomial:

    >>> j = closure_polynomial(skyline((1, 0, 2)), K_KOHNERT)
    >>> len(j.terms), sum(j.terms.values())
    (12, 13)
    >>> print(j.substitute_beta(0))
    x1*x3^2 + x1*x2*x3 + x1*x2^2 + x1^2*x3 + x1^2*x2
    """
    counts = Counter(_walk(start, rule, cap).values())
    cols, field = start.max_col(), _field_width(start.max_row())
    shift = cols * field
    terms: dict = {}
    if field == 8:
        # one byte per column, so the bytes are the exponent, trimmed by
        # stripping the zero bytes at the end
        low = (1 << shift) - 1
        for weight, count in counts.items():
            exps = tuple((weight & low).to_bytes(cols, "little").rstrip(b"\0"))
            terms[exps, weight >> shift] = count
    else:
        low = (1 << field) - 1
        for weight, count in counts.items():
            exps = trim([weight >> c * field & low for c in range(cols)])
            terms[exps, weight >> shift] = count
    return _of(terms)


def diagram_weight(diagram: Diagram) -> Exponent:
    """Occupied-cell count per column ('+' and 'g' alike)."""
    occupied = (
        c for line in diagram.rows for c, marker in enumerate(line, 1) if marker != EMPTY
    )
    return tuple(multiplicities(occupied, diagram.max_col()))


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
