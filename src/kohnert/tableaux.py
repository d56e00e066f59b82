"""Tableaux, column insertion of reduced words, and compatible sequences.

The central algorithm is the column insertion correspondence on reduced
words (Edelman-Greene style, in the column convention).  A letter v enters
the leftmost column and walks right:

* if the column has no entry larger than v, v lands at the bottom and a new
  box is created;
* if both v and v+1 are already present, the column is left unchanged and
  v+1 is carried to the next column;
* otherwise the smallest entry larger than v is replaced by v and that entry
  is carried to the next column.

For reduced input these cases are exhaustive, the insertion tableau is
increasing, its reading word (rows right-to-left, top to bottom) is a reduced
word for the same permutation, and the map (word, marks) -> (P, Q) is a
bijection onto pairs of an increasing tableau and a same-shape semistandard
recording tableau.

The nil left key of an increasing tableau reverses this walk: the entries of
column j are reverse-inserted down through columns j-1, ..., 1 of the
original tableau, and the values that exit column 1 form column j of the
result.  Reverse insertion of v into a column replaces the largest entry
smaller than v (carrying it left), except that when v is present, v-1 is
carried and the column is untouched.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, chain, combinations_with_replacement, groupby, repeat
from operator import add, ge, le, lt, sub
from typing import Iterable, Iterator, Sequence

from . import perms
from .perms import Composition, Partition, Permutation


class NonReducedWordError(ValueError):
    """Input word is not reduced (its length exceeds the permutation length)."""


class Tableau:
    """Filling of a partition shape, stored as a tuple of row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]] = ()):
        rs = tuple(tuple(int(v) for v in row) for row in rows)
        if any(len(r) == 0 for r in rs):
            raise ValueError("empty row in tableau")
        lengths = [len(r) for r in rs]
        if any(lengths[i] < lengths[i + 1] for i in range(len(rs) - 1)):
            raise ValueError(f"row lengths not weakly decreasing: {lengths}")
        if any(v < 1 for r in rs for v in r):
            raise ValueError("tableau entries must be positive")
        self.rows = rs

    def shape(self) -> Partition:
        return tuple(len(r) for r in self.rows)

    def columns(self) -> list[list[int]]:
        return [list(col) for col in _transpose(self.rows)]

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]]) -> "Tableau":
        cols = [c for c in cols if c]
        if any(len(cols[i]) < len(cols[i + 1]) for i in range(len(cols) - 1)):
            raise ValueError("column lengths not weakly decreasing")
        return cls(_transpose(cols))

    def _ordered(self, along_row) -> bool:
        """Whether ``along_row`` holds between neighbours in every row and
        each row lies entrywise strictly below the next.  The rows are
        left-justified and weakly decrease in length, so the second is
        "every column strictly increases", read without building a column."""
        rows = self.rows
        return all(all(map(along_row, row, row[1:])) for row in rows) and all(
            all(map(lt, upper, lower)) for upper, lower in zip(rows, rows[1:])
        )

    def is_increasing(self) -> bool:
        """Strictly increasing along rows and down columns."""
        return self._ordered(lt)

    def is_semistandard(self) -> bool:
        """Weakly increasing along rows, strictly increasing down columns."""
        return self._ordered(le)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def render(self) -> str:
        return "\n".join(" ".join(map(str, row)) for row in self.rows)

    def to_json_obj(self) -> dict:
        return {"rows": [list(r) for r in self.rows]}

    def __repr__(self) -> str:
        return f"Tableau({[list(r) for r in self.rows]})"


EMPTY_TABLEAU = Tableau()


def _of(rows: tuple[tuple[int, ...], ...]) -> Tableau:
    """The tableau whose rows are ``rows`` itself, for fillings that are
    valid by construction: a tuple of non-empty tuples of positive ints, of
    weakly decreasing length.  Input from outside goes through ``Tableau``,
    which checks every entry."""
    t = Tableau.__new__(Tableau)
    t.rows = rows
    return t


def _transpose(lines: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The columns of left-justified rows, or the rows of top-justified
    columns, given lines of weakly decreasing length."""
    return tuple(
        tuple([line[i] for line in lines if len(line) > i])
        for i in range(len(lines[0]) if lines else 0)
    )


def _of_columns(cols: list[list[int]]) -> Tableau:
    """``Tableau.from_columns`` for columns that are valid by construction:
    non-empty lists of positive ints, of weakly decreasing length."""
    return _of(_transpose(cols)) if cols else EMPTY_TABLEAU


def row_word(t: Tableau) -> tuple[int, ...]:
    """Rows read right to left, top row first."""
    return tuple(v for row in t.rows for v in reversed(row))


def content(t: Tableau) -> Composition:
    """Multiplicity vector of the entries."""
    entries = list(chain.from_iterable(t.rows))
    return perms.composition(perms.multiplicities(entries, max(entries, default=0)))


def _insert_letter(cols: list[list[int]], v: int) -> int:
    """Walk v through the columns; return the 0-based index of the column
    that gained a box.  The new box is always the last entry of its column.
    Columns are mutated in place.

    Every step keeps a column strictly increasing, so one ``bisect_right``
    finds both the smallest entry larger than v (at the returned index) and
    whether v is present (just before it).
    """
    c = 0
    while True:
        if c == len(cols):
            cols.append([v])
            return c
        col = cols[c]
        i = bisect_right(col, v)
        present = i > 0 and col[i - 1] == v
        if i == len(col):
            if present:
                raise NonReducedWordError(
                    f"insertion would duplicate {v}; word is not reduced"
                )
            col.append(v)
            return c
        z = col[i]
        if z == v + 1 and present:
            v = v + 1
        else:
            if present:
                raise NonReducedWordError(
                    f"insertion would duplicate {v}; word is not reduced"
                )
            col[i] = v
            v = z
        c += 1


def _check_stable_marks(word: Sequence[int], marks: Sequence[int]) -> None:
    """Refuse marks of another length than the word, marks below 1, and
    marks that do not weakly increase, strictly across each ascent of the
    word, in that order, naming the first failure."""
    if len(marks) != len(word):
        raise ValueError("marks must have the same length as the word")
    if marks and min(marks) < 1:
        raise ValueError("marks must be positive")
    for j in range(len(word) - 1):
        if marks[j] > marks[j + 1]:
            raise ValueError(f"marks not weakly increasing at position {j + 1}")
        if word[j] < word[j + 1] and marks[j] >= marks[j + 1]:
            raise ValueError(f"marks must strictly increase across ascent at {j + 1}")


def _reduced_letters(word: Sequence[int]) -> tuple[int, ...]:
    """The word as a tuple of ints; raises ValueError for a letter below 1
    and NonReducedWordError for a word that is not reduced."""
    word = tuple(int(a) for a in word)
    if any(a < 1 for a in word):
        raise ValueError("word letters must be positive")
    if not perms.is_reduced(word):
        raise NonReducedWordError(f"{word} is not a reduced word")
    return word


def egls_insert(
    word: Sequence[int], marks: Sequence[int] | None = None
) -> tuple[Tableau, Tableau]:
    """Column insertion of a reduced word; returns (P, Q).

    P is the increasing insertion tableau; Q records the mark of each step at
    the box it created and is semistandard with content the multiset of
    marks.  ``marks`` defaults to 1..m.  Raises NonReducedWordError for
    non-reduced input and ValueError for invalid marks.  Both tableaux are
    built once, unchecked: each column gains its boxes at the bottom, so
    the column lengths weakly decrease, and the entries are the checked
    letters and marks.
    """
    word = _reduced_letters(word)
    if marks is None:
        marks = tuple(range(1, len(word) + 1))
    else:
        marks = tuple(int(m) for m in marks)
        _check_stable_marks(word, marks)
    cols: list[list[int]] = []
    # Q's columns grow in step with P's: each mark goes to the bottom of the
    # column that gained a box.
    marks_cols: list[list[int]] = []
    for a, m in zip(word, marks):
        c = _insert_letter(cols, a)
        if c == len(marks_cols):
            marks_cols.append([])
        marks_cols[c].append(m)
    return _of_columns(cols), _of_columns(marks_cols)


def _insert_columns(word: tuple[int, ...]) -> list[list[int]]:
    """``insertion_tableau(word).columns()`` for a word known to be reduced:
    its letters go straight to ``_insert_letter``, unchecked."""
    cols: list[list[int]] = []
    for a in word:
        _insert_letter(cols, a)
    return cols


def insertion_tableau(word: Sequence[int]) -> Tableau:
    """The P-tableau of ``egls_insert``, with the same checks and errors,
    built without Q."""
    return _of_columns(_insert_columns(_reduced_letters(word)))


def reduced_insertion_tableau(word: tuple[int, ...]) -> Tableau:
    """``insertion_tableau`` of a word known to be reduced (a factor of a
    reduced word), without checking it again."""
    return _of_columns(_insert_columns(word))


def _reverse_insert(col: list[int], v: int) -> int:
    """Reverse step: carry out the largest entry below v, or v-1 when v sits
    in the column (leaving it unchanged)."""
    if v in col:
        out = v - 1
        if out not in col:
            raise ValueError(f"malformed column {col} for reverse insertion of {v}")
        return out
    smaller = [z for z in col if z < v]
    if not smaller:
        raise ValueError(f"no entry below {v} in column {col}")
    y = max(smaller)
    col[col.index(y)] = v
    return y


def nil_left_key(t: Tableau) -> Tableau:
    """Semistandard key tableau of the same shape; see the module docstring.

    The content of the result is the composition the tableau contributes to
    in the key expansion of Schubert polynomials.
    """
    if not t.rows:
        return EMPTY_TABLEAU
    source = _transpose(t.rows)
    out_cols: list[list[int]] = [list(source[0])]
    for c in range(1, len(source)):
        work = [list(col) for col in source[:c]]
        labels = sorted(source[c], reverse=True)
        for j in range(c - 1, -1, -1):
            labels = [_reverse_insert(work[j], v) for v in labels]
            assert all(labels[i] > labels[i + 1] for i in range(len(labels) - 1))
        out_cols.append(sorted(labels))
    result = Tableau.from_columns(out_cols)
    assert result.shape() == t.shape()
    assert result.is_semistandard()
    return result


def peeling_tableau(alpha: Composition) -> Tableau:
    """Increasing tableau built by peeling descent chains off the permutation
    with Lehmer code alpha.

    Each column starts at the largest descent of the running permutation and
    repeatedly takes the largest descent smaller than the letter just used,
    multiplying it away, until none remains; the letters collected form the
    column, bottom to top.  The reading word is a reduced word for the coded
    permutation, the tableau is fixed by reinsertion, and the content of its
    nil left key is alpha.

    Multiplying by s_d changes only the comparisons at d - 1, d and d + 1,
    so the next descent below d is the first one a scan on down from d - 1
    meets: each column is one downward scan of one list, and the peel ends
    at the first scan that meets no descent.  The columns come out of weakly
    decreasing length, so they are built into a tableau unchecked
    (``_of_columns``), and the result is asserted increasing.
    """
    u = list(perms.perm_from_code(alpha))
    cols: list[list[int]] = []
    while True:
        letters: list[int] = []
        for d in range(len(u) - 1, 0, -1):
            if u[d - 1] > u[d]:
                u[d - 1], u[d] = u[d], u[d - 1]
                letters.append(d)
        if not letters:
            break
        cols.append(letters[::-1])
    t = _of_columns(cols)
    assert t.is_increasing()
    return t


# ---------------------------------------------------------------------------
# equivalence of reduced words


def _elementary_moves(word: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    for p in range(len(word) - 2):
        a, b, c = word[p : p + 3]
        if a == c and abs(b - a) == 1:
            yield word[:p] + (b, a, b) + word[p + 3 :]
        if (a < c < b) or (b < c < a):
            yield word[:p] + (b, a, c) + word[p + 3 :]
        if (b < a < c) or (c < a < b):
            yield word[:p] + (a, c, b) + word[p + 3 :]


def word_class_closure(word: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """Closure of a word under the elementary equivalence moves: the braid
    move on adjacent letters and the two order-pattern swaps."""
    start = tuple(int(a) for a in word)
    seen = {start}
    stack = [start]
    while stack:
        for nxt in _elementary_moves(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def coxeter_knuth_class(
    t: Tableau, w: Permutation | None = None
) -> frozenset[tuple[int, ...]]:
    """All reduced words of w whose insertion tableau is t.

    An increasing tableau is the insertion tableau of its reading word, and
    the words with one insertion tableau form one class under the
    elementary moves (Edelman-Greene), so this is
    ``word_class_closure(row_word(t))``.  No other reduced word of w is
    visited and there is no length bound.  ``w`` defaults to the permutation
    of the reading word of t.
    """
    if not t.is_increasing():
        raise ValueError(f"{t!r} is not increasing")
    word = row_word(t)
    if w is None:
        w = perms.word_to_perm(word)
    if not perms.is_reduced(word) or perms.word_to_perm(word) != perms.permutation(w):
        raise NonReducedWordError(f"reading word {word} is not reduced for {w}")
    return word_class_closure(word)


# ---------------------------------------------------------------------------
# compatible sequences

CompatiblePair = tuple[tuple[int, ...], tuple[int, ...]]


def _has_marks(word: tuple[int, ...]) -> bool:
    """Whether the word has some marks.  Every mark sequence lies on or
    above the least one, which starts at 1 and steps up exactly at the
    ascents; for most reduced words it passes a letter, and the scan stops
    there."""
    least = prev = 0
    for letter in word:
        if prev < letter:
            least += 1
        if least > letter:
            return False
        prev = letter
    return True


def _mark_choices(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The marks of a word in lexicographic order: each at least 1 and at
    most its letter, weakly increasing, and strictly across each ascent.

    Shifting each mark down by the number of ascents before it turns the
    marks into the weakly increasing sequences from 1 with each entry at
    most its letter less those ascents, and so at most the least such bound
    from it on (the suffix minimum, which weakly increases).  Positions of
    equal suffix minimum form runs, and the entries of a run are one
    ``combinations_with_replacement`` from the entry before it up to that
    bound, so the shifted sequences are built a run at a time, in
    lexicographic order, and shifted back.  A first bound below 1 leaves
    the first run, and so the list, empty.

    >>> _mark_choices((2, 4, 3))
    [(1, 2, 2), (1, 2, 3), (1, 3, 3), (2, 3, 3)]
    >>> _mark_choices((2, 3, 1)), _mark_choices(())
    ([], [()])
    """
    shifts = list(accumulate(map(lt, word, word[1:]), initial=0))
    bounds = list(accumulate(reversed(list(map(sub, word, shifts))), min))[::-1]
    shifted: list[tuple[int, ...]] = [()]
    for bound, run in groupby(bounds):
        size = len(list(run))
        shifted = [
            head + tail
            for head in shifted
            for tail in combinations_with_replacement(
                range(head[-1] if head else 1, bound + 1), size
            )
        ]
    return [tuple(map(add, marks, shifts)) for marks in shifted]


def marked_words(w: Permutation, t: Tableau | None = None) -> list[tuple[int, ...]]:
    """The reduced words of w that have marks, sorted; with ``t`` given,
    only those that insert to t.  Each word is first scanned for its least
    marks (``_has_marks``); only a word that has some is inserted, once,
    with no check (it is reduced), and its columns compared with those of
    t."""
    cols = None if t is None else t.columns()
    return sorted(
        word
        for word in perms.reduced_words(w)
        if _has_marks(word) and (cols is None or _insert_columns(word) == cols)
    )


def compatible_pairs(w: Permutation, t: Tableau | None = None) -> list[CompatiblePair]:
    """All (word, marks) with marks weakly increasing, strictly increasing
    across ascents of the word, and bounded above by the letters.

    With ``t`` given, only the pairs whose word inserts to t, in the same
    order.  The words are those of ``marked_words``; only they have their
    marks built.
    """
    out: list[CompatiblePair] = []
    for word in marked_words(w, t):
        out.extend(zip(repeat(word), _mark_choices(word)))
    return out


def split_words(
    w: Permutation, words: Iterable[tuple[int, ...]], d: Sequence[int]
) -> list[list[tuple[tuple[int, ...], ...]]]:
    """For each reduced word of w in ``words``, its distinct splits over all
    its marks: the tuples of block words that ``split_blocks`` gives for
    the pairs (word, marks), each once, in order of first appearance over
    the marks in lexicographic order (``_mark_choices``).  Raises ValueError
    unless the bounds pass ``perms.check_block_bounds`` for w, once per
    call, before the first word is read.

    A split is fixed by its cuts c_1 <= ... <= c_k = len(word), block j
    holding the letters from c_{j-1} up to c_j.  All marks that realise a
    cut lie on or above its least marks: each the previous one, plus 1
    across an ascent, raised to at least d_{j-1} + 1 inside block j.  So
    the cut is realised exactly when its least marks stay at or below
    their letters and each block's bound, and its least marks are the
    lexicographically first marks that realise it: the order of first
    appearance is the lexicographic order of the least marks.
    ``_word_splits`` walks the cuts in that order, with no pair built.
    """
    d = perms.check_block_bounds(d, w=perms.permutation(w))
    lows = [1] + [bound + 1 for bound in d[:-1]]
    return [_word_splits(word, d, lows) for word in words]


def _word_splits(
    word: tuple[int, ...], d: list[int], lows: list[int]
) -> list[tuple[tuple[int, ...], ...]]:
    """The splits of one word for ``split_words``, block j taking the marks
    lows[j]..d[j].

    The walk goes block by block.  Inside a block the least marks after
    the first are forced (plus 1 at each ascent), so d[j] bounds the
    block's end, found by bisection over the ascent counts, and the next
    block starts at that end or at any letter before it.  A longer block
    leaves a smaller mark where a shorter one ends, so the ends are tried
    longest first and the empty block last.  ``caps[p]`` is the largest
    mark at p that leaves every later mark at or below its letter: a
    block whose first mark passes it gives no split, and the later marks
    of a block whose first mark does not stay under their caps too.
    """
    n, k = len(word), len(d)
    caps = list(word)
    for p in range(n - 2, -1, -1):
        caps[p] = min(word[p], caps[p + 1] - (word[p] < word[p + 1]))
    # ascents[p]: the ascents of the word before its letter p
    ascents = list(accumulate(map(lt, word, word[1:]), initial=0))
    out: list[tuple[tuple[int, ...], ...]] = []

    def walk(j: int, start: int, least: int, blocks: tuple[tuple[int, ...], ...]) -> None:
        # ``blocks`` are the words of the blocks before j, which end at
        # ``start``; the least mark there, before block j's floor, is ``least``
        if start == n:
            out.append(blocks + ((),) * (k - j))
            return
        if j == k:
            return  # letters are left and no block
        first = max(least, lows[j])
        if first > caps[start]:
            return  # every later block's first mark is at least as large
        if first <= d[j]:
            shift = first - ascents[start]
            end = bisect_right(ascents, d[j] - shift, start, n)
            for e in range(end, start, -1):
                # at e = n the walk ends and the mark is not read
                after = shift + ascents[e] if e < n else 0
                walk(j + 1, e, after, blocks + (word[start:e],))
        walk(j + 1, start, least, blocks + ((),))

    walk(0, 0, 0, ())
    return out


def split_blocks(pair: CompatiblePair, d: Sequence[int]) -> list[CompatiblePair]:
    """Split a compatible pair into its blocks by mark range, uninserted.

    Block j is the (word, marks) factor of the consecutive entries whose
    marks lie in (d_{j-1}, d_j], with d_0 = 0; the split is unique because
    the marks weakly increase, and the blocks concatenate to the pair.
    Raises ValueError unless the bounds pass ``perms.check_block_bounds``
    for the word's permutation, the marks are as many as the letters,
    every mark is at most its letter and the last bound, and every
    non-empty block is a reduced word (NonReducedWordError) with stable
    marks, in that order, naming the first failure block by block.

    >>> split_blocks(((2, 1, 3), (1, 1, 2)), (1, 3))
    [((2, 1), (1, 1)), ((3,), (2,))]
    """
    word, marks = pair
    d = perms.check_block_bounds(d)
    perms.check_block_bounds(d, w=perms.word_to_perm(word))
    if len(marks) != len(word):
        raise ValueError("marks must have the same length as the word")
    if any(m > a for m, a in zip(marks, word)):
        raise ValueError("marks exceed their letters; pair is not compatible")
    if marks and (not d or marks[-1] > d[-1]):
        raise ValueError(f"marks {marks} exceed the last block bound")
    blocks = []
    pos = 0
    prev = 0
    for bound in d:
        end = pos
        while end < len(marks) and marks[end] <= bound:
            end += 1
        block_word, block_marks = word[pos:end], marks[pos:end]
        if any(m <= prev for m in block_marks):
            raise ValueError("marks are not weakly increasing")
        if block_word:
            if not perms.is_reduced(block_word):
                raise NonReducedWordError(f"{tuple(block_word)} is not a reduced word")
            _check_stable_marks(block_word, block_marks)
        blocks.append((block_word, block_marks))
        pos = end
        prev = bound
    return blocks


def split_compatible_pair(
    pair: CompatiblePair, d: Sequence[int]
) -> list[tuple[Tableau, Tableau]]:
    """Split a compatible pair into blocks by mark range (``split_blocks``)
    and insert each block; empty blocks give empty tableaux."""
    return [egls_insert(*block) for block in split_blocks(pair, d)]


def _accept_block(block: tuple[int, ...], lower: int, max_rows: int) -> Tableau | None:
    """The increasing tableau whose reading word is ``block`` verbatim, if it
    exists, has entries above ``lower`` and has at most ``max_rows`` rows.

    A reading word descends within a row and ascends across a row boundary,
    so the rows are the block's maximal strictly decreasing runs, reversed.
    The blocks are factors of reduced words, and an increasing tableau with a
    reduced reading word is that word's insertion tableau (Edelman-Greene),
    so no insertion is needed.  The rows are non-empty, positive and
    strictly increasing by construction, so once their lengths and columns
    pass, the tableau is built unchecked.
    """
    if not block:
        return EMPTY_TABLEAU
    if min(block) <= lower:
        return None
    # A row starts at the block's start and at each letter at or above the
    # one before it.  More rows than the block has variables: the block
    # Schur polynomial vanishes, so the tuple indexes no basis element.
    # Most blocks offered fail here, so the rows are counted before any is
    # cut.
    if 1 + sum(map(ge, block[1:], block)) > max_rows:
        return None
    cuts = [i for i in range(1, len(block)) if block[i] >= block[i - 1]]
    rows = [block[a:b][::-1] for a, b in zip([0] + cuts, cuts + [len(block)])]
    for upper, below in zip(rows, rows[1:]):
        if len(upper) < len(below) or any(a >= b for a, b in zip(upper, below)):
            return None
    return _of(tuple(rows))


def word_split_tuples(
    words: Iterable[tuple[int, ...]], d: Sequence[int]
) -> set[tuple[Tableau, ...]]:
    """Tuples (T_1, ..., T_k) of increasing tableaux whose concatenated
    reading words run over ``words``, with each block a verbatim reading
    word, min T_j exceeding the previous block bound, and at most as many
    rows as the block has variables.  Raises ValueError unless the block
    bounds are strictly increasing from 1.

    Only blocks whose letters all exceed their bound, and after which every
    letter exceeds the next bound, are offered for acceptance."""
    d = perms.check_block_bounds(d)
    k = len(d)
    bounds = [0] + d
    widths = list(map(sub, d, bounds))
    out: set[tuple[Tableau, ...]] = set()
    if k == 0:
        if any(not word for word in words):
            out.add(())
        return out
    def rec(
        word: tuple[int, ...], last: list[int], start: int, j: int, acc: tuple[Tableau, ...]
    ) -> None:
        # Every letter from ``start`` on is above bounds[j].  Block j ends
        # after the last letter at or below bounds[j + 1], which no later
        # block may hold, so the same holds one block on.
        if j == k - 1:
            t = _accept_block(word[start:], bounds[j], widths[j])
            if t is not None:
                out.add(acc + (t,))
            return
        for end in range(max(start, last[j + 1] + 1), len(word) + 1):
            t = _accept_block(word[start:end], bounds[j], widths[j])
            if t is not None:
                rec(word, last, end, j + 1, acc + (t,))

    for word in words:
        # last[j]: the index of the last letter at or below bounds[j], or -1,
        # found by a scan from the right; a letter at or below 0 fits in no
        # block
        back = range(len(word) - 1, -1, -1)
        last = [next((i for i in back if word[i] <= b), -1) for b in bounds]
        if last[0] < 0:
            rec(word, last, 0, 0, ())
    return out


# ---------------------------------------------------------------------------
# semistandard enumeration


def standard_tableaux_count(shape: Partition) -> int:
    """The number of standard tableaux of ``shape``, by the hook-length
    formula.  It is also the size of the Coxeter-Knuth class of any
    increasing tableau of that shape (Edelman-Greene), known before the
    class is walked.

    >>> standard_tableaux_count((2, 2)), standard_tableaux_count((11, 11))
    (2, 58786)
    """
    shape = tuple(shape)
    return math.factorial(sum(shape)) // _hook_product(shape)


def semistandard_tableaux_count(shape: Partition, max_entry: int) -> int:
    """The number of fillings ``semistandard_tableaux`` builds, by the
    hook-content formula: the product of max_entry + c - r over the cells
    (r, c), over the product of the hooks.

    >>> semistandard_tableaux_count((2, 1), 3), semistandard_tableaux_count((400,), 3)
    (8, 80601)
    """
    shape = _partition(shape)
    contents = 1
    for r, length in enumerate(shape):
        for c in range(length):
            contents *= max_entry + c - r
    return contents // _hook_product(shape)


def _partition(shape: Iterable[int]) -> Partition:
    """``shape`` as a tuple, refused unless its parts weakly decrease and
    are at least 1."""
    shape = tuple(shape)
    if any(a < b for a, b in zip(shape, shape[1:])) or (shape and shape[-1] < 1):
        raise ValueError(f"shape must be a partition: {shape}")
    return shape


def _hook_product(shape: Partition) -> int:
    """The product of the hook lengths of the cells of ``shape``."""
    heights = [sum(1 for r in shape if r > c) for c in range(shape[0] if shape else 0)]
    hooks = 1
    for i, r in enumerate(shape):
        for c in range(r):
            hooks *= r - c + heights[c] - i - 1
    return hooks


def semistandard_tableaux(shape: Partition, max_entry: int) -> Iterator[Tableau]:
    """All semistandard fillings of ``shape`` with entries in 1..max_entry,
    each built once, unchecked: the fill keeps every entry in range."""
    shape = _partition(shape)
    if not shape:
        yield EMPTY_TABLEAU
        return
    if len(shape) > max_entry:
        return
    rows: list[list[int]] = [[0] * ln for ln in shape]

    def fill(r: int, c: int) -> Iterator[Tableau]:
        if r == len(shape):
            yield _of(tuple(map(tuple, rows)))
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, max_entry + 1):
            rows[r][c] = v
            yield from fill(nr, nc)

    yield from fill(0, 0)
