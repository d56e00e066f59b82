"""Weak compositions and permutations of finite support.

Compositions are tuples of non-negative integers with trailing zeros trimmed,
conceptually extended by an infinite zero tail.  Permutations are tuples in
one-line notation (1-indexed values), canonicalized to the minimal window:
the last entry is not a fixed point unless the window is ``(1,)``.  Indices
beyond the window are fixed points.

>>> lehmer_code((2, 5, 1, 6, 7, 4, 3))
(1, 3, 0, 2, 2, 1)
>>> perm_from_code((1, 3, 0, 2, 2, 1))
(2, 5, 1, 6, 7, 4, 3)
>>> sorted(reduced_words((3, 2, 1)))
[(1, 2, 1), (2, 1, 2)]
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import permutations as _all_windows
from typing import Iterable, Iterator

from .poly import trim

Composition = tuple[int, ...]
Permutation = tuple[int, ...]
Partition = tuple[int, ...]


class BoundExceededError(RuntimeError):
    """Raised when an enumeration would exceed its configured bound."""


class WorkBudget:
    """A count of work against a limit, shared by the calls of one command.
    Each piece of work is charged before it is built, so a refusal leaves
    nothing half made; ``spent`` never passes ``limit``.  The unit is one
    exponent entry: building a key of n entries costs n + KEY_OVERHEAD.

    A memo hit is not charged.  So in one process, a refused library call
    that is retried finds the steps it finished in ``bases._operator_memo``
    and gets further; each CLI command is a fresh process, so its outcome
    does not depend on this.

    >>> work = WorkBudget(100)
    >>> work.charge(60, "a step")
    >>> work.charge(60, "a step")
    Traceback (most recent call last):
    ...
    kohnert.perms.BoundExceededError: a step needs 60 work units after 60, past the budget of 100
    """

    # In the operator loops the fixed cost of a key (its tuple, its dict
    # entry and the loop step) is about that of 28 entries.
    KEY_OVERHEAD = 28

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def charge(self, units: int, what: str) -> None:
        if self.spent + units > self.limit:
            raise BoundExceededError(
                f"{what} needs {units} work units after {self.spent}, "
                f"past the budget of {self.limit}"
            )
        self.spent += units


# ---------------------------------------------------------------------------
# compositions


def composition(parts: Iterable[int]) -> Composition:
    """Canonical form: validate entries and trim trailing zeros."""
    out = list(parts)
    if any(p < 0 for p in out):
        raise ValueError(f"composition parts must be non-negative: {out}")
    return trim(out)


def multiplicities(indices: Iterable[int], size: int) -> list[int]:
    """How often each of 1, ..., size occurs in ``indices``, which lie in
    that range: the exponent vector of the monomial x_{i_1} x_{i_2} ....

    >>> multiplicities((3, 1, 3), 4)
    [1, 0, 2, 0]
    """
    counts = [0] * (size + 1)
    for i in indices:
        counts[i] += 1
    return counts[1:]


def parse_composition(text: str) -> Composition:
    """Parse comma-separated parts, e.g. '1,3,0,2,2,1'; '0' is the empty one."""
    text = text.strip()
    if not text:
        return ()
    try:
        return composition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad composition {text!r}: {exc}") from None


def format_composition(alpha: Composition) -> str:
    return ",".join(map(str, alpha)) if alpha else "0"


def sort_decreasing(alpha: Composition) -> Partition:
    """The partition obtained by sorting the parts in weakly decreasing order."""
    return tuple(sorted((p for p in alpha if p), reverse=True))


def strict_descents(alpha: Composition) -> set[int]:
    """Indices i with alpha_i > alpha_{i+1}, against the infinite zero tail.

    The last nonzero position always qualifies.

    >>> sorted(strict_descents((1, 3, 0, 2, 2, 1)))
    [2, 5, 6]
    """
    a = composition(alpha)
    ext = a + (0,)
    return {i for i in range(1, len(a) + 1) if ext[i - 1] > ext[i]}


def descents(alpha: Composition) -> set[int]:
    """Indices i <= last nonzero position with alpha_i >= alpha_{i+1}."""
    a = composition(alpha)
    ext = a + (0,)
    return {i for i in range(1, len(a) + 1) if ext[i - 1] >= ext[i]}


def check_block_bounds(d: list[int]) -> None:
    """Refuse block bounds that do not strictly increase from 1."""
    if any(d[i] >= d[i + 1] for i in range(len(d) - 1)) or (d and d[0] < 1):
        raise ValueError(f"block bounds must be strictly increasing: {d}")


# ---------------------------------------------------------------------------
# permutations


def permutation(window: Iterable[int]) -> Permutation:
    """Canonical form: validate one-line notation, drop trailing fixed points.

    >>> permutation((2, 1, 3, 4))
    (2, 1)
    >>> permutation(())
    (1,)
    """
    w = tuple(window)
    n = len(w)
    if n == 0:
        return (1,)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {w}")
    while n > 1 and w[n - 1] == n:
        n -= 1
    return w[:n]


def parse_permutation(text: str) -> Permutation:
    """Parse '3142' (single digits) or '3,1,4,2'."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," in text:
        vals = [int(p) for p in text.split(",")]
    elif text.isdigit():
        vals = [int(ch) for ch in text]
    else:
        raise ValueError(f"bad permutation {text!r}")
    return permutation(vals)


def format_permutation(w: Permutation) -> str:
    w = permutation(w)
    if len(w) <= 9:
        return "".join(map(str, w))
    return ",".join(map(str, w))


def perm_inverse(w: Permutation) -> Permutation:
    inv = [0] * len(w)
    for i, v in enumerate(w, start=1):
        inv[v - 1] = i
    return permutation(inv)


def _smaller_after(w: Permutation) -> list[int]:
    """Per position i, #{j > i : w(j) < w(i)}, read right to left through a
    sorted list of the values seen."""
    seen: list[int] = []
    out = [0] * len(w)
    for i in range(len(w) - 1, -1, -1):
        out[i] = k = bisect_left(seen, w[i])
        seen.insert(k, w[i])
    return out


def perm_length(w: Permutation) -> int:
    """Number of inversions, the sum of the Lehmer code.

    >>> perm_length((3, 2, 1))
    3
    """
    return sum(_smaller_after(w))


def perm_descents(w: Permutation) -> set[int]:
    """Indices j with w(j) > w(j+1).

    >>> sorted(perm_descents((2, 5, 1, 6, 7, 4, 3)))
    [2, 5, 6]
    """
    w = permutation(w)
    return {j for j in range(1, len(w)) if w[j - 1] > w[j]}


def multiply_s(w: Permutation, i: int) -> Permutation:
    """Right multiplication w * s_i: swap the entries at positions i, i+1."""
    if i < 1:
        raise ValueError("transposition index must be >= 1")
    v = list(w) + list(range(len(w) + 1, i + 2))
    v[i - 1], v[i] = v[i], v[i - 1]
    return permutation(v)


def identity() -> Permutation:
    return (1,)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All elements of S_n as canonical permutations."""
    for window in _all_windows(range(1, n + 1)):
        yield permutation(window)


def lehmer_code(w: Permutation) -> Composition:
    """code(w)_i = #{j > i : w(j) < w(i)}.

    >>> lehmer_code((3, 1, 4, 2))
    (2, 0, 1)
    """
    return composition(_smaller_after(w))


def perm_from_code(alpha: Composition) -> Permutation:
    """The unique permutation whose Lehmer code is alpha.

    Entry i is the (alpha_i + 1)-st smallest value of 1..n not yet used,
    n = len(alpha) + max(alpha), popped from the sorted list of the unused
    values; the entries past alpha take the rest in increasing order.
    """
    a = composition(alpha)
    unused = list(range(1, len(a) + max(a, default=0) + 1))
    return permutation([unused.pop(c) for c in a] + unused)


@lru_cache(maxsize=None)
def _reduced_words(w: Permutation) -> frozenset[tuple[int, ...]]:
    if w == identity():
        return frozenset({()})
    out = set()
    for i in perm_descents(w):
        for word in _reduced_words(multiply_s(w, i)):
            out.add(word + (i,))
    return frozenset(out)


# Longest permutation whose reduced words are enumerated; their number can
# grow factorially with the length.
MAX_WORD_LENGTH = 12


def check_word_length(ell: int) -> None:
    """Refuse to enumerate the reduced words of a permutation of length
    ``ell`` past ``MAX_WORD_LENGTH``; the error carries the crude l!
    estimate.  A caller that will enumerate them later may ask first, so
    that it refuses before any other work, with the same message."""
    if ell > MAX_WORD_LENGTH:
        raise BoundExceededError(
            f"length {ell} exceeds bound {MAX_WORD_LENGTH}; "
            f"up to {math.factorial(ell)} reduced words"
        )


def reduced_words(w: Permutation) -> frozenset[tuple[int, ...]]:
    """All reduced words of w (sequences a with s_{a_1}...s_{a_l} = w, l = length).

    Refuses when the length exceeds ``MAX_WORD_LENGTH``
    (``check_word_length``).
    """
    w = permutation(w)
    check_word_length(perm_length(w))
    return _reduced_words(w)


def word_to_perm(word: Iterable[int]) -> Permutation:
    """Product s_{a_1} s_{a_2} ... s_{a_m} in one-line notation.

    Each letter a swaps the entries at positions a and a + 1 of one list,
    which grows by fixed points as needed; the result is canonicalised once,
    so this equals folding ``multiply_s`` over the word from the identity.

    >>> word_to_perm((1, 2, 1))
    (3, 2, 1)
    >>> word_to_perm((3, 3))
    (1,)
    """
    v: list[int] = []
    for a in word:
        if a < 1:
            raise ValueError("transposition index must be >= 1")
        if a >= len(v):
            v.extend(range(len(v) + 1, a + 2))
        v[a - 1], v[a] = v[a], v[a - 1]
    return permutation(v)


def is_reduced(word: tuple[int, ...]) -> bool:
    """Whether ``len(word)`` equals the length of its product, in one pass.

    Multiplying w by s_a on the right adds an inversion exactly when
    w(a) < w(a + 1), so the word is reduced when every letter finds its two
    entries of the running window in increasing order; the walk stops at
    the first letter that does not.

    >>> is_reduced((1, 2, 1)), is_reduced((1, 2, 1, 2))
    (True, False)
    """
    if min(word, default=1) < 1:
        raise ValueError("transposition index must be >= 1")
    v: list[int] = []
    for a in word:
        if a >= len(v):
            v.extend(range(len(v) + 1, a + 2))
        if v[a - 1] > v[a]:
            return False
        v[a - 1], v[a] = v[a], v[a - 1]
    return True
