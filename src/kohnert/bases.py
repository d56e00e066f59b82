"""The polynomial bases and their splitting/expansion rules.

All four bases come from one memoised operator recursion: an operator
applied across the first ascent of a composition, down to the dominant
monomial.  Key and omega polynomials start at alpha; Schubert and
Grothendieck polynomials start at (w(1) - 1, ..., w(n) - 1), whose dominant
monomial is the staircase of the longest element of S_n.  A choice of block
bounds d_1 < ... < d_k splits the variables into consecutive alphabets
X_1, ..., X_k, and any polynomial symmetric in each alphabet expands
uniquely into products of Schur polynomials of the blocks;
``split_extract`` computes that expansion greedily from leading monomials,
and refuses an input that is not block-symmetric on the way.

For key polynomials the block-Schur coefficients are counted by tuples of
increasing tableaux whose concatenated reading words insert to the peeling
tableau of alpha (``key_split_expansion``); for Schubert polynomials the
insertion constraint is dropped (``schubert_split_expansion``).  An
independent route through compatible pairs and the block-splitting map backs
both counts.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Mapping, Sequence

from . import diagrams, perms
from .perms import Composition, Partition, Permutation
from .poly import ONE, ZERO, BetaCoeff, Polynomial
from .poly import demazure, divided_difference, isobaric, trim, twisted_demazure

if TYPE_CHECKING:
    from .tableaux import Tableau

LambdaTuple = tuple[Partition, ...]


class _OnFirstUse:
    """Stands in for the ``tableaux`` module until one of its names is
    read, then puts the module in its place, so a process that only builds
    operator polynomials (a closure sweep) never loads it and every later
    use is a plain global lookup."""

    def __getattr__(self, name: str):
        from . import tableaux as module

        globals()["tableaux"] = module
        return getattr(module, name)


tableaux = _OnFirstUse()


class BlockSymmetryError(ValueError):
    """Input polynomial is not symmetric within one of the variable blocks."""


class ExpansionCapError(RuntimeError):
    """Greedy basis expansion exceeded its step cap; ``partial`` holds the
    coefficients peeled so far and ``remainder`` the unexpanded rest."""

    def __init__(self, cap: int, partial: dict, remainder: Polynomial):
        super().__init__(f"basis expansion exceeded {cap} steps")
        self.partial = partial
        self.remainder = remainder


def _peel(f: Polynomial, element, step_cap: int | None = None) -> dict:
    """Greedy expansion by leading monomials: ``element(m)`` gives a key and
    a basis element led by x^m with coefficient 1; the Z[b] coefficient c of
    the leading monomial x^m is recorded under the key and c times the
    element subtracted, so x^m strictly drops and no key repeats.  Raises
    ExpansionCapError once ``step_cap`` steps leave the remainder nonzero.

    The remainder is one term dict, copied from f once; each step subtracts
    the terms of c times the element from it in place, so a step costs the
    element's terms and a scan for the leading monomial, not a copy of the
    remainder."""
    out: dict = {}
    terms = dict(f.terms)
    while terms:
        if step_cap is not None and len(out) >= step_cap:
            raise ExpansionCapError(step_cap, out, Polynomial(terms))
        m = min(terms)[0]
        key, b = element(m)
        assert b.leading_monomial() == m and b.coefficient(m) == {0: 1}
        c = out[key] = {deg: v for (e, deg), v in terms.items() if e == m}
        for (e, deg), v in b.terms.items():
            for c_deg, c_v in c.items():
                term = (e, deg + c_deg)
                rest = terms.get(term, 0) - v * c_v
                if rest:
                    terms[term] = rest
                else:
                    del terms[term]
    return out


def _first_ascent(alpha: Composition) -> int | None:
    for i in range(len(alpha) - 1):
        if alpha[i] < alpha[i + 1]:
            return i + 1
    return None


# The operator is an argument of the recursion and part of its memo key.
# The public functions look it up in this module when they are called.
@lru_cache(maxsize=None)
def _from_dominant(op, alpha: Composition) -> Polynomial:
    """``op`` applied across the first ascent of alpha, recursively, down to
    the dominant monomial of a weakly decreasing composition."""
    i = _first_ascent(alpha)
    if i is None:
        return Polynomial.monomial(alpha)
    swapped = list(alpha)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    return op(i, _from_dominant(op, trim(swapped)))


def key_polynomial(alpha: Composition) -> Polynomial:
    """Demazure character of alpha: the dominant monomial when alpha is
    weakly decreasing, otherwise the symmetrizing operator applied across an
    ascent (the result is independent of which ascent is chosen)."""
    return _from_dominant(demazure, perms.composition(alpha))


def omega_polynomial(alpha: Composition) -> Polynomial:
    """Deformation of the key polynomial using the twisted operator; its
    lowest-degree homogeneous component is the key polynomial."""
    return _from_dominant(twisted_demazure, perms.composition(alpha))


def _in_symmetric_group(w: Permutation, n: int | None) -> Composition:
    """The composition (w(1) - 1, ..., w(n) - 1) of w in S_n, trimmed; n
    defaults to the window size.  It has the ascents of w, swapping entries
    i and i + 1 is w -> w s_i, and the longest element gives the staircase.

    >>> _in_symmetric_group((1, 3, 2), None)
    (0, 2, 1)
    >>> _in_symmetric_group((3, 2, 1), 4)
    (2, 1, 0, 3)
    """
    w = perms.permutation(w)
    n = max(len(w), 2) if n is None else n
    if len(w) > n:
        raise ValueError(f"{w} does not lie in S_{n}")
    return trim(v - 1 for v in w + tuple(range(len(w) + 1, n + 1)))


def schubert(w: Permutation, n: int | None = None) -> Polynomial:
    """Schubert polynomial, by divided differences down from the staircase
    monomial of the longest element of S_n, through the recursion of
    ``key_polynomial`` (the result does not depend on n).

    >>> print(schubert((1, 3, 2)))
    x2 + x1
    """
    return _from_dominant(divided_difference, _in_symmetric_group(w, n))


def grothendieck(w: Permutation, n: int | None = None) -> Polynomial:
    """Grothendieck polynomial, by isobaric operators down from the staircase
    monomial; its lowest-degree component is the Schubert polynomial."""
    return _from_dominant(isobaric, _in_symmetric_group(w, n))


# ---------------------------------------------------------------------------
# block Schur polynomials and the splitting expansion


def block_variables(d: Sequence[int]) -> list[list[int]]:
    """Consecutive variable alphabets cut at d: block j is
    {d_{j-1}+1, ..., d_j} with d_0 = 0."""
    d = list(d)
    tableaux._check_block_bounds(d)
    return [list(range(a + 1, b + 1)) for a, b in zip([0] + d, d)]


def schur_in_variables(lam: Partition, variables: Sequence[int]) -> Polynomial:
    """Schur polynomial of shape lam in the given variables, as the content
    generating function of semistandard tableaux; zero when lam has more
    rows than there are variables."""
    lam = tuple(lam)
    if not lam:
        return ONE
    if len(lam) > len(variables):
        return ZERO
    index = (0, *variables)  # entry v of a tableau stands for x_index[v]
    top = max(variables)
    exponents = (
        perms.multiplicities(map(index.__getitem__, chain.from_iterable(t.rows)), top)
        for t in tableaux.semistandard_tableaux(lam, len(variables))
    )
    return Polynomial(Counter((tuple(exps), 0) for exps in exponents))


def schur_block(lam: Partition, block_index: int, d: Sequence[int]) -> Polynomial:
    """Schur polynomial of the ``block_index``-th alphabet (1-indexed)."""
    blocks = block_variables(d)
    return schur_in_variables(lam, blocks[block_index - 1])


# Steps of a peel, and the peels of one sweep, share their block shapes.
# A few hundred distinct (shape, block) pairs cover a theorem1 sweep (413 at
# weight <= 8 in <= 5 parts); the bound keeps a long-lived process from
# holding every one it ever built.
@lru_cache(maxsize=1024)
def _block_schur(lam: Partition, first: int, last: int) -> Polynomial:
    """The Schur polynomial of shape lam in x_first, ..., x_last."""
    return schur_in_variables(lam, range(first, last + 1))


def split_extract(f: Polynomial, d: Sequence[int]) -> dict[LambdaTuple, int]:
    """Expand a block-symmetric polynomial into products of block Schur
    polynomials by repeatedly peeling the leading monomial (``_peel``).

    The polynomial must be free of the b parameter and involve no variable
    past the last block bound.  The expansion is exact and unique;
    coefficients are integers.  The peel is its own symmetry check: a peel
    that ends at 0 writes f as a sum of block-symmetric products, so an
    input that is not block-symmetric reaches a leading monomial that is not
    weakly increasing in some block, and BlockSymmetryError is raised there.
    Each block Schur factor comes from ``_block_schur``, a bounded memo
    that outlives the call, so the peels of one process build each
    (shape, block) once; an empty shape is the factor 1 and is not
    multiplied in.

    >>> split_extract(key_polynomial((1, 0, 2)), (1, 3))
    {((1,), (2,)): 1, ((2,), (1,)): 1}
    """
    d = list(d)
    n = d[-1] if d else 0
    if not f.is_beta_free():
        raise ValueError("split extraction requires a b-free polynomial")
    if f.max_variable() > n:
        raise ValueError(
            f"polynomial involves x{f.max_variable()}, past the last block bound"
        )
    blocks = block_variables(d)

    def element(m: Composition) -> tuple[LambdaTuple, Polynomial]:
        # the block Schur product led by x^m: its shapes are m's blocks reversed
        ext = m + (0,) * (n - len(m))
        lams = []
        prod = ONE
        for j, block in enumerate(blocks, start=1):
            seg = ext[block[0] - 1 : block[-1]]
            if any(a > b for a, b in zip(seg, seg[1:])):
                raise BlockSymmetryError(
                    f"leading monomial {m} not weakly increasing in block {j}"
                )
            lam = trim(reversed(seg))
            lams.append(lam)
            if lam:
                factor = _block_schur(lam, block[0], block[-1])
                prod = factor if prod is ONE else prod * factor
        return tuple(lams), prod

    return {lams: c[0] for lams, c in _peel(f, element).items()}


def minimal_blocks(alpha: Composition) -> tuple[int, ...]:
    """The smallest valid block bounds for alpha: its strict descents."""
    return tuple(sorted(perms.strict_descents(alpha)))


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
        return tableaux.EMPTY_TABLEAU
    if min(block) <= lower:
        return None
    cuts = [i for i in range(1, len(block)) if block[i] >= block[i - 1]]
    rows = [block[a:b][::-1] for a, b in zip([0] + cuts, cuts + [len(block)])]
    if len(rows) > max_rows:
        # More rows than the block has variables: the block Schur polynomial
        # vanishes, so the tuple indexes no basis element.
        return None
    for upper, below in zip(rows, rows[1:]):
        if len(upper) < len(below) or any(a >= b for a, b in zip(upper, below)):
            return None
    return tableaux._of(tuple(rows))


def _word_split_tuples(
    words: Sequence[tuple[int, ...]], d: Sequence[int]
) -> set[tuple[Tableau, ...]]:
    """Tuples (T_1, ..., T_k) of increasing tableaux whose concatenated
    reading words run over ``words``, with each block a verbatim reading
    word, min T_j exceeding the previous block bound, and at most as many
    rows as the block has variables.  Raises ValueError unless the block
    bounds are strictly increasing from 1.

    Only blocks whose letters all exceed their bound, and after which every
    letter exceeds the next bound, are offered for acceptance."""
    k = len(d)
    bounds = [0] + list(d)
    widths = [len(block) for block in block_variables(d)]
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


def key_split_expansion(
    alpha: Composition, d: Sequence[int] | None = None
) -> dict[LambdaTuple, tuple[int, list[tuple[Tableau, ...]]]]:
    """Block-Schur coefficients of the key polynomial with their witnesses.

    Reaches the insertion fiber of the peeling tableau as the Coxeter-Knuth
    class of its reading word (``tableaux.coxeter_knuth_class``), so no
    other reduced word is enumerated and there is no length bound; splits
    the words into consecutive blocks that are verbatim reading words, and
    groups the resulting tableau tuples by shape.
    """
    alpha = perms.composition(alpha)
    d = minimal_blocks(alpha) if d is None else tuple(d)
    if not perms.strict_descents(alpha) <= set(d):
        raise ValueError(f"blocks {d} miss a strict descent of {alpha}")
    t_ref = tableaux.peeling_tableau(alpha)
    w = perms.perm_from_code(alpha)
    fiber = tableaux.coxeter_knuth_class(t_ref, w)
    witnesses: dict[LambdaTuple, list[tuple[Tableau, ...]]] = {}
    for tup in sorted(
        _word_split_tuples(sorted(fiber), d), key=lambda ts: [t.rows for t in ts]
    ):
        witnesses.setdefault(tuple(t.shape() for t in tup), []).append(tup)
    return {lams: (len(wits), wits) for lams, wits in witnesses.items()}


def schubert_split_expansion(
    w: Permutation, d: Sequence[int]
) -> dict[LambdaTuple, int]:
    """Block-Schur coefficients of the Schubert polynomial: tableau tuples as
    in ``key_split_expansion`` but over all reduced words, with no insertion
    constraint."""
    w = perms.permutation(w)
    d = tuple(d)
    if not perms.perm_descents(w) <= set(d):
        raise ValueError(f"blocks {d} miss a descent of {w}")
    words = sorted(perms.reduced_words(w))
    return Counter(tuple(t.shape() for t in tup) for tup in _word_split_tuples(words, d))


def key_split_expansion_via_pairs(
    alpha: Composition, d: Sequence[int] | None = None
) -> dict[LambdaTuple, int]:
    """Independent route to the key splitting coefficients: push the
    compatible pairs in the insertion fiber of the peeling tableau through
    the block-splitting map and count distinct insertion-tableau tuples.

    Every pair goes through ``tableaux.split_pairs`` with all its checks,
    whose word-level checks run once per fiber word.  Many pairs share
    their block words, and the P tableau of a block depends only on its
    word, so the splits are kept once each, in order of first appearance,
    their block words taken by one C-level map per split, and each
    distinct non-empty block word is column-inserted once per call.  The
    fiber is found by inserting every reduced word that has marks
    (``tableaux.compatible_pairs``), so this route refuses lengths past
    ``perms.MAX_WORD_LENGTH``."""
    alpha = perms.composition(alpha)
    d = minimal_blocks(alpha) if d is None else tuple(d)
    t_ref = tableaux.peeling_tableau(alpha)
    w = perms.perm_from_code(alpha)
    words_of = itemgetter(0)
    splits = dict.fromkeys(
        tuple(map(words_of, blocks))
        for blocks in tableaux.split_pairs(tableaux.compatible_pairs(w, t_ref), d)
    )
    inserted: dict[tuple[int, ...], Tableau] = {(): tableaux.EMPTY_TABLEAU}
    for block_word in chain.from_iterable(splits):
        if block_word not in inserted:
            inserted[block_word] = tableaux.insertion_tableau(block_word)
    tuples = {tuple(map(inserted.__getitem__, split)) for split in splits}
    return Counter(tuple(t.shape() for t in tup) for tup in tuples)


def _mark_polynomial(pairs) -> Polynomial:
    """The sum over the pairs (word, marks) of the product of x_m over the
    marks m."""
    exponents = (perms.multiplicities(marks, max(marks, default=0)) for _, marks in pairs)
    return Polynomial(Counter((tuple(exps), 0) for exps in exponents))


def schubert_from_compatible_pairs(w: Permutation) -> Polynomial:
    """Schubert polynomial as the mark generating function of compatible
    pairs."""
    return _mark_polynomial(tableaux.compatible_pairs(w))


def key_by_insertion_fiber(alpha: Composition) -> Polynomial:
    """Key polynomial as the mark generating function of the compatible pairs
    whose word inserts to the peeling tableau of alpha."""
    alpha = perms.composition(alpha)
    t_ref = tableaux.peeling_tableau(alpha)
    w = perms.perm_from_code(alpha)
    return _mark_polynomial(tableaux.compatible_pairs(w, t_ref))


# ---------------------------------------------------------------------------
# greedy expansions in the three bases

DEFAULT_EXPANSION_CAP = 10_000


def _basis_generator(basis: str):
    """The function alpha -> basis element for 'key', 'J' or 'omega'."""
    if basis == "key":
        return key_polynomial
    if basis == "J":
        return diagrams.j_polynomial
    if basis == "omega":
        return omega_polynomial
    raise ValueError(f"unknown basis {basis!r}")


def expand_in_basis(
    f: Polynomial,
    basis: str,
    step_cap: int = DEFAULT_EXPANSION_CAP,
) -> dict[Composition, BetaCoeff]:
    """Expand a b-free polynomial over the chosen basis ('key', 'J' or
    'omega') by peeling leading monomials (``_peel``): the basis element
    B_theta is led by x^theta with coefficient 1.

    The key and J expansions provably terminate; the omega expansion is
    guarded by ``step_cap`` and raises ExpansionCapError carrying the partial
    result if exceeded.  Coefficients are elements of Z[b] (b enters only
    through the J basis).

    >>> expand_in_basis(schubert((2, 1, 4, 3)), "key")
    {(1, 0, 1): {0: 1}, (2,): {0: 1}}
    """
    generator = _basis_generator(basis)
    if not f.is_beta_free():
        raise ValueError("basis expansion requires a b-free input polynomial")
    return _peel(f, lambda theta: (theta, generator(theta)), step_cap)


def reconstruct_from_expansion(
    coeffs: Mapping[Composition, Mapping[int, int]], basis: str
) -> Polynomial:
    """Inverse of ``expand_in_basis``: sum of coeff * basis element."""
    generator = _basis_generator(basis)
    total = Polynomial()
    for alpha, c in coeffs.items():
        total = total + generator(perms.composition(alpha)).scale(c)
    return total


def expansion_to_json_obj(coeffs: Mapping[Composition, Mapping[int, int]]) -> list:
    return [
        {"alpha": list(alpha), "coeff": sorted(coeffs[alpha].items())}
        for alpha in sorted(coeffs)
    ]


def split_expansion_to_json_obj(coeffs: Mapping[LambdaTuple, int]) -> list:
    return [
        {"lambdas": [list(l) for l in lams], "coeff": coeffs[lams]}
        for lams in sorted(coeffs)
    ]
