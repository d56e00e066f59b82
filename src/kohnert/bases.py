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
and refuses an input that is not block-symmetric on the way.  Every
splitting entry point refuses bad block bounds before any work, by the one
check ``perms.check_block_bounds``.

For key polynomials the block-Schur coefficients are counted by tuples of
increasing tableaux whose concatenated reading words insert to the peeling
tableau of alpha (``key_split_expansion``); for Schubert polynomials the
insertion constraint is dropped (``schubert_split_expansion``).  An
independent route through compatible pairs and the block-splitting map backs
both counts.  For the key count it is ``key_split_expansion_via_pairs``: the
map cuts a pair where its marks cross the block bounds, and a cut of a word
is realised by some marks exactly when the least marks that respect it fit,
so the image of the fiber's pairs is read off each fiber word's distinct
cuts, with no pair built.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Mapping, Sequence

from . import perms
from .perms import Composition, Partition, Permutation
from .poly import ONE, BetaCoeff, Polynomial
from .poly import demazure, divided_difference, isobaric, trim, twisted_demazure

if TYPE_CHECKING:
    from .tableaux import Tableau

LambdaTuple = tuple[Partition, ...]


class BlockSymmetryError(ValueError):
    """Input polynomial is not symmetric within one of the variable blocks."""


def _peel(f: Polynomial, element, work=None) -> dict:
    """Greedy expansion by leading monomials: ``element(m)`` gives a key and
    a basis element led by x^m with coefficient 1; the Z[b] coefficient c of
    the leading monomial x^m is recorded under the key and c times the
    element subtracted, so x^m strictly drops and no key repeats.  Each
    basis the callers peel by is triangular in this order and spans their
    polynomials, so the peel ends after one step per key it records.

    The remainder is one term dict, copied from f once; each step subtracts
    the terms of c times the element from it in place, so a step costs the
    element's terms and two scans of the remainder (its leading monomial
    and that monomial's coefficient), not a copy of it.  A
    ``perms.WorkBudget`` is charged for both scans before each step, and
    for the subtraction before it is made: one key per term of the element
    and b-degree of c."""
    out: dict = {}
    terms = dict(f.terms)
    # A scanned term costs 4 units and 1 more per 4 entries of f's longest
    # exponent, as comparing two terms reads their common prefix: a term
    # of one entry took 105-150 ns a step in-process, and a common prefix
    # about 10 ns an entry (2-CPU box, Python 3.11).  Every element lies in
    # the variables of its leading monomial, so no remainder term is longer.
    scan_units = None if work is None else 4 + f.max_variable() // 4
    while terms:
        if work is not None:
            work.charge(len(terms) * scan_units, "a peel step")
        m = min(terms)[0]
        key, b = element(m)
        assert b.leading_monomial() == m and b.coefficient(m) == {0: 1}
        c = {deg: v for (e, deg), v in terms.items() if e == m}
        if work is not None:
            units = sum(len(e) + work.KEY_OVERHEAD for e, _ in b.terms) * len(c)
            work.charge(units, "a peel step")
        out[key] = c
        for (e, deg), v in b.terms.items():
            for c_deg, c_v in c.items():
                term = (e, deg + c_deg)
                rest = terms.get(term, 0) - v * c_v
                if rest:
                    terms[term] = rest
                else:
                    del terms[term]
    return out


# One finished polynomial per (operator, composition), for the life of the
# process.  The operator is part of the key; the public functions look it
# up in this module when they are called.
_operator_memo: dict[tuple[object, Composition], Polynomial] = {}


def _from_dominant(op, alpha: Composition, work=None) -> Polynomial:
    """``op`` applied across the first ascent of alpha, recursively, down to
    the dominant monomial of a weakly decreasing composition.

    A loop walks down the ascent path to the first memo hit (or the
    dominant monomial), keeping each step's ascent, then back up, storing
    each result once it is finished: no path is too long, and the memo
    holds no partial result.  A ``perms.WorkBudget`` is charged before each
    step is built: its composition going down, its operator going up."""
    path = []
    f = _operator_memo.get((op, alpha))
    while f is None:
        i = next((j for j in range(1, len(alpha)) if alpha[j - 1] < alpha[j]), None)
        if i is None:
            f = _operator_memo[op, alpha] = Polynomial.monomial(alpha)
            break
        if work is not None:
            work.charge(len(alpha) + work.KEY_OVERHEAD, "a step down the ascent path")
        path.append(i)
        swapped = list(alpha)
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        alpha = trim(swapped)
        f = _operator_memo.get((op, alpha))
    parts = list(alpha)
    for i in reversed(path):
        parts += [0] * (i + 1 - len(parts))
        parts[i - 1], parts[i] = parts[i], parts[i - 1]
        f = op(i, f, work)
        _operator_memo[op, trim(parts)] = f
    return f


def key_polynomial(alpha: Composition, work=None) -> Polynomial:
    """Demazure character of alpha: the dominant monomial when alpha is
    weakly decreasing, otherwise the symmetrizing operator applied across an
    ascent (the result is independent of which ascent is chosen)."""
    return _from_dominant(demazure, perms.composition(alpha), work)


def omega_polynomial(alpha: Composition, work=None) -> Polynomial:
    """Deformation of the key polynomial using the twisted operator; its
    lowest-degree homogeneous component is the key polynomial."""
    return _from_dominant(twisted_demazure, perms.composition(alpha), work)


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


def schubert(w: Permutation, n: int | None = None, work=None) -> Polynomial:
    """Schubert polynomial, by divided differences down from the staircase
    monomial of the longest element of S_n, through the recursion of
    ``key_polynomial`` (the result does not depend on n).

    >>> print(schubert((1, 3, 2)))
    x2 + x1
    """
    return _from_dominant(divided_difference, _in_symmetric_group(w, n), work)


def grothendieck(w: Permutation, n: int | None = None, work=None) -> Polynomial:
    """Grothendieck polynomial, by isobaric operators down from the staircase
    monomial; its lowest-degree component is the Schubert polynomial."""
    return _from_dominant(isobaric, _in_symmetric_group(w, n), work)


# ---------------------------------------------------------------------------
# block Schur polynomials and the splitting expansion


def block_variables(d: Sequence[int]) -> list[list[int]]:
    """Consecutive variable alphabets cut at d: block j is
    {d_{j-1}+1, ..., d_j} with d_0 = 0."""
    d = perms.check_block_bounds(d)
    return [list(range(a + 1, b + 1)) for a, b in zip([0] + d, d)]


def schur_in_variables(lam: Partition, variables: Sequence[int]) -> Polynomial:
    """Schur polynomial of shape lam in the given variables, as the content
    generating function of semistandard tableaux; zero when lam has more
    rows than there are variables.  Refuses (ValueError) a shape that is
    not a partition of positive parts and a variable below 1."""
    from . import tableaux

    if min(variables, default=1) < 1:
        raise ValueError(f"variables must be positive: {list(variables)}")
    index = (0, *variables)  # entry v of a tableau stands for x_index[v]
    top = max(variables, default=0)
    exponents = (
        perms.multiplicities(map(index.__getitem__, chain.from_iterable(t.rows)), top)
        for t in tableaux.semistandard_tableaux(lam, len(variables))
    )
    return Polynomial(Counter((tuple(exps), 0) for exps in exponents))


def schur_block(lam: Partition, block_index: int, d: Sequence[int]) -> Polynomial:
    """Schur polynomial of the ``block_index``-th alphabet (1-indexed).
    Refuses (ValueError) an index outside 1..k for k blocks."""
    blocks = block_variables(d)
    if not 1 <= block_index <= len(blocks):
        k = len(blocks)
        raise ValueError(f"block index {block_index} is outside 1..{k} for {k} blocks")
    return schur_in_variables(lam, blocks[block_index - 1])


# Steps of a peel, and the peels of one sweep, share their block shapes.
# A few hundred distinct (shape, block) pairs cover a theorem1 sweep (413 at
# weight <= 8 in <= 5 parts); the bound keeps a long-lived process from
# holding every one it ever built.
@lru_cache(maxsize=1024)
def _block_schur(lam: Partition, first: int, last: int) -> Polynomial:
    """The Schur polynomial of shape lam in x_first, ..., x_last."""
    return schur_in_variables(lam, range(first, last + 1))


def _schur_units(lam: Partition, variables: Sequence[int]) -> int:
    """The work of ``schur_in_variables(lam, variables)`` before any tableau
    is filled: each tableau (hook-content count) passes up one generator
    frame per cell, about 20 units, and gives a key of max(variables)."""
    from . import tableaux

    count = tableaux.semistandard_tableaux_count(lam, len(variables))
    return count * (20 * sum(lam) + max(variables) + perms.WorkBudget.KEY_OVERHEAD)


def split_extract(f: Polynomial, d: Sequence[int], work=None) -> dict[LambdaTuple, int]:
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
    multiplied in.  A ``perms.WorkBudget`` is charged for the peel and for
    each factor's tableaux, the first time the call asks for the factor.

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
    charged: set[tuple[Partition, int]] = set()

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
                if work is not None and (lam, j) not in charged:
                    work.charge(_schur_units(lam, block), "a Schur enumeration")
                    charged.add((lam, j))
                factor = _block_schur(lam, block[0], block[-1])
                prod = factor if prod is ONE else prod * factor
        return tuple(lams), prod

    return {lams: c[0] for lams, c in _peel(f, element, work=work).items()}


def minimal_blocks(alpha: Composition) -> tuple[int, ...]:
    """The smallest valid block bounds for alpha: its strict descents."""
    return tuple(sorted(perms.strict_descents(alpha)))


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
    from . import tableaux

    alpha = perms.composition(alpha)
    d = minimal_blocks(alpha) if d is None else perms.check_block_bounds(d, alpha=alpha)
    t_ref = tableaux.peeling_tableau(alpha)
    w = perms.perm_from_code(alpha)
    fiber = tableaux.coxeter_knuth_class(t_ref, w)
    witnesses: dict[LambdaTuple, list[tuple[Tableau, ...]]] = {}
    for tup in sorted(
        tableaux.word_split_tuples(fiber, d), key=lambda ts: [t.rows for t in ts]
    ):
        witnesses.setdefault(tuple(t.shape() for t in tup), []).append(tup)
    return {lams: (len(wits), wits) for lams, wits in witnesses.items()}


def schubert_split_expansion(
    w: Permutation, d: Sequence[int]
) -> dict[LambdaTuple, int]:
    """Block-Schur coefficients of the Schubert polynomial: tableau tuples as
    in ``key_split_expansion`` but over all reduced words, with no insertion
    constraint."""
    from . import tableaux

    w = perms.permutation(w)
    d = perms.check_block_bounds(d, w=w)
    tuples = tableaux.word_split_tuples(perms.reduced_words(w), d)
    return Counter(tuple(t.shape() for t in tup) for tup in tuples)


def key_split_expansion_via_pairs(
    alpha: Composition, d: Sequence[int] | None = None
) -> dict[LambdaTuple, int]:
    """Independent route to the key splitting coefficients: the image of the
    compatible pairs in the insertion fiber of the peeling tableau under
    the block-splitting map, counted as distinct insertion-tableau tuples.

    The fiber's words are found by inserting every reduced word that has
    marks (``tableaux.marked_words``), so this route refuses lengths past
    ``perms.MAX_WORD_LENGTH``, first.  The map cuts a pair where its marks
    cross the block bounds.  Every marks that realise a cut of a word lie
    on or above the least marks that respect it, so the cut is realised
    exactly when those least marks stay at or below their letters and
    block bounds, and the image of a word's pairs is the set of such cuts:
    ``tableaux.split_words`` walks them with no pair built, and checks the
    bounds once per call, before any word is enumerated.  The splits are
    kept once each, in order of first appearance over the pairs, and the
    P tableau of a block depends only on its word, so each distinct
    non-empty block word is column-inserted once per call, unchecked: it
    is a factor of a reduced word, so it is reduced."""
    from . import tableaux

    alpha = perms.composition(alpha)
    perms.check_word_length(sum(alpha))  # the length of w
    d = minimal_blocks(alpha) if d is None else d
    w = perms.perm_from_code(alpha)

    def fiber_words():  # enumerated once split_words has checked the bounds
        yield from tableaux.marked_words(w, tableaux.peeling_tableau(alpha))

    splits = dict.fromkeys(chain.from_iterable(tableaux.split_words(w, fiber_words(), d)))
    inserted: dict[tuple[int, ...], Tableau] = {(): tableaux.EMPTY_TABLEAU}
    for block_word in chain.from_iterable(splits):
        if block_word not in inserted:
            inserted[block_word] = tableaux.reduced_insertion_tableau(block_word)
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
    from . import tableaux

    return _mark_polynomial(tableaux.compatible_pairs(w))


def key_by_insertion_fiber(alpha: Composition) -> Polynomial:
    """Key polynomial as the mark generating function of the compatible pairs
    whose word inserts to the peeling tableau of alpha."""
    from . import tableaux

    alpha = perms.composition(alpha)
    t_ref = tableaux.peeling_tableau(alpha)
    w = perms.perm_from_code(alpha)
    return _mark_polynomial(tableaux.compatible_pairs(w, t_ref))


# ---------------------------------------------------------------------------
# greedy expansions in the three bases


def _basis_generator(basis: str, work=None):
    """The function alpha -> basis element for 'key', 'J' or 'omega'; the
    key and omega elements charge their operator steps to ``work``."""
    if basis == "key":
        return lambda alpha: key_polynomial(alpha, work)
    if basis == "J":
        from . import diagrams  # only the J basis walks

        return diagrams.j_polynomial
    if basis == "omega":
        return lambda alpha: omega_polynomial(alpha, work)
    raise ValueError(f"unknown basis {basis!r}")


def expand_in_basis(f: Polynomial, basis: str, work=None) -> dict[Composition, BetaCoeff]:
    """Expand a b-free polynomial over the chosen basis ('key', 'J' or
    'omega') by peeling leading monomials (``_peel``): the basis element
    B_theta is led by x^theta with coefficient 1.

    The peel ends after one step per term of the expansion.  Coefficients
    are elements of Z[b] (b enters only through the J basis).  A
    ``perms.WorkBudget`` is charged for the peel's scans and subtractions
    and for the operator steps of the key and omega elements; the peel has
    no other bound.

    >>> expand_in_basis(schubert((2, 1, 4, 3)), "key")
    {(1, 0, 1): {0: 1}, (2,): {0: 1}}
    """
    generator = _basis_generator(basis, work)
    if not f.is_beta_free():
        raise ValueError("basis expansion requires a b-free input polynomial")
    return _peel(f, lambda theta: (theta, generator(theta)), work)


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
