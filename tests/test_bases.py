import contextlib
import hashlib
import io
import json
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnert import bases, cli, diagrams, perms, tableaux
from kohnert.bases import (
    BlockSymmetryError,
    expand_in_basis,
    grothendieck,
    key_by_insertion_fiber,
    key_polynomial,
    key_split_expansion,
    key_split_expansion_via_pairs,
    minimal_blocks,
    omega_polynomial,
    reconstruct_from_expansion,
    schubert,
    schubert_from_compatible_pairs,
    schubert_split_expansion,
    schur_block,
    split_extract,
)
from kohnert.poly import ONE, Polynomial, demazure, twisted_demazure, x
from kohnert.tableaux import Tableau

m = Polynomial.monomial

EXAMPLE_ALPHA = (1, 3, 0, 2, 2, 1)
EXAMPLE_EXPANSION = {
    ((3, 2), (2, 1, 1), ()): 1,
    ((3, 2), (2, 1), (1,)): 1,
    ((3, 1), (2, 2), (1,)): 1,
    ((3, 1), (2, 2, 1), ()): 1,
}


class TestKeyPolynomials:
    def test_dominant_is_monomial(self):
        assert key_polynomial((2, 1)) == m((2, 1))
        assert key_polynomial(()) == ONE

    def test_small_values(self):
        assert key_polynomial((0, 1)) == x(1) + x(2)
        assert key_polynomial((1, 2)) == m((2, 1)) + m((1, 2))

    def test_single_row_schur_case(self):
        # weakly increasing composition: a Schur polynomial in an initial
        # alphabet, computed independently by tableau enumeration
        assert key_polynomial((1, 2)) == bases.schur_in_variables((2, 1), [1, 2])
        assert key_polynomial((1, 2, 3)) == bases.schur_in_variables(
            (3, 2, 1), [1, 2, 3]
        )

    def test_ascent_choice_independence(self):
        # evaluate every recursion path explicitly
        def paths(alpha, op):
            alpha = perms.composition(alpha)
            ascents = [
                i + 1 for i in range(len(alpha) - 1) if alpha[i] < alpha[i + 1]
            ]
            if not ascents:
                yield m(alpha)
                return
            for i in ascents:
                swapped = list(alpha)
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                for sub in paths(tuple(swapped), op):
                    yield op(i, sub)

        for alpha in [(0, 1, 2), (1, 0, 2), (2, 0, 1, 1), (0, 2, 1), (1, 1, 2)]:
            key_vals = list(paths(alpha, demazure))
            assert all(v == key_vals[0] for v in key_vals)
            assert key_vals[0] == key_polynomial(alpha)
            om_vals = list(paths(alpha, twisted_demazure))
            assert all(v == om_vals[0] for v in om_vals)
            assert om_vals[0] == omega_polynomial(alpha)

    def test_leading_monomial_is_alpha(self):
        from kohnert.harness import compositions_upto

        for alpha in compositions_upto(6, 3):
            poly = key_polynomial(alpha)
            assert poly.leading_monomial() == alpha
            assert poly.coefficient(alpha) == {0: 1}
            assert poly.max_variable() <= (len(alpha) if alpha else 0)


class TestOmegaPolynomials:
    def test_initial_condition(self):
        assert omega_polynomial((2, 1)) == m((2, 1))

    def test_small_value(self):
        assert omega_polynomial((0, 1)) == x(1) + x(2) - x(1) * x(2)

    def test_lowest_degree_component_is_key(self):
        from kohnert.harness import compositions_upto

        for alpha in compositions_upto(5, 3):
            assert omega_polynomial(alpha).lowest_degree_part() == key_polynomial(alpha)

    def test_matches_ghost_sum_on_three_columns(self):
        assert omega_polynomial((1, 0, 2)) == diagrams.j_polynomial(
            (1, 0, 2)
        ).substitute_beta(-1)


class TestSchubertGrothendieck:
    def test_longest_elements(self):
        assert schubert((3, 2, 1)) == m((2, 1))
        assert grothendieck((3, 2, 1)) == m((2, 1))

    def test_values(self):
        assert schubert((3, 1, 4, 2)) == m((2, 0, 1)) + m((2, 1))
        assert grothendieck((3, 1, 4, 2)) == m((2, 0, 1)) + m((2, 1)) - m((2, 1, 1))
        assert schubert((1, 3, 2)) == x(1) + x(2)
        assert grothendieck((1, 3, 2)) == x(1) + x(2) - x(1) * x(2)
        assert schubert((1,)) == ONE

    def test_homogeneous_of_length_degree(self):
        for w in perms.all_permutations(4):
            poly = schubert(w)
            ell = perms.perm_length(w)
            assert all(sum(e) == ell for e, _ in poly.terms)
            assert poly.leading_monomial() == perms.lehmer_code(w)

    def test_grothendieck_lowest_part_is_schubert(self):
        for w in perms.all_permutations(4):
            assert grothendieck(w).lowest_degree_part() == schubert(w)

    def test_stability_under_embedding(self):
        for w in perms.all_permutations(4):
            for n in (5, 6):
                assert schubert(w, 4) == schubert(w, n)
                assert grothendieck(w, 4) == grothendieck(w, n)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            schubert((3, 1, 4, 2), 3)


# SHA-256 of the operator outputs below, taken before divided differences
# moved from long division to their closed form on monomials, so a change
# to any operator recursion shows in the bytes and not only in pass/fail.
OPERATOR_DIGEST = "d973eeaca52499ab282b49a305b2c9b861d5e01bf24de6bbf4c7b5ea657ff24e"


def test_operator_outputs_are_pinned():
    from kohnert.harness import compositions_upto

    comps = compositions_upto(5, 4)
    s5 = list(perms.all_permutations(5))
    outputs = {
        "key": [key_polynomial(a).to_json_obj() for a in comps],
        "omega": [omega_polynomial(a).to_json_obj() for a in comps],
        "schubert": [schubert(w).to_json_obj() for w in s5],
        "grothendieck": [grothendieck(w).to_json_obj() for w in s5],
    }
    text = json.dumps(outputs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == OPERATOR_DIGEST


# SHA-256 of the Schubert and Grothendieck polynomials of all of S_6, taken
# while they still had their own recursion down from the staircase.
S6_DIGEST = "2d839b385629ad9c3106833b25e3252c7c809fc60024193c840ef7f05bdaa5af"


def test_s6_schubert_and_grothendieck_are_pinned():
    s6 = list(perms.all_permutations(6))
    outputs = {
        "schubert": [schubert(w).to_json_obj() for w in s6],
        "grothendieck": [grothendieck(w).to_json_obj() for w in s6],
    }
    text = json.dumps(outputs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == S6_DIGEST


class TestSchurBlocks:
    def test_single_variable(self):
        assert schur_block((1,), 3, (2, 5, 6)) == x(6)

    def test_two_variable_values(self):
        assert schur_block((3, 2), 1, (2,)) == m((3, 2)) + m((2, 3))
        assert schur_block((2, 1), 1, (2,)) == key_polynomial((1, 2))

    def test_too_many_rows_gives_zero(self):
        assert schur_block((1, 1, 1), 1, (2,)).is_zero()

    def test_block_symmetry(self):
        s = schur_block((2, 1), 2, (1, 4))
        for i in (2, 3):
            assert s.apply_transposition(i) == s

    @pytest.mark.parametrize("index", [0, -1, 3])
    def test_index_outside_the_blocks_is_refused(self, index):
        # 0 gave the last block, -1 the first, and 3 raised IndexError
        with pytest.raises(ValueError) as exc:
            schur_block((1,), index, (2, 4))
        assert str(exc.value) == f"block index {index} is outside 1..2 for 2 blocks"

    @pytest.mark.parametrize("shape", [(2, 0), (2, -1), (0,), (-1,)])
    def test_shape_with_a_part_below_1_is_refused(self, shape):
        with pytest.raises(ValueError) as exc:
            bases.schur_in_variables(shape, [1, 2, 3])
        assert str(exc.value) == f"shape must be a partition: {shape}"

    @pytest.mark.parametrize("variables", [[0], [0, 1], [2, -1]])
    def test_variable_below_1_is_refused(self, variables):
        # x_0 was dropped: the Schur polynomial of (1) in x_0 was 1
        with pytest.raises(ValueError) as exc:
            bases.schur_in_variables((1,), variables)
        assert str(exc.value) == f"variables must be positive: {variables}"

    def test_empty_shape_and_empty_alphabet(self):
        assert bases.schur_in_variables((), []) == ONE
        assert bases.schur_in_variables((), [2, 3]) == ONE
        assert bases.schur_in_variables((1,), []).is_zero()


class TestSplitExtract:
    def test_worked_expansion(self):
        assert split_extract(key_polynomial(EXAMPLE_ALPHA), (2, 5, 6)) == (
            EXAMPLE_EXPANSION
        )

    def test_single_block_schur(self):
        s = schur_block((2, 1), 1, (3,))
        assert split_extract(s, (3,)) == {((2, 1),): 1}

    def test_constant(self):
        assert split_extract(ONE, ()) == {(): 1}

    def test_polynomial_in_b_is_refused(self):
        with pytest.raises(ValueError, match="split extraction requires a b-free polynomial"):
            split_extract(Polynomial.monomial((1,), 1, 1), (1,))

    def test_rejects_asymmetric_input(self):
        with pytest.raises(BlockSymmetryError, match="block 1"):
            split_extract(x(1), (2,))

    def test_rejects_variables_past_last_block(self):
        with pytest.raises(ValueError, match="past the last block"):
            split_extract(x(1) + x(2) + x(3), (2,))

    def test_reconstruction(self):
        d = (2, 5, 6)
        expansion = split_extract(key_polynomial(EXAMPLE_ALPHA), d)
        total = Polynomial()
        for lams, c in expansion.items():
            prod = ONE
            for j, lam in enumerate(lams, start=1):
                prod = prod * schur_block(lam, j, d)
            total = total + c * prod
        assert total == key_polynomial(EXAMPLE_ALPHA)

    @given(
        st.sets(st.integers(min_value=1, max_value=4), min_size=1),
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
                st.integers(min_value=-3, max_value=3),
            ),
            max_size=4,
        ),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_refuses_exactly_the_asymmetric_inputs(self, bounds, terms, symmetrise):
        d = sorted(bounds)
        blocks = bases.block_variables(d)
        f = Polynomial({(tuple(e[: d[-1]]), 0): c for e, c in terms})
        if symmetrise:
            # the sum of f over every permutation of the variables within
            # the blocks
            counts = {}
            for (e, _), c in f.terms.items():
                e += (0,) * (d[-1] - len(e))
                for images in product(*(permutations(b) for b in blocks)):
                    moved = list(e)
                    for block, image in zip(blocks, images):
                        for i, j in zip(block, image):
                            moved[j - 1] = e[i - 1]
                    counts[tuple(moved), 0] = counts.get((tuple(moved), 0), 0) + c
            f = Polynomial(counts)
        symmetric = all(
            f.apply_transposition(i) == f for block in blocks for i in block[:-1]
        )
        if not symmetric:
            with pytest.raises(BlockSymmetryError):
                split_extract(f, d)
            return
        total = Polynomial()
        for lams, c in split_extract(f, d).items():
            prod = ONE
            for j, lam in enumerate(lams, start=1):
                prod = prod * schur_block(lam, j, d)
            total = total + c * prod
        assert total == f


# SHA-256 digests of the two greedy peels, taken while ``split_extract`` and
# ``expand_in_basis`` each had a loop of their own.  Every output dict is
# hashed in insertion order, so the order of the peel is pinned too.
SPLIT_DIGEST = "7bec28b881618ea91519986b7081f987816bf3a6e26d39410fca58fd6a2210ef"
SPLIT_EXTRA_BLOCK_DIGEST = "78454ed3f5a4ed6d98af6fe4a2001080937c02c2b653cd3b11ecd88c84ac1fbc"
EXPAND_DIGEST = "9b1d0c259d1bbd30eb6d57b415f11dc02ffa2d47e1dcfc84629e7c1ef6b2d4cc"


def copy_peel(f, element, work=None):
    """The greedy peel as it was before it subtracted in place: each step
    builds c times the element and a new remainder.  The reference for
    ``bases._peel``; it takes the same arguments, but charges no work."""
    out = {}
    g = f
    while not g.is_zero():
        m = g.leading_monomial()
        key, b = element(m)
        assert b.leading_monomial() == m and b.coefficient(m) == {0: 1}
        c = out[key] = g.coefficient(m)
        g = g - b.scale(c)
    return out


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def expansion_items(got):
    return [[list(alpha), sorted(c.items())] for alpha, c in got.items()]


BLOCK_SYMMETRY_CASES = [
    (x(1), (2,), "(1,) not weakly increasing in block 1"),
    (x(2) * x(2) + x(1), (2,), "(1,) not weakly increasing in block 1"),
    (x(1) + x(2) + x(3) * x(3) * x(4), (2, 4), "(0, 0, 2, 1) not weakly increasing in block 2"),
    (m((0, 1, 2, 0, 1)), (1, 3, 5), "(0, 1, 2, 1) not weakly increasing in block 3"),
]


class TestPeelIsPinned:
    @pytest.mark.parametrize(
        "extra_block, digest",
        [(False, SPLIT_DIGEST), (True, SPLIT_EXTRA_BLOCK_DIGEST)],
        ids=["minimal_blocks", "one_more_block"],
    )
    def test_split_extract(self, extra_block, digest):
        from kohnert.harness import compositions_upto

        alphas = compositions_upto(7, 4) + compositions_upto(4, 7)
        assert len(alphas) == 660
        outputs = []
        for alpha in alphas:
            d = minimal_blocks(alpha)
            if extra_block:
                d += ((d[-1] if d else 0) + 1,)
            got = split_extract(key_polynomial(alpha), d)
            outputs.append([[list(map(list, lams)), c] for lams, c in got.items()])
        assert sha256_json(outputs) == digest

    def test_expand_in_basis(self):
        s5 = list(perms.all_permutations(5))
        outputs = {
            "key": [expansion_items(expand_in_basis(schubert(w), "key")) for w in s5],
            "omega": [
                expansion_items(expand_in_basis(grothendieck(w), "omega"))
                for w in s5[:60]
            ],
            "J": [expansion_items(expand_in_basis(schubert(w), "J")) for w in s5[:60]],
        }
        assert sha256_json(outputs) == EXPAND_DIGEST

    def test_block_symmetry_messages(self):
        for f, d, message in BLOCK_SYMMETRY_CASES:
            with pytest.raises(BlockSymmetryError) as exc:
                split_extract(f, d)
            assert str(exc.value) == "leading monomial " + message

    def test_omega_cap_partial_and_remainder(self, monkeypatch):
        # the work budget is the peel's one bound: a budget that a number of
        # steps spends stops the peel at the next step's scan, which
        # charges the remainder those steps left, term by term
        f = schubert((2, 1, 4, 3))
        full = {(1, 0, 1): {0: 1}, (1, 1, 1): {0: 1}, (2,): {0: 1}}
        remainders = {1: m((1, 1, 1)) + m((2,)), 2: m((2,))}
        scan = 4  # units a scanned term of at most 3 entries costs
        peel_charges = []  # units spent before each peel charge

        class Recording(perms.WorkBudget):
            def charge(self, units, what):
                if what == "a peel step":
                    peel_charges.append(self.spent)
                super().charge(units, what)

        # each step charges its scan, then its subtraction; a memo hit is
        # not charged, so each call starts from an empty memo
        monkeypatch.setattr(bases, "_operator_memo", {})
        expand_in_basis(f, "omega", work=Recording(10**9))
        step_starts = peel_charges[::2]
        assert len(step_starts) == len(full)
        for steps, remainder in remainders.items():
            monkeypatch.setattr(bases, "_operator_memo", {})
            work = perms.WorkBudget(step_starts[steps])
            with pytest.raises(perms.BoundExceededError) as exc:
                expand_in_basis(f, "omega", work=work)
            assert str(exc.value) == (
                f"a peel step needs {len(remainder.terms) * scan} work units after "
                f"{work.limit}, past the budget of {work.limit}"
            )
            assert work.spent <= work.limit
        assert list(expand_in_basis(f, "omega").items()) == list(full.items())


class TestPeelInPlace:
    def peels(self):
        """TestPeelIsPinned's inputs, each as a call that gives the list of
        the peel's (key, coefficient) pairs or the type and message of its
        error."""
        from kohnert.harness import compositions_upto

        def run(call, *args, **kwargs):
            try:
                return list(call(*args, **kwargs).items())
            except BlockSymmetryError as exc:
                return type(exc), str(exc)

        for alpha in compositions_upto(7, 4) + compositions_upto(4, 7):
            d = minimal_blocks(alpha)
            yield run, split_extract, key_polynomial(alpha), d
            yield run, split_extract, key_polynomial(alpha), d + ((d[-1] if d else 0) + 1,)
        s5 = list(perms.all_permutations(5))
        for w in s5:
            yield run, expand_in_basis, schubert(w), "key"
        for w in s5[:60]:
            yield run, expand_in_basis, grothendieck(w), "omega"
            yield run, expand_in_basis, schubert(w), "J"
        for _ in range(3):  # three runs of one input, as the count below pins
            yield run, expand_in_basis, schubert((2, 1, 4, 3)), "omega"
        for f, d, _ in BLOCK_SYMMETRY_CASES:
            yield run, split_extract, f, d

    def test_matches_the_copy_per_step_peel(self, monkeypatch):
        inputs = list(self.peels())
        got = [run(*args) for run, *args in inputs]
        monkeypatch.setattr(bases, "_peel", copy_peel)
        expected = [run(*args) for run, *args in inputs]
        assert len(got) == 1567
        for args, g, e in zip(inputs, got, expected):
            assert g == e, args[1:]
        assert sum(isinstance(e, tuple) for e in expected) == 4

    def test_subtracts_in_place_from_one_copy(self):
        # the input is copied once and never changed; b-degrees of the
        # coefficient ride along with the element's terms
        f = schubert((2, 1, 4, 3))
        before = dict(f.terms)
        assert expand_in_basis(f, "J") == {(1, 0, 1): {0: 1}, (2,): {0: 1}, (1, 1, 1): {1: -1}}
        assert f.terms == before


class TestSplittingRoutes:
    def test_worked_witnesses(self):
        expansion = key_split_expansion(EXAMPLE_ALPHA, (2, 5, 6))
        assert {k: v[0] for k, v in expansion.items()} == EXAMPLE_EXPANSION
        witnesses = {
            ((3, 2), (2, 1, 1), ()): (
                Tableau([[1, 3, 4], [2, 5]]),
                Tableau([[4, 6], [5], [6]]),
                Tableau([]),
            ),
            ((3, 2), (2, 1), (1,)): (
                Tableau([[1, 3, 4], [2, 5]]),
                Tableau([[4, 6], [5]]),
                Tableau([[6]]),
            ),
            ((3, 1), (2, 2), (1,)): (
                Tableau([[1, 3, 4], [2]]),
                Tableau([[4, 5], [5, 6]]),
                Tableau([[6]]),
            ),
            ((3, 1), (2, 2, 1), ()): (
                Tableau([[1, 3, 4], [2]]),
                Tableau([[4, 5], [5, 6], [6]]),
                Tableau([]),
            ),
        }
        for lams, wit in witnesses.items():
            count, wits = expansion[lams]
            assert count == 1 and wits == [wit]

    def test_count_api(self):
        expansion = key_split_expansion(EXAMPLE_ALPHA, (2, 5, 6))
        count, wits = expansion[((3, 2), (2, 1), (1,))]
        assert count == 1 and len(wits) == 1
        assert ((9,), (), ()) not in expansion

    def test_closure_route_has_no_length_bound(self):
        # length 13: the tableau-tuple route answers, the enumerating
        # compatible-pair routes still refuse
        one_row = (Tableau([list(range(1, 14))]),)
        assert key_split_expansion((13,)) == {((13,),): (1, [one_row])}
        with pytest.raises(perms.BoundExceededError):
            key_split_expansion_via_pairs((13,))
        with pytest.raises(perms.BoundExceededError):
            key_by_insertion_fiber((13,))

    def test_block_acceptance_matches_insertion(self):
        # The reference inserts each block and keeps it when the insertion
        # tableau reads back the block verbatim.
        from kohnert.harness import compositions_upto

        words = set()
        for w in perms.all_permutations(5):
            words |= perms.reduced_words(w)
        for alpha in compositions_upto(7, 4):
            t = tableaux.peeling_tableau(alpha)
            words |= tableaux.coxeter_knuth_class(t, perms.perm_from_code(alpha))
        blocks = {a[i:j] for a in words for i in range(len(a) + 1) for j in range(i, len(a) + 1)}
        accepted = 0
        for block in blocks:
            t = tableaux.insertion_tableau(block) if block else Tableau()
            verbatim = tableaux.row_word(t) == block
            for lower in (0, 1, 2):
                for max_rows in (1, 2, 3, 9):
                    ok = verbatim and len(t.rows) <= max_rows
                    ok = ok and not (block and min(block) <= lower)
                    got = tableaux._accept_block(block, lower, max_rows)
                    assert got == (t if ok else None), (block, lower, max_rows)
                    accepted += ok
        assert len(blocks) > 5000 and accepted > 1000

    def test_requires_strict_descents_covered(self):
        with pytest.raises(ValueError) as exc:
            key_split_expansion((1, 3, 0, 2, 2, 1), (2, 5))
        assert str(exc.value) == "block bounds [2, 5] do not contain the descents of 1,3,0,2,2,1"

    def test_rejects_bounds_not_increasing(self):
        # each list covers the strict descents, but is no list of block bounds
        with pytest.raises(ValueError, match="strictly increasing"):
            key_split_expansion((2, 1), (2, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            key_split_expansion((1, 0, 2), (3, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            schubert_split_expansion((1, 3, 2), (2, 1))

    def test_schubert_rejects_a_descent_not_covered(self):
        with pytest.raises(ValueError) as exc:
            schubert_split_expansion((2, 1), ())
        assert str(exc.value) == "block bounds [] do not contain the descents of (2, 1)"

    @pytest.mark.parametrize("d", [(2, 1), (1, 3, 3), (0, 1, 3), (-2,), (0,)])
    def test_block_variables_and_split_blocks_refuse_alike(self, d):
        for refuse in (bases.block_variables, lambda d: tableaux.split_blocks(((), ()), d)):
            with pytest.raises(ValueError) as exc:
                refuse(d)
            assert str(exc.value) == f"block bounds must be strictly increasing: {list(d)}"

    def test_three_routes_agree(self):
        from kohnert.harness import compositions_upto

        for alpha in compositions_upto(5, 3):
            d = minimal_blocks(alpha)
            extracted = split_extract(key_polynomial(alpha), d)
            counted = {k: v[0] for k, v in key_split_expansion(alpha, d).items()}
            paired = key_split_expansion_via_pairs(alpha, d)
            assert extracted == counted == paired
            assert all(v > 0 for v in extracted.values())

    @staticmethod
    def pairs_reference(alpha, d):
        """Route 3 as one insertion per pair: the P tuples of
        ``split_compatible_pair`` over the fiber, counted by shape."""
        t_ref = tableaux.peeling_tableau(alpha)
        pairs = tableaux.compatible_pairs(perms.perm_from_code(alpha), t_ref)
        tuples = {tuple(p for p, _ in tableaux.split_compatible_pair(pair, d)) for pair in pairs}
        out = {}
        for tup in tuples:
            lams = tuple(t.shape() for t in tup)
            out[lams] = out.get(lams, 0) + 1
        return out

    def test_pairs_route_matches_per_pair_insertion(self):
        from kohnert.harness import compositions_upto

        alphas = compositions_upto(7, 4)
        assert len(alphas) == 330
        for alpha in alphas:
            d = minimal_blocks(alpha)
            for blocks in (d, d + (max(d, default=0) + 1,)):
                assert key_split_expansion_via_pairs(alpha, blocks) == (
                    self.pairs_reference(alpha, blocks)
                ), (alpha, blocks)

    def test_pairs_route_inserts_each_block_word_once(self, monkeypatch):
        from kohnert.harness import compositions_upto

        original_insert = tableaux.reduced_insertion_tableau
        inserted = []

        def counting(word):
            inserted.append(tuple(word))
            return original_insert(word)

        for alpha in compositions_upto(6, 3):
            d = minimal_blocks(alpha)
            for blocks in (d, d + (max(d, default=0) + 1,)):
                t_ref = tableaux.peeling_tableau(alpha)
                pairs = tableaux.compatible_pairs(perms.perm_from_code(alpha), t_ref)
                block_words = {
                    bw for pair in pairs for bw, _ in tableaux.split_blocks(pair, blocks) if bw
                }
                monkeypatch.setattr(tableaux, "reduced_insertion_tableau", counting)
                inserted.clear()
                key_split_expansion_via_pairs(alpha, blocks)
                monkeypatch.undo()
                assert sorted(inserted) == sorted(block_words), (alpha, blocks)

    def test_pairs_route_checks_the_descents_once(self, monkeypatch):
        from kohnert.harness import compositions_upto

        original_descents = perms.perm_descents
        checked = []

        def counting(w):
            checked.append(w)
            return original_descents(w)

        for alpha in compositions_upto(6, 3):
            w = perms.perm_from_code(alpha)
            d = minimal_blocks(alpha)
            for blocks in (d, d + (max(d, default=0) + 1,)):
                # the reduced words of w are enumerated once, before the count
                key_split_expansion_via_pairs(alpha, blocks)
                monkeypatch.setattr(perms, "perm_descents", counting)
                checked.clear()
                key_split_expansion_via_pairs(alpha, blocks)
                monkeypatch.undo()
                assert checked == [w], (alpha, blocks)

    @pytest.mark.parametrize(
        "alpha, d, error, message",
        [
            ((1, 0, 2), (3, 1), ValueError, "block bounds must be strictly increasing: [3, 1]"),
            ((2, 1), (2, 2), ValueError, "block bounds must be strictly increasing: [2, 2]"),
            ((1,), (0, 1), ValueError, "block bounds must be strictly increasing: [0, 1]"),
            ((), (2, 1), ValueError, "block bounds must be strictly increasing: [2, 1]"),
            ((0, 2), (), ValueError, "block bounds [] do not contain the descents of (1, 4, 2, 3)"),
            (
                (1, 3, 0, 2, 2, 1),
                (2, 5),
                ValueError,
                "block bounds [2, 5] do not contain the descents of (2, 5, 1, 6, 7, 4, 3)",
            ),
            (
                (0, 0, 3),
                (1, 2),
                ValueError,
                "block bounds [1, 2] do not contain the descents of (1, 2, 6, 3, 4, 5)",
            ),
            (
                (13,),
                None,
                perms.BoundExceededError,
                "length 13 exceeds bound 12; up to 6227020800 reduced words",
            ),
            # the length is refused before the bounds are read
            (
                (6, 6, 1),
                (2, 1),
                perms.BoundExceededError,
                "length 13 exceeds bound 12; up to 6227020800 reduced words",
            ),
        ],
    )
    def test_pairs_route_refusals(self, alpha, d, error, message):
        with pytest.raises(error) as exc:
            key_split_expansion_via_pairs(alpha, d)
        assert (type(exc.value), str(exc.value)) == (error, message)

    def test_pairs_route_reaches_the_fiber_by_insertion_alone(self, monkeypatch):
        # Route 3 must not lean on route 2's Coxeter-Knuth class: it finds
        # the fiber by inserting every reduced word.
        from kohnert.harness import compositions_upto

        def refuse(*args):
            raise AssertionError("the pair route walked a Coxeter-Knuth class")

        alphas = compositions_upto(5, 4)
        expected = [split_extract(key_polynomial(alpha), minimal_blocks(alpha)) for alpha in alphas]
        monkeypatch.setattr(tableaux, "coxeter_knuth_class", refuse)
        monkeypatch.setattr(tableaux, "word_class_closure", refuse)
        got = [key_split_expansion_via_pairs(alpha) for alpha in alphas]
        assert got == expected

    def test_word_route_offers_only_blocks_that_can_lead_to_a_tuple(self, monkeypatch):
        # The word route before it bounded each block's end, kept as a
        # reference: every block from each start is offered to
        # _accept_block, and a letter at or below the bound refuses it there.
        from kohnert.harness import compositions_upto

        original = tableaux._accept_block

        def reference(words, d):
            bounds = [0] + list(d)
            widths = [len(block) for block in bases.block_variables(d)]
            offered, out = set(), set()

            def accept(block, j):
                offered.add((block, bounds[j]))
                return original(block, bounds[j], widths[j])

            def rec(word, start, j, acc):
                if j == len(d) - 1:
                    t = accept(word[start:], j)
                    if t is not None:
                        out.add(acc + (t,))
                    return
                for end in range(start, len(word) + 1):
                    t = accept(word[start:end], j)
                    if t is not None:
                        rec(word, end, j + 1, acc + (t,))

            for word in words:
                rec(word, 0, 0, ())
            return offered, out

        offered = []

        def counting(block, lower, max_rows):
            offered.append((block, lower))
            return original(block, lower, max_rows)

        monkeypatch.setattr(tableaux, "_accept_block", counting)
        cases = []
        for alpha in compositions_upto(6, 4):
            d = minimal_blocks(alpha)
            fiber = tableaux.coxeter_knuth_class(
                tableaux.peeling_tableau(alpha), perms.perm_from_code(alpha)
            )
            cases += [(sorted(fiber), d), (sorted(fiber), d + ((d[-1] if d else 0) + 1,))]
        for w in perms.all_permutations(4):
            cases.append((sorted(perms.reduced_words(w)), tuple(sorted(perms.perm_descents(w)))))
        before = after = 0
        for words, d in cases:
            if not d:
                continue
            offered.clear()
            got = tableaux.word_split_tuples(words, d)
            ref_offered, ref_out = reference(words, d)
            assert got == ref_out, (words, d)
            # no block is offered that its bound refuses
            assert all(min(block, default=lower + 1) > lower for block, lower in offered)
            assert set(offered) <= ref_offered
            before += len(ref_offered)
            after += len(set(offered))
        assert before > 5000 and after < before / 2

    def test_extraction_builds_each_block_schur_once(self, monkeypatch):
        from kohnert.harness import compositions_upto

        original = bases.schur_in_variables
        built = []

        def counting(lam, variables):
            built.append((tuple(lam), tuple(variables)))
            return original(lam, variables)

        monkeypatch.setattr(bases, "schur_in_variables", counting)
        # the memo outlives every call, so the count starts from an empty one
        bases._block_schur.cache_clear()
        alphas = compositions_upto(6, 4)
        cases = [(key_polynomial(alpha), minimal_blocks(alpha)) for alpha in alphas]
        for f, d in cases:
            split_extract(f, d)
        assert len(built) == len(set(built)) > 100
        assert all(lam for lam, _ in built)  # an empty shape is the factor 1
        first = list(built)
        built.clear()
        for f, d in cases:
            split_extract(f, d)
        assert built == []
        for lam, variables in first:
            fresh = original(lam, list(variables))
            assert bases._block_schur(lam, variables[0], variables[-1]) == fresh
        info = bases._block_schur.cache_info()
        assert info.maxsize is not None and info.currsize == len(first)

    def test_schubert_splitting_all_valid_blocks_s4(self):
        from itertools import combinations

        for w in perms.all_permutations(4):
            poly = schubert(w)
            ds = sorted(perms.perm_descents(w))
            for r in range(4):
                for extra in combinations([1, 2, 3], r):
                    d = tuple(sorted(set(ds) | set(extra)))
                    if poly.max_variable() > (d[-1] if d else 0):
                        continue
                    assert schubert_split_expansion(w, d) == split_extract(poly, d)

    def test_single_block_reduces_to_schur_content(self):
        # weakly increasing composition, one block: unique coefficient 1 at
        # the sorted shape
        alpha = (1, 2, 2)
        d = minimal_blocks(alpha)
        assert d == (3,)
        assert {k: v[0] for k, v in key_split_expansion(alpha, d).items()} == {
            ((2, 2, 1),): 1
        }


# Bad block bounds for alpha = 1,0,2, whose coded permutation 21534 has the
# descents 1 and 3, and what each split entry point is given: the
# composition, or a permutation, a word of it or a pair of that word.
BOUNDS_ALPHA = (1, 0, 2)
BOUNDS_W = (2, 1, 5, 3, 4)
BOUNDS_PAIR = ((1, 4, 3), (1, 2, 2))
BAD_BOUNDS = [
    ((3, 1), "block bounds must be strictly increasing: [3, 1]"),
    ((0, 3), "block bounds must be strictly increasing: [0, 3]"),
    ((3,), "block bounds [3] do not contain the descents of {given}"),
]


def split_command(d):
    """``kohnert split`` of 1,0,2 with the block bounds d; its usage error
    is raised as a ValueError with the message."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["split", "--alpha", "1,0,2", "--descents", ",".join(map(str, d))])
    assert code == 2
    raise ValueError(err.getvalue().removeprefix("usage error: ").removesuffix("\n"))


SPLIT_ENTRY_POINTS = {
    "key_split_expansion": (lambda d: key_split_expansion(BOUNDS_ALPHA, d), "1,0,2"),
    "key_split_expansion_via_pairs": (
        lambda d: key_split_expansion_via_pairs(BOUNDS_ALPHA, d),
        str(BOUNDS_W),
    ),
    "schubert_split_expansion": (lambda d: schubert_split_expansion(BOUNDS_W, d), str(BOUNDS_W)),
    "split_words": (lambda d: tableaux.split_words(BOUNDS_W, [BOUNDS_PAIR[0]], d), str(BOUNDS_W)),
    "split_blocks": (lambda d: tableaux.split_blocks(BOUNDS_PAIR, d), str(BOUNDS_W)),
    "kohnert split": (split_command, "1,0,2"),
}


@pytest.mark.parametrize("d, message", BAD_BOUNDS, ids=["decreasing", "zero", "missed-descent"])
@pytest.mark.parametrize("entry", list(SPLIT_ENTRY_POINTS))
def test_bad_block_bounds_are_refused_by_one_check_before_any_work(monkeypatch, entry, d, message):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{entry} worked before it checked its block bounds")

    monkeypatch.setattr(perms, "reduced_words", no_work)
    monkeypatch.setattr(tableaux, "coxeter_knuth_class", no_work)
    monkeypatch.setattr(bases, "key_polynomial", no_work)
    split, given = SPLIT_ENTRY_POINTS[entry]
    assert perms.perm_from_code(BOUNDS_ALPHA) == perms.word_to_perm(BOUNDS_PAIR[0]) == BOUNDS_W
    with pytest.raises(ValueError) as exc:
        split(d)
    assert str(exc.value) == message.format(given=given)


class TestCompatiblePairFormulas:
    def test_schubert_sum_small(self):
        for w in perms.all_permutations(4):
            assert schubert_from_compatible_pairs(w) == schubert(w)

    def test_key_fiber_formula(self):
        assert key_by_insertion_fiber((0, 1)) == key_polynomial((0, 1))
        assert key_by_insertion_fiber((2, 1)) == m((2, 1))
        from kohnert.harness import compositions_upto

        for alpha in compositions_upto(4, 3):
            assert key_by_insertion_fiber(alpha) == key_polynomial(alpha)


class TestKeyDecompositionOfSchubert:
    def test_all_shapes_version_s4(self):
        for w in perms.all_permutations(4):
            seen = {
                tableaux.insertion_tableau(a) for a in perms.reduced_words(w)
            }
            total = Polynomial()
            for u in seen:
                total = total + key_polynomial(
                    tableaux.content(tableaux.nil_left_key(u))
                )
            assert total == schubert(w)

    def test_2143_needs_two_shapes(self):
        words = perms.reduced_words((2, 1, 4, 3))
        shapes = {tableaux.insertion_tableau(a).shape() for a in words}
        assert shapes == {(2,), (1, 1)}


class TestExpandInBasis:
    def test_key_expansion_of_schubert(self):
        got = expand_in_basis(schubert((2, 1, 4, 3)), "key")
        assert got == {(2,): {0: 1}, (1, 0, 1): {0: 1}}

    def test_j_leading_peel(self):
        f = diagrams.j_polynomial((1, 0, 2)).substitute_beta(-1)
        got = expand_in_basis(f, "J")
        # the b = -1 evaluation is not itself a J-polynomial, but the
        # expansion must lead with coefficient 1 at the composition itself
        assert got[(1, 0, 2)] == {0: 1}
        assert reconstruct_from_expansion(got, "J") == f

    def test_j_roundtrip_random(self):
        rng = random.Random(20130201)
        for trial in range(8):
            f = Polynomial()
            for _ in range(rng.randint(1, 5)):
                exps = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 3)))
                f = f + m(exps, rng.randint(-4, 4))
            got = expand_in_basis(f, "J")
            assert reconstruct_from_expansion(got, "J") == f

    def test_omega_roundtrip_and_cap(self):
        f = schubert((3, 1, 4, 2))
        got = expand_in_basis(f, "omega")
        assert reconstruct_from_expansion(got, "omega") == f
        multi = schubert((2, 1, 4, 3))
        assert len(expand_in_basis(multi, "omega")) > 1

    def test_grothendieck_omega_signs_reported_not_asserted(self):
        got = expand_in_basis(grothendieck((3, 1, 4, 2)), "omega")
        assert reconstruct_from_expansion(got, "omega") == grothendieck((3, 1, 4, 2))
        # sign-by-degree pattern is informational; record it for the log
        by_degree = {}
        for alpha, coeff in got.items():
            by_degree.setdefault(sum(alpha), set()).add(
                1 if coeff[0] > 0 else -1
            )
        assert by_degree  # non-empty expansion

    def test_rejects_beta_input(self):
        with pytest.raises(ValueError, match="b-free"):
            expand_in_basis(m((1,), 1, 1), "key")

    def test_unknown_basis(self):
        with pytest.raises(ValueError, match="unknown basis"):
            expand_in_basis(ONE, "schur")


# The two memos that may grow for the whole process (ROADMAP item 10).
UNBOUNDED_MEMOS = {"kohnert.bases._operator_memo", "kohnert.perms._reduced_words"}

# Module-level tables filled at import; the test checks that they do not grow.
REGISTRIES = {
    "kohnert.diagrams.RULES",
    "kohnert.moves.RULES",
    "kohnert.harness.SWEEPS",
    "kohnert.harness._CASES",
}


def test_memo_inventory():
    from kohnert import harness, moves, poly

    modules = (perms, poly, moves, diagrams, tableaux, bases, harness)

    def containers():
        # a plain dict, set or list at module level is a memo with no bound
        return {
            f"{module.__name__}.{name}": len(obj)
            for module in modules
            for name, obj in vars(module).items()
            if isinstance(obj, (dict, set, list)) and not name.startswith("__")
        }

    before = containers()
    # an operator no other call uses, so every step is a miss
    bases._from_dominant(lambda i, f, work=None: f, (0, 0, 1))
    assert {name for name, size in containers().items() if size > before[name]} == {
        "kohnert.bases._operator_memo"
    }
    memos = {name: None for name in containers() if name not in REGISTRIES}
    for module in modules:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_info", None)):
                memos[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_info().maxsize
    assert set(memos) == UNBOUNDED_MEMOS | {
        "kohnert.bases._block_schur",
        "kohnert.diagrams._box",
    }
    unbounded = {name for name, maxsize in memos.items() if maxsize is None}
    assert unbounded == UNBOUNDED_MEMOS, (
        "ROADMAP item 10 asks for one memo policy: every process-lifetime "
        "memo bounded and tested.  Only _operator_memo and _reduced_words "
        "are allowed to grow (CHANGES.md, the FOUND line on "
        "perms._reduced_words); bound a new memo, or bound one of the two "
        f"and take it off UNBOUNDED_MEMOS.  Unbounded now: {sorted(unbounded)}"
    )


def memo_free(op, alpha):
    """``bases._from_dominant`` as a plain recursion with no memo and no
    budget: the reference for what a budgeted call leaves in the memo."""
    for i in range(1, len(alpha)):
        if alpha[i - 1] < alpha[i]:
            swapped = list(alpha)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            return op(i, memo_free(op, perms.composition(swapped)))
    return Polynomial.monomial(alpha)


# x1^0 + x1^1 + ... + x1^1999
SUM_OF_POWERS = Polynomial({((k,), 0): 1 for k in range(2000)})


class TestWorkBudget:
    ROWS = {
        "divided_difference": [(0, 0)],
        "demazure": [(1, 0)],
        "twisted_demazure": [(1, 0), (1, 1)],
        "isobaric": [(0, 0), (0, 1)],
    }

    @pytest.mark.parametrize("name", list(ROWS))
    def test_operator_step_is_charged_the_keys_it_builds(self, name):
        # each term of f times each row of m is one monomial, whose divided
        # difference has one key per exponent it passes through; a key of
        # n entries (padded to x_{i+1}) costs n + 28 units
        from kohnert import poly

        op = getattr(poly, name)
        for f in [bases.grothendieck((3, 1, 4, 2)), bases.omega_polynomial((0, 2, 0, 3)),
                  bases.key_polynomial((1, 0, 3, 1))]:
            for i in range(1, 6):
                expected = 0
                for e, _ in f.terms:
                    e = e + (0,) * (i + 1 - len(e))
                    for a, b in self.ROWS[name]:
                        shifted = e[: i - 1] + (e[i - 1] + a, e[i] + b) + e[i + 1 :]
                        keys = len(poly.divided_difference(i, Polynomial.monomial(shifted)).terms)
                        expected += keys * (len(e) + perms.WorkBudget.KEY_OVERHEAD)
                work = perms.WorkBudget(expected)
                assert op(i, f, work) == op(i, f)
                assert work.spent == expected
                with pytest.raises(perms.BoundExceededError):
                    op(i, f, perms.WorkBudget(expected - 1))

    @pytest.mark.parametrize(
        "call,site,limit",
        [
            (lambda work: bases.key_polynomial((0,) * 5 + (6,), work), "an operator step", 1000),
            (lambda work: bases.key_polynomial((0,) * 40 + (1,), work),
             "a step down the ascent path", 1000),
            (lambda work: bases.expand_in_basis(bases.key_polynomial((0, 3, 2, 1)), "J", work=work),
             "a peel step", 1000),
            (lambda work: bases.split_extract(bases.key_polynomial((0, 0, 8)), (3,), work),
             "a Schur enumeration", 1000),
            # the 2000 key elements of x1^k, k < 2000, are monomials of 29
            # units each, so the budget fits them, but not the scans of the
            # remainder, of about 8 million units in all
            (lambda work: bases.expand_in_basis(SUM_OF_POWERS, "key", work=work),
             "a peel step", 100_000),
        ],
        ids=["operator", "descent", "peel", "schur", "peel scan"],
    )
    def test_each_site_refuses_before_it_builds(self, monkeypatch, call, site, limit):
        monkeypatch.setattr(bases, "_operator_memo", {})
        work = perms.WorkBudget(limit)
        with pytest.raises(perms.BoundExceededError, match=f"^{site} needs "):
            call(work)
        assert work.spent <= work.limit
        # the same call without a budget runs to the end
        call(None)

    @pytest.mark.parametrize("limit", [100, 1000, 3000, 10_000])
    def test_refusal_leaves_the_memo_whole(self, monkeypatch, limit):
        monkeypatch.setattr(bases, "_operator_memo", {})
        alpha = (0, 0, 1, 3, 0, 2)
        with pytest.raises(perms.BoundExceededError):
            bases.omega_polynomial(alpha, perms.WorkBudget(limit))
        memo = dict(bases._operator_memo)
        assert (bases.twisted_demazure, alpha) not in memo
        # every entry is a finished polynomial
        for (op, beta), f in memo.items():
            assert f == memo_free(op, beta), beta
        # and a later call without a budget builds the rest
        assert bases.omega_polynomial(alpha) == memo_free(bases.twisted_demazure, alpha)
