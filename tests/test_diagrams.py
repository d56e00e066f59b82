from collections import Counter

import pytest

from kohnert import bases
from kohnert.diagrams import (
    GHOST,
    K_KOHNERT,
    KOHNERT,
    PLUS,
    ClosureCapError,
    Diagram,
    closure,
    diagram_weight,
    ghost_weighted_sum,
    j_polynomial,
    k_kohnert_successors,
    k_polynomial,
    kohnert_successors,
    rothe,
    skyline,
)
from kohnert.poly import Polynomial


def diag(*cells):
    return Diagram.from_cells(cells)


class TestConstructors:
    def test_skyline_cells(self):
        assert sorted(skyline((1, 0, 2)).cells) == [(1, 1), (3, 1), (3, 2)]
        assert skyline(()).cells == {}
        sky = skyline((1, 3, 0, 2, 2, 1))
        assert len(sky.cells) == 9
        assert diagram_weight(sky) == (1, 3, 0, 2, 2, 1)

    def test_rothe_cells(self):
        assert sorted(rothe((3, 1, 4, 2)).cells) == [(1, 1), (1, 2), (3, 2)]
        assert sorted(rothe((3, 2, 1)).cells) == [(1, 1), (1, 2), (2, 1)]
        assert rothe((1,)).cells == {}

    def test_rothe_column_counts_are_the_code(self):
        from kohnert import perms

        for w in perms.all_permutations(4):
            d = rothe(w)
            assert len(d.cells) == perms.perm_length(w)
            assert diagram_weight(d) == perms.lehmer_code(w)

    def test_rendering(self):
        sky = skyline((1, 3, 0, 2, 2, 1))
        assert sky.render() == ".+....\n.+.++.\n++.+++"
        assert skyline(()).render() == ""

    def test_json_roundtrip(self):
        d = diag((1, 1, PLUS), (2, 1, GHOST))
        assert Diagram.from_json_obj(d.to_json_obj()) == d
        with pytest.raises(ValueError):
            Diagram.from_cells([(1, 1, PLUS), (1, 1, GHOST)])


class TestMoves:
    def test_skyline_102_single_move(self):
        succ = kohnert_successors(skyline((1, 0, 2)))
        assert succ == {diag((1, 1, PLUS), (3, 1, PLUS), (2, 2, PLUS))}

    def test_dominant_skylines_are_frozen(self):
        assert kohnert_successors(skyline((2, 1))) == set()
        assert kohnert_successors(skyline(())) == set()
        assert k_kohnert_successors(skyline((2, 1))) == set()

    def test_single_plus_both_variants(self):
        succ = k_kohnert_successors(diag((2, 1, PLUS)))
        assert succ == {
            diag((1, 1, PLUS)),
            diag((1, 1, PLUS), (2, 1, GHOST)),
        }

    def test_ghosts_block_movement_and_landing(self):
        # the + under a ghost cannot move; the ghost cell is not open
        d = diag((1, 1, PLUS), (1, 2, GHOST))
        assert k_kohnert_successors(d) == set()
        d2 = diag((1, 1, GHOST), (2, 1, PLUS), (3, 1, PLUS))
        # (2,1) has no open cell left of it; (3,1) cannot move either
        assert kohnert_successors(d2) == set()

    def test_six_successors_of_ghosted_two_row_diagram(self):
        start = diag(
            (1, 2, PLUS), (3, 2, GHOST), (4, 2, PLUS),
            (2, 1, PLUS), (3, 1, PLUS), (4, 1, PLUS), (5, 1, PLUS),
        )
        expected = {
            diag((1, 2, PLUS), (3, 2, GHOST), (4, 2, PLUS),
                 (1, 1, PLUS), (3, 1, PLUS), (4, 1, PLUS), (5, 1, PLUS)),
            diag((1, 2, PLUS), (3, 2, GHOST), (4, 2, PLUS),
                 (1, 1, PLUS), (2, 1, GHOST), (3, 1, PLUS), (4, 1, PLUS), (5, 1, PLUS)),
            diag((1, 2, PLUS), (2, 2, PLUS), (3, 2, GHOST),
                 (2, 1, PLUS), (3, 1, PLUS), (4, 1, PLUS), (5, 1, PLUS)),
            diag((1, 2, PLUS), (2, 2, PLUS), (3, 2, GHOST), (4, 2, GHOST),
                 (2, 1, PLUS), (3, 1, PLUS), (4, 1, PLUS), (5, 1, PLUS)),
            diag((1, 2, PLUS), (3, 2, GHOST), (4, 2, PLUS),
                 (1, 1, PLUS), (2, 1, PLUS), (3, 1, PLUS), (4, 1, PLUS)),
            diag((1, 2, PLUS), (3, 2, GHOST), (4, 2, PLUS),
                 (1, 1, PLUS), (2, 1, PLUS), (3, 1, PLUS), (4, 1, PLUS), (5, 1, GHOST)),
        }
        assert k_kohnert_successors(start) == expected

    def test_successor_rendering_matches_fixture(self):
        start = diag(
            (1, 2, PLUS), (3, 2, GHOST), (4, 2, PLUS),
            (2, 1, PLUS), (3, 1, PLUS), (4, 1, PLUS), (5, 1, PLUS),
        )
        rendered = sorted(
            d.render(5, 2) for d in k_kohnert_successors(start)
        )
        assert rendered == sorted([
            "+.g+.\n+.+++",
            "+.g+.\n+g+++",
            "++g..\n.++++",
            "++gg.\n.++++",
            "+.g+.\n++++.",
            "+.g+.\n++++g",
        ])


class TestClosure:
    def test_thirteen_diagrams_with_ghost_histogram(self):
        found = closure(skyline((1, 0, 2)), K_KOHNERT)
        assert len(found) == 13
        hist = Counter(d.ghost_count() for d in found)
        assert hist == {0: 5, 1: 6, 2: 2}

    def test_rothe_3142_closure(self):
        found = closure(rothe((3, 1, 4, 2)), K_KOHNERT)
        assert len(found) == 3

    def test_kohnert_closure_is_ghost_free_slice(self):
        for alpha in [(1, 0, 2), (3, 1), (0, 2, 1), (1, 1, 2)]:
            pure = closure(skyline(alpha), KOHNERT)
            ghosty = closure(skyline(alpha), K_KOHNERT)
            assert pure == frozenset(d for d in ghosty if d.ghost_count() == 0)

    def test_cap(self):
        with pytest.raises(ClosureCapError) as exc:
            closure(skyline((1, 0, 2)), K_KOHNERT, cap=5)
        assert exc.value.partial_count == 5

    def test_invariants_on_every_successor_edge(self):
        # Moves go left, keep the '+' count, never remove a ghost and stay
        # inside the start's bounding box; the '+' column sum strictly drops,
        # which is why a closure terminates.
        from kohnert import perms
        from kohnert.harness import compositions_upto

        def plus_measure(d):
            return sum(c for (c, _), m in d.cells.items() if m == PLUS)

        starts = [skyline(a) for a in compositions_upto(5, 4)]
        starts += [rothe(w) for w in perms.all_permutations(5)]
        edges = 0
        for start in starts:
            max_col, max_row = start.max_col(), start.max_row()
            for current in closure(start, K_KOHNERT):
                for nxt in k_kohnert_successors(current):
                    assert plus_measure(nxt) < plus_measure(current)
                    assert nxt.plus_count() == current.plus_count()
                    assert nxt.ghost_count() >= current.ghost_count()
                    assert nxt.max_col() <= max_col and nxt.max_row() <= max_row
                    edges += 1
        assert edges > 0

    def test_weights_sum_to_key_polynomial(self):
        total = ghost_weighted_sum(closure(skyline((3, 1)), KOHNERT))
        assert total == bases.key_polynomial((3, 1))


class TestWeight:
    def test_ghosts_count(self):
        d = diag((1, 1, PLUS), (3, 1, PLUS), (1, 2, PLUS), (2, 2, GHOST))
        assert diagram_weight(d) == (2, 1, 1)

    def test_empty(self):
        assert diagram_weight(Diagram()) == ()

    def test_skyline_weight(self):
        assert diagram_weight(skyline((1, 3, 0, 2))) == (1, 3, 0, 2)


class TestGeneratingPolynomials:
    def test_three_column_example_evaluated(self):
        J = j_polynomial((1, 0, 2))
        m = Polynomial.monomial
        expected = (
            m((1, 0, 2)) + m((1, 1, 1)) + m((2, 0, 1)) + m((2, 1)) + m((1, 2))
            + m((2, 1, 1), 1, 1) + m((2, 2), 1, 1) + m((1, 2, 1), 1, 1)
            + m((1, 1, 2), 1, 1) + m((2, 0, 2), 1, 1) + m((2, 1, 1), 1, 1)
            + m((2, 2, 1), 1, 2) + m((2, 1, 2), 1, 2)
        )
        assert J == expected
        at_minus_one = J.substitute_beta(-1)
        signed = (
            m((1, 0, 2)) + m((1, 1, 1)) + m((2, 0, 1)) + m((2, 1)) + m((1, 2))
            - (m((2, 1, 1), 2) + m((2, 2)) + m((1, 2, 1)) + m((1, 1, 2)) + m((2, 0, 2)))
            + m((2, 2, 1)) + m((2, 1, 2))
        )
        assert at_minus_one == signed

    def test_two_cell_column(self):
        J = j_polynomial((0, 1))
        m = Polynomial.monomial
        assert J == m((0, 1)) + m((1,)) + m((1, 1), 1, 1)

    def test_dominant_is_single_monomial(self):
        assert j_polynomial((3, 2, 1)) == Polynomial.monomial((3, 2, 1))

    def test_rothe_generating_polynomial(self):
        K = k_polynomial((3, 1, 4, 2))
        m = Polynomial.monomial
        assert K == m((2, 0, 1)) + m((2, 1)) + m((2, 1, 1), 1, 1)
        assert K.substitute_beta(-1) == m((2, 0, 1)) + m((2, 1)) - m((2, 1, 1))
        assert K.substitute_beta(0) == bases.schubert((3, 1, 4, 2))

    def test_identity_and_simple_transposition(self):
        assert k_polynomial((1,)) == Polynomial.monomial(())
        assert k_polynomial((2, 1)) == Polynomial.monomial((1,))
