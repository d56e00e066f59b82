from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnert import bases
from kohnert.diagrams import (
    GHOST,
    K_KOHNERT,
    KOHNERT,
    PLUS,
    RULES,
    ClosureCapError,
    Diagram,
    closure,
    closure_polynomial,
    diagram_weight,
    ghost_weighted_sum,
    j_polynomial,
    k_polynomial,
    rothe,
    skyline,
    successors,
)
from kohnert.poly import Polynomial


def diag(*cells):
    return Diagram.from_cells(cells)


def closure_starts():
    """Skylines of the compositions of weight <= 5 in <= 4 parts and the
    Rothe diagrams of S_5."""
    from kohnert import perms
    from kohnert.harness import compositions_upto

    starts = [skyline(a) for a in compositions_upto(5, 4)]
    return starts + [rothe(w) for w in perms.all_permutations(5)]


def reference_successors(diagram, rule):
    """The move rule on a cell dict, as first written: the top cell of each
    column, if a '+', goes to the rightmost empty position to its left,
    and under a rule with ghosts may also leave a ghost behind."""
    cells = diagram.cells
    tops = {}
    for col, row in cells:
        if row > tops.get(col, 0):
            tops[col] = row
    out = set()
    for col, row in sorted(tops.items()):
        if cells[(col, row)] != PLUS:
            continue
        for dest in range(col - 1, 0, -1):
            if (dest, row) not in cells:
                moved = dict(cells)
                del moved[(col, row)]
                moved[(dest, row)] = PLUS
                out.add(Diagram(moved))
                if rule.ghosts:
                    out.add(Diagram({**moved, (col, row): GHOST}))
                break
    return out


cell_maps = st.dictionaries(
    st.tuples(st.integers(1, 6), st.integers(1, 6)), st.sampled_from([PLUS, GHOST]),
    max_size=20,
)


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

    def test_rows_built_directly_match_the_cell_definitions(self):
        # skyline and rothe write their rows without the checked cell-dict
        # constructor; the definitions, through it, are the reference.
        from kohnert import perms
        from kohnert.harness import compositions_upto

        for a in compositions_upto(7, 4):
            cells = {(i + 1, y): PLUS for i, h in enumerate(a) for y in range(1, h + 1)}
            assert skyline(a).rows == Diagram(cells).rows, a
        for n in range(1, 7):
            for w in perms.all_permutations(n):
                inv = perms.perm_inverse(w)
                cells = {
                    (x, y): PLUS
                    for x in range(1, len(w) + 1)
                    for y in range(1, len(w) + 1)
                    if y < w[x - 1] and x < inv[y - 1]
                }
                assert rothe(w).rows == Diagram(cells).rows, w

    def test_rendering(self):
        sky = skyline((1, 3, 0, 2, 2, 1))
        assert sky.render() == ".+....\n.+.++.\n++.+++"
        assert skyline(()).render() == ""

    def test_rows_are_the_stored_form(self):
        assert skyline((1, 0, 2)).rows == ("+.+", "..+")
        assert diag((2, 2, GHOST)).rows == ("", ".g")
        assert Diagram().rows == ()
        assert Diagram.__slots__ == ("rows",)

    def test_cells_from_outside_are_checked(self):
        for bad in [{(0, 1): PLUS}, {(1, 0): PLUS}, {(1.5, 1): PLUS}, {(1, 1): "."}]:
            with pytest.raises(ValueError):
                Diagram(bad)
        for duplicate in [[(1, 1, PLUS), (1, 1, PLUS)], [(1, 1, PLUS), (1, 1, GHOST)]]:
            with pytest.raises(ValueError, match="duplicate cell"):
                Diagram.from_cells(duplicate)

    @settings(max_examples=200, deadline=None)
    @given(cell_maps)
    def test_rows_hold_the_cells(self, cells):
        d = Diagram(cells)
        assert d.cells == cells
        assert all(line[-1:] != "." for line in d.rows)
        assert not d.rows or d.rows[-1]
        same = Diagram(dict(reversed(list(cells.items()))))
        assert same == d and same.rows == d.rows and hash(same) == hash(d)
        # the readers of rows agree with their definitions on cells
        cols = [c for c, _ in cells]
        assert d.max_col() == max(cols, default=0)
        assert d.max_row() == max((r for _, r in cells), default=0)
        assert d.plus_count() == list(cells.values()).count(PLUS)
        assert d.ghost_count() == list(cells.values()).count(GHOST)
        assert diagram_weight(d) == tuple(cols.count(c) for c in range(1, d.max_col() + 1))
        assert d.render(4, 3) == "\n".join(
            "".join(cells.get((c, r), ".") for c in range(1, 5)) for r in range(3, 0, -1)
        )


class TestMoves:
    def test_skyline_102_single_move(self):
        succ = successors(skyline((1, 0, 2)), KOHNERT)
        assert succ == {diag((1, 1, PLUS), (3, 1, PLUS), (2, 2, PLUS))}

    def test_dominant_skylines_are_frozen(self):
        assert successors(skyline((2, 1)), KOHNERT) == set()
        assert successors(skyline(()), KOHNERT) == set()
        assert successors(skyline((2, 1)), K_KOHNERT) == set()

    def test_single_plus_both_variants(self):
        succ = successors(diag((2, 1, PLUS)), K_KOHNERT)
        assert succ == {
            diag((1, 1, PLUS)),
            diag((1, 1, PLUS), (2, 1, GHOST)),
        }

    def test_ghosts_block_movement_and_landing(self):
        # the + under a ghost cannot move; the ghost cell is not open
        d = diag((1, 1, PLUS), (1, 2, GHOST))
        assert successors(d, K_KOHNERT) == set()
        d2 = diag((1, 1, GHOST), (2, 1, PLUS), (3, 1, PLUS))
        # (2,1) has no open cell left of it; (3,1) cannot move either
        assert successors(d2, KOHNERT) == set()

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
        assert successors(start, K_KOHNERT) == expected

    def test_matches_reference_rule_on_closures(self):
        checked = 0
        for start in closure_starts():
            for current in closure(start, K_KOHNERT):
                for rule in (KOHNERT, K_KOHNERT):
                    assert successors(current, rule) == reference_successors(current, rule)
                checked += 1
        assert checked == 9158

    def test_rule_name_is_refused_before_any_walk(self):
        # A rule is a MoveRule, not its name.  A name fails at the first
        # move, before any successor is found, so the cap of 1 is never
        # reached (the ghost closure of 0,1 holds 3 diagrams).
        start = skyline((0, 1))
        with pytest.raises(AttributeError):
            successors(start, "kkohnert")
        for walk in (closure, closure_polynomial):
            with pytest.raises(AttributeError):
                walk(start, "kkohnert", cap=1)
            with pytest.raises(ClosureCapError):
                walk(start, K_KOHNERT, cap=1)

    def test_successor_rendering_matches_fixture(self):
        start = diag(
            (1, 2, PLUS), (3, 2, GHOST), (4, 2, PLUS),
            (2, 1, PLUS), (3, 1, PLUS), (4, 1, PLUS), (5, 1, PLUS),
        )
        rendered = sorted(
            d.render(5, 2) for d in successors(start, K_KOHNERT)
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

    @pytest.mark.parametrize("n, total", [(5, 1024), (6, 33024)])
    def test_rothe_closure_sizes_are_pinned(self, n, total):
        # The ghost rule in use, measured: a rule that lets no '+' jump a
        # ghost gives 2^(n choose 2) here, 1024 and 32768 (see ROADMAP).
        from kohnert import perms

        sizes = [len(closure(rothe(w), K_KOHNERT)) for w in perms.all_permutations(n)]
        assert sum(sizes) == total

    def test_kohnert_closure_is_ghost_free_slice(self):
        # Ghosts are never removed, so the ghost-free diagrams of the ghost
        # closure are the plain closure; the kohnert sweep relies on this.
        from kohnert import perms
        from kohnert.harness import compositions_upto

        cases = [(skyline(a), j_polynomial(a)) for a in compositions_upto(7, 4)]
        cases += [(rothe(w), k_polynomial(w)) for w in perms.all_permutations(5)]
        assert len(cases) == 330 + 120
        for start, generating in cases:
            pure = closure(start, KOHNERT)
            ghosty = closure(start, K_KOHNERT)
            assert pure == frozenset(d for d in ghosty if d.ghost_count() == 0)
            plain = closure_polynomial(start, KOHNERT)
            assert generating.substitute_beta(0) == plain
            # so the kohnert sweep may evaluate it at b = -1 like the others
            assert plain.substitute_beta(-1) == plain

    def test_cap(self):
        with pytest.raises(ClosureCapError) as exc:
            closure(skyline((1, 0, 2)), K_KOHNERT, cap=5)
        assert exc.value.partial_count == 5
        for cap in range(1, 13):
            with pytest.raises(ClosureCapError) as exc:
                closure(skyline((1, 0, 2)), K_KOHNERT, cap=cap)
            assert exc.value.partial_count == cap
        assert len(closure(skyline((1, 0, 2)), K_KOHNERT, cap=13)) == 13

    def test_counted_walk_cap_matches_closure(self):
        for cap in range(1, 13):
            with pytest.raises(ClosureCapError) as exc:
                closure_polynomial(skyline((1, 0, 2)), K_KOHNERT, cap=cap)
            assert exc.value.partial_count == cap
        counted = closure_polynomial(skyline((1, 0, 2)), K_KOHNERT, cap=13)
        assert counted == j_polynomial((1, 0, 2))

    def test_column_taller_than_a_byte(self):
        # 300 cells in one column need a weight field wider than a byte
        start = skyline((0, 300))
        key = bases.key_polynomial((0, 300))
        assert len(closure(start, KOHNERT)) == 301
        assert closure_polynomial(start, KOHNERT) == key
        ghosty = closure_polynomial(start, K_KOHNERT)
        assert ghosty.substitute_beta(0) == key
        assert ghosty == ghost_weighted_sum(closure(start, K_KOHNERT))
        assert max(deg for _, deg in ghosty.terms) == 1

    def test_empty_diagram(self):
        for start in (skyline(()), rothe((1,))):
            assert start == Diagram()
            for rule in (KOHNERT, K_KOHNERT):
                assert closure(start, rule) == {Diagram()}
                assert closure_polynomial(start, rule) == Polynomial.monomial(())
                assert successors(start, rule) == set()

    @pytest.mark.parametrize("name,size", [("kohnert", 5), ("kkohnert", 13)])
    def test_cap_is_exact(self, name, size):
        # size diagrams fit a cap of size; the (cap + 1)-st raises in both walks
        rule, start = RULES[name], skyline((1, 0, 2))
        assert len(closure(start, rule, cap=size)) == size
        assert closure_polynomial(start, rule, cap=size) == ghost_weighted_sum(
            closure(start, rule)
        )
        for walk in (closure, closure_polynomial):
            with pytest.raises(ClosureCapError) as exc:
                walk(start, rule, cap=size - 1)
            assert exc.value.partial_count == exc.value.cap == size - 1

    def test_invariants_on_every_successor_edge(self):
        # Moves go left, keep the '+' count, never remove a ghost and stay
        # inside the start's bounding box; the '+' column sum strictly drops,
        # which is why a closure terminates.
        def plus_measure(d):
            return sum(c for (c, _), m in d.cells.items() if m == PLUS)

        edges = 0
        for start in closure_starts():
            max_col, max_row = start.max_col(), start.max_row()
            for current in closure(start, K_KOHNERT):
                for nxt in successors(current, K_KOHNERT):
                    assert plus_measure(nxt) < plus_measure(current)
                    assert nxt.plus_count() == current.plus_count()
                    assert nxt.ghost_count() >= current.ghost_count()
                    assert nxt.max_col() <= max_col and nxt.max_row() <= max_row
                    edges += 1
        assert edges > 0

    def test_counted_walk_matches_diagram_sum(self):
        # The per-diagram sum stays the reference for the weight carried
        # through each move.
        for start in closure_starts():
            for rule in (KOHNERT, K_KOHNERT):
                reference = ghost_weighted_sum(closure(start, rule))
                assert closure_polynomial(start, rule) == reference

    def test_closure_is_the_reference_fixpoint(self):
        # The cell-dict rule, iterated to a fixpoint, gives every closure
        # whatever order the walk visits it in.
        for start in closure_starts():
            for rule in (KOHNERT, K_KOHNERT):
                reached, todo = {start}, [start]
                while todo:
                    for nxt in reference_successors(todo.pop(), rule):
                        if nxt not in reached:
                            reached.add(nxt)
                            todo.append(nxt)
                assert closure(start, rule) == reached

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
