import hashlib
import json
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnert import perms, tableaux
from kohnert.tableaux import (
    EMPTY_TABLEAU,
    NonReducedWordError,
    Tableau,
    compatible_pairs,
    content,
    coxeter_knuth_class,
    egls_insert,
    insertion_tableau,
    marked_words,
    nil_left_key,
    peeling_tableau,
    row_word,
    semistandard_tableaux,
    split_blocks,
    split_compatible_pair,
    split_words,
    standard_tableaux_count,
    _mark_choices,
    word_class_closure,
)

def stable_compatible_pairs(w, max_mark):
    """Every (reduced word of w, marks) with marks in 1..max_mark, weakly
    increasing, and strictly increasing across the ascents of the word."""
    return [
        (word, marks)
        for word in sorted(perms.reduced_words(w))
        for marks in combinations_with_replacement(range(1, max_mark + 1), len(word))
        if all(m < n for a, b, m, n in zip(word, word[1:], marks, marks[1:]) if a < b)
    ]


def reference_mark_choices(word):
    """The marks of a word by depth-first recursion, one generator frame per
    letter: the reference for ``_mark_choices``."""
    m = len(word)

    def extend(prefix, j):
        if j == m:
            yield tuple(prefix)
            return
        lo = 1
        if prefix:
            lo = prefix[-1] + (1 if word[j - 1] < word[j] else 0)
        for v in range(lo, word[j] + 1):
            prefix.append(v)
            yield from extend(prefix, j + 1)
            prefix.pop()

    yield from extend([], 0)


def reference_split(pair, d):
    """The block-splitting map as ``egls_insert`` over the blocks of
    ``loop_split_pair``, which checks and cuts block by block: the
    reference for ``split_blocks`` and ``split_compatible_pair``."""
    return [egls_insert(*block) for block in loop_split_pair(pair, d)]


def level_mark_choices(word):
    """The marks of a word one level per letter, each extending every mark
    of the last level, as ``_mark_choices`` built them before it built a
    run of letters at a time: the reference for its list and its order."""
    least = prev = 0
    for letter in word:
        if prev < letter:
            least += 1
        if least > letter:
            return []
        prev = letter
    if not word:
        return [()]
    marks = [(v,) for v in range(1, word[0] + 1)]
    for prev, letter in zip(word, word[1:]):
        step = 1 if prev < letter else 0
        marks = [m + (v,) for m in marks for v in range(m[-1] + step, letter + 1)]
    return marks


def scan_insert_letter(cols, v):
    """Column insertion of one letter by list scans, as it was before the
    columns were bisected: the reference for ``_insert_letter``."""
    c = 0
    while True:
        if c == len(cols):
            cols.append([v])
            return c
        col = cols[c]
        larger = [z for z in col if z > v]
        if not larger:
            if col and col[-1] == v:
                raise NonReducedWordError(f"insertion would duplicate {v}; word is not reduced")
            col.append(v)
            return c
        z = min(larger)
        if z == v + 1 and v in col:
            v = v + 1
        else:
            if v in col:
                raise NonReducedWordError(f"insertion would duplicate {v}; word is not reduced")
            col[col.index(z)] = v
            v = z
        c += 1


def loop_check_stable_marks(word, marks):
    """The marks check as one Python loop: the reference for
    ``_check_stable_marks``."""
    if len(marks) != len(word):
        raise ValueError("marks must have the same length as the word")
    if any(m < 1 for m in marks):
        raise ValueError("marks must be positive")
    for j in range(len(word) - 1):
        if marks[j] > marks[j + 1]:
            raise ValueError(f"marks not weakly increasing at position {j + 1}")
        if word[j] < word[j + 1] and marks[j] >= marks[j + 1]:
            raise ValueError(f"marks must strictly increase across ascent at {j + 1}")


def loop_split_pair(pair, d):
    """``split_blocks`` as one loop over the bounds with a check per block:
    the reference for it."""
    word, marks = pair
    d = list(d)
    if any(d[i] >= d[i + 1] for i in range(len(d) - 1)) or (d and d[0] < 1):
        raise ValueError(f"block bounds must be strictly increasing: {d}")
    w = perms.word_to_perm(word)
    if not perms.perm_descents(w) <= set(d):
        raise ValueError(f"block bounds {d} do not contain the descents of {w}")
    reduced = perms.is_reduced(word)
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
            if not reduced and not perms.is_reduced(block_word):
                raise NonReducedWordError(f"{tuple(block_word)} is not a reduced word")
            loop_check_stable_marks(block_word, block_marks)
        blocks.append((block_word, block_marks))
        pos = end
        prev = bound
    return blocks


def comprehension_columns(rows):
    """The columns of left-justified rows, one comprehension per column, as
    ``Tableau.columns`` built them: a reference for ``_transpose``."""
    ncols = len(rows[0]) if rows else 0
    return [[row[c] for row in rows if len(row) > c] for c in range(ncols)]


def comprehension_rows(cols):
    """The rows of top-justified columns, one comprehension per row, as
    ``Tableau.from_columns`` built them: a reference for ``_transpose``."""
    nrows = len(cols[0]) if cols else 0
    return [[c[r] for c in cols if len(c) > r] for r in range(nrows)]


def loop_is_increasing(t):
    """Each row, then each column, pair by pair: the reference for
    ``Tableau.is_increasing``."""
    for row in t.rows:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for col in comprehension_columns(t.rows):
        if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
            return False
    return True


def loop_is_semistandard(t):
    """Each row, then each column, pair by pair: the reference for
    ``Tableau.is_semistandard``."""
    for row in t.rows:
        if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
            return False
    for col in comprehension_columns(t.rows):
        if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
            return False
    return True


def partitions(n, largest=None):
    """The partitions of n with no part above ``largest``, largest first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def fillings(shape, entries):
    """Every tableau of ``shape`` whose entries, read row by row, are one of
    the sequences of ``entries``, ordered or not."""
    for seq in entries:
        it = iter(seq)
        yield Tableau([[next(it) for _ in range(r)] for r in shape])


def reference_peeling_tableau(alpha):
    """The peel on canonical permutations, rebuilding the descent set once
    per letter: the reference for ``peeling_tableau``."""
    u = perms.perm_from_code(alpha)
    cols = []
    while u != perms.identity():
        letters = []
        bound = None
        while True:
            ds = [d for d in perms.perm_descents(u) if bound is None or d < bound]
            if not ds:
                break
            d = max(ds)
            letters.append(d)
            u = perms.multiply_s(u, d)
            bound = d
        cols.append(sorted(letters))
    return Tableau.from_columns(cols) if cols else EMPTY_TABLEAU


def outcome(f, *args):
    """The result of f(*args), or the type and message of its error."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


T_BIG = Tableau([[1, 3, 4], [2, 5], [4, 6], [5], [6]])


class TestTableauBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tableau([[1], [2, 3]])
        with pytest.raises(ValueError):
            Tableau([[0]])

    def test_shape_columns_roundtrip(self):
        assert T_BIG.shape() == (3, 2, 2, 1, 1)
        assert Tableau.from_columns(T_BIG.columns()) == T_BIG
        assert T_BIG.columns()[0] == [1, 2, 4, 5, 6]

    def test_predicates(self):
        assert T_BIG.is_increasing()
        assert not Tableau([[1, 1]]).is_increasing()
        assert Tableau([[1, 1], [2]]).is_semistandard()
        assert not Tableau([[1, 2], [2, 1]]).is_semistandard()

    def test_row_word(self):
        assert row_word(T_BIG) == (4, 3, 1, 5, 2, 6, 4, 5, 6)
        assert row_word(Tableau([[5]])) == (5,)
        assert row_word(Tableau([[1, 3]])) == (3, 1)

    def test_content(self):
        assert content(Tableau([[1, 1, 1], [2, 2], [4]])) == (3, 2, 0, 1)
        assert content(EMPTY_TABLEAU) == ()

    def test_render_and_json(self):
        assert Tableau([[1, 2], [3]]).render() == "1 2\n3"
        assert Tableau([[1, 2], [3]]).to_json_obj() == {"rows": [[1, 2], [3]]}


class TestInsertion:
    def test_big_word_inserts_to_fixture(self):
        p, q = egls_insert((4, 3, 1, 5, 2, 6, 4, 5, 6))
        assert p == T_BIG
        assert q.shape() == p.shape()
        assert q.is_semistandard()
        assert content(q) == (1,) * 9

    def test_single_letter(self):
        p, q = egls_insert((7,))
        assert p == Tableau([[7]])
        assert q == Tableau([[1]])

    def test_non_reduced_rejected(self):
        with pytest.raises(NonReducedWordError):
            egls_insert((1, 1))
        with pytest.raises(NonReducedWordError):
            egls_insert((1, 2, 1, 2))

    def test_recording_tableau_content_is_marks(self):
        p, q = egls_insert((2, 1, 2), (1, 1, 2))
        assert content(q) == (2, 1)
        assert q.shape() == p.shape()

    def test_bad_marks_rejected(self):
        with pytest.raises(ValueError):
            egls_insert((1, 2), (2, 1))  # not weakly increasing
        with pytest.raises(ValueError):
            egls_insert((1, 2), (1, 1))  # must rise across an ascent

    def test_insertion_and_recording_tableaux_are_well_formed(self):
        # P is increasing and Q semistandard of P's shape, for every reduced
        # word of S_5 with default marks and every compatible pair of S_5.
        inputs = []
        for w in perms.all_permutations(5):
            inputs += [(word, None) for word in perms.reduced_words(w)]
            inputs += compatible_pairs(w)
        for word, marks in inputs:
            p, q = egls_insert(word, marks)
            assert p.is_increasing() and q.is_semistandard(), (word, marks)
            assert q.shape() == p.shape()
        assert len(inputs) > 3061

    def test_insertion_and_recording_tableaux_are_pinned(self):
        # SHA-256 of the (P, Q) rows for every reduced word of S_1..S_5 with
        # default marks and every compatible pair of S_1..S_5, taken while Q
        # was still rebuilt row by row from a map of box positions.
        inputs = []
        for n in range(1, 6):
            for w in perms.all_permutations(n):
                inputs += [(word, None) for word in sorted(perms.reduced_words(w))]
                inputs += compatible_pairs(w)
        rows = []
        for word, marks in inputs:
            p, q = egls_insert(word, marks)
            rows.append([[list(r) for r in p.rows], [list(r) for r in q.rows]])
        assert len(inputs) == 3581
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "40db8e63ef752c3fc7dc286af4c595a506528aa194f4688f3ba9a50bf823d838"

    def test_unchecked_tableaux_pass_the_checks(self):
        # egls_insert builds P and Q without the checks of Tableau(...); they
        # would pass them, rows and entries of the same types
        for n in range(1, 6):
            for w in perms.all_permutations(n):
                for word in perms.reduced_words(w):
                    p, q = egls_insert(word)
                    for t in (p, q):
                        assert Tableau(t.rows) == t and type(t.rows) is tuple
                        assert all(type(v) is int for row in t.rows for v in row)
                    assert p.is_increasing() and q.is_semistandard(), word
                    assert q.shape() == p.shape()

    def test_reinsertion_fixes_small_increasing_tableaux(self):
        # every increasing tableau on letters <= 4 with reduced reading word
        # is recovered from its own reading word
        seen = 0
        for w in perms.all_permutations(5):
            for word in perms.reduced_words(w):
                if len(word) > 4 or any(a > 4 for a in word):
                    continue
                t = insertion_tableau(word)
                assert insertion_tableau(row_word(t)) == t
                seen += 1
        assert seen > 50

    def test_injective_on_stable_pairs(self):
        for w in perms.all_permutations(4):
            pairs = stable_compatible_pairs(w, max_mark=3)
            images = {egls_insert(a, i) for a, i in pairs}
            assert len(images) == len(pairs)


class TestNilLeftKey:
    def test_worked_example(self):
        t = Tableau([[1, 2, 3], [2, 3], [4]])
        assert nil_left_key(t) == Tableau([[1, 1, 1], [2, 2], [4]])

    def test_single_column_fixed(self):
        t = Tableau([[2], [3], [5]])
        assert nil_left_key(t) == t

    def test_big_tableau_content(self):
        assert content(nil_left_key(T_BIG)) == (1, 3, 0, 2, 2, 1)

    def test_empty(self):
        assert nil_left_key(EMPTY_TABLEAU) == EMPTY_TABLEAU


class TestPeelingTableau:
    def test_big_composition(self):
        assert peeling_tableau((1, 3, 0, 2, 2, 1)) == T_BIG

    def test_small_cases(self):
        assert peeling_tableau((2, 1)) == Tableau([[1, 2], [2]])
        assert peeling_tableau((0, 1)) == Tableau([[2]])
        assert peeling_tableau(()) == EMPTY_TABLEAU

    def test_properties_sweep(self):
        from kohnert.harness import compositions_upto

        for alpha in compositions_upto(5, 3):
            t = peeling_tableau(alpha)
            w = perms.perm_from_code(alpha)
            assert tuple(sorted(t.shape(), reverse=True)) == perms.sort_decreasing(alpha)
            word = row_word(t)
            assert perms.is_reduced(word) and perms.word_to_perm(word) == w
            assert insertion_tableau(word) == t
            assert content(nil_left_key(t)) == alpha

    def test_rows_are_pinned(self):
        # SHA-256 of the rows, taken while the peel stopped on a length count
        from kohnert.harness import compositions_upto

        alphas = compositions_upto(8, 5)
        assert len(alphas) == 1287
        rows = [[list(r) for r in peeling_tableau(a).rows] for a in alphas]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "cf1cbe0a9649ce1cd6627339cbe04c24d399ede16e90e719073acf33255364cb"
        )


    def test_matches_the_reference_peel(self):
        # every composition the rows pin covers, and the talpha corners
        from kohnert.harness import compositions_upto

        alphas = compositions_upto(8, 5) + [(1000,), (0,) * 1999 + (1000,)]
        for alpha in alphas:
            assert peeling_tableau(alpha) == reference_peeling_tableau(alpha), alpha
        assert len(alphas) == 1289


class TestStandardTableauxCount:
    def test_counts_the_coxeter_knuth_class_of_the_peeling_tableau(self):
        from kohnert.harness import compositions_upto

        for alpha in compositions_upto(6, 4):
            t = peeling_tableau(alpha)
            words = coxeter_knuth_class(t, perms.perm_from_code(alpha))
            assert len(words) == standard_tableaux_count(perms.sort_decreasing(alpha))
            assert t.shape() == perms.sort_decreasing(alpha)

    def test_values(self):
        # f^(n, n) is the n-th Catalan number; f^(1^n) = 1; f^(2, 1) = 2
        assert [standard_tableaux_count((n, n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]
        assert standard_tableaux_count((1, 1, 1, 1)) == 1
        assert standard_tableaux_count((2, 1)) == 2
        assert standard_tableaux_count(()) == 1


class TestCoxeterKnuth:
    def test_class_of_longest_element_in_s3(self):
        # the braid relation identifies both words: one class, one tableau
        t121 = insertion_tableau((1, 2, 1))
        t212 = insertion_tableau((2, 1, 2))
        assert t121 == t212 == Tableau([[1, 2], [2]])
        cls = coxeter_knuth_class(t121, (3, 2, 1))
        assert cls == frozenset({(1, 2, 1), (2, 1, 2)})
        assert word_class_closure((1, 2, 1)) == cls

    def test_simple_transposition(self):
        assert coxeter_knuth_class(Tableau([[1]]), (2, 1)) == frozenset({(1,)})

    def test_big_class_contains_reading_word(self):
        cls = coxeter_knuth_class(T_BIG, (2, 5, 1, 6, 7, 4, 3))
        assert (4, 3, 1, 5, 2, 6, 4, 5, 6) in cls

    def test_relation_closure_matches_insertion_fibers(self):
        # The reference fibers insert every reduced word of w.
        from kohnert.harness import compositions_upto

        for w in perms.all_permutations(5):
            fibers = {}
            for word in perms.reduced_words(w):
                fibers.setdefault(insertion_tableau(word), set()).add(word)
            for t, words in fibers.items():
                assert word_class_closure(row_word(t)) == frozenset(words)
                assert coxeter_knuth_class(t, w) == frozenset(words)
        alphas = compositions_upto(7, 4)
        assert len(alphas) == 330
        for alpha in alphas:
            t = peeling_tableau(alpha)
            w = perms.perm_from_code(alpha)
            words = {a for a in perms.reduced_words(w) if insertion_tableau(a) == t}
            assert coxeter_knuth_class(t, w) == frozenset(words)

    def test_refuses_bad_tableaux(self):
        with pytest.raises(ValueError, match="not increasing"):
            coxeter_knuth_class(Tableau([[2, 1]]))
        with pytest.raises(NonReducedWordError):
            coxeter_knuth_class(Tableau([[1, 2], [2]]), (2, 1))


@pytest.fixture
def drops_reduced_words():
    """Clears the process-lifetime memo of reduced words when the test ends.
    The reduced words of S_6 within the length bound held about 66 MB, which
    every later test of the run kept."""
    yield
    perms._reduced_words.cache_clear()


class TestCompatiblePairs:
    def test_simple_cases(self):
        assert compatible_pairs((2, 1)) == [((1,), (1,))]
        assert compatible_pairs((1, 3, 2)) == [((2,), (1,)), ((2,), (2,))]

    def test_fiber_filter_matches_filtered_list(self):
        for w in perms.all_permutations(5):
            unfiltered = compatible_pairs(w)
            fibers = {insertion_tableau(a) for a in perms.reduced_words(w)}
            for t in fibers:
                assert compatible_pairs(w, t) == [
                    (a, i) for a, i in unfiltered if insertion_tableau(a) == t
                ]
            assert compatible_pairs(w, Tableau([[9]])) == []

    def test_marked_words_check_no_word_again(self, monkeypatch):
        # every word the scan inserts is a reduced word of w, and every
        # block word route 3 inserts is a factor of one: neither is checked
        # for reducedness again
        from kohnert import bases
        from kohnert.harness import compositions_upto

        fibers = {
            w: {insertion_tableau(a) for a in perms.reduced_words(w)}
            for w in perms.all_permutations(5)
        }
        expected = {(w, t): marked_words(w, t) for w, ts in fibers.items() for t in ts}
        splits = {alpha: bases.key_split_expansion_via_pairs(alpha)
                  for alpha in compositions_upto(5, 4)}

        def checked(word):
            raise AssertionError(f"{word} checked again")

        monkeypatch.setattr(perms, "is_reduced", checked)
        assert {(w, t): marked_words(w, t) for w, t in expected} == expected
        assert {alpha: bases.key_split_expansion_via_pairs(alpha) for alpha in splits} == splits

    def test_fiber_filter_inserts_each_marked_word_once(self, monkeypatch):
        from kohnert import tableaux

        # the fiber test inserts a word into columns and compares them with
        # the columns of t, so the insertion is counted there
        inserted = []
        original = tableaux._insert_columns

        def counting(word):
            inserted.append(tuple(word))
            return original(word)

        monkeypatch.setattr(tableaux, "_insert_columns", counting)
        for w in perms.all_permutations(4):
            marked = sorted({a for a, _ in compatible_pairs(w)})
            t = insertion_tableau(min(perms.reduced_words(w)))
            inserted.clear()
            compatible_pairs(w, t)
            # every word with some marks, each once; (1, 2, 1) has none
            assert sorted(inserted) == marked

    @pytest.mark.usefixtures("drops_reduced_words")
    def test_mark_choices_equal_the_recursion(self):
        # every reduced word of S_1 to S_5, and of S_6 up to length 9
        words = [
            word
            for n in range(1, 7)
            for w in perms.all_permutations(n)
            if n < 6 or perms.perm_length(w) <= 9
            for word in sorted(perms.reduced_words(w))
        ]
        assert len(words) == 37517
        marked = 0
        for word in words:
            got = _mark_choices(word)
            assert got == list(reference_mark_choices(word)), word
            marked += bool(got)
        assert 0 < marked < len(words)

    @given(st.lists(st.integers(min_value=1, max_value=6), max_size=8))
    @settings(max_examples=300)
    def test_mark_choices_on_any_word(self, word):
        word = tuple(word)
        assert _mark_choices(word) == list(reference_mark_choices(word))

    def test_marks_bounded_by_letters(self):
        for word, marks in compatible_pairs((3, 1, 4, 2)):
            assert all(m <= a for m, a in zip(marks, word))
            assert all(marks[i] <= marks[i + 1] for i in range(len(marks) - 1))

    def test_split_simple(self):
        parts = split_compatible_pair(((2,), (1,)), (2,))
        assert parts == [(Tableau([[2]]), Tableau([[1]]))]

    def test_split_blocks_and_weight_preservation(self):
        word = (4, 3, 1, 5, 2, 6, 4, 5, 6)
        pairs = [
            (a, i) for a, i in compatible_pairs((2, 5, 1, 6, 7, 4, 3))
            if a == word
        ]
        assert pairs
        for a, i in pairs:
            parts = split_compatible_pair((a, i), (2, 5, 6))
            assert len(parts) == 3
            got = []
            for _, q in parts:
                got.extend(v for row in q.rows for v in row)
            assert sorted(got) == sorted(i)

    def test_split_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            split_compatible_pair(((2,), (1,)), (1,))  # descent 2 not covered
        with pytest.raises(ValueError):
            split_compatible_pair(((2,), (3,)), (2, 3))  # mark above letter

    BAD_SPLITS = [
        (((2,), (1,)), (1,)),  # descent 2 not covered
        (((2,), (3,)), (2, 3)),  # mark above letter
        (((2,), (1,)), (2, 2)),  # bounds not strictly increasing
        (((1,), (1,)), (0, 1)),  # a bound below 1
        (((3, 3), (1, 2)), (1,)),  # mark above the last bound
        (((3, 3), (1, 1)), ()),  # marks and no bound
        (((3, 1), (3, 1)), (1, 3)),  # marks decrease across blocks
        (((3, 2), (2, 1)), (2, 3)),  # marks decrease within a block
        (((1, 2), (1, 1)), (2,)),  # equal marks across an ascent
        (((2, 2), (1, 2)), (2,)),  # a non-reduced block
        (((1, 1, 2), (1, 1, 1)), (2,)),  # non-reduced and unstable marks
        (((2, 2, 3, 4), (1, 1, 3, 3)), (2, 4)),  # unstable after non-reduced
        (((1,), (0,)), (1,)),  # a mark below 1
        (((0,), (1,)), (1,)),  # a letter below 1
        (((1, 2), (1,)), (2,)),  # fewer marks than letters
        (((), (1,)), (1,)),  # marks and no letter
    ]

    @pytest.mark.parametrize("pair,d", BAD_SPLITS)
    def test_split_blocks_refuses_as_split_compatible_pair(self, pair, d):
        expected = outcome(reference_split, pair, d)
        assert isinstance(expected, tuple) and issubclass(expected[0], ValueError)
        assert outcome(split_blocks, pair, d) == expected
        assert outcome(split_compatible_pair, pair, d) == expected

    @pytest.mark.parametrize("pair,d", [(((1, 2), (1,)), (2,)), (((), (1,)), (1,))])
    def test_marks_of_another_length_than_the_word_are_refused(self, pair, d):
        message = "marks must have the same length as the word"
        with pytest.raises(ValueError, match=message):
            split_blocks(pair, d)
        with pytest.raises(ValueError, match=message):
            split_compatible_pair(pair, d)

    def test_split_accepts_what_the_reference_accepts(self):
        # a non-reduced word whose blocks are each reduced is split, as before
        pair, d = ((2, 2), (1, 2)), (1, 2)
        assert split_blocks(pair, d) == [((2,), (1,)), ((2,), (2,))]
        assert split_compatible_pair(pair, d) == reference_split(pair, d)

    def test_split_blocks_concatenate_and_insert_to_the_reference(self):
        checked = 0
        for w in perms.all_permutations(5):
            ds = set(perms.perm_descents(w))
            top = max(ds, default=0)
            choices = {
                tuple(sorted(ds)),
                tuple(sorted(ds | {top + 1})),
                tuple(sorted(ds | {4})),
                (1, 2, 3, 4),
            }
            pairs = compatible_pairs(w)
            for d in sorted(choices):
                for pair in pairs:
                    expected = outcome(reference_split, pair, d)
                    assert outcome(split_compatible_pair, pair, d) == expected
                    blocks = outcome(split_blocks, pair, d)
                    if isinstance(expected, list):
                        assert len(blocks) == len(d)
                        assert tuple(a for bw, _ in blocks for a in bw) == pair[0]
                        assert tuple(m for _, bm in blocks for m in bm) == pair[1]
                        assert [egls_insert(*b) for b in blocks] == expected
                        checked += 1
                    else:
                        assert blocks == expected
        assert checked > 1000

    @staticmethod
    def pair_splits(word, d):
        """The distinct splits of a word as ``split_blocks`` gives them over
        its marks, in order of first appearance: the reference for
        ``split_words``."""
        return list(dict.fromkeys(
            tuple(block_word for block_word, _ in split_blocks((word, marks), d))
            for marks in _mark_choices(word)
        ))

    @pytest.mark.usefixtures("drops_reduced_words")
    def test_split_words_are_the_distinct_splits_of_the_pairs(self):
        # S_5 under every bound set in 1..5 that holds the descents; S_6
        # within the length bound under its descents, and those plus one
        # bound above them
        cases = []
        for w in perms.all_permutations(5):
            descents = perms.perm_descents(w)
            cases += [
                (w, d)
                for r in range(6)
                for d in combinations(range(1, 6), r)
                if descents <= set(d)
            ]
        for w in perms.all_permutations(6):
            if perms.perm_length(w) <= perms.MAX_WORD_LENGTH:
                d = tuple(sorted(perms.perm_descents(w)))
                cases += [(w, d), (w, d + (max(d, default=0) + 1,))]
        splits = 0
        for w, d in cases:
            words = marked_words(w)
            got = split_words(w, words, d)
            assert got == [self.pair_splits(word, d) for word in words], (w, d)
            splits += sum(map(len, got))
        assert len(cases) > 2000 and splits > 5000

    @pytest.mark.parametrize(
        "w, d, message",
        [
            ((1, 3, 2), (2, 2), "block bounds must be strictly increasing: [2, 2]"),
            ((1, 3, 2), (0, 2), "block bounds must be strictly increasing: [0, 2]"),
            ((3, 1, 4, 2), (1,), "block bounds [1] do not contain the descents of (3, 1, 4, 2)"),
            ((2, 1), (), "block bounds [] do not contain the descents of (2, 1)"),
        ],
    )
    def test_split_words_refuses_as_split_blocks(self, w, d, message):
        words = marked_words(w)
        pairs = [(word, marks) for word in words for marks in _mark_choices(word)]
        for pair in pairs:
            with pytest.raises(ValueError) as exc:
                split_blocks(pair, d)
            assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            split_words(w, words, d)
        assert str(exc.value) == message

    def test_split_bijection_by_counting(self):
        # weight-preserving bijectivity onto same-shape tuples of increasing
        # and block-labelled semistandard tableaux, via cardinalities
        from kohnert import bases

        for w in perms.all_permutations(4):
            ds = sorted(perms.perm_descents(w))
            universe = [1, 2, 3]
            from itertools import combinations

            for r in range(len(universe) + 1):
                for extra in combinations(universe, r):
                    d = sorted(set(ds) | set(extra))
                    if not d and perms.perm_length(w) > 0:
                        continue
                    pairs = compatible_pairs(w)
                    if any(i and i[-1] > (d[-1] if d else 0) for _, i in pairs):
                        continue
                    images = {
                        tuple(split_compatible_pair(p, d)) for p in pairs
                    }
                    assert len(images) == len(pairs)
                    blocks = bases.block_variables(d)
                    total = 0
                    for lams, count in bases.schubert_split_expansion(w, d).items():
                        ways = 1
                        for lam, block in zip(lams, blocks):
                            ways *= sum(
                                1 for _ in semistandard_tableaux(lam, len(block))
                            )
                        total += count * ways
                    assert total == len(pairs)


class TestFastPathsMatchTheLoops:
    def test_bisection_inserts_as_the_list_scan(self):
        # Insertion of a letter depends only on the columns so far, so one
        # step from every column state that words over 1..5 reach compares
        # the insertion of every such word: P, Q (the column each letter
        # lands in) and the error of a non-reduced one.  The states of the
        # reduced words of S_1 to S_6 are among them.
        def step(insert, state, v):
            cols = [list(col) for col in state]
            try:
                return insert(cols, v), tuple(map(tuple, cols))
            except NonReducedWordError as exc:
                return None, str(exc)

        seen = {()}
        frontier = [()]
        refused = 0
        while frontier:
            found = []
            for state in frontier:
                for v in range(1, 6):
                    got = step(tableaux._insert_letter, state, v)
                    assert got == step(scan_insert_letter, state, v), (state, v)
                    column, nxt = got
                    if column is None:
                        refused += 1
                    elif sum(map(len, nxt)) <= 15 and nxt not in seen:
                        seen.add(nxt)
                        found.append(nxt)
            frontier = found
        assert len(seen) > 1000 and refused > 1000
        # two reduced words of the longest element of S_6
        for word in [
            (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1),
            (5, 4, 3, 2, 1, 5, 4, 3, 2, 5, 4, 3, 5, 4, 5),
        ]:
            assert tuple(map(tuple, insertion_tableau(word).columns())) in seen

    def test_insertion_tableau_is_the_p_of_egls_insert(self):
        words = [
            word
            for n in range(1, 6)
            for w in perms.all_permutations(n)
            for word in perms.reduced_words(w)
        ]
        words += [word for n in range(5) for word in product(range(0, 4), repeat=n)]
        checked = refused = 0
        for word in words:
            expected = outcome(egls_insert, word)
            got = outcome(insertion_tableau, word)
            if isinstance(expected, tuple) and isinstance(expected[0], Tableau):
                assert got == expected[0], word
                checked += 1
            else:
                assert got == expected, word
                refused += 1
        assert checked > 1000 and refused > 100

    def test_stable_marks_check_refuses_as_the_loop(self):
        # The check reads the word only through its ascents: one word of
        # each length <= 5 per ascent pattern, each letter one above the
        # last at an ascent and equal to it elsewhere.
        checked = refused = 0
        for n in range(6):
            for steps in product((0, 1), repeat=max(n - 1, 0)):
                word = tuple(accumulate(steps, initial=1))[:n]
                for size in {n, n + 1} if n < 4 else {n}:
                    for marks in product(range(0, 4), repeat=size):
                        expected = outcome(loop_check_stable_marks, word, marks)
                        assert outcome(tableaux._check_stable_marks, word, marks) == expected
                        checked += 1
                        refused += expected is not None
        assert refused > 10000 and checked - refused > 100

    def test_split_blocks_splits_and_refuses_as_the_loop(self):
        # Words over 1..3 of length <= 4, reduced or not, and the reduced
        # words of length 4 and 5 in S_5.  Marks <= 4: every sequence of the
        # word's length up to length 3, with one more or one fewer mark up
        # to length 2, and the weakly increasing ones for longer words.
        # Block bounds: the descents, and below length 5 also with a bound 4
        # above them.
        words = [word for n in range(5) for word in product((1, 2, 3), repeat=n)]
        words += [
            word
            for w in perms.all_permutations(5)
            if perms.perm_length(w) in (4, 5)
            for word in perms.reduced_words(w)
        ]
        checked = refused = 0
        for word in words:
            n = len(word)
            if n <= 3:
                sizes = (n - 1, n, n + 1) if n <= 2 else (n,)
                marks_list = [
                    m for size in sizes if size >= 0 for m in product(range(5), repeat=size)
                ]
            else:
                marks_list = list(combinations_with_replacement(range(5), n))
            descents = tuple(sorted(perms.perm_descents(perms.word_to_perm(word))))
            with_four = tuple(sorted({*descents, 4}))
            for d in (with_four,) if n == 5 else sorted({descents, with_four}):
                for marks in marks_list:
                    pair = (word, marks)
                    expected = outcome(loop_split_pair, pair, d)
                    assert outcome(split_blocks, pair, d) == expected, (pair, d)
                    checked += 1
                    refused += isinstance(expected, tuple)
        assert refused > 10000 and checked - refused > 300

    def test_mark_choices_build_runs_as_the_levels(self):
        # every word over 1..5 of length <= 6, reduced or not: the list and
        # its order
        checked = marked = 0
        for n in range(7):
            for word in product(range(1, 6), repeat=n):
                got = _mark_choices(word)
                assert got == level_mark_choices(word), word
                checked += 1
                marked += len(got) > 1
        assert checked == 19531 and marked > 1000

    @pytest.mark.usefixtures("drops_reduced_words")
    def test_fiber_test_by_columns_as_tableau_equality(self):
        # Every fiber of S_5 and of S_6 up to the length bound that holds a
        # word with marks (a word without marks gives no pair), and a tableau
        # that is no fiber, against the pairs whose word inserts to it.
        fibers = 0
        for n in (5, 6):
            for w in perms.all_permutations(n):
                if perms.perm_length(w) > perms.MAX_WORD_LENGTH:
                    continue
                pairs = compatible_pairs(w)
                inserted = {word: insertion_tableau(word) for word, _ in pairs}
                for t in {*inserted.values(), Tableau([[9]])}:
                    assert compatible_pairs(w, t) == [
                        (word, marks) for word, marks in pairs if inserted[word] == t
                    ], (w, t)
                    fibers += 1
        assert fibers > 1500

    def test_peeling_tableau_canonicalises_its_input(self):
        from kohnert.harness import compositions_upto

        for alpha in compositions_upto(7, 4) + compositions_upto(4, 7):
            t = peeling_tableau(alpha)
            assert t == reference_peeling_tableau(alpha), alpha
            # trailing zeros and a list name the same composition
            assert peeling_tableau(list(alpha) + [0]) == t
        with pytest.raises(ValueError):
            peeling_tableau((1, -1))


def schur_by_integer_evaluation(lam, values):
    """Bialternant ratio at integer points; independent of tableaux."""
    n = len(values)
    if len(lam) > n:
        return 0
    lam = list(lam) + [0] * (n - len(lam))

    def det(mat):
        m = [row[:] for row in mat]
        size = len(m)
        result = Fraction(1)
        for col in range(size):
            pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                result = -result
            result *= m[col][col]
            inv = Fraction(1, m[col][col])
            for r in range(col + 1, size):
                factor = m[r][col] * inv
                if factor:
                    for c in range(col, size):
                        m[r][c] -= factor * m[col][c]
        return result

    num = [[Fraction(v) ** (lam[j] + n - 1 - j) for j in range(n)] for v in values]
    den = [[Fraction(v) ** (n - 1 - j) for j in range(n)] for v in values]
    ratio = det(num) / det(den)
    assert ratio.denominator == 1
    return int(ratio)


class TestOneScanOneTranspose:
    def test_order_scan_answers_as_the_loops(self):
        # Every filling of every shape of at most 6 cells with entries in
        # 1..4, ordered or not; the tally shows that rows in order with a
        # column out of order are met, strict and weak alike.
        tally = {"increasing": 0, "semistandard": 0, "strict rows": 0, "weak rows": 0}
        for n in range(7):
            for shape in partitions(n):
                for t in fillings(shape, product(range(1, 5), repeat=n)):
                    increasing, semistandard = t.is_increasing(), t.is_semistandard()
                    assert increasing == loop_is_increasing(t), t
                    assert semistandard == loop_is_semistandard(t), t
                    tally["increasing"] += increasing
                    tally["semistandard"] += semistandard
                    rows = [list(zip(row, row[1:])) for row in t.rows]
                    if not increasing and all(a < b for row in rows for a, b in row):
                        tally["strict rows"] += 1
                    if not semistandard and all(a <= b for row in rows for a, b in row):
                        tally["weak rows"] += 1
        # 1001 is the sum of the hook-content counts s_lambda(1, 1, 1, 1)
        assert tally == {
            "increasing": 131,
            "semistandard": 1001,
            "strict rows": 8851,
            "weak rows": 15519,
        }

    def test_transpose_as_the_comprehensions(self):
        # Each shape of at most 8 cells, filled 1, 2, ... row by row, so a
        # misplaced entry shows.
        for n in range(9):
            for shape in partitions(n):
                (t,) = fillings(shape, [range(1, n + 1)])
                cols = comprehension_columns(t.rows)
                assert t.columns() == cols
                assert tableaux._transpose(t.rows) == tuple(map(tuple, cols))
                assert comprehension_rows(cols) == [list(row) for row in t.rows]
                assert Tableau.from_columns(cols).rows == t.rows
                assert tableaux._of_columns(cols).rows == t.rows

    def test_refusals(self):
        with pytest.raises(ValueError, match="empty row in tableau"):
            Tableau([[1], []])
        with pytest.raises(ValueError, match="column lengths not weakly decreasing"):
            Tableau.from_columns([[1], [2, 3]])
        tableaux_of_a_composition = semistandard_tableaux((1, 2), 3)
        with pytest.raises(ValueError, match=r"shape must be a partition: \(1, 2\)"):
            next(tableaux_of_a_composition)


class TestSemistandardEnumeration:
    def test_counts(self):
        assert sum(1 for _ in semistandard_tableaux((2, 1), 3)) == 8
        assert sum(1 for _ in semistandard_tableaux((1, 1, 1), 2)) == 0
        assert list(semistandard_tableaux((), 3)) == [EMPTY_TABLEAU]

    def test_unchecked_fillings_pass_the_checks(self):
        # every partition inside the 3 x 3 square
        shapes = [()] + [
            lam
            for rows in range(1, 4)
            for lam in combinations_with_replacement(range(3, 0, -1), rows)
        ]
        assert len(shapes) == 20
        seen = 0
        for lam in shapes:
            for max_entry in range(1, 5):
                for t in semistandard_tableaux(lam, max_entry):
                    assert Tableau(t.rows) == t and type(t.rows) is tuple
                    assert t.shape() == lam and t.is_semistandard()
                    assert max((v for row in t.rows for v in row), default=1) <= max_entry
                    seen += 1
        assert seen == 682

    @pytest.mark.parametrize("shape", [(2, 0), (2, -1), (0,), (-1,), (1, 2)])
    def test_enumeration_and_count_refuse_alike(self, shape):
        # a part below 1 made the enumeration raise IndexError, and the count
        # of (2, -1) in three entries was 6
        message = f"shape must be a partition: {shape}"
        with pytest.raises(ValueError) as exc:
            list(semistandard_tableaux(shape, 3))
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            tableaux.semistandard_tableaux_count(shape, 3)
        assert str(exc.value) == message

    def test_against_bialternant(self):
        from kohnert import bases

        for lam in [(1,), (2,), (2, 1), (3, 2), (2, 2, 1)]:
            for nvars in (2, 3):
                poly = bases.schur_in_variables(lam, list(range(1, nvars + 1)))
                for values in [(1, 2, 3)[:nvars], (2, 3, 5)[:nvars]]:
                    got = 0
                    for (e, deg), term in poly.terms.items():
                        assert deg == 0
                        for i, q in enumerate(e):
                            term *= values[i] ** q
                        got += term
                    assert got == schur_by_integer_evaluation(lam, values)
