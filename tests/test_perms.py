import random
from collections import Counter
from itertools import combinations, permutations as windows, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnert import perms


def brute_code(w):
    # independent of the library: direct inversion counting on the raw window
    return tuple(
        sum(1 for j in range(i + 1, len(w)) if w[j] < w[i]) for i in range(len(w))
    )


def reference_perm_length(w):
    # the quadratic count over all pairs, as first written
    return sum(1 for a, b in combinations(w, 2) if a > b)


def reference_perm_from_code(alpha):
    # a window of len + max values, one list.pop per entry, as first written
    a = perms.composition(alpha)
    n = len(a) + (max(a) if a else 0)
    avail = list(range(1, n + 1))
    return perms.permutation(avail.pop(a[i] if i < len(a) else 0) for i in range(n))


class TestCompositions:
    def test_canonical_trims_trailing_zeros(self):
        assert perms.composition((2, 0, 1, 0, 0)) == (2, 0, 1)
        assert perms.composition(()) == ()
        with pytest.raises(ValueError):
            perms.composition((1, -1))

    def test_parse_format_roundtrip(self):
        assert perms.parse_composition("1,3,0,2,2,1") == (1, 3, 0, 2, 2, 1)
        assert perms.parse_composition("0") == ()
        assert perms.format_composition(()) == "0"
        assert perms.parse_composition(perms.format_composition((1, 0, 2))) == (1, 0, 2)
        with pytest.raises(ValueError):
            perms.parse_composition("1,x")

    def test_strict_descents_include_last_support_index(self):
        assert perms.strict_descents((1, 3, 0, 2, 2, 1)) == {2, 5, 6}
        assert perms.strict_descents((3, 2, 1)) == {1, 2, 3}
        assert perms.strict_descents(()) == set()

    def test_weak_descents(self):
        assert perms.descents((1, 3, 0, 2, 2, 1)) == {2, 4, 5, 6}
        assert perms.descents(()) == set()

    def test_sort_decreasing(self):
        assert perms.sort_decreasing((1, 3, 0, 2, 2, 1)) == (3, 2, 2, 1, 1)


class TestMultiplicities:
    def test_counts_as_counter(self):
        rng = random.Random(23)
        for _ in range(2000):
            size = rng.randint(1, 9)
            indices = [rng.randint(1, size) for _ in range(rng.randint(0, 15))]
            counts = Counter(indices)
            expected = [counts[i] for i in range(1, size + 1)]
            assert perms.multiplicities(indices, size) == expected
            assert perms.multiplicities(iter(indices), size) == expected
        assert perms.multiplicities((), 0) == []
        assert perms.multiplicities((), 2) == [0, 0]


class TestPermutations:
    def test_empty_text_is_refused(self):
        for text in ("", "  "):
            with pytest.raises(ValueError, match="empty permutation"):
                perms.parse_permutation(text)

    def test_canonicalization(self):
        assert perms.permutation((2, 1, 3, 4)) == (2, 1)
        assert perms.permutation((1, 2, 3)) == (1,)
        assert perms.permutation(()) == (1,)
        with pytest.raises(ValueError):
            perms.permutation((1, 3))

    def test_parse_format(self):
        assert perms.parse_permutation("3142") == (3, 1, 4, 2)
        assert perms.parse_permutation("3,1,4,2") == (3, 1, 4, 2)
        assert perms.format_permutation((3, 1, 4, 2)) == "3142"
        with pytest.raises(ValueError):
            perms.parse_permutation("3x42")

    def test_descents(self):
        assert perms.perm_descents((2, 5, 1, 6, 7, 4, 3)) == {2, 5, 6}
        assert perms.perm_descents((1,)) == set()
        assert perms.perm_descents((3, 1, 4, 2)) == {1, 3}

    def test_inverse_and_length(self):
        assert perms.perm_inverse((3, 1, 4, 2)) == (2, 4, 1, 3)
        assert perms.perm_length((3, 2, 1)) == 3
        assert perms.perm_length((1,)) == 0


class TestLehmerCode:
    def test_paper_window(self):
        assert perms.lehmer_code((2, 5, 1, 6, 7, 4, 3)) == (1, 3, 0, 2, 2, 1)
        assert perms.perm_from_code((1, 3, 0, 2, 2, 1)) == (2, 5, 1, 6, 7, 4, 3)

    def test_identity(self):
        assert perms.lehmer_code((1,)) == ()
        assert perms.perm_from_code(()) == (1,)

    def test_3142(self):
        assert perms.lehmer_code((3, 1, 4, 2)) == (2, 0, 1)
        # cross-check against brute-force inversion counting over all of S_4
        for w in windows(range(1, 5)):
            assert perms.lehmer_code(w) == perms.composition(brute_code(w))
        assert perms.perm_from_code((2, 0, 1)) == (3, 1, 4, 2)

    def test_roundtrip_s5(self):
        # covers every length up to 10
        for w in perms.all_permutations(5):
            assert perms.perm_from_code(perms.lehmer_code(w)) == w

    def test_pinned_against_quadratic_references_on_s1_to_s7(self):
        checked = 0
        for n in range(1, 8):
            for w in windows(range(1, n + 1)):
                code = perms.lehmer_code(w)
                assert code == perms.composition(brute_code(w))
                assert perms.perm_length(w) == reference_perm_length(w) == sum(code)
                assert perms.perm_from_code(code) == reference_perm_from_code(code)
                assert perms.perm_from_code(code) == perms.permutation(w)
                checked += 1
        assert checked == 5913

    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_random_codes_pinned_against_references(self, parts):
        w = perms.perm_from_code(parts)
        assert w == reference_perm_from_code(parts)
        assert perms.lehmer_code(w) == perms.composition(parts)
        assert perms.perm_length(w) == reference_perm_length(w) == sum(parts)

    @pytest.mark.parametrize("code", [(1000,), (0,) * 1999 + (1000,)])
    def test_talpha_corners_pinned_against_references(self, code):
        # the largest codes the talpha bounds admit, one part and many
        w = perms.perm_from_code(code)
        assert w == reference_perm_from_code(code)
        assert perms.lehmer_code(w) == perms.composition(brute_code(w)) == code
        assert perms.perm_length(w) == reference_perm_length(w) == 1000

    def test_random_windows_of_3000_pinned_against_references(self):
        rng = random.Random(3000)
        for _ in range(2):
            window = rng.sample(range(1, 3001), 3000)
            code = perms.lehmer_code(window)
            assert code == perms.composition(brute_code(window))
            assert perms.perm_length(window) == reference_perm_length(window) == sum(code)
            assert perms.perm_from_code(code) == reference_perm_from_code(code)
            assert perms.perm_from_code(code) == perms.permutation(window)

    def test_large_inputs_are_near_linear(self):
        # the pair count would compare all 2 * 10^8 pairs of this window; the
        # sorted-list count makes one bisection and one list insert per entry
        w = perms.perm_from_code((0,) * 3 + (20_000,))
        assert len(w) == 20_004 and w[3] == 20_004
        assert perms.lehmer_code(w) == (0, 0, 0, 20_000)
        assert perms.perm_length(w) == 20_000

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=5)
    )
    @settings(max_examples=200)
    def test_code_roundtrip_from_composition(self, parts):
        alpha = perms.composition(parts)
        assert perms.lehmer_code(perms.perm_from_code(alpha)) == alpha


class TestReducedWords:
    def test_small(self):
        assert perms.reduced_words((2, 1, 4, 3)) == frozenset({(1, 3), (3, 1)})
        assert perms.reduced_words((1,)) == frozenset({()})
        assert perms.reduced_words((3, 2, 1)) == frozenset({(1, 2, 1), (2, 1, 2)})

    def test_lengths_and_products(self):
        for w in perms.all_permutations(4):
            ell = perms.perm_length(w)
            words = perms.reduced_words(w)
            assert all(len(a) == ell for a in words)
            assert all(perms.word_to_perm(a) == w for a in words)

    def test_bound_refusal(self):
        w0 = perms.permutation(range(6, 0, -1))
        assert perms.perm_length(w0) == 15 > perms.MAX_WORD_LENGTH
        with pytest.raises(perms.BoundExceededError, match="length 15 exceeds bound 12"):
            perms.reduced_words(w0)

    def test_is_reduced(self):
        assert perms.is_reduced((1, 2, 1))
        assert not perms.is_reduced((1, 1))


def reference_is_reduced(word):
    """The length of the product equals the word length: the reference for
    the one-pass ``perms.is_reduced``."""
    return perms.perm_length(perms.word_to_perm(word)) == len(word)


class TestIsReducedInOnePass:
    def test_every_short_word(self):
        checked = reduced = 0
        for length in range(7):
            for word in product(range(1, 5), repeat=length):
                got = perms.is_reduced(word)
                assert got == reference_is_reduced(word), word
                checked += 1
                reduced += got
        assert checked == 5461 and 0 < reduced < checked

    @given(st.lists(st.integers(min_value=1, max_value=7), max_size=14).map(tuple))
    @settings(max_examples=300)
    def test_any_word(self, word):
        assert perms.is_reduced(word) == reference_is_reduced(word)

    @pytest.mark.parametrize("word", [(0,), (2, 1, -1), (1, 1, 0), (3, 0, 3)])
    def test_letter_below_one(self, word):
        # refused even where a letter before it already makes the word non-reduced
        with pytest.raises(ValueError, match=r"^transposition index must be >= 1$"):
            perms.is_reduced(word)


class TestWordToPerm:
    @given(st.lists(st.integers(min_value=1, max_value=9), max_size=12))
    @settings(max_examples=300)
    def test_equals_fold_of_transpositions(self, word):
        w = perms.identity()
        for a in word:
            w = perms.multiply_s(w, a)
        got = perms.word_to_perm(word)
        assert got == w
        assert perms.permutation(got) == got
        assert perms.word_to_perm(iter(word)) == w

    @pytest.mark.parametrize("word", [(0,), (2, 1, -1), (3, 0, 3)])
    def test_letter_below_one(self, word):
        with pytest.raises(ValueError, match=r"^transposition index must be >= 1$"):
            perms.word_to_perm(word)
        with pytest.raises(ValueError, match=r"^transposition index must be >= 1$"):
            perms.multiply_s(perms.identity(), min(word))


class TestDescentLemma:
    def test_perm_descents_within_composition_descents(self):
        # descents of the coded permutation lie inside the strict descent
        # closure of the composition
        for alpha in [
            (1, 3, 0, 2, 2, 1),
            (2, 0, 1),
            (0, 1),
            (3, 1, 2),
            (0, 0, 2, 1),
            (1, 1, 1),
        ]:
            w = perms.perm_from_code(alpha)
            assert perms.perm_descents(w) <= (
                perms.strict_descents(alpha) | perms.descents(alpha)
            )
            assert perms.strict_descents(alpha) <= perms.descents(alpha)
