import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnert.poly import (
    ONE,
    ZERO,
    Polynomial,
    demazure,
    divided_difference,
    isobaric,
    render_text,
    trim,
    twisted_demazure,
    x,
)


def poly_terms(max_vars=4, max_deg=4):
    exponent = st.lists(
        st.integers(min_value=0, max_value=max_deg), min_size=0, max_size=max_vars
    )
    coeff = st.integers(min_value=-5, max_value=5)
    beta_deg = st.integers(min_value=0, max_value=2)
    return st.lists(st.tuples(exponent, coeff, beta_deg), min_size=0, max_size=6)


def build(terms):
    total = Polynomial()
    for exps, c, deg in terms:
        if sum(exps) <= 4:
            total = total + Polynomial.monomial(exps, c, deg)
    return total


small_polys = poly_terms().map(build)

MALFORMED_TERMS = [
    {"coeff": [[0, 1], [0, 2]], "exps": [1]},  # a b-degree given twice
    {"coeff": [[-1, 1]], "exps": [1]},  # a negative b-degree
    {"coeff": [[0, 1]], "exps": [1.9]},
    {"coeff": [[0, 1]], "exps": [1.0]},
    {"coeff": [[0.5, 1]], "exps": [1]},
    {"coeff": [[0, 2.5]], "exps": [1]},
    {"coeff": [[0, "1"]], "exps": [1]},
    {"coeff": [[0, True]], "exps": [1]},
    {"coeff": [[0, 1]], "exps": [0, -1]},
]

WRONG_SHAPES = [
    {"terms": [{"exps": [1], "coeff": [5]}]},
    {"terms": [{"exps": [1], "coeff": [[0, 1, 2]]}]},
    {"terms": [{"exps": 1, "coeff": [[0, 1]]}]},
    {"terms": [[1]]},
    {"terms": 5},
    {"terms": "ab"},
    [1],
]


class TestArithmetic:
    def test_cancellation(self):
        assert (x(1) + (-1) * x(1)).is_zero()

    def test_difference_of_squares(self):
        assert (x(1) + x(2)) * (x(1) - x(2)) == x(1) * x(1) - x(2) * x(2)

    def test_beta_distributes(self):
        f = (ONE - Polynomial.monomial((0, 1), 1, 1)) * x(1)
        assert f == x(1) - Polynomial.monomial((1, 1), 1, 1)

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert f - f == ZERO


class TestFromCounts:
    # Short exponent tuples with trailing zeros, so that distinct keys such
    # as (1,), (1, 0) and (1, 0, 0) merge after trimming.
    counted = st.dictionaries(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=2), max_size=3).map(tuple),
            st.integers(min_value=0, max_value=2),
        ),
        st.integers(min_value=-3, max_value=3),
        max_size=12,
    )

    @given(counted)
    @settings(max_examples=200, deadline=None)
    def test_equals_fold_of_monomials(self, counts):
        folded = Polynomial()
        for (exps, deg), count in counts.items():
            folded = folded + Polynomial.monomial(exps, count, deg)
        assert Polynomial(counts) == folded

    @given(counted)
    @settings(max_examples=200, deadline=None)
    def test_json_matches_nested_reference(self, counts):
        # The reference: exponent -> {b-degree -> count}, built from the same
        # counts, zeros dropped, and written in sorted order.
        nested = {}
        for (exps, deg), count in counts.items():
            coeff = nested.setdefault(trim(exps), {})
            coeff[deg] = coeff.get(deg, 0) + count
        expected = [
            {"coeff": sorted((d, c) for d, c in nested[e].items() if c), "exps": list(e)}
            for e in sorted(nested)
            if any(nested[e].values())
        ]
        obj = Polynomial(counts).to_json_obj()
        assert json.dumps(obj) == json.dumps({"terms": expected})

    def test_trims_merges_and_cancels(self):
        f = Polynomial({((1, 0), 0): 2, ((1,), 0): -2, ((0, 1, 0), 1): 3, ((0, 1), 1): 1})
        assert f.terms == {((0, 1), 1): 4}
        assert Polynomial({((2, 0), 0): 1, ((2,), 0): -1}).is_zero()


class TestDividedDifference:
    def test_hand_values(self):
        assert divided_difference(1, x(1) * x(1)) == x(1) + x(2)
        assert divided_difference(1, x(1) * x(2)).is_zero()
        assert divided_difference(1, x(1) * x(1) * x(2)) == x(1) * x(2)
        # a larger exponent on x_{i+1} flips the sign
        assert divided_difference(1, Polynomial.monomial((1, 3))) == (
            -Polynomial.monomial((1, 2)) - Polynomial.monomial((2, 1))
        )
        # equal exponents on x_i and x_{i+1}
        assert divided_difference(1, Polynomial.monomial((2, 2, 1))).is_zero()
        # an index past the support
        assert divided_difference(3, x(1) * x(1)).is_zero()
        with pytest.raises(ValueError):
            divided_difference(0, x(1))

    @given(small_polys, st.integers(min_value=1, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_multiply_back(self, f, i):
        # the defining identity: output * (x_i - x_{i+1}) == f - s_i f
        out = divided_difference(i, f)
        assert out * (x(i) - x(i + 1)) == f - f.apply_transposition(i)

    @given(small_polys, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_output_symmetric_and_squares_to_zero(self, f, i):
        out = divided_difference(i, f)
        assert out.apply_transposition(i) == out
        assert divided_difference(i, out).is_zero()

    @given(small_polys)
    @settings(max_examples=40, deadline=None)
    def test_braid_and_commutation(self, f):
        lhs = divided_difference(1, divided_difference(2, divided_difference(1, f)))
        rhs = divided_difference(2, divided_difference(1, divided_difference(2, f)))
        assert lhs == rhs
        assert divided_difference(1, divided_difference(3, f)) == divided_difference(
            3, divided_difference(1, f)
        )


def reference_divided_difference(i, f):
    """The closed form of the divided difference on each monomial, as first
    written: pad the exponents, map each term, and let the constructor trim
    and cancel."""
    counts = {}
    for (e, deg), c in f.terms.items():
        e += (0,) * (i + 1 - len(e))
        p, q = e[i - 1], e[i]
        lo, hi, signed = (q, p, c) if p > q else (p, q, -c)
        for k in range(lo, hi):
            key = (e[: i - 1] + (k, p + q - 1 - k) + e[i + 1 :], deg)
            counts[key] = counts.get(key, 0) + signed
    return Polynomial(counts)


# Each operator as its definition: multiply f by the fixed polynomial, then
# take the divided difference.
REFERENCE_OPERATORS = {
    divided_difference: lambda i, f: reference_divided_difference(i, f),
    demazure: lambda i, f: reference_divided_difference(i, x(i) * f),
    twisted_demazure: lambda i, f: reference_divided_difference(
        i, x(i) * (ONE - x(i + 1)) * f
    ),
    isobaric: lambda i, f: reference_divided_difference(i, (ONE - x(i + 1)) * f),
}


class TestOperators:
    def test_hand_values(self):
        assert demazure(1, x(1)) == x(1) + x(2)
        assert demazure(1, ONE) == ONE
        assert demazure(2, x(1)) == x(1)
        assert twisted_demazure(1, ONE) == ONE
        assert twisted_demazure(1, x(1)) == x(1) + x(2) - x(1) * x(2)
        assert isobaric(1, x(1)) == ONE
        assert isobaric(1, ONE) == ONE
        assert isobaric(1, x(1) * x(1) * x(2)) == x(1) * x(2)

    @given(poly_terms(max_vars=4, max_deg=5).map(build), st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_fused_pass_equals_compose_then_divide(self, f, i):
        # the polynomials carry b-terms, and i runs past the last variable
        for op, reference in REFERENCE_OPERATORS.items():
            out = op(i, f)
            assert out == reference(i, f)
            assert all(e[-1:] != (0,) and c for (e, _), c in out.terms.items())

    def test_fused_pass_on_hand_cases(self):
        # a constant, a term past the index, b-terms that cancel
        f = 3 * ONE + Polynomial.monomial((0, 0, 0, 2), -1, 1) + Polynomial.monomial((2,), 1, 2)
        cancel = Polynomial.monomial((1, 2), 1, 1) + Polynomial.monomial((2, 1), 1, 1)
        for op, reference in REFERENCE_OPERATORS.items():
            for i in (1, 2, 3, 4, 5):
                assert op(i, f) == reference(i, f)
                assert op(i, cancel) == reference(i, cancel)
            with pytest.raises(ValueError):
                op(0, f)

    def test_twisted_fixes_its_image(self):
        f = x(1) + x(2) - x(1) * x(2)
        assert twisted_demazure(1, f) == f

    @given(small_polys, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_idempotence(self, f, i):
        for op in (demazure, twisted_demazure, isobaric):
            once = op(i, f)
            assert op(i, once) == once

    @given(small_polys)
    @settings(max_examples=25, deadline=None)
    def test_braid_for_demazure_and_isobaric(self, f):
        for op in (demazure, isobaric):
            assert op(1, op(2, op(1, f))) == op(2, op(1, op(2, f)))
            assert op(1, op(3, f)) == op(3, op(1, f))

    def test_beta_linearity(self):
        f = Polynomial.monomial((2,), 3, 2) + Polynomial.monomial((1, 1), -1, 1)
        g = divided_difference(1, f)
        plain = divided_difference(1, Polynomial.monomial((2,), 3)) + divided_difference(
            1, Polynomial.monomial((1, 1), -1)
        )
        # coefficients in b ride along untouched
        assert g.substitute_beta(1) == plain.substitute_beta(1)
        assert g.coefficient((1,)) == {2: 3}


class TestMonomialOrder:
    def test_leading_examples(self):
        assert (x(1) + x(2)).leading_monomial() == (0, 1)
        assert Polynomial.monomial((1, 3, 0, 2)).leading_monomial() == (1, 3, 0, 2)
        with pytest.raises(ValueError):
            ZERO.leading_monomial()

    def test_totality_and_multiplicativity(self):
        # x^a is larger than x^b exactly when the trimmed tuple a is
        # lexicographically smaller; exhaustive on small exponent vectors
        def add(a, c):
            n = max(len(a), len(c))
            return trim(
                (a[i] if i < len(a) else 0) + (c[i] if i < len(c) else 0)
                for i in range(n)
            )

        vecs = [trim((a, b, c)) for a in range(3) for b in range(3) for c in range(3)]
        for a in vecs:
            for b in vecs:
                assert (a == b) or (a < b) or (b < a)
                if a < b:
                    for c in vecs:
                        assert add(a, c) < add(b, c)

    def test_product_leading_monomial(self):
        f = x(1) + x(2)
        g = x(2) + x(3)
        assert g.leading_monomial() == (0, 0, 1)
        assert (f * g).leading_monomial() == (0, 1, 1)
        assert (f * g).leading_monomial() == trim(
            a + b
            for a, b in zip(f.leading_monomial() + (0,), g.leading_monomial())
        )


class TestBetaAndFormats:
    def test_substitute(self):
        f = ONE + Polynomial.monomial((1,), 1, 1)
        assert f.substitute_beta(-1) == ONE - x(1)
        assert f.substitute_beta(0) == ONE
        assert Polynomial.monomial((1,), 1, 2).substitute_beta(-1) == x(1)

    def test_text_rendering(self):
        f = (
            Polynomial.monomial((2, 0, 1))
            + Polynomial.monomial((2, 1))
            + Polynomial.monomial((2, 1, 1), -1, 1)
        )
        assert render_text(f) == "x1^2*x3 + x1^2*x2 - b*x1^2*x2*x3"
        assert render_text(ZERO) == "0"
        assert render_text(ONE) == "1"
        assert render_text(Polynomial.monomial((), 1, 2)) == "b^2"
        assert render_text((-2) * x(1)) == "-2*x1"

    def test_json_roundtrip(self):
        f = (
            Polynomial.monomial((1, 0, 2), 3)
            + Polynomial.monomial((0, 1), -1, 2)
            + Polynomial.monomial((), 7)
        )
        obj = f.to_json_obj()
        text = json.dumps(obj)
        assert Polynomial.from_json_obj(json.loads(text)) == f
        # terms are sorted in descending monomial order
        exps = [tuple(t["exps"]) for t in obj["terms"]]
        assert exps == sorted(exps)

    def test_json_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Polynomial.from_json_obj(
                {"terms": [{"coeff": [[0, 1]], "exps": [1]}, {"coeff": [[0, 2]], "exps": [1, 0]}]}
            )

    @pytest.mark.parametrize("term", MALFORMED_TERMS)
    def test_json_rejects_malformed_terms(self, term):
        with pytest.raises(ValueError):
            Polynomial.from_json_obj({"terms": [term]})

    @pytest.mark.parametrize("doc", WRONG_SHAPES)
    def test_json_rejects_wrong_shapes(self, doc):
        with pytest.raises(ValueError):
            Polynomial.from_json_obj(doc)

    def test_json_reads_every_written_form(self):
        f = Polynomial({((2, 0, 1), 0): 3, ((2, 0, 1), 2): -1, ((), 1): 5, ((0, 4), 0): 1})
        assert Polynomial.from_json_obj(json.loads(json.dumps(f.to_json_obj()))) == f
        assert Polynomial.from_json_obj({"terms": []}) == ZERO
        # a zero count and an untrimmed exponent are still read
        obj = {"terms": [{"coeff": [[0, 0], [1, 2]], "exps": [0, 1, 0]}]}
        assert Polynomial.from_json_obj(obj) == Polynomial.monomial((0, 1), 2, 1)


# ---------------------------------------------------------------------------
# The polynomial JSON decoder against the one it replaced


def _reference_json_int(value):
    if type(value) is not int:
        raise ValueError(f"expected an integer in polynomial JSON, got {value!r}")
    return value


def reference_from_json_obj(obj):
    """Polynomial.from_json_obj as it was before its checks were folded into
    fewer Python steps: one call per number and a generator per exponent."""
    counts = {}
    seen = set()
    try:
        for t in obj["terms"]:
            e = trim(_reference_json_int(v) for v in t["exps"])
            if e in seen:
                raise ValueError(f"duplicate exponent {e} in polynomial JSON")
            if any(v < 0 for v in e):
                raise ValueError("negative exponent in polynomial JSON")
            seen.add(e)
            for deg, c in t["coeff"]:
                if _reference_json_int(deg) < 0:
                    raise ValueError("negative b-degree in polynomial JSON")
                if (e, deg) in counts:
                    raise ValueError(
                        f"duplicate b-degree {deg} of exponent {e} in polynomial JSON"
                    )
                counts[e, deg] = _reference_json_int(c)
    except TypeError as exc:
        raise ValueError(f"polynomial JSON of the wrong shape: {exc}") from None
    return Polynomial({key: c for key, c in counts.items() if c})


def outcome(decode, obj):
    """The polynomial's terms, key order included, or the exception's type
    and message."""
    try:
        return list(decode(obj).terms.items())
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)


def assert_decoders_agree(obj):
    expected = outcome(reference_from_json_obj, obj)
    assert outcome(Polynomial.from_json_obj, obj) == expected, obj
    return expected


# Numbers and other JSON values an exponent, a b-degree or a count may hold.
json_scalars = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([0.0, 1.0, 2.5, True, False, None, "1", "ab", [], [1], {}, {"1": 2}]),
)
near_terms = st.lists(
    st.fixed_dictionaries(
        {
            "exps": st.one_of(
                st.lists(st.integers(min_value=-1, max_value=2), max_size=3),
                st.lists(json_scalars, max_size=3),
                json_scalars,
            ),
            "coeff": st.one_of(
                st.lists(
                    st.one_of(
                        st.tuples(st.integers(-1, 2), st.integers(-2, 2)).map(list),
                        st.lists(json_scalars, max_size=3),
                        json_scalars,
                    ),
                    max_size=3,
                ),
                json_scalars,
            ),
        }
    ),
    max_size=4,
)


class TestDecoderMatchesReference:
    @given(small_polys)
    @settings(max_examples=200, deadline=None)
    def test_written_polynomials(self, f):
        obj = json.loads(json.dumps(f.to_json_obj()))
        assert dict(assert_decoders_agree(obj)) == f.terms

    @given(near_terms)
    @settings(max_examples=400, deadline=None)
    def test_near_miss_documents(self, terms):
        assert_decoders_agree({"terms": terms})

    @pytest.mark.parametrize("term", MALFORMED_TERMS)
    def test_malformed_terms(self, term):
        for doc in ({"terms": [term]}, {"terms": [{"coeff": [[0, 1]], "exps": [2]}, term]}):
            refused = assert_decoders_agree(doc)
            assert refused[0] is ValueError

    @pytest.mark.parametrize("doc", WRONG_SHAPES + [{}, {"terms": [{"exps": [1]}]}, None])
    def test_wrong_shapes(self, doc):
        assert_decoders_agree(doc)

    def test_untrimmed_and_zero_entries(self):
        for doc in [
            {"terms": [{"coeff": [[0, 0], [1, 2]], "exps": [0, 1, 0]}]},
            {"terms": [{"coeff": [[0, 1]], "exps": [1, 0]}, {"coeff": [[0, 2]], "exps": [1]}]},
            {"terms": [{"coeff": [[0, 0], [0, 1]], "exps": [2]}]},
            {"terms": [{"coeff": [[0, 1]], "exps": [0, 0]}]},
            {"terms": [{"coeff": [], "exps": []}]},
            {"terms": []},
        ]:
            assert_decoders_agree(doc)

    def test_every_value_of_a_cache_fill(self, tmp_path):
        # Every polynomial a conj2 fill wrote reads back equal to the same
        # polynomial computed again, its terms in sorted order.
        from kohnert import bases, diagrams, perms
        from kohnert.harness import PolynomialCache, verify

        verify("conj2", n=5, cache_dir=str(tmp_path))
        paths = sorted(tmp_path.iterdir())
        assert len(paths) == 2 * 120
        recompute = {
            "K": lambda w: diagrams.closure_polynomial(diagrams.rothe(w), diagrams.K_KOHNERT),
            "grothendieck": bases.grothendieck,
        }
        cache = PolynomialCache(str(tmp_path))
        for path in paths:
            entry = json.loads(path.read_bytes())
            expected = recompute[entry["family"]](perms.parse_permutation(entry["param"]))
            got = cache.get(entry["family"], entry["param"])
            assert got == expected
            assert list(got.terms) == sorted(expected.terms)
        assert (cache.hits, cache.misses) == (len(paths), 0)
