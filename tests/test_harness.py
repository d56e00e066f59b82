import hashlib
import json
import math
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnert import diagrams, harness
from kohnert.harness import (
    PolynomialCache,
    compositions_upto,
    poly_diff,
    verify_bjs,
    verify_conjecture1,
    verify_conjecture2,
    verify_kohnert,
    verify_talpha_props,
    verify_theorem1,
    verify_theorem4,
)
from kohnert.poly import Polynomial, x


class TestCaseEnumeration:
    def test_composition_order_is_graded(self):
        cs = compositions_upto(3, 3)
        assert cs[0] == ()
        weights = [sum(a) for a in cs]
        assert weights == sorted(weights)
        assert (0, 0, 3) in cs and (3,) in cs
        assert all(len(a) <= 3 and sum(a) <= 3 for a in cs)

    def test_composition_count(self):
        # weight <= 7 in <= 4 parts
        assert len(compositions_upto(7, 4)) == 330
        # C(17, 10): the product over (w + 1)^p tuples would visit 8^10
        assert len(compositions_upto(7, 10)) == 19448

    def test_compositions_match_product_definition(self):
        # The reference filters all (w + 1)^p tuples of each length.
        from itertools import product

        def reference(max_weight, max_parts):
            found = set()
            for nparts in range(max_parts + 1):
                for parts in product(range(max_weight + 1), repeat=nparts):
                    if (not parts or parts[-1] != 0) and sum(parts) <= max_weight:
                        found.add(parts)
            return sorted(found, key=lambda a: (sum(a), len(a), a))

        for w in range(6):
            for p in range(6):
                assert compositions_upto(w, p) == reference(w, p), (w, p)

    def test_cases_counted_before_enumerating(self):
        for w in range(8):
            for p in range(8):
                count = harness._composition_count(w, p)
                assert count == len(compositions_upto(w, p)) == math.comb(w + p, p), (w, p)
        over = harness.MAX_CASES + 1
        assert harness._composition_count(40, 40) == over
        assert harness._composition_count(10**9, 10**9) == over
        assert harness._composition_count(10**9, 1) == over
        assert harness._composition_count(10**9, 0) == 1
        assert compositions_upto(10**9, 0) == [()]

    def test_case_limit(self):
        assert harness.MAX_CASES == math.factorial(harness.MAX_N) == 40320
        for family, bounds in [
            ("talpha_props", {"max_weight": 40, "max_parts": 40}),
            ("theorem1", {"max_weight": 9, "max_parts": 9}),  # C(18, 9) = 48620
            ("kohnert", {"max_weight": 10**9, "max_parts": 10**9, "n": 3}),
        ]:
            with pytest.raises(harness.SweepInputError, match="more than 40320 cases"):
                harness._checked_config(family, **bounds)
        # at the limit: C(16, 8) = 12870 compositions, 8! = 40320 permutations
        harness._checked_config("theorem1", max_weight=8, max_parts=8)
        harness._checked_config("kohnert", n=harness.MAX_N)


class TestPolyDiff:
    def test_equal_is_none(self):
        assert poly_diff(x(1), x(1)) is None

    def test_minimal_diff(self):
        lhs = x(1) + x(2)
        rhs = x(1) + Polynomial.monomial((0, 1), 2)
        diff = poly_diff(lhs, rhs)
        assert diff == {"terms": [[[0, 1], [(0, 1)], [(0, 2)]]]}

    def test_diff_over_beta(self):
        # equal exponents drop out; a differing one shows its whole Z[b]
        # coefficient on both sides, empty where the exponent is absent
        b_x1 = Polynomial.monomial((1,), 1, 1)
        lhs = x(1) + b_x1 + x(2) + x(4)
        rhs = x(1) + 2 * b_x1 + x(3) + x(4)
        assert poly_diff(lhs, rhs) == {
            "terms": [
                [[0, 0, 1], [], [(0, 1)]],
                [[0, 1], [(0, 1)], []],
                [[1], [(0, 1), (1, 1)], [(0, 1), (1, 2)]],
            ]
        }


class TestSweeps:
    def test_conjecture2_small(self):
        report = verify_conjecture2(3)
        assert report.totals == {"pass": 6, "fail": 0, "skipped": 0, "total": 6}
        assert [c.param for c in report.cases] == sorted(
            [c.param for c in report.cases], key=lambda s: (len(s), s)
        )

    def test_conjecture1_small_true_range(self):
        report = verify_conjecture1(3, 3)
        assert report.failed() == 0
        assert any(c.param == "1,0,2" for c in report.cases)

    def test_conjecture1_weight_zero(self):
        report = verify_conjecture1(0, 0)
        assert report.totals["total"] == 1
        assert report.cases[0].param == "0"
        assert report.cases[0].status == "pass"

    def test_conjecture1_counterexample_detail(self):
        # the ghost-move rule pinned by the worked examples does not satisfy
        # the b = -1 identity at (0,0,1,2); the sweep must surface it with a
        # term diff rather than hide it
        report = verify_conjecture1(3, 4)
        failing = [c for c in report.cases if c.status == "fail"]
        assert [c.param for c in failing] == ["0,0,1,2"]
        detail = failing[0].detail
        assert detail["diff"]["terms"]
        assert "lhs" in detail and "rhs" in detail

    def test_kohnert_slices(self):
        report = verify_kohnert(3, 3, 3)
        assert report.failed() == 0
        families = {c.family for c in report.cases}
        assert families == {"kohnert_key", "kohnert_schubert"}

    def test_theorem1_bjs_theorem4_talpha(self):
        assert verify_theorem1(3, 3).failed() == 0
        assert verify_bjs(3).failed() == 0
        assert verify_theorem4(3, 3).failed() == 0
        assert verify_talpha_props(3, 3).failed() == 0

    def test_skipped_is_not_passed(self):
        report = verify_conjecture1(3, 3, cap=2)
        assert report.totals["skipped"] > 0
        skipped = [c for c in report.cases if c.status == "skipped"]
        assert all("cap" in c.detail["reason"] for c in skipped)
        assert report.totals["pass"] + report.totals["fail"] + report.totals[
            "skipped"
        ] == report.totals["total"]

    def test_capped_kohnert_counts_the_plain_closure(self):
        # The kohnert family walks the plain closure, so the cap counts it:
        # a case is skipped iff its plain closure is over the cap, which
        # only happens when its ghost closure is over the cap too.
        from kohnert import diagrams, perms

        starts = {
            "kohnert_key": lambda p: diagrams.skyline(perms.parse_composition(p)),
            "kohnert_schubert": lambda p: diagrams.rothe(perms.parse_permutation(p)),
        }
        fewer = 0
        for cap in (1, 2, 3, 5, 8):
            report = harness.verify("kohnert", max_weight=3, max_parts=3, n=4, cap=cap)
            assert report.failed() == 0
            skipped, over_plain, over_ghost = set(), set(), set()
            for case in report.cases:
                key = (case.family, case.param)
                start = starts[case.family](case.param)
                if case.status == "skipped":
                    assert case.detail["reason"].startswith(f"closure exceeded cap {cap} ")
                    skipped.add(key)
                if len(diagrams.closure(start, diagrams.KOHNERT)) > cap:
                    over_plain.add(key)
                if len(diagrams.closure(start, diagrams.K_KOHNERT)) > cap:
                    over_ghost.add(key)
            assert skipped == over_plain
            assert skipped <= over_ghost
            fewer += len(over_ghost - skipped)
        assert fewer > 0

    def test_reports_identical_across_jobs(self):
        sequential = verify_conjecture2(3, jobs=1)
        parallel = verify_conjecture2(3, jobs=3)
        assert sequential.deterministic_json() == parallel.deterministic_json()
        assert parallel.meta["jobs"] == 3

    def test_failing_case_pickles(self):
        # a worker process returns its cases pickled
        case = harness._compare_case("conj2", "312", x(1), x(2))
        assert case.status == "fail" and case.detail["diff"]
        back = pickle.loads(pickle.dumps(case))
        assert type(back) is harness.VerificationCase
        assert back == case
        assert back.to_json_obj() == case.to_json_obj()

    def test_report_totals_and_meta(self):
        cases = [
            harness.VerificationCase("bjs", "1", "pass"),
            harness.VerificationCase("bjs", "21", "fail", {"why": 1}),
            harness.VerificationCase("bjs", "132", "skipped", {"reason": "cap"}),
        ]
        report = harness.SweepReport({"family": "bjs"}, cases)
        assert report.totals == {"pass": 1, "fail": 1, "skipped": 1, "total": 3}
        assert report.meta == {} and report.failed() == 1

    def test_empty_report_text(self):
        report = harness.SweepReport({"family": "none"}, [])
        assert json.loads(report.json_text()) == report.to_json_obj()

    def test_report_json_schema(self):
        report = verify_bjs(2)
        obj = report.to_json_obj()
        assert set(obj) == {"config", "cases", "totals", "meta"}
        case = obj["cases"][0]
        assert set(case) == {"family", "param", "status", "detail"}
        json.dumps(obj)  # serializable


class TestCaseTable:
    def test_every_case_family_is_in_exactly_one_sweep(self):
        listed = [name for spec in harness.SWEEPS.values() for name in spec.cases]
        assert sorted(listed) == sorted(harness._CASES)

    def test_closure_sweeps_are_derived_from_the_runner(self):
        closure = {family for family, spec in harness.SWEEPS.items() if spec.closure}
        assert closure == {"conj1", "conj2", "kohnert"}

    def test_closure_rows_hold_a_rule(self):
        rules = [
            args[2] for _, runner, args in harness._CASES.values()
            if runner is harness._run_closure_case
        ]
        assert len(rules) == 4
        assert all(rule is diagrams.RULES[rule.name] for rule in rules)
        assert {rule.name for rule in rules} == set(diagrams.RULES)


class TestFaultInjection:
    def test_injected_fault_fails_with_minimal_diff(self, monkeypatch):
        monkeypatch.setenv(harness.FAULT_ENV, "conj2:312")
        report = verify_conjecture2(3)
        failing = [c for c in report.cases if c.status == "fail"]
        assert [c.param for c in failing] == ["312"]
        diff = failing[0].detail["diff"]["terms"]
        assert diff == [[[1], [(0, 1)], []]]
        assert report.failed() == 1

    def test_clean_rerun_passes(self):
        assert verify_conjecture2(3).failed() == 0

    @pytest.mark.parametrize("family", sorted(harness.SWEEPS))
    def test_every_family_fails_exactly_the_injected_case(self, monkeypatch, family):
        small = {"max_weight": 3, "max_parts": 3, "n": 3}
        bounds = {name: small[name] for name in harness.SWEEPS[family].bounds}
        clean = harness.verify(family, **bounds)
        assert clean.failed() == 0
        first = clean.cases[0]
        monkeypatch.setenv(harness.FAULT_ENV, f"{first.family}:{first.param}")
        report = harness.verify(family, **bounds)
        failing = [(c.family, c.param) for c in report.cases if c.status == "fail"]
        assert failing == [(first.family, first.param)]
        assert report.failed() == 1


class TestCache:
    def test_roundtrip_and_hit(self, tmp_path):
        cache = PolynomialCache(str(tmp_path))
        calls = []

        def compute():
            calls.append(1)
            return x(1) + x(2)

        first = cache.get_or_compute("test", "a", compute)
        second = cache.get_or_compute("test", "a", compute)
        assert first == second == x(1) + x(2)
        assert len(calls) == 1
        assert cache.get("test", "missing") is None

    def test_corrupt_entry_recomputed_with_warning(self, tmp_path, capsys):
        cache = PolynomialCache(str(tmp_path))
        cache.put("test", "a", x(1))
        path = cache._path("test", "a")
        with open(path) as fh:
            obj = json.load(fh)
        assert obj["value"] == [[[1]], [0], [1]]
        obj["value"][2][0] = 99
        with open(path, "w") as fh:
            json.dump(obj, fh)
        assert cache.get("test", "a") is None
        assert "corrupt cache entry" in capsys.readouterr().err
        assert cache.get_or_compute("test", "a", lambda: x(1)) == x(1)
        assert cache.get("test", "a") == x(1)

    def test_version_bump_misses(self, tmp_path):
        old = PolynomialCache(str(tmp_path), version="1")
        old.put("test", "a", x(1))
        new = PolynomialCache(str(tmp_path), version="2")
        assert new.get("test", "a") is None

    def test_sweep_with_cache_matches_cold_run(self, tmp_path):
        cold = verify_conjecture2(3)
        warm1 = verify_conjecture2(3, cache_dir=str(tmp_path))
        warm2 = verify_conjecture2(3, cache_dir=str(tmp_path))
        assert (
            cold.deterministic_json()
            == warm1.deterministic_json()
            == warm2.deterministic_json()
        )
        assert len(list(tmp_path.iterdir())) > 0

    def test_one_cache_object_per_sweep(self, tmp_path, monkeypatch):
        created = []
        original = PolynomialCache.__init__

        def counting(self, *args, **kwargs):
            created.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(PolynomialCache, "__init__", counting)
        report = verify_conjecture2(3, cache_dir=str(tmp_path))
        assert report.totals["total"] == 6
        assert len(created) == 1
        verify_conjecture2(3, cache_dir=str(tmp_path))
        assert len(created) == 2
        assert created[1].hits == 12 and created[1].misses == 0

    def test_cache_files_are_pinned(self, tmp_path):
        # SHA-256 over the sorted (file name, bytes) pairs that a fill by
        # `verify conj2 --n 4 --cache DIR` writes.  The digest pins the flat
        # value layout [exponents, b-degrees, counts] and the format tag in
        # the file names; the nested {"terms": ...} layout before it had
        # other names and another digest.  File names hash the package
        # version, so a version bump moves the digest.
        verify_conjecture2(4, cache_dir=str(tmp_path))
        paths = sorted(tmp_path.iterdir())
        assert len(paths) == 48
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        assert digest.hexdigest() == (
            "c2a2ec8b1fbed037dccead2e902d7c3eb7a0b50aa9001fa2023c89cb1262ba74"
        )

    @staticmethod
    def rewrite_value(path, value):
        """Put ``value`` in the entry at ``path`` as put would write it, with
        a matching value_sha256."""
        entry = json.loads(path.read_bytes())
        text = json.dumps(value)
        entry["value_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        del entry["value"]
        path.write_text(json.dumps(entry)[:-1] + ', "value": ' + text + "}")

    def test_truncated_entry_recomputed_with_warning(self, tmp_path, capsys):
        cache = PolynomialCache(str(tmp_path))
        f = x(1) * x(2) + Polynomial.monomial((0, 3), -2, 1)
        cache.put("test", "a", f)
        path = Path(cache._path("test", "a"))
        data = path.read_bytes()
        for cut in (len(data) - 1, len(data) - 5, len(data) // 2, 10, 0):
            path.write_bytes(data[:cut])
            assert cache.get("test", "a") is None
            assert "dropping corrupt cache entry for test:a" in capsys.readouterr().err
        assert cache.get_or_compute("test", "a", lambda: f) == f
        assert path.read_bytes() == data
        assert cache.get("test", "a") == f

    @pytest.mark.parametrize(
        "terms",
        [
            # the first five are the nested layout's five cases, in the flat one
            [[[1]], [0], [1.0]],  # a float count
            [[[1], [1]], [0, 0], [1, 1]],  # a repeated (exponent, b-degree) key
            [[[1], [1, 0]], [0, 1], [1, 1]],  # an untrimmed exponent
            [[[-1]], [0], [1]],  # a negative exponent
            [[[1]], [0]],  # a missing list
            [[[1.0]], [0], [1]],  # a float exponent
            [[[1]], [0.0], [1]],  # a float b-degree
            [[[1]], [0], [True]],  # a bool count
            [[[True]], [0], [1]],  # a bool exponent
            [[[1]], [False], [1]],  # a bool b-degree
            [[[[1]]], [0], [1]],  # a nested exponent
            [[[1]], [[0]], [1]],  # a nested b-degree
            [[[1]], [0], [[1]]],  # a nested count
            [[1], [0], [1]],  # an exponent that is not a list
            [[[1], [2]], [0], [1]],  # lists of unequal length
            [[[1]], [0, 1], [1]],
            [[[1]], [0], [1, 2]],
            [[[0]], [0], [1]],  # an untrimmed exponent
            [[[1]], [0], [0]],  # a zero count
            [[[1], [1]], [0, 0], [1, 2]],  # a repeated key
            [[[1]], [-1], [1]],  # a negative b-degree
            [[[1]], [0], [1], []],  # not three lists
            [[[1]], 0, [1]],
            [],
            None,
            "[[[1]], [0], [1]]",
            {"terms": [{"coeff": [[0, 1]], "exps": [1]}]},  # the nested layout
        ],
    )
    def test_hashed_value_of_the_wrong_shape_is_dropped(self, tmp_path, capsys, terms):
        cache = PolynomialCache(str(tmp_path))
        cache.put("test", "a", x(1))
        path = Path(cache._path("test", "a"))
        self.rewrite_value(path, terms)
        assert cache.get("test", "a") is None
        err = capsys.readouterr().err
        assert "dropping corrupt cache entry" in err and "hash" not in err
        # a well-formed value rewritten the same way is read
        self.rewrite_value(path, [[[1], [0, 1]], [0, 0], [1, 1]])
        assert cache.get("test", "a") == x(1) + x(2)
        assert (cache.hits, cache.misses) == (1, 1)
        # and a dropped entry is recomputed and written again
        self.rewrite_value(path, terms)
        assert cache.get_or_compute("test", "a", lambda: x(1)) == x(1)
        assert cache.get("test", "a") == x(1)
        assert "dropping corrupt cache entry" in capsys.readouterr().err

    @given(
        st.dictionaries(
            st.tuples(
                st.lists(st.integers(0, 5), max_size=4).map(tuple),
                st.integers(0, 3),
            ),
            st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40)),
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_put_get_round_trip(self, counts):
        f = Polynomial(counts)
        with tempfile.TemporaryDirectory() as directory:
            cache = PolynomialCache(directory)
            for param, g in enumerate([f, Polynomial(), Polynomial({((), 2): 10**30})]):
                cache.put("test", str(param), g)
                got = cache.get("test", str(param))
                assert got == g
                assert list(got.terms) == sorted(g.terms)
            assert (cache.hits, cache.misses) == (3, 0)

    def test_param_holding_the_value_separator_round_trips(self, tmp_path):
        cache = PolynomialCache(str(tmp_path))
        params = ['x, "value": {"terms": []}}', ', "value": ', '"}']
        for i, param in enumerate(params):
            cache.put("test", param, x(i + 1))
        for i, param in enumerate(params):
            assert cache.get("test", param) == x(i + 1)
        assert (cache.hits, cache.misses) == (3, 0)

    def test_reformatted_entry_is_dropped_and_rewritten(self, tmp_path, capsys):
        # The hash covers the value bytes as read, so an entry re-written by
        # hand with the same content is recomputed, not trusted.
        cache = PolynomialCache(str(tmp_path))
        f = x(1) + Polynomial.monomial((0, 2), 3, 1)
        cache.put("test", "a", f)
        path = Path(cache._path("test", "a"))
        written = path.read_bytes()
        path.write_text(json.dumps(json.loads(written), indent=1))
        assert cache.get("test", "a") is None
        assert "dropping corrupt cache entry" in capsys.readouterr().err
        assert cache.get_or_compute("test", "a", lambda: f) == f
        assert path.read_bytes() == written

    def test_entry_is_one_dumps_of_the_object(self, tmp_path):
        cache = PolynomialCache(str(tmp_path), version="v")
        f = Polynomial({((2, 0, 1), 0): 3, ((2, 0, 1), 2): -1, ((), 1): 5})
        cache.put("fam", 'p, "value": q', f)
        # exponents, b-degrees and counts, in sorted term order
        value = [[[], [2, 0, 1], [2, 0, 1]], [1, 0, 2], [5, 3, -1]]
        expected = {
            "family": "fam",
            "param": 'p, "value": q',
            "version": "v",
            "value_sha256": hashlib.sha256(json.dumps(value).encode()).hexdigest(),
            "value": value,
        }
        path = Path(cache._path("fam", 'p, "value": q'))
        assert path.read_bytes() == json.dumps(expected).encode()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_report_counts_hits_and_misses(self, tmp_path, jobs):
        cold = verify_conjecture2(3, jobs=jobs, cache_dir=str(tmp_path))
        assert cold.meta["cache"] == {"hits": 0, "misses": 12}
        warm = verify_conjecture2(3, jobs=jobs, cache_dir=str(tmp_path))
        assert warm.meta["cache"] == {"hits": 12, "misses": 0}
        assert cold.deterministic_json() == warm.deterministic_json()
        assert warm.deterministic_json() == verify_conjecture2(3).deterministic_json()
        assert "cache" not in verify_conjecture2(3, jobs=jobs).meta

    def test_mixed_hit_miss_sweep(self, tmp_path):
        verify_conjecture2(2, cache_dir=str(tmp_path))
        mixed = verify_conjecture2(3, cache_dir=str(tmp_path))
        assert mixed.deterministic_json() == verify_conjecture2(3).deterministic_json()
