import contextlib
import gc
import hashlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
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
)
from kohnert.poly import Polynomial, _of, x


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
        report = harness.verify("conj2", n=3)
        assert report.totals == {"pass": 6, "fail": 0, "skipped": 0, "total": 6}
        assert [c.param for c in report.cases] == sorted(
            [c.param for c in report.cases], key=lambda s: (len(s), s)
        )

    def test_conjecture1_small_true_range(self):
        report = harness.verify("conj1", max_weight=3, max_parts=3)
        assert report.failed() == 0
        assert any(c.param == "1,0,2" for c in report.cases)

    def test_conjecture1_weight_zero(self):
        report = harness.verify("conj1", max_weight=0, max_parts=0)
        assert report.totals["total"] == 1
        assert report.cases[0].param == "0"
        assert report.cases[0].status == "pass"

    def test_conjecture1_counterexample_detail(self):
        # the ghost-move rule pinned by the worked examples does not satisfy
        # the b = -1 identity at (0,0,1,2); the sweep must surface it with a
        # term diff rather than hide it
        report = harness.verify("conj1", max_weight=3, max_parts=4)
        failing = [c for c in report.cases if c.status == "fail"]
        assert [c.param for c in failing] == ["0,0,1,2"]
        detail = failing[0].detail
        assert detail["diff"]["terms"]
        assert "lhs" in detail and "rhs" in detail

    def test_kohnert_slices(self):
        report = harness.verify("kohnert", max_weight=3, max_parts=3, n=3)
        assert report.failed() == 0
        families = {c.family for c in report.cases}
        assert families == {"kohnert_key", "kohnert_schubert"}

    def test_theorem1_bjs_theorem4_talpha(self):
        assert harness.verify("theorem1", max_weight=3, max_parts=3).failed() == 0
        assert harness.verify("bjs", n=3).failed() == 0
        assert harness.verify("theorem4", max_weight=3, max_parts=3).failed() == 0
        assert harness.verify("talpha_props", max_weight=3, max_parts=3).failed() == 0

    @pytest.mark.parametrize("alpha", [(13,), (7, 6), (0, 2, 11)])
    def test_theorem1_skips_an_overlong_case_before_any_route(self, monkeypatch, alpha):
        # Each codes a permutation of length 13.  The compatible-pair route
        # refuses it, and the tableau-tuple route alone has no length bound:
        # it would walk the whole Coxeter-Knuth class before the skip.
        from kohnert import bases, perms

        with pytest.raises(perms.BoundExceededError) as refused:
            perms.reduced_words(perms.perm_from_code(alpha))

        def route(*args):
            raise AssertionError("a route ran on a case that is skipped")

        for name in ("split_extract", "key_split_expansion", "key_split_expansion_via_pairs"):
            monkeypatch.setattr(bases, name, route)
        param = perms.format_composition(alpha)
        case = harness._run_theorem1_case("theorem1", param, alpha, {"cap": None, "cache": None})
        assert case == harness.VerificationCase(
            "theorem1", param, "skipped", {"reason": str(refused.value)}
        )

    def test_theorem1_runs_every_route_up_to_the_length_bound(self):
        alpha = (0, 2, 10)
        param = "0,2,10"
        case = harness._run_theorem1_case("theorem1", param, alpha, {"cap": None, "cache": None})
        assert case == harness.VerificationCase("theorem1", param, "pass")

    def test_unknown_family_is_refused(self):
        with pytest.raises(harness.SweepInputError, match="unknown sweep family 'nope'"):
            harness.verify("nope")

    def test_skipped_is_not_passed(self):
        report = harness.verify("conj1", max_weight=3, max_parts=3, cap=2)
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
        sequential = harness.verify("conj2", n=3, jobs=1)
        parallel = harness.verify("conj2", n=3, jobs=3)
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

    def test_failure_detail_is_built_with_the_collector_paused(self, monkeypatch):
        seen = []
        to_json_obj = Polynomial.to_json_obj

        def recording(self):
            seen.append(gc.isenabled())
            return to_json_obj(self)

        monkeypatch.setattr(Polynomial, "to_json_obj", recording)
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                case = harness._compare_case("conj2", "312", x(1), x(2))
                assert case.detail["lhs"] == to_json_obj(x(1))
                # the caller's setting is back, and a pass builds no detail
                assert gc.isenabled() is enabled
                assert harness._compare_case("conj2", "312", x(1), x(1)).detail is None
        finally:
            gc.enable()
        assert seen == [False] * 4

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
        report = harness.verify("bjs", n=2)
        obj = report.to_json_obj()
        assert set(obj) == {"config", "cases", "totals", "meta"}
        case = obj["cases"][0]
        assert set(case) == {"family", "param", "status", "detail"}
        json.dumps(obj)  # serializable


class TestCaseTable:
    def test_every_case_family_is_in_exactly_one_sweep(self):
        listed = [name for spec in harness.SWEEPS.values() for name in spec.cases]
        # a name repeated across sweeps would shadow the other in _CASES
        assert len(listed) == len(harness._CASES)
        assert sorted(listed) == sorted(harness._CASES)

    def test_closure_sweeps_are_derived_from_the_runner(self):
        closure = {family for family, spec in harness.SWEEPS.items() if spec.closure}
        assert closure == {"conj1", "conj2", "kohnert"}

    def test_closure_rows_hold_a_rule(self):
        rules = [
            case.args[0].rule for case in harness._CASES.values()
            if case.runner is harness._run_closure_case
        ]
        assert len(rules) == 4
        assert all(rule is diagrams.RULES[rule.name] for rule in rules)
        assert {rule.name for rule in rules} == set(diagrams.RULES)


class TestFaultInjection:
    def test_injected_fault_fails_with_minimal_diff(self, monkeypatch):
        monkeypatch.setenv(harness.FAULT_ENV, "conj2:312")
        report = harness.verify("conj2", n=3)
        failing = [c for c in report.cases if c.status == "fail"]
        assert [c.param for c in failing] == ["312"]
        diff = failing[0].detail["diff"]["terms"]
        assert diff == [[[1], [(0, 1)], []]]
        assert report.failed() == 1

    def test_clean_rerun_passes(self):
        assert harness.verify("conj2", n=3).failed() == 0

    @pytest.mark.parametrize("case_family", sorted(harness._CASES))
    def test_every_family_fails_exactly_the_injected_case(self, monkeypatch, case_family):
        (family,) = [name for name, spec in harness.SWEEPS.items() if case_family in spec.cases]
        small = {"max_weight": 3, "max_parts": 3, "n": 3}
        bounds = {name: small[name] for name in harness.SWEEPS[family].bounds}
        clean = harness.verify(family, **bounds)
        assert clean.failed() == 0
        first = next(c for c in clean.cases if c.family == case_family)
        monkeypatch.setenv(harness.FAULT_ENV, f"{first.family}:{first.param}")
        report = harness.verify(family, **bounds)
        failing = [(c.family, c.param) for c in report.cases if c.status == "fail"]
        assert failing == [(first.family, first.param)]
        assert report.failed() == 1


def reference_from_flat_value(value) -> Polynomial:
    """The check of a cache value on parsed JSON, one C pass over the value
    per check, that ``harness._from_flat_value`` replaced with checks on its
    bytes: the reference the byte checks must agree with."""
    from itertools import chain
    from operator import itemgetter

    if type(value) is not list or len(value) != 3 or set(map(type, value)) != {list}:
        raise ValueError("the value is not three lists")
    exps, degs, counts = value
    if not len(exps) == len(degs) == len(counts):
        raise ValueError("the value's lists differ in length")
    if set(map(type, exps)) - {list}:
        raise ValueError("an exponent is not a list")
    if set(map(type, chain(chain.from_iterable(exps), degs, counts))) - {int}:
        raise ValueError("a number in the value is not an int")
    if min(chain(chain.from_iterable(exps), degs), default=0) < 0:
        raise ValueError("a negative exponent or b-degree")
    if 0 in map(itemgetter(-1), filter(None, exps)):
        raise ValueError("an exponent ends in 0")
    if 0 in counts:
        raise ValueError("a zero count")
    terms = dict(zip(zip(map(tuple, exps), degs), counts))
    if len(terms) != len(counts):
        raise ValueError("an (exponent, b-degree) key is given twice")
    return _of(terms)


# Every JSON kind a slot of a cache value might hold in place of its own.
ANY_KIND = st.one_of(
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
    st.lists(st.integers(-2, 2), max_size=2),
    st.integers(-3, -1),
    st.just(0),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**64)),
)


@st.composite
def flat_shaped_values(draw):
    """Values shaped like ``harness._flat_value`` output: three lists of
    exponents, b-degrees and counts, where any slot (the value, a list, an
    exponent or a number) may hold any JSON kind, and a list may have
    another length."""

    def slot(usual):
        return draw(usual if draw(st.integers(0, 15)) else ANY_KIND)

    n = draw(st.integers(0, 4))

    def length():
        return n if draw(st.integers(0, 7)) else draw(st.integers(0, 4))

    exps = [
        slot(st.just([slot(st.integers(0, 2)) for _ in range(draw(st.integers(0, 3)))]))
        for _ in range(length())
    ]
    degs = [slot(st.integers(0, 1)) for _ in range(length())]
    counts = [slot(st.integers(-2, 2)) for _ in range(length())]
    lists = [slot(st.just(part)) for part in (exps, degs, counts)]
    lists = lists[: 3 if draw(st.integers(0, 15)) else draw(st.integers(0, 2))]
    return slot(st.just(lists + ([] if draw(st.integers(0, 15)) else [slot(st.just([]))])))


class TestCache:
    def test_roundtrip_and_hit(self, tmp_path):
        cache = PolynomialCache(str(tmp_path))
        calls = []

        def compute():
            calls.append(1)
            return x(1) + x(2)

        first = harness._cached(cache, "test", "a", compute)
        second = harness._cached(cache, "test", "a", compute)
        assert first == second == x(1) + x(2)
        assert len(calls) == 1
        assert cache.get("test", "missing") is None

    @staticmethod
    def entry_lines(path):
        """The entry lines of the log at ``path``, in order."""
        return [line for line in Path(path).read_bytes().split(b"\n") if line]

    def test_corrupt_entry_recomputed_with_warning(self, tmp_path, capsys):
        cache = PolynomialCache(str(tmp_path))
        cache.put("test", "a", x(1))
        path = Path(cache._path("test", "a"))
        [line] = self.entry_lines(path)
        obj = json.loads(line)
        assert obj["value"] == [[[1]], [0], [1]]
        obj["value"][2][0] = 99
        path.write_text("\n" + json.dumps(obj) + "\n")
        # the writer's index and a fresh one both lead to the rewritten line
        for reader in (cache, PolynomialCache(str(tmp_path))):
            assert reader.get("test", "a") is None
            assert "dropping corrupt cache entry for test:a" in capsys.readouterr().err
        assert harness._cached(cache, "test", "a", lambda: x(1)) == x(1)
        assert cache.get("test", "a") == x(1)
        capsys.readouterr()
        # the recomputed line, appended after the corrupt one, wins
        assert self.entry_lines(path)[-1] == line
        assert PolynomialCache(str(tmp_path)).get("test", "a") == x(1)
        assert capsys.readouterr().err == ""

    def test_entry_of_another_key_recomputed_with_warning(self, tmp_path, capsys):
        # a well-formed line, copied into the log of another family tag or
        # version, whose key fields name the first
        cache = PolynomialCache(str(tmp_path))
        cache.put("test", "a", x(1))
        log = Path(cache._path("test", "a")).read_bytes()
        for family, version in [("other", cache.version), ("test", "2")]:
            other = PolynomialCache(str(tmp_path), version)
            Path(other._path(family, "a")).write_bytes(log)
            assert other.get(family, "a") is None
            err = capsys.readouterr().err
            assert f"dropping corrupt cache entry for {family}:a (key mismatch)" in err
            assert harness._cached(other, family, "a", lambda: x(2)) == x(2)
            assert other.get(family, "a") == x(2)
            capsys.readouterr()
            assert PolynomialCache(str(tmp_path), version).get(family, "a") == x(2)
        assert PolynomialCache(str(tmp_path)).get("test", "a") == x(1)
        assert capsys.readouterr().err == ""

    def test_version_bump_misses(self, tmp_path):
        old = PolynomialCache(str(tmp_path), version="1")
        old.put("test", "a", x(1))
        new = PolynomialCache(str(tmp_path), version="2")
        assert new.get("test", "a") is None

    def test_sweep_with_cache_matches_cold_run(self, tmp_path):
        cold = harness.verify("conj2", n=3)
        warm1 = harness.verify("conj2", n=3, cache_dir=str(tmp_path))
        warm2 = harness.verify("conj2", n=3, cache_dir=str(tmp_path))
        assert (
            cold.deterministic_json()
            == warm1.deterministic_json()
            == warm2.deterministic_json()
        )
        assert len(list(tmp_path.iterdir())) > 0

    def test_capped_sweep_skips_the_same_cases_with_a_warm_cache(self, tmp_path):
        # An uncapped sweep fills the cache with closures over the later
        # caps; a capped sweep reads them and must still skip those cases.
        sweeps = [
            ("kohnert", {"max_weight": 4, "max_parts": 3, "n": 4}),
            ("conj1", {"max_weight": 3, "max_parts": 3}),
            ("conj2", {"n": 4}),
        ]
        skipped = 0
        for family, bounds in sweeps:
            cache_dir = str(tmp_path / family)
            harness.verify(family, cache_dir=cache_dir, **bounds)
            for cap in (1, 5, 20):
                cold = harness.verify(family, cap=cap, **bounds)
                warm = harness.verify(family, cap=cap, cache_dir=cache_dir, **bounds)
                assert warm.meta["cache"]["misses"] == 0
                assert warm.deterministic_json() == cold.deterministic_json(), (family, cap)
                skipped += cold.totals["skipped"]
        assert skipped > 0

    def test_one_cache_object_per_sweep(self, tmp_path, monkeypatch):
        created = []
        original = PolynomialCache.__init__

        def counting(self, *args, **kwargs):
            created.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(PolynomialCache, "__init__", counting)
        report = harness.verify("conj2", n=3, cache_dir=str(tmp_path))
        assert report.totals["total"] == 6
        assert len(created) == 1
        harness.verify("conj2", n=3, cache_dir=str(tmp_path))
        assert len(created) == 2
        assert created[1].hits == 12 and created[1].misses == 0

    def test_cache_files_are_pinned(self, tmp_path):
        # SHA-256 over the sorted (file name, bytes) pairs that a fill by
        # `verify conj2 --n 4 --cache DIR` writes: one log per family tag,
        # its lines in case order.  The digest pins the flat value layout
        # [exponents, b-degrees, counts], the line framing and the format
        # tag in the log names; the per-entry files of the flat1 and nested
        # {"terms": ...} layouts before it had other names and other
        # digests.  Log names hash the package version, so a version bump
        # moves the digest.
        harness.verify("conj2", n=4, cache_dir=str(tmp_path))
        paths = sorted(tmp_path.iterdir())
        assert len(paths) == 2
        assert [len(self.entry_lines(path)) for path in paths] == [24, 24]
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        assert digest.hexdigest() == (
            "ecad25c063c177f19239bc36733754dc111cbde0b93955a461db35b9fe5a6c24"
        )

    def test_cold_fill_writes_one_log_per_family_tag(self, tmp_path):
        # 1440 polynomials, which the per-entry layouts wrote as 1440 files
        report = harness.verify("conj2", n=6, cache_dir=str(tmp_path))
        assert report.meta["cache"] == {"hits": 0, "misses": 1440, "lines": 0}
        cache = PolynomialCache(str(tmp_path))
        logs = sorted(Path(cache._path(tag)) for tag in ("K", "grothendieck"))
        assert sorted(tmp_path.iterdir()) == logs
        assert [len(self.entry_lines(path)) for path in logs] == [720, 720]

    @classmethod
    def rewrite_value(cls, path, value):
        """Make the log at ``path`` its last entry with ``value`` in it, as
        put would write it, with a matching value_sha256."""
        entry = json.loads(cls.entry_lines(path)[-1])
        text = json.dumps(value)
        entry["value_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        del entry["value"]
        path.write_text("\n" + json.dumps(entry)[:-1] + ', "value": ' + text + "}\n")

    def test_truncated_entry_recomputed_with_warning(self, tmp_path, capsys):
        cache = PolynomialCache(str(tmp_path))
        f = x(1) * x(2) + Polynomial.monomial((0, 3), -2, 1)
        cache.put("test", "b", x(1))
        cache.put("test", "a", f)
        path = Path(cache._path("test", "a"))
        data = path.read_bytes()
        line = self.entry_lines(path)[-1]
        start = len(data) - len(line) - 1
        key_fields = line.index(b', "value": ')
        for cut in (len(line) - 1, len(line) - 5, len(line) // 2, 10, 0):
            path.write_bytes(data[: start + cut])
            fresh = PolynomialCache(str(tmp_path))
            assert fresh.get("test", "a") is None
            # every cut that leaves bytes is reported, by param once the
            # key fields parse; the 0-byte cut leaves a plain miss
            err = capsys.readouterr().err
            assert ("dropping corrupt cache entry for test" in err) == (cut > 0)
            assert ("dropping corrupt cache entry for test:a" in err) == (cut > key_fields)
            assert fresh.get("test", "b") == x(1)
            assert harness._cached(fresh, "test", "a", lambda: f) == f
            assert path.read_bytes() == data[: start + cut] + b"\n" + line + b"\n"
            assert fresh.get("test", "a") == f
            capsys.readouterr()
            fresh = PolynomialCache(str(tmp_path))
            assert fresh.get("test", "a") == f and fresh.get("test", "b") == x(1)
            # the recomputed line replaces a line whose key fields parse; a
            # fragment that names no param stays, and each read reports it
            err = capsys.readouterr().err
            assert (err != "") == (0 < cut <= key_fields)
            assert err.count(f"at byte {start} of {path}") == (0 < cut <= key_fields)

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
        PolynomialCache(str(tmp_path)).put("test", "a", x(1))
        cache = PolynomialCache(str(tmp_path))
        path = Path(cache._path("test", "a"))
        self.rewrite_value(path, terms)
        assert cache.get("test", "a") is None
        err = capsys.readouterr().err
        assert "dropping corrupt cache entry" in err and "hash" not in err
        # a well-formed value rewritten the same way is read
        self.rewrite_value(path, [[[1], [0, 1]], [0, 0], [1, 1]])
        cache = PolynomialCache(str(tmp_path))
        assert cache.get("test", "a") == x(1) + x(2)
        # and a dropped entry is recomputed and appended, and a miss counts
        self.rewrite_value(path, terms)
        cache = PolynomialCache(str(tmp_path))
        assert harness._cached(cache, "test", "a", lambda: x(1)) == x(1)
        assert cache.get("test", "a") == x(1)
        assert (cache.hits, cache.misses) == (1, 1)
        assert "dropping corrupt cache entry" in capsys.readouterr().err
        assert PolynomialCache(str(tmp_path)).get("test", "a") == x(1)
        assert capsys.readouterr().err == ""

    def test_entry_nested_too_deep_to_decode_is_dropped(self, tmp_path, capsys):
        # JSON nested too deep for the decoder, as a hashed value and then
        # as a line with no value field: each is dropped with a warning
        cache = PolynomialCache(str(tmp_path))
        cache.put("test", "a", x(1))
        path = Path(cache._path("test"))
        deep = "[" * 100_000 + "]" * 100_000
        entry = {
            "family": "test",
            "param": "a",
            "version": cache.version,
            "value_sha256": hashlib.sha256(deep.encode()).hexdigest(),
        }
        path.write_text("\n" + json.dumps(entry)[:-1] + ', "value": ' + deep + "}\n")
        assert PolynomialCache(str(tmp_path)).get("test", "a") is None
        assert "dropping corrupt cache entry for test:a (maximum recursion" in capsys.readouterr().err
        with open(path, "a") as fh:
            fh.write("\n" + deep + "\n")
        fresh = PolynomialCache(str(tmp_path))
        assert harness._cached(fresh, "test", "a", lambda: x(1)) == x(1)
        assert "dropping corrupt cache entry for test at byte" in capsys.readouterr().err
        assert fresh.get("test", "a") == x(1)

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

    def test_param_holding_the_value_separator_round_trips(self, tmp_path, capsys):
        # A param that JSON escapes (a quote, a backslash, a character past
        # ASCII) is not sliced out of its line: the scan parses the line.
        cache = PolynomialCache(str(tmp_path))
        params = ['x, "value": {"terms": []}}', ', "value": ', '"}', '\\"', "é", "∑1,2", ""]
        for i, param in enumerate(params):
            cache.put("test", param, x(i + 1))
        for reader in (cache, PolynomialCache(str(tmp_path))):
            for i, param in enumerate(params):
                assert reader.get("test", param) == x(i + 1)
            assert (reader.hits, reader.misses) == (len(params), 0)
        assert capsys.readouterr().err == ""

    def test_one_json_parse_per_hit_and_none_per_line_put_wrote(self, tmp_path, monkeypatch):
        cache = PolynomialCache(str(tmp_path))
        for param in ("1,2", "0,3", 'a"b'):
            cache.put("test", param, x(1) * x(2))
        parsed = []
        loads = json.loads

        def counting(text, *args, **kwargs):
            parsed.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(harness.json, "loads", counting)
        fresh = PolynomialCache(str(tmp_path))
        assert fresh.get("test", "1,2") == x(1) * x(2)
        # the scan parsed only the line whose param holds an escaped quote
        [escaped, value] = parsed
        assert b'"param": "a\\"b"' in escaped and value == b"[[[1, 1]], [0], [1]]"
        assert fresh.get("test", 'a"b') == x(1) * x(2)
        assert parsed[2:] == [value] and fresh.lines == 3

    @given(flat_shaped_values())
    @settings(max_examples=300, deadline=None)
    def test_byte_checks_refuse_what_the_parsed_checks_refuse(self, value):
        # A value written as put writes it, with its hash: get reads it
        # exactly when the reference accepts the parsed value.
        text = json.dumps(value)
        try:
            expected = reference_from_flat_value(json.loads(text))
        except ValueError:
            expected = None
        with tempfile.TemporaryDirectory() as directory:
            cache = PolynomialCache(directory)
            head = {
                "family": "test",
                "param": "a",
                "version": cache.version,
                "value_sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
            line = json.dumps(head)[:-1] + ', "value": ' + text + "}"
            Path(cache._path("test")).write_text("\n" + line + "\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                got = cache.get("test", "a")
        assert got == expected
        if expected is None:
            assert "dropping corrupt cache entry for test:a" in err.getvalue()
            assert "hash" not in err.getvalue()
        else:
            assert list(got.terms) == list(expected.terms) and err.getvalue() == ""

    def test_reformatted_entry_is_dropped_and_rewritten(self, tmp_path, capsys):
        # The hash covers the value bytes as read and the key fields must be
        # the bytes put writes, so an entry re-written by hand with the same
        # content is recomputed, not trusted.  A line holds no newline, so
        # the keys are reordered or spaced out, or the value compacted.
        f = x(1) + Polynomial.monomial((0, 2), 3, 1)
        PolynomialCache(str(tmp_path)).put("test", "a", f)
        path = Path(PolynomialCache(str(tmp_path))._path("test", "a"))
        [written] = self.entry_lines(path)
        head, field, value = written.rpartition(b', "value": ')
        key = json.loads(head + b"}")
        reordered = {name: key[name] for name in ("param", "family", "version", "value_sha256")}
        for reformatted in [
            json.dumps(json.loads(written), sort_keys=True).encode(),
            head + field + value.replace(b", ", b","),
            # the key fields alone reordered or spaced out, the value as written
            json.dumps(reordered)[:-1].encode() + field + value,
            head.replace(b": ", b":  ") + field + value,
            b"{ " + head[1:] + field + value,
        ]:
            assert json.loads(reformatted) == json.loads(written)
            path.write_bytes(b"\n" + reformatted + b"\n")
            cache = PolynomialCache(str(tmp_path))
            assert cache.get("test", "a") is None
            assert "dropping corrupt cache entry" in capsys.readouterr().err
            assert harness._cached(cache, "test", "a", lambda: f) == f
            assert self.entry_lines(path) == [reformatted, written]
            capsys.readouterr()
            assert PolynomialCache(str(tmp_path)).get("test", "a") == f
            assert capsys.readouterr().err == ""

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
        assert path.read_bytes() == b"\n" + json.dumps(expected).encode() + b"\n"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_report_counts_hits_and_misses(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        cold = harness.verify("conj2", n=3, jobs=jobs, cache_dir=str(tmp_path))
        # the sweep scans both logs once, before any case appends to them
        assert cold.meta["cache"] == {"hits": 0, "misses": 12, "lines": 0}
        warm = harness.verify("conj2", n=3, jobs=jobs, cache_dir=str(tmp_path))
        assert warm.meta["workers"] == jobs
        # both logs of 6 lines are scanned once, at any number of workers
        assert warm.meta["cache"] == {"hits": 12, "misses": 0, "lines": 12}
        assert cold.deterministic_json() == warm.deterministic_json()
        assert warm.deterministic_json() == harness.verify("conj2", n=3).deterministic_json()
        assert "cache" not in harness.verify("conj2", n=3, jobs=jobs).meta

    def test_report_counts_the_duplicate_lines_of_two_fills(self, tmp_path):
        # Two sweeps that each fill the cache before the other appends leave
        # each entry twice; every later scan reads both lines.
        for name in ("a", "b"):
            harness.verify("conj2", n=3, cache_dir=str(tmp_path / name))
        for path in (tmp_path / "b").iterdir():
            with open(tmp_path / "a" / path.name, "ab") as fh:
                fh.write(path.read_bytes())
        warm = harness.verify("conj2", n=3, cache_dir=str(tmp_path / "a"))
        assert warm.meta["cache"] == {"hits": 12, "misses": 0, "lines": 24}
        assert warm.deterministic_json() == harness.verify("conj2", n=3).deterministic_json()

    def test_mixed_hit_miss_sweep(self, tmp_path):
        harness.verify("conj2", n=2, cache_dir=str(tmp_path))
        mixed = harness.verify("conj2", n=3, cache_dir=str(tmp_path))
        assert mixed.deterministic_json() == harness.verify("conj2", n=3).deterministic_json()

    def test_torn_tail_recomputes_only_its_entry(self, tmp_path, capsys):
        expected = harness.verify("conj2", n=4).deterministic_json()
        harness.verify("conj2", n=4, cache_dir=str(tmp_path))
        path = Path(PolynomialCache(str(tmp_path))._path("grothendieck"))
        # a crash in the last append left its line without its last bytes
        path.write_bytes(path.read_bytes()[:-3])
        torn = harness.verify("conj2", n=4, cache_dir=str(tmp_path))
        assert "dropping corrupt cache entry for grothendieck:" in capsys.readouterr().err
        assert torn.meta["cache"] == {"hits": 47, "misses": 1, "lines": 48}
        assert torn.deterministic_json() == expected
        after = harness.verify("conj2", n=4, cache_dir=str(tmp_path))
        assert after.meta["cache"] == {"hits": 48, "misses": 0, "lines": 49}
        assert after.deterministic_json() == expected
        assert capsys.readouterr().err == ""

    def test_log_removed_after_its_scan_is_a_miss(self, tmp_path, capsys):
        # README suggests removing a log to clear a torn line; a sweep that
        # scanned it before then recomputes what it reads
        cache = PolynomialCache(str(tmp_path))
        cache.put("test", "a", x(1))
        cache.put("test", "b", x(2))
        scanned = PolynomialCache(str(tmp_path))
        assert scanned.get("test", "a") == x(1)
        path = Path(cache._path("test"))
        path.unlink()
        assert scanned.get("test", "b") is None
        assert "dropping corrupt cache entry for test:b (" in capsys.readouterr().err
        assert (scanned.hits, scanned.misses) == (1, 1)
        assert harness._cached(scanned, "test", "b", lambda: x(2)) == x(2)
        assert "dropping corrupt cache entry for test:b (" in capsys.readouterr().err
        [line] = self.entry_lines(path)
        assert json.loads(line)["param"] == "b"
        assert PolynomialCache(str(tmp_path)).get("test", "b") == x(2)

    def assert_every_line_passes(self, directory):
        """Every line of every log in ``directory`` passes get's checks:
        it sits in its family's log, and its version, value hash and value
        shape are right."""
        cache = PolynomialCache(str(directory))
        lines = 0
        for path in directory.iterdir():
            for line in self.entry_lines(path):
                entry = json.loads(line)
                assert cache._path(entry["family"]) == str(path)
                assert entry["version"] == cache.version
                value = line.rpartition(b', "value": ')[2][:-1]
                assert hashlib.sha256(value).hexdigest() == entry["value_sha256"]
                harness._from_flat_value(value)
                lines += 1
        return lines

    def test_concurrent_writers_leave_only_whole_lines(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        # two workers of one sweep append to the same two logs
        pooled = tmp_path / "pooled"
        cold = harness.verify("conj2", n=5, jobs=2, cache_dir=str(pooled))
        assert cold.meta["workers"] == 2
        assert (cold.meta["cache"]["hits"], cold.meta["cache"]["misses"]) == (0, 240)
        assert self.assert_every_line_passes(pooled) == 240
        warm = harness.verify("conj2", n=5, cache_dir=str(pooled))
        assert warm.meta["cache"] == {"hits": 240, "misses": 0, "lines": 240}
        assert warm.deterministic_json() == cold.deterministic_json()
        # two sweeps started together fill one cache
        shared = tmp_path / "shared"
        src = Path(harness.__file__).resolve().parents[1]
        argv = [sys.executable, "-m", "kohnert.cli", "verify", "conj2", "--n", "4",
                "--cache", str(shared)]
        env = {**os.environ, "PYTHONPATH": str(src)}
        sweeps = [
            subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        assert [sweep.communicate(timeout=120)[1] for sweep in sweeps] == [b"", b""]
        assert [sweep.returncode for sweep in sweeps] == [0, 0]
        lines = self.assert_every_line_passes(shared)
        assert 48 <= lines <= 96
        warm = harness.verify("conj2", n=4, cache_dir=str(shared))
        assert warm.meta["cache"] == {"hits": 48, "misses": 0, "lines": lines}
        assert warm.deterministic_json() == harness.verify("conj2", n=4).deterministic_json()
        assert capsys.readouterr().err == ""

    def test_pool_tasks_carry_no_cache(self, tmp_path, monkeypatch):
        # each worker gets its cache once, when the pool starts it
        import concurrent.futures

        sent = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                tasks = list(iterables[0])
                sent.extend(tasks)
                return super().map(fn, tasks, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        report = harness.verify("conj2", n=3, jobs=2, cache_dir=str(tmp_path))
        assert report.meta["workers"] == 2 and len(sent) == 6
        assert (report.meta["cache"]["hits"], report.meta["cache"]["misses"]) == (0, 12)
        for task in sent:
            assert b"PolynomialCache" not in pickle.dumps(task)
