import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import kohnert
from kohnert import bases, cli, diagrams, harness, perms, tableaux
from kohnert.cli import (
    MAX_DIAGRAM_BOX,
    MAX_EGLS_LENGTH,
    MAX_EGLS_LETTER,
    MAX_EXPAND_VARIABLE,
    MAX_SPLIT_PARTS,
    MAX_SPLIT_WEIGHT,
    MAX_SPLIT_WORDS,
    MAX_TALPHA_PARTS,
    MAX_TALPHA_WEIGHT,
    WORK_BUDGET,
    main,
)
from kohnert.poly import Polynomial, x


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A budget that stands for ``WORK_BUDGET`` where a test checks how a command
# is refused, so that the refusal comes after milliseconds of work.
SMALL_BUDGET = 200_000


REFUSAL = re.compile(
    r"usage error: (an operator step|a step down the ascent path|a peel step|a Schur "
    r"enumeration) needs (\d+) work units after (\d+), past the budget of (\d+)\n"
)


def assert_refused_within(err, budget):
    """``err`` is the one usage error of a charge past ``budget``: the work
    spent before it is within the budget, and the charge would pass it.
    Returns the site that made the charge."""
    match = REFUSAL.fullmatch(err)
    assert match, err
    needed, spent, limit = map(int, match.groups()[1:])
    assert limit == budget and spent <= budget < spent + needed
    return match[1]


class TestPoly:
    def test_key_text(self, capsys):
        code, out, _ = run(capsys, "poly", "key", "--alpha", "0,1")
        assert code == 0
        assert out.strip() == "x2 + x1"

    def test_key_json_matches_library(self, capsys):
        code, out, _ = run(
            capsys, "poly", "key", "--alpha", "1,3,0,2,2,1", "--format", "json"
        )
        assert code == 0
        assert Polynomial.from_json_obj(json.loads(out)) == bases.key_polynomial(
            (1, 3, 0, 2, 2, 1)
        )

    def test_grothendieck_beta_evaluation(self, capsys):
        code, out, _ = run(
            capsys, "poly", "grothendieck", "--perm", "3142", "--beta", "0"
        )
        assert code == 0
        assert out.strip() == str(bases.grothendieck((3, 1, 4, 2)))

    def test_omega_and_schubert(self, capsys):
        code, out, _ = run(capsys, "poly", "omega", "--alpha", "1,0,2")
        assert code == 0
        assert out.strip() == str(bases.omega_polynomial((1, 0, 2)))
        code, out, _ = run(capsys, "poly", "schubert", "--perm", "3142")
        assert code == 0
        assert out.strip() == "x1^2*x3 + x1^2*x2"

    def test_usage_errors(self, capsys):
        assert run(capsys, "poly", "key")[0] == 2
        assert run(capsys, "poly", "key", "--alpha", "1", "--perm", "21")[0] == 2
        assert run(capsys, "poly", "key", "--perm", "21")[0] == 2
        assert run(capsys, "poly", "key", "--alpha", "1,x")[0] == 2
        assert run(capsys, "poly", "nope", "--alpha", "1")[0] == 2

    @pytest.mark.parametrize("argv", [
        ("key", "--alpha", "0,0,10000000"),  # its first step is past any budget
        ("omega", "--alpha", "0,0,0,0,0,1,7"),  # 1 s to the default budget
        ("key", "--alpha", "0,0,0,0,1,30"),
        ("key", "--alpha", ",".join(["0"] * 100_000 + ["1"])),  # refused on the way down
        ("schubert", "--perm", ",".join(map(str, [*range(1, 999), 1000, 999]))),
        ("grothendieck", "--perm", ",".join(map(str, [*range(1, 12), 13, 12]))),
    ])
    def test_huge_input_is_refused_before_any_work(self, capsys, monkeypatch, argv):
        # every step is charged to the budget before it is built, so the
        # first charge past it ends the command with nothing printed
        monkeypatch.setattr(cli, "WORK_BUDGET", SMALL_BUDGET)
        code, out, err = run(capsys, "poly", *argv)
        assert code == 2 and not out
        assert_refused_within(err, SMALL_BUDGET)

    def test_bounds_admit_their_corners(self, capsys):
        code, out, _ = run(capsys, "poly", "key", "--alpha", "0,0,0,0,1,9")
        assert code == 0 and out.startswith("x5*x6^9 + ")
        code, out, _ = run(capsys, "poly", "schubert", "--perm", "1,2,3,4,5,6,7,9,8")
        assert code == 0
        # a dominant start is its own polynomial, however large: these were
        # refused by the size bounds the budget replaced
        code, out, _ = run(capsys, "poly", "key", "--alpha", "1000000")
        assert code == 0 and out == "x1^1000000\n"
        code, out, _ = run(capsys, "poly", "grothendieck", "--perm", "10,9,8,7,6,5,4,3,2,1")
        assert code == 0 and out == "*".join(f"x{i}^{10 - i}" for i in range(1, 9)) + "*x9\n"
        code, out, _ = run(capsys, "poly", "schubert", "--perm", ",".join(map(str, range(100_000, 0, -1))))
        assert code == 0 and out.startswith("x1^99999*x2^99998*") and out.endswith("*x99998^2*x99999\n")


class TestDiagrams:
    def test_list_contains_paper_rendering(self, capsys):
        code, out, _ = run(capsys, "diagrams", "kkohnert", "--alpha", "1,0,2", "--list")
        assert code == 0
        assert "diagrams: 13" in out
        assert "by ghost count: 0: 5, 1: 6, 2: 2" in out
        assert "..+\n+.+" in out      # the skyline itself
        assert "+gg\n+.+" in out      # the double-ghost diagram
        assert out.count("\n\n") == 13

    def test_rothe_closure_summary(self, capsys):
        code, out, _ = run(capsys, "diagrams", "kkohnert", "--perm", "3142")
        assert code == 0
        assert "diagrams: 3" in out
        assert "x1^2*x3 + x1^2*x2 + b*x1^2*x2*x3" in out

    def test_kohnert_mode_is_ghost_free(self, capsys):
        code, out, _ = run(capsys, "diagrams", "kohnert", "--alpha", "1,0,2")
        assert code == 0
        assert "diagrams: 5" in out
        assert "b*" not in out

    def test_cap_failure(self, capsys):
        code, _, err = run(
            capsys, "diagrams", "kkohnert", "--alpha", "1,0,2", "--cap", "3"
        )
        assert code == 1
        assert "cap" in err

    def test_unknown_rule_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "diagrams", "ghostly", "--alpha", "1")
        assert code == 2
        assert out == "" and "invalid choice: 'ghostly'" in err

    def test_rule_choices_are_the_diagrams_rules(self):
        commands = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        (rule,) = [a for a in commands.choices["diagrams"]._actions if a.dest == "rule"]
        assert rule.choices == list(diagrams.RULES)

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_is_refused(self, capsys, cap):
        code, out, err = run(capsys, "diagrams", "kkohnert", "--alpha", "1", "--cap", cap)
        assert code == 2
        assert out == "" and "cap must be at least 1" in err

    # SHA-256 of the whole output, taken while a diagram still stored a cell
    # dict and a sorted tuple: the listing order and rendering are pinned.
    @pytest.mark.parametrize("argv,digest", [
        ("kkohnert --alpha 1,0,2",
         "1f997d092e4f3285747c8f81cd5d66e7bdf0866773e860014db1e86ebcbf4b18"),
        ("kkohnert --perm 31542",
         "b6b145950c7c1df3b857785c4b242a9e5bb25363deb2e066cdaa3155102bc663"),
        ("kohnert --alpha 0,2,1,3",
         "9ee1f73efcc5abc859c1235f73b96bf357883e6d65ab94e7176ea22bec89d43b"),
    ])
    def test_list_output_is_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "diagrams", *argv.split(), "--list")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ("kkohnert", "--alpha", "1,0,2"),
        ("kohnert", "--alpha", "1,0,2"),
        ("kkohnert", "--perm", "3142"),
        ("kkohnert", "--alpha", "1,0,2", "--cap", "12"),
    ])
    def test_summary_counted_without_building_matches_listing(self, capsys, argv):
        # Without --list the summary is read off the counted polynomial; with
        # it, off the diagrams listed below it.
        code, out, err = run(capsys, "diagrams", *argv)
        listed_code, listed, listed_err = run(capsys, "diagrams", *argv, "--list")
        assert (code, err) == (listed_code, listed_err)
        assert code == (1 if "--cap" in argv else 0)
        assert out == listed.split("\n\n")[0] + ("\n" if listed else "")

    @pytest.mark.parametrize("argv", [
        ("kohnert", "--alpha", "1000000"),
        ("kkohnert", "--alpha", "0,501"),
        ("kkohnert", "--alpha", ",".join(["0"] * 1000 + ["1"])),
        ("kohnert", "--perm", ",".join(map(str, range(32, 0, -1)))),
        ("kkohnert", "--perm", ",".join(map(str, range(100_000, 0, -1)))),
    ])
    def test_huge_start_is_refused_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args):
            raise AssertionError("diagrams ran past its bound")

        for name in ("skyline", "rothe", "closure", "closure_polynomial", "ghost_weighted_sum"):
            monkeypatch.setattr(diagrams, name, no_work)
        code, out, err = run(capsys, "diagrams", *argv)
        assert code == 2
        assert "usage error" in err and f"bound of {MAX_DIAGRAM_BOX} cells" in err
        assert not out

    def test_box_bound_admits_its_corner(self, capsys):
        # a box of 500 by 2: 501 plain diagrams, the b = 0 slice of the ghost ones
        code, out, _ = run(capsys, "diagrams", "kohnert", "--alpha", "0,500")
        assert code == 0 and "diagrams: 501" in out

    def test_empty_composition(self, capsys):
        code, out, _ = run(capsys, "diagrams", "kkohnert", "--alpha", "0")
        assert code == 0
        assert "diagrams: 1" in out
        assert "generating polynomial: 1" in out


class TestSplit:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "split", "--alpha", "1,3,0,2,2,1", "--descents", "2,5,6"
        )
        assert code == 0
        assert out.count("= 1") == 4
        assert "E[(3,2) | (2,1,1) | ()] = 1" in out
        assert "witness: [1 3 4; 2 5] | [4 6; 5; 6] | []" in out

    def test_default_blocks_are_strict_descents(self, capsys):
        code, out, _ = run(capsys, "split", "--alpha", "1,3,0,2,2,1")
        assert code == 0
        assert "blocks: 2,5,6" in out

    def test_invalid_blocks(self, capsys):
        code, out, err = run(capsys, "split", "--alpha", "1,3,0,2,2,1", "--descents", "2,5")
        assert code == 2 and not out
        assert err == (
            "usage error: block bounds [2, 5] do not contain the descents of 1,3,0,2,2,1\n"
        )

    @pytest.mark.parametrize("descents", ["3,1", "1,3,3", "0,1,3", "0,3"])
    def test_blocks_not_increasing_are_usage_errors(self, capsys, descents):
        # each list but 0,3 covers the strict descents 1 and 3 of 1,0,2; the
        # order is checked first, so 0,3 is not told that it misses 1
        code, _, err = run(capsys, "split", "--alpha", "1,0,2", "--descents", descents)
        assert code == 2
        assert "strictly increasing" in err

    @pytest.mark.parametrize("zeros", [9, 300])
    def test_missed_descent_is_refused_before_any_work(self, capsys, monkeypatch, zeros):
        # with 9 zeros the key polynomial was built first (1.9 s, 242 MB);
        # with 300 the work budget ran out first and named an operator step
        def no_work(*args):
            raise AssertionError("split worked before it checked its descents")

        for name in ("key_polynomial", "key_split_expansion", "split_extract"):
            monkeypatch.setattr(bases, name, no_work)
        alpha = ",".join(["0"] * zeros + ["1"] * 9)
        code, out, err = run(capsys, "split", "--alpha", alpha, "--descents", "1")
        assert code == 2 and not out
        assert err == f"usage error: block bounds [1] do not contain the descents of {alpha}\n"

    @pytest.mark.parametrize("alpha", ["1000", str(MAX_SPLIT_WEIGHT + 1), "300,0,300"])
    def test_weight_past_bound_is_refused_before_any_work(self, capsys, monkeypatch, alpha):
        def no_work(*args):
            raise AssertionError("split ran past its weight bound")

        for name in ("key_polynomial", "key_split_expansion", "split_extract"):
            monkeypatch.setattr(bases, name, no_work)
        code, out, err = run(capsys, "split", "--alpha", alpha)
        assert code == 2
        assert "usage error" in err and "bound" in err and not out

    @pytest.mark.parametrize("alpha", ["14,14", "12,12", "7,7,7", "0,6,0,5,4,3,2,1"])
    def test_large_coxeter_knuth_class_is_refused_before_any_work(
        self, capsys, monkeypatch, alpha
    ):
        def no_work(*args):
            raise AssertionError("split ran past its word bound")

        for name in ("key_polynomial", "key_split_expansion", "split_extract"):
            monkeypatch.setattr(bases, name, no_work)
        for name in ("peeling_tableau", "coxeter_knuth_class", "word_class_closure"):
            monkeypatch.setattr(tableaux, name, no_work)
        code, out, err = run(capsys, "split", "--alpha", alpha)
        assert code == 2
        assert "usage error" in err and "reduced words" in err and not out

    @pytest.mark.parametrize("parts", [MAX_SPLIT_PARTS + 1, 500, 100_000])
    def test_many_parts_are_refused_before_any_work(self, capsys, monkeypatch, parts):
        # 499 zeros before a 1 used to end in a RecursionError
        def no_work(*args):
            raise AssertionError("split ran past its parts bound")

        for name in ("key_polynomial", "key_split_expansion", "split_extract"):
            monkeypatch.setattr(bases, name, no_work)
        monkeypatch.setattr(tableaux, "standard_tableaux_count", no_work)
        code, out, err = run(capsys, "split", "--alpha", ",".join(["0"] * (parts - 1) + ["1"]))
        assert code == 2
        assert "usage error" in err and f"in {parts} parts" in err and not out

    @pytest.mark.parametrize(
        "alpha,descents",
        [
            ("1,0,2", f"1,3,{MAX_SPLIT_PARTS + 1}"),
            ("1,0,2", "1,3,10000000"),
            ("1,0,2", "1,3,1000000000"),
            ("1", ",".join(map(str, range(1, 2001)))),
            ("0,0,0,1", "4,100000000000000000000"),
        ],
        ids=["401", "1e7", "1e9", "2000-bounds", "1e20"],
    )
    def test_block_bound_past_parts_is_refused_before_any_work(
        self, capsys, monkeypatch, alpha, descents
    ):
        # 1,3,10000000 took 4.7 s and 627 MB listing the last block's
        # variables, 1,3,1000000000 ran out of memory, 2000 bounds ended in
        # a RecursionError and 4,10^20 in an OverflowError
        def no_work(*args):
            raise AssertionError("split ran past its block bound")

        for name in ("key_polynomial", "key_split_expansion", "split_extract", "block_variables"):
            monkeypatch.setattr(bases, name, no_work)
        code, out, err = run(capsys, "split", "--alpha", alpha, "--descents", descents)
        assert code == 2 and not out
        bound = max(map(int, descents.split(",")))
        assert err == f"usage error: block bound {bound} is past the bound {MAX_SPLIT_PARTS}\n"

    def test_block_bound_admits_its_corners(self, capsys, monkeypatch):
        # an empty last block still splits, and 400 ones reach the work with
        # one block per part
        code, out, _ = run(capsys, "split", "--alpha", "1,0,2", "--descents", "1,3,4")
        assert code == 0 and "blocks: 1,3,4" in out

        class Reached(Exception):
            pass

        def work(*args, **kwargs):
            raise Reached

        for name in ("key_polynomial", "key_split_expansion", "split_extract"):
            monkeypatch.setattr(bases, name, work)
        corners = [
            ("1,0,2", f"1,3,{MAX_SPLIT_PARTS}"),
            (",".join(["1"] * MAX_SPLIT_PARTS), ",".join(map(str, range(1, MAX_SPLIT_PARTS + 1)))),
        ]
        for alpha, descents in corners:
            with pytest.raises(Reached):
                main(["split", "--alpha", alpha, "--descents", descents])

    def test_large_key_polynomial_is_refused_before_any_work(self, capsys, monkeypatch):
        # 9 zeros before a 20 (h_20 in 10 variables, 10 015 005 terms) ran
        # for over 40 s; at the default budget it stops after 0.8 s, at the
        # operator step that would build 32 million units of keys
        monkeypatch.setattr(cli, "WORK_BUDGET", SMALL_BUDGET)
        code, out, err = run(capsys, "split", "--alpha", "0," * 9 + "20")
        assert code == 2 and not out
        assert assert_refused_within(err, SMALL_BUDGET) == "an operator step"
        # the same budget splits a smaller key polynomial in full
        code, out, _ = run(capsys, "split", "--alpha", "0," * 9 + "2")
        assert code == 0 and "E[(2)] = 1" in out

    def test_large_schur_enumeration_is_refused_before_any_work(self, capsys):
        # 0,0,400 (80 601 tableaux of one row of 400) took 15.9 s; the
        # hook-content count refuses it before any tableau is filled, at
        # the default budget
        code, out, err = run(capsys, "split", "--alpha", "0,0,400")
        assert code == 2 and not out
        assert assert_refused_within(err, WORK_BUDGET) == "a Schur enumeration"
        assert "needs 647306631 work units" in err
        # 0,0,150 fills its 11 476 tableaux within the budget
        assert bases._schur_units((150,), (1, 2, 3)) == 11476 * (20 * 150 + 3 + 28) < WORK_BUDGET

    def test_terms_bound_counts_the_key_polynomial(self):
        # zeros before one part m give the complete homogeneous polynomial,
        # whose terms are the tableaux of the row (m) the Schur charge counts
        count = tableaux.semistandard_tableaux_count
        for m in range(9):
            shape = (m,) if m else ()  # a part of 0 is no partition's
            assert count(shape, 10) == len(bases.key_polynomial((0,) * 9 + (m,)).terms)
        assert [count((m,), 10) for m in (10, 20)] == [92378, 10015005]
        # and in general the fillings the Schur enumeration builds
        for n in range(1, 5):
            for shape in [(), (1,), (2, 1), (3, 1, 1), (2, 2), (4, 2, 1), (3, 3, 3)]:
                filled = sum(1 for _ in tableaux.semistandard_tableaux(shape, n))
                assert count(shape, n) == filled, (shape, n)

    @pytest.mark.parametrize(
        "alpha,steps",
        [
            ((0,) * 300 + (1, 1), 600),  # ended in a RecursionError; stops at the budget in 1.7 s
            ((0,) * 200 + (1, 1), 400),  # ran out of memory under a 3 GB limit
            ((0,) * 66 + (1, 1, 1), 198),  # took 15 s and 1.6 GB
            ((0,) * 10 + (1,) * 9, 90),  # took 6.3 s and 527 MB; stops at the budget in 2.3 s
            ((0,) * 100 + (1, 1), 200),  # took 2.5 s; within the default budget now
        ],
    )
    def test_large_operator_recursion_is_refused_before_any_work(
        self, capsys, monkeypatch, alpha, steps
    ):
        # the recursion is a loop, so any number of steps is charged one at
        # a time until the budget runs out
        assert sum(a < b for i, a in enumerate(alpha) for b in alpha[i + 1 :]) == steps
        monkeypatch.setattr(cli, "WORK_BUDGET", SMALL_BUDGET)
        code, out, err = run(capsys, "split", "--alpha", perms.format_composition(alpha))
        assert code == 2 and not out
        assert assert_refused_within(err, SMALL_BUDGET) == "an operator step"

    def test_operator_bounds_admit_their_corners(self, monkeypatch):
        # zeros before a 1 build their key polynomial within the default
        # budget; 399 zeros, the old step bound's corner, take 22 million
        # units (1.3-1.8 s to split as a command), so the test takes 150
        # (1.5 million: the units grow with the cube of the length)
        monkeypatch.setattr(bases, "_operator_memo", {})
        work = perms.WorkBudget(WORK_BUDGET)
        f = bases.key_polynomial((0,) * 150 + (1,), work)
        assert f == sum((x(i) for i in range(1, 152)), Polynomial())
        assert 1_000_000 < work.spent < WORK_BUDGET // 20

    def test_inversions_count_the_recursion_steps(self):
        # one operator step per inversion: a pair of parts, the later larger
        for alpha in harness.compositions_upto(6, 4):
            steps = []
            bases._from_dominant(lambda i, f, work=None: steps.append(i) or f, alpha)
            inversions = sum(a < b for i, a in enumerate(alpha) for b in alpha[i + 1 :])
            assert len(steps) == inversions, alpha

    def test_word_bound_admits_eleven_eleven(self):
        # 11,11 (Catalan(11) words) still splits; 12,12 and 14,14 do not
        count = tableaux.standard_tableaux_count
        assert count((11, 11)) == 58786 <= MAX_SPLIT_WORDS < count((12, 12))
        assert count((6, 6, 6)) <= MAX_SPLIT_WORDS < count((14, 14))

    def test_routes_that_disagree_exit_one(self, capsys, monkeypatch):
        split_extract = bases.split_extract

        def one_off(*args):
            got = split_extract(*args)
            first = min(got)
            return {**got, first: got[first] + 1}

        monkeypatch.setattr(bases, "split_extract", one_off)
        code, out, err = run(capsys, "split", "--alpha", "1,0,2")
        assert code == 1 and "E[(1) | (2)] = 1" in out
        assert err == "error: tableau count disagrees with Schur extraction\n"


class TestEgls:
    def test_contiguous_word(self, capsys):
        code, out, _ = run(capsys, "egls", "--word", "431526456")
        assert code == 0
        assert "1 3 4\n2 5\n4 6\n5\n6" in out

    def test_with_marks(self, capsys):
        code, out, _ = run(capsys, "egls", "--word", "2,1,2", "--marks", "1,1,2")
        assert code == 0
        assert "recording tableau:" in out

    def test_non_reduced(self, capsys):
        assert run(capsys, "egls", "--word", "11")[0] == 2

    @pytest.mark.parametrize("word", [
        "20000000,1",
        "9999999999,1",
        f"{MAX_EGLS_LETTER + 1},1",
        "12" * (MAX_EGLS_LENGTH // 2 + 1),
        ",".join(map(str, range(1, MAX_EGLS_LENGTH + 2))),
    ])
    def test_huge_word_is_refused_before_any_work(self, capsys, monkeypatch, word):
        def no_work(*args):
            raise AssertionError("egls ran past its bound")

        monkeypatch.setattr(tableaux, "egls_insert", no_work)
        monkeypatch.setattr(perms, "is_reduced", no_work)
        code, out, err = run(capsys, "egls", "--word", word)
        assert code == 2
        assert "usage error" in err and "bound" in err and not out

    def test_bounds_admit_their_corner(self, capsys):
        # distinct letters make a reduced word, which inserts quickly
        word = [*range(1, MAX_EGLS_LENGTH), MAX_EGLS_LETTER]
        code, out, _ = run(capsys, "egls", "--word", ",".join(map(str, word)))
        assert code == 0 and f"\n{MAX_EGLS_LETTER}\n" in out


class TestTalpha:
    def test_output(self, capsys):
        code, out, _ = run(capsys, "talpha", "--alpha", "1,3,0,2,2,1")
        assert code == 0
        assert "permutation: 2516743" in out
        assert "1 3 4\n2 5\n4 6\n5\n6" in out
        assert "content: 1,3,0,2,2,1" in out

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "talpha", "--alpha", "0")
        assert code == 0
        assert "permutation: 1" in out
        assert "(empty)" in out

    def test_single_large_part_is_one_row(self, capsys):
        code, out, _ = run(capsys, "talpha", "--alpha", "1000")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == " ".join(map(str, range(1, 1001)))
        assert lines[2] == "nil left key:"
        assert MAX_TALPHA_WEIGHT == 1000

    def test_parts_bound_admits_its_corner(self, capsys):
        alpha = ",".join(["0"] * (MAX_TALPHA_PARTS - 1) + ["1"])
        code, out, _ = run(capsys, "talpha", "--alpha", alpha)
        assert code == 0 and f"content: {alpha}" in out

    @pytest.mark.parametrize("alpha", [
        "2000000",
        str(MAX_TALPHA_WEIGHT + 1),
        "600,0,600",
        ",".join(["0"] * MAX_TALPHA_PARTS + ["1"]),
    ])
    def test_huge_input_is_refused_before_any_work(self, capsys, monkeypatch, alpha):
        def no_work(*args):
            raise AssertionError("talpha ran past its bound")

        monkeypatch.setattr(tableaux, "peeling_tableau", no_work)
        monkeypatch.setattr(perms, "perm_from_code", no_work)
        code, out, err = run(capsys, "talpha", "--alpha", alpha)
        assert code == 2
        assert "usage error" in err and "bound" in err and not out


class TestExpand:
    def test_roundtrip_via_file(self, tmp_path, capsys):
        f = bases.schubert((2, 1, 4, 3))
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(f.to_json_obj()))
        code, out, _ = run(capsys, "expand", "--basis", "key", "--input", str(path))
        assert code == 0
        got = json.loads(out)
        assert got == [
            {"alpha": [1, 0, 1], "coeff": [[0, 1]]},
            {"alpha": [2], "coeff": [[0, 1]]},
        ]

    def test_missing_file(self, capsys):
        assert run(capsys, "expand", "--basis", "key", "--input", "/nope.json")[0] == 2

    MALFORMED = [
        {"terms": [{"coeff": [[0, 1], [0, 2]], "exps": [1]}]},
        {"terms": [{"coeff": [[-1, 1]], "exps": [1]}]},
        {"terms": [{"coeff": [[0, 1]], "exps": [1.9]}]},
        # JSON of the wrong shape
        {"terms": [{"exps": [1], "coeff": [5]}]},
        {"terms": [[1]]},
        {"terms": 5},
        [1],
    ]

    @pytest.mark.parametrize(
        "doc", MALFORMED, ids=[f"term{i}" for i in range(len(MALFORMED))]
    )
    def test_malformed_terms_are_usage_errors(self, tmp_path, capsys, doc):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "expand", "--basis", "key", "--input", str(path))
        assert code == 2
        assert "bad polynomial file" in err and not out

    @pytest.mark.parametrize("n", [12, 13, MAX_EXPAND_VARIABLE + 1, 900, 100_000])
    def test_huge_variable_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch, n):
        # the key expansion of x_900 used to end in a RecursionError; the
        # omega expansion of x_13 reaches the work, and stops at the budget
        class Reached(Exception):
            pass

        def work(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(bases, "expand_in_basis", work)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(Polynomial.monomial((0,) * (n - 1) + (1,)).to_json_obj()))
        for basis in ("key", "J", "omega"):
            argv = ["expand", "--basis", basis, "--input", str(path)]
            if n <= MAX_EXPAND_VARIABLE:
                with pytest.raises(Reached):
                    main(argv)
                continue
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out
            assert err == (
                f"usage error: the polynomial involves x{n}, past the bound "
                f"x{MAX_EXPAND_VARIABLE}\n"
            )

    @pytest.mark.parametrize(
        "terms",
        [[(MAX_DIAGRAM_BOX + 1,)], [(100_000,)], [(1_000_000,)], [(0, 501)],
         [(3,), (0,) * 399 + (1,)]],
        ids=["1001", "1e5", "1e6", "x2", "two-terms"],
    )
    def test_large_j_box_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch, terms):
        # the J expansion of x1^100000 took 0.68 s and 656 MB, and of
        # x1^1000000 ran out of memory; the box takes the largest exponent
        # and the last variable of any term, and key and omega take no box
        # bound
        class Reached(Exception):
            pass

        def work(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(bases, "expand_in_basis", work)
        monkeypatch.setattr(diagrams, "j_polynomial", work)
        path = tmp_path / "poly.json"
        poly = Polynomial({(e, 0): 1 for e in terms})
        path.write_text(json.dumps(poly.to_json_obj()))
        code, out, err = run(capsys, "expand", "--basis", "J", "--input", str(path))
        assert code == 2 and not out
        rows, cols = max(max(e) for e in terms), max(map(len, terms))
        assert err == (
            f"usage error: a J element in a box of {rows} by {cols} is past "
            f"the bound of {MAX_DIAGRAM_BOX} cells\n"
        )
        # the key and omega expansions are bounded by the work budget instead
        for basis in ("key", "omega"):
            with pytest.raises(Reached):
                main(["expand", "--basis", basis, "--input", str(path)])

    @pytest.mark.parametrize(
        "exps", [(MAX_DIAGRAM_BOX,), (0, 500), (5,) + (0,) * 198 + (1,), (0,) * 399 + (2,)]
    )
    def test_j_box_bound_admits_its_corners(self, tmp_path, capsys, monkeypatch, exps):
        class Reached(Exception):
            pass

        def work(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(bases, "expand_in_basis", work)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(Polynomial.monomial(exps).to_json_obj()))
        with pytest.raises(Reached):
            main(["expand", "--basis", "J", "--input", str(path)])

    @pytest.mark.parametrize(
        "terms",
        [
            [(0,) * 399 + (1,)],  # x_400, 1.3 s at the default budget
            [(0,) * 99 + (1, 1)],  # x_100 x_101
            [(0,) * 14 + (5,)],  # x_15^5
            [(0, 0, 249)],  # took 1.2 s; past the default budget now
            [(0, 0, 250)],
            [(0,) * 15 + (5,)],  # took 2.8 s at 289 MB
            [(0,) * 150 + (1, 1)],  # took 9.6 s and 1 GB; stops at the budget in 1.8 s
            [(0,) * 398 + (1, 1)],  # ended in a RecursionError
            [(0,) * 19 + (5,)],  # took 13 s and 1.1 GB
            [(0,) * 9 + (10,)],  # took 17 s and 1.2 GB; stops at the budget in 1.8 s
            [(3,), (0,) * 15 + (5,)],
        ],
        ids=[f"terms{i}-{r}" for i, r in enumerate(
            ["None"] * 4 + [f"refused{i}" for i in range(4, 11)]
        )],
    )
    def test_key_expansion_past_the_entry_bound_is_refused(
        self, tmp_path, capsys, monkeypatch, terms
    ):
        # the inputs of the entry bound the budget replaced, at a small
        # budget: the command prints what the library computes within the
        # same budget, or refuses where the library does
        poly = Polynomial({(e, 0): 1 for e in terms})
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(poly.to_json_obj()))
        self.assert_command_is_the_library(capsys, monkeypatch, poly, "key", path)

    @staticmethod
    def assert_command_is_the_library(capsys, monkeypatch, poly, basis, path):
        # each run starts from an empty memo, as a command does: a memo hit
        # is work not done, and is not charged
        monkeypatch.setattr(bases, "_operator_memo", {})
        try:
            expected = bases.expand_in_basis(poly, basis, work=perms.WorkBudget(SMALL_BUDGET))
        except perms.BoundExceededError as exc:
            expected = exc
        monkeypatch.setattr(bases, "_operator_memo", {})
        monkeypatch.setattr(cli, "WORK_BUDGET", SMALL_BUDGET)
        code, out, err = run(capsys, "expand", "--basis", basis, "--input", str(path))
        if isinstance(expected, Exception):
            assert code == 2 and not out and err == f"usage error: {expected}\n"
            assert_refused_within(err, SMALL_BUDGET)
        else:
            assert code == 0 and json.loads(out) == json.loads(
                json.dumps(bases.expansion_to_json_obj(expected))
            )
        return code

    @staticmethod
    def most_inversions(d, n):
        """The most inversions of a composition of d into n parts: with k
        nonzero parts, k(n - k) pairs of a zero before a nonzero part and
        k(k - 1)/2 pairs of nonzero parts, which grows with k."""
        k = min(n, d)
        return k * (n - k) + k * (k - 1) // 2

    def test_key_expansion_keeps_compositions_of_each_degree(self, monkeypatch):
        # every exponent the peel meets and every composition the operator
        # recursion keeps is one of the compositions of d into n parts, for
        # each degree d of the input's terms with the last variable n of
        # its terms of degree d: key polynomials are homogeneous, and the
        # one led by x^theta lies in x_1, ..., x_len(theta)
        kept = []
        from_dominant = bases._from_dominant

        def recording(op, alpha, work=None):
            kept.append(alpha)
            return from_dominant(op, alpha, work)

        monkeypatch.setattr(bases, "_from_dominant", recording)
        inputs = [
            Polynomial.monomial((0,) * (n - 1) + (d,)) for n in range(1, 6) for d in range(1, 5)
        ]
        inputs += [Polynomial.monomial((0, 0, 3)) + x(4), bases.schubert((2, 1, 4, 3))]
        for poly in inputs:
            kept.clear()
            bases._operator_memo.clear()
            bases.expand_in_basis(poly, "key")
            degrees: dict[int, int] = {}
            for e, _ in poly.terms:
                degrees[sum(e)] = max(degrees.get(sum(e), 1), len(e))
            assert kept
            for d in degrees:
                n = degrees[d]
                mine = {alpha for alpha in kept if sum(alpha) == d}
                assert len(mine) <= math.comb(d + n - 1, n - 1)
                for alpha in mine:
                    assert len(alpha) <= n
                    inversions = sum(a < b for i, a in enumerate(alpha) for b in alpha[i + 1 :])
                    assert inversions <= self.most_inversions(d, n)
                    terms = bases.key_polynomial(alpha).terms
                    assert len(terms) <= math.comb(d + n - 1, n - 1)
            assert {sum(alpha) for alpha in kept} <= set(degrees)

    @pytest.mark.parametrize(
        "exps,code",
        [((0, 500), 2), ((499, 0, 1), 0), ((0, 501), 2), ((0, 1000), 2), ((0, 3000), 2)],
        ids=["exps0-True", "exps1-True", "exps2-False", "exps3-False", "exps4-False"],
    )
    def test_omega_expansion_past_the_degree_bound_is_refused(
        self, tmp_path, capsys, monkeypatch, exps, code
    ):
        # the inputs of the degree bound the budget replaced, at a small
        # budget, which only x1 + x1^499*x3 fits; at the default one
        # x1 + x2^500 and x1 + x2^501 expand in about 0.7 s, and x1 + x2^1000
        # stops at the budget in about 1 s
        poly = x(1) + Polynomial.monomial(exps)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(poly.to_json_obj()))
        assert self.assert_command_is_the_library(capsys, monkeypatch, poly, "omega", path) == code

    @pytest.mark.parametrize(
        "exps,site",
        [((0, 0, 30), "an operator step"), ((0, 1_000_000_000), "an operator step")],
        ids=["x3^30", "x2^1e9"],
    )
    def test_expansion_stops_at_the_default_budget(self, tmp_path, capsys, exps, site):
        # the omega expansion of x_3^30 took 9.6 s inside the bounds the
        # budget replaced; it stops at the budget in about 0.7 s.  The key
        # expansion of x_2^1000000000 is refused at its first operator step
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(Polynomial.monomial(exps).to_json_obj()))
        basis = "omega" if exps == (0, 0, 30) else "key"
        code, out, err = run(capsys, "expand", "--basis", basis, "--input", str(path))
        assert code == 2 and not out
        assert assert_refused_within(err, WORK_BUDGET) == site

    def test_j_expansion_at_the_box_bound(self, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(Polynomial.monomial((MAX_DIAGRAM_BOX,)).to_json_obj()))
        code, out, _ = run(capsys, "expand", "--basis", "J", "--input", str(path))
        assert code == 0
        assert json.loads(out) == [{"alpha": [MAX_DIAGRAM_BOX], "coeff": [[0, 1]]}]

    def test_j_element_past_the_closure_cap_exits_one(self, tmp_path, capsys, monkeypatch):
        j_polynomial = diagrams.j_polynomial
        monkeypatch.setattr(diagrams, "j_polynomial", lambda alpha: j_polynomial(alpha, 3))
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(Polynomial.monomial((1, 0, 2)).to_json_obj()))
        code, out, err = run(capsys, "expand", "--basis", "J", "--input", str(path))
        assert code == 1 and not out
        assert re.fullmatch(r"error: closure exceeded cap 3 \(found \d+ so far\)\n", err)

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000,
         '{"terms": [{"coeff": [[0, 1]], "exps": ' + "[" * 100_000 + "]" * 100_000 + "}]}"],
        ids=["document", "exps"],
    )
    def test_deeply_nested_json_is_a_usage_error(self, tmp_path, capsys, text):
        # the decoder ran out of stack, and the command ended in a traceback
        path = tmp_path / "poly.json"
        path.write_text(text)
        code, out, err = run(capsys, "expand", "--basis", "key", "--input", str(path))
        assert code == 2 and not out
        assert err.startswith(f"usage error: bad polynomial file {path}: ")
        assert err.count("\n") == 1

    def test_peel_scans_are_charged(self, tmp_path, capsys, monkeypatch):
        # the key expansion of x1^0 + ... + x1^40000 took 38.5 s, to stop
        # at a cap of 10 000 peel steps: each step scans the remainder
        path = tmp_path / "poly.json"
        poly = Polynomial({((k,), 0): 1 for k in range(40_001)})
        path.write_text(json.dumps(poly.to_json_obj()))
        monkeypatch.setattr(cli, "WORK_BUDGET", SMALL_BUDGET)
        code, out, err = run(capsys, "expand", "--basis", "key", "--input", str(path))
        assert code == 2 and not out
        assert assert_refused_within(err, SMALL_BUDGET) == "a peel step"
        # the charge is a scan of the 40 000 terms left after one step
        assert int(REFUSAL.fullmatch(err)[2]) >= 40_000


class TestRefusedInput:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["split", "--alpha", "1,0,2", "--descents", "1,x"], "bad descent list '1,x'"),
            (["egls", "--word", "1a2"], "bad word '1a2'"),
            (["poly", "schubert", "--alpha", "1,2"], "--perm is required for schubert"),
            # an empty value is refused, not read as the option left out; the
            # sweep would print its summary before it wrote a report
            (["split", "--alpha", "1,0,2", "--descents", ""], "bad descent list ''"),
            (["egls", "--word", "21", "--marks", ""], "bad marks ''"),
            (["verify", "conj2", "--n", "2", "--report", ""], "bad report path ''"),
            # a path that cannot be written is refused before any case runs
            (
                ["verify", "talpha_props", "--max-weight", "1", "--max-parts", "1",
                 "--report", "/nonexistent/x.json"],
                "cannot write report /nonexistent/x.json: No such file or directory",
            ),
            (
                ["verify", "talpha_props", "--max-weight", "1", "--max-parts", "1",
                 "--report", "/tmp"],
                "cannot write report /tmp: Is a directory",
            ),
            # a list of separators with no letter in it is refused as well
            (["egls", "--word", ","], "bad word ','"),
            (["egls", "--word", ",", "--marks", ","], "bad word ','"),
            (["egls", "--word", "21", "--marks", ","], "bad marks ','"),
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == f"usage error: {message}\n"

    def test_expand_of_a_polynomial_in_b(self, capsys, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(Polynomial.monomial((1,), 1, 1).to_json_obj()))
        code, out, err = run(capsys, "expand", "--basis", "key", "--input", str(path))
        assert code == 2 and not out
        assert err == "usage error: basis expansion requires a b-free input polynomial\n"


def test_split_and_expand_bounds_leave_room_on_the_stack():
    # The operator recursion is a loop: no bound of split or expand is
    # needed for the stack, and 1500 steps return, where a recursion two
    # frames deep per step ended in a RecursionError.
    corner = (0,) * 1500 + (1,)
    steps = []
    f = bases._from_dominant(lambda i, f, work=None: steps.append(i) or f, corner)
    assert steps == list(range(1, len(corner)))
    assert f == x(1)


class TestVerify:
    def test_passing_family_exit_zero(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "conj2", "--n", "3", "--report", str(report_path)
        )
        assert code == 0
        assert "6 passed, 0 failed, 0 skipped" in out
        obj = json.loads(report_path.read_text())
        assert obj["totals"]["pass"] == 6

    def test_report_path_probe_changes_no_file(self, capsys, tmp_path):
        # the report path is probed before the sweep: a refused sweep leaves
        # no new file behind and an existing one as it was
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_text("earlier report")
        for path in (new, old):
            argv = ["verify", "conj2", "--n", "2", "--jobs", "0", "--report", str(path)]
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out
            assert err == "usage error: jobs must be at least 1, got 0\n"
        assert not new.exists() and old.read_text() == "earlier report"

    def test_failing_family_exit_one(self, capsys, monkeypatch):
        monkeypatch.setenv("KOHNERT_FAULT_INJECT", "conj2:312")
        code, out, _ = run(capsys, "verify", "conj2", "--n", "3")
        assert code == 1
        assert "FAIL: conj2 312" in out

    def test_jobs_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "bjs", "--n", "3", "--jobs", "2")
        assert code == 0

    def test_cache_flag(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "verify", "conj2", "--n", "3", "--cache", str(tmp_path)
        )
        assert code == 0
        assert list(tmp_path.iterdir())

    def test_cache_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KOHNERT_CACHE", str(tmp_path))
        code, _, _ = run(capsys, "verify", "conj2", "--n", "3")
        assert code == 0
        assert list(tmp_path.iterdir())

    def test_verify_kohnert_family(self, capsys):
        code, out, _ = run(
            capsys, "verify", "kohnert", "--max-weight", "2", "--max-parts", "2",
            "--n", "2",
        )
        assert code == 0

    def test_usage(self, capsys):
        assert run(capsys, "verify", "nonsense")[0] == 2
        assert run(capsys)[0] == 2

    def test_one_worker_loads_no_pool_or_dataclasses(self):
        # Both cost start-up time that a --jobs 1 sweep does not use.
        script = (
            "import sys\n"
            "from kohnert import cli\n"
            "code = cli.main(['verify', 'conj2', '--n', '3', '--jobs', '1'])\n"
            "print(code, [m for m in ('concurrent.futures', 'dataclasses') if m in sys.modules])\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(kohnert.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"

    def test_sweep_without_cache_loads_no_hashlib(self, tmp_path):
        # only the polynomial cache hashes
        report = str(tmp_path / "report.json")
        script = (
            "import sys\n"
            "import kohnert.cli\n"
            "argv = ['verify', 'conj1', '--max-weight', '2', '--max-parts', '2']\n"
            f"code = kohnert.cli.main(argv + ['--report', {report!r}])\n"
            "print(code, 'hashlib' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(kohnert.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"

    def test_warm_closure_sweep_loads_no_bases_or_tableaux(self, tmp_path):
        # A sweep that reads every polynomial from the cache computes no
        # operator polynomial; a cold one does, and neither builds a tableau.
        cache = str(tmp_path / "cache")
        script = (
            "import sys\n"
            "import kohnert.cli\n"
            f"code = kohnert.cli.main(['verify', 'conj2', '--n', '4', '--cache', {cache!r}])\n"
            "print(code, [m for m in ('kohnert.bases', 'kohnert.tableaux') if m in sys.modules])\n"
        )
        assert _python(script) == "0 ['kohnert.bases']"
        assert _python(script) == "0 []"

    def test_old_layout_entry_is_never_opened(self, tmp_path, capsys):
        # Both earlier layouts kept one file per entry: the nested
        # {"terms": ...} one named by the key alone, the flat one by the key
        # and its format tag "flat1".  Each file holds a well-hashed wrong
        # polynomial here, so reading one would warn or change the report.
        version = kohnert.__version__
        layouts = [
            ("", json.dumps({"terms": [{"coeff": [[0, 7]], "exps": [1]}]})),
            ("|flat1", json.dumps([[[1]], [0], [7]])),
        ]
        for w in perms.all_permutations(3):
            param = perms.format_permutation(w)
            for family in ("K", "grothendieck"):
                for tag, value in layouts:
                    entry = json.dumps(
                        {
                            "family": family,
                            "param": param,
                            "version": version,
                            "value_sha256": hashlib.sha256(value.encode()).hexdigest(),
                        }
                    )
                    name = hashlib.sha256(f"{family}|{param}|{version}{tag}".encode()).hexdigest()
                    (tmp_path / f"{name}.json").write_text(entry[:-1] + ', "value": ' + value + "}")
        old = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert len(old) == 24
        cold = harness.verify("conj2", n=3, cache_dir=str(tmp_path))
        assert cold.meta["cache"] == {"hits": 0, "misses": 12, "lines": 0}
        warm = harness.verify("conj2", n=3, cache_dir=str(tmp_path))
        assert warm.meta["cache"] == {"hits": 12, "misses": 0, "lines": 12}
        assert capsys.readouterr().err == ""
        expected = harness.verify("conj2", n=3).deterministic_json()
        assert cold.deterministic_json() == warm.deterministic_json() == expected
        # one log per family tag beside the old files, which are untouched
        assert len(list(tmp_path.iterdir())) == 24 + 2
        assert {path: path.read_bytes() for path in old} == old

    def test_report_file_has_one_case_per_line(self, capsys, tmp_path, monkeypatch):
        built = []
        original = harness.verify

        def recording(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(harness, "verify", recording)
        bodies = []
        for jobs in ("1", "2"):
            path = tmp_path / f"report-{jobs}.json"
            code, _, _ = run(
                capsys, "verify", "conj2", "--n", "6", "--jobs", jobs, "--report", str(path)
            )
            report = built[-1]
            assert code == 1 and report.failed() == 18
            text = path.read_text()
            lines = text.splitlines()
            assert len(lines) == len(report.cases) + 2
            for line, case in zip(lines[1:-1], report.cases):
                assert json.loads(line.rstrip(",")) == json.loads(json.dumps(case.to_json_obj()))
            # equal values in the same key order
            obj = json.loads(text)
            assert json.dumps(obj) == json.dumps(report.to_json_obj())
            assert obj["meta"]["jobs"] == int(jobs)
            obj.pop("meta")
            bodies.append(json.dumps(obj))
        assert bodies[0] == bodies[1]


def no_cases(tasks, workers):
    raise AssertionError("a case ran")


def passing_cases(tasks, workers):
    return [harness.VerificationCase(family, param, "pass") for family, param, _, _ in tasks]


def _python(script: str) -> str:
    """The last line ``script`` prints in a fresh interpreter on this source."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kohnert.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


# The names the package bound at import before it loaded them on first use.
PACKAGE_NAMES = {
    "perms": (
        "composition", "descents", "format_composition", "format_permutation",
        "lehmer_code", "parse_composition", "parse_permutation", "perm_descents",
        "perm_from_code", "perm_length", "permutation", "reduced_words",
        "strict_descents",
    ),
    "poly": ("Polynomial", "demazure", "divided_difference", "isobaric", "twisted_demazure"),
    "diagrams": (
        "Diagram", "closure", "closure_polynomial", "diagram_weight", "j_polynomial",
        "k_polynomial", "rothe", "skyline", "successors",
    ),
    "tableaux": (
        "Tableau", "compatible_pairs", "content", "coxeter_knuth_class", "egls_insert",
        "insertion_tableau", "nil_left_key", "peeling_tableau", "row_word",
        "split_blocks", "split_compatible_pair",
    ),
    "bases": (
        "expand_in_basis", "grothendieck", "key_by_insertion_fiber", "key_polynomial",
        "key_split_expansion", "omega_polynomial", "schubert",
        "schubert_split_expansion", "schur_block", "split_extract",
    ),
}


class TestPackageNames:
    def test_import_loads_no_submodule(self):
        script = "import sys, kohnert\nprint(sorted(m for m in sys.modules if 'kohnert.' in m))\n"
        assert _python(script) == "[]"

    def test_every_name_is_its_module_attribute(self):
        listed = dir(kohnert)
        for module, names in PACKAGE_NAMES.items():
            owner = getattr(kohnert, module)
            assert owner is sys.modules[f"kohnert.{module}"]
            for name in names:
                assert getattr(kohnert, name) is getattr(owner, name)
                assert name in listed
        from kohnert import Polynomial as imported, key_polynomial

        assert imported is Polynomial and key_polynomial is bases.key_polynomial

    def test_first_use_loads_the_module(self):
        script = (
            "import sys, kohnert\n"
            "kohnert.key_polynomial\n"
            "print(sorted(m for m in sys.modules if 'kohnert.' in m))\n"
        )
        # the tableau module waits for the first function that builds a tableau
        loaded = ["kohnert.bases", "kohnert.diagrams", "kohnert.perms", "kohnert.poly"]
        assert _python(script) == str(loaded)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
            kohnert.nothing
        with pytest.raises(ImportError):
            from kohnert import nothing  # noqa: F401
        assert not hasattr(kohnert, "trim")  # a poly name that was never exported


class TestVerifyInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["conj2", "--jobs", "0"],
            ["conj2", "--jobs", "-3"],
            ["conj2", "--cap", "0"],
            ["conj1", "--max-weight", "-1"],
            ["theorem1", "--max-parts", "-2"],
            ["bjs", "--n", str(harness.MAX_N + 1)],
            ["conj2", "--n", "-1"],
            ["conj1", "--n", "6"],
            ["theorem4", "--n", "3"],
            ["bjs", "--cap", "5"],
            ["bjs", "--max-weight", "3"],
            ["talpha_props", "--cache", "somewhere"],
            ["talpha_props", "--max-weight", "40", "--max-parts", "40"],
            ["theorem1", "--max-weight", "1000000000", "--max-parts", "1000000000"],
        ],
    )
    def test_rejected_before_any_case(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(harness, "_execute", no_cases)
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert "usage error" in err and not out

    def test_unusable_cache_directory_is_refused(self, capsys, monkeypatch, tmp_path):
        # a path that names a file, or lies below one, cannot be a directory
        monkeypatch.setattr(harness, "_execute", no_cases)
        afile = tmp_path / "afile"
        afile.write_text("")
        for path in (afile, afile / "x"):
            code, out, err = run(capsys, "verify", "conj2", "--n", "3", "--cache", str(path))
            assert code == 2 and not out
            assert f"usage error: cannot use {str(path)!r} as a cache directory" in err
            monkeypatch.setenv(harness.CACHE_ENV, str(path))
            code, out, err = run(capsys, "verify", "conj1")
            assert code == 2 and "as a cache directory" in err and not out
            monkeypatch.delenv(harness.CACHE_ENV)
        assert afile.read_text() == ""

    def test_cache_env_ignored_by_sweeps_without_cache(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("KOHNERT_CACHE", str(tmp_path))
        monkeypatch.setattr(harness, "_execute", passing_cases)
        code, _, _ = run(capsys, "verify", "bjs", "--n", "3")
        assert code == 0
        assert not list(tmp_path.iterdir())

    def test_jobs_clamp(self):
        assert harness.clamp_jobs(8, 100, 2) == 2
        assert harness.clamp_jobs(8, 3, 16) == 3
        assert harness.clamp_jobs(2, 100, 16) == 2
        assert harness.clamp_jobs(4, 0, 16) == 1
        assert harness.clamp_jobs(1, 100, 16) == 1


SMALL_BOUNDS = {"max_weight": 3, "max_parts": 3, "n": 3}


class TestVerifyRegistry:
    @pytest.mark.parametrize("family", list(harness.SWEEPS))
    def test_cli_report_equals_library(self, capsys, tmp_path, family):
        bounds = {k: SMALL_BOUNDS[k] for k in harness.SWEEPS[family].bounds}
        path = tmp_path / "report.json"
        argv = ["verify", family, "--report", str(path)]
        for name, value in bounds.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        code, _, _ = run(capsys, *argv)
        obj = json.loads(path.read_text())
        obj.pop("meta")
        expected = harness.verify(family, **bounds)
        assert json.dumps(obj, sort_keys=True) == expected.deterministic_json()
        assert code == (1 if expected.failed() else 0)

    @pytest.mark.parametrize("family", list(harness.SWEEPS))
    def test_cli_and_library_share_defaults(self, capsys, tmp_path, monkeypatch, family):
        monkeypatch.setattr(harness, "_execute", passing_cases)
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", family, "--report", str(path))
        assert code == 0
        obj = json.loads(path.read_text())
        obj.pop("meta")
        library = harness.verify(family)
        assert json.dumps(obj, sort_keys=True) == library.deterministic_json()
        for name, default in harness.SWEEPS[family].bounds.items():
            assert obj["config"][name] == default
