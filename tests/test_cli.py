import argparse
import hashlib
import json
import os
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
    MAX_OMEGA_EXPAND_VARIABLE,
    MAX_POLY_N,
    MAX_POLY_PARTS,
    MAX_POLY_WEIGHT,
    MAX_SPLIT_CELLS,
    MAX_SPLIT_PARTS,
    MAX_SPLIT_TERMS,
    MAX_SPLIT_WEIGHT,
    MAX_SPLIT_WORDS,
    MAX_TALPHA_PARTS,
    MAX_TALPHA_WEIGHT,
    main,
)
from kohnert.poly import Polynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ("key", "--alpha", "1000000"),
        ("omega", "--alpha", "0,0,0,0,0,1,7"),
        ("key", "--alpha", "0,0,0,0,1,10"),
        ("key", "--alpha", ",".join(["0"] * MAX_POLY_PARTS + ["1"])),
        ("schubert", "--perm", ",".join(map(str, range(100_000, 0, -1)))),
        ("grothendieck", "--perm", ",".join(map(str, range(MAX_POLY_N + 1, 0, -1)))),
    ])
    def test_huge_input_is_refused_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args):
            raise AssertionError("poly ran past its bound")

        for name in ("key_polynomial", "omega_polynomial", "schubert", "grothendieck"):
            monkeypatch.setattr(bases, name, no_work)
        code, out, err = run(capsys, "poly", *argv)
        assert code == 2
        assert "usage error" in err and "bound" in err and not out

    def test_bounds_admit_their_corners(self, capsys):
        alpha = (0, 0, 0, 0, 1, 9)
        assert (sum(alpha), len(alpha)) == (MAX_POLY_WEIGHT, MAX_POLY_PARTS)
        code, out, _ = run(capsys, "poly", "key", "--alpha", "0,0,0,0,1,9")
        assert code == 0 and out.startswith("x5*x6^9 + ")
        code, out, _ = run(capsys, "poly", "schubert", "--perm", "1,2,3,4,5,6,7,9,8")
        assert code == 0 and MAX_POLY_N == 9


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
        assert run(capsys, "split", "--alpha", "1,3,0,2,2,1", "--descents", "2,5")[0] == 2

    @pytest.mark.parametrize("descents", ["3,1", "1,3,3", "0,1,3"])
    def test_blocks_not_increasing_are_usage_errors(self, capsys, descents):
        # each list covers the strict descents 1 and 3 of 1,0,2
        code, _, err = run(capsys, "split", "--alpha", "1,0,2", "--descents", descents)
        assert code == 2
        assert "strictly increasing" in err

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

        def work(*args):
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
        # 9 zeros before a 20 (h_20 in 10 variables, 10 015 005 terms) passed
        # every other bound and ran for over 40 s; 9 zeros before a 10
        # (92 378 terms) still reaches the work
        class Reached(Exception):
            pass

        def work(*args):
            raise Reached

        for name in ("key_polynomial", "key_split_expansion", "split_extract"):
            monkeypatch.setattr(bases, name, work)
        code, out, err = run(capsys, "split", "--alpha", "0," * 9 + "20")
        assert code == 2
        assert "usage error" in err and "10015005 terms, past the bound" in err and not out
        with pytest.raises(Reached):
            main(["split", "--alpha", "0," * 9 + "10"])

    def test_large_schur_enumeration_is_refused_before_any_work(self, capsys, monkeypatch):
        # 0,0,400 (80 601 terms of weight 400) passed every other bound and
        # took 15.9 s; 0,0,150 and 9 zeros before a 10 still reach the work
        class Reached(Exception):
            pass

        def work(*args):
            raise Reached

        for name in ("key_polynomial", "key_split_expansion", "split_extract"):
            monkeypatch.setattr(bases, name, work)
        code, out, err = run(capsys, "split", "--alpha", "0,0,400")
        assert code == 2
        assert "usage error" in err and "32240400 cells, past the bound" in err and not out
        for alpha in ("0,0,150", "0," * 9 + "10"):
            with pytest.raises(Reached):
                main(["split", "--alpha", alpha])
        # the inputs the documentation and the tests split are admitted
        admitted = [(1, 3, 0, 2, 2, 1), (11, 11), (0,) * 399 + (1,), (500,), (0, 0, 0, 60)]
        assert all(cli._key_terms_bound(a) * sum(a) <= MAX_SPLIT_CELLS for a in admitted)

    def test_terms_bound_counts_the_key_polynomial(self):
        bound = cli._key_terms_bound
        # exact for zeros before one part
        alpha = (0,) * 9 + (8,)
        assert bound(alpha) == 24310 == len(bases.key_polynomial(alpha).terms)
        assert [bound((0,) * 9 + (m,)) for m in (10, 12)] == [92378, 293930]
        for alpha in harness.compositions_upto(6, 4):
            alpha = perms.composition(alpha)
            assert len(bases.key_polynomial(alpha).terms) <= bound(alpha)
        # the inputs the documentation and the tests split are admitted
        admitted = [(1, 3, 0, 2, 2, 1), (11, 11), (0,) * 399 + (1,), (500,)]
        assert [bound(alpha) for alpha in admitted] == [580, 1, 400, 1]
        assert bound((0,) * 9 + (10,)) <= MAX_SPLIT_TERMS < bound((0,) * 9 + (11,))

    def test_word_bound_admits_eleven_eleven(self):
        # 11,11 (Catalan(11) words) still splits; 12,12 and 14,14 do not
        count = tableaux.standard_tableaux_count
        assert count((11, 11)) == 58786 <= MAX_SPLIT_WORDS < count((12, 12))
        assert count((6, 6, 6)) <= MAX_SPLIT_WORDS < count((14, 14))


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

    @pytest.mark.parametrize(
        "n", [MAX_OMEGA_EXPAND_VARIABLE, MAX_OMEGA_EXPAND_VARIABLE + 1,
              MAX_EXPAND_VARIABLE + 1, 900, 100_000]
    )
    def test_huge_variable_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch, n):
        # the key expansion of x_900 used to end in a RecursionError, and the
        # omega expansion of x_14 took 7 s
        class Reached(Exception):
            pass

        def work(*args):
            raise Reached

        monkeypatch.setattr(bases, "expand_in_basis", work)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(Polynomial.monomial((0,) * (n - 1) + (1,)).to_json_obj()))
        bounds = {"key": MAX_EXPAND_VARIABLE, "J": MAX_EXPAND_VARIABLE,
                  "omega": MAX_OMEGA_EXPAND_VARIABLE}
        for basis, bound in bounds.items():
            argv = ["expand", "--basis", basis, "--input", str(path)]
            if n <= bound:
                with pytest.raises(Reached):
                    main(argv)
                continue
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert "usage error" in err and f"x{n}, past the bound x{bound}" in err and not out

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

        def work(*args):
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
        for basis, bound in (("key", MAX_EXPAND_VARIABLE), ("omega", MAX_OMEGA_EXPAND_VARIABLE)):
            if cols <= bound:
                with pytest.raises(Reached):
                    main(["expand", "--basis", basis, "--input", str(path)])

    @pytest.mark.parametrize(
        "exps", [(MAX_DIAGRAM_BOX,), (0, 500), (5,) + (0,) * 198 + (1,), (0,) * 399 + (2,)]
    )
    def test_j_box_bound_admits_its_corners(self, tmp_path, capsys, monkeypatch, exps):
        class Reached(Exception):
            pass

        def work(*args):
            raise Reached

        monkeypatch.setattr(bases, "expand_in_basis", work)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(Polynomial.monomial(exps).to_json_obj()))
        with pytest.raises(Reached):
            main(["expand", "--basis", "J", "--input", str(path)])

    def test_j_expansion_at_the_box_bound(self, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(Polynomial.monomial((MAX_DIAGRAM_BOX,)).to_json_obj()))
        code, out, _ = run(capsys, "expand", "--basis", "J", "--input", str(path))
        assert code == 0
        assert json.loads(out) == [{"alpha": [MAX_DIAGRAM_BOX], "coeff": [[0, 1]]}]


class TestRefusedInput:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["split", "--alpha", "1,0,2", "--descents", "1,x"], "bad descent list '1,x'"),
            (["egls", "--word", "1a2"], "bad word '1a2'"),
            (["poly", "schubert", "--alpha", "1,2"], "--perm is required for schubert"),
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
    # At either bound's corner the key polynomial recurses one operator step
    # per part below the last.  An operator that does no work recurses as
    # deep; 25 more steps stand for the real operator's own frames.
    corner = (0,) * (max(MAX_SPLIT_PARTS, MAX_EXPAND_VARIABLE) + 25) + (1,)
    steps = []
    bases._from_dominant(lambda i, f: steps.append(i) or f, corner)
    assert steps == list(range(1, len(corner)))


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
        # Entries of the nested {"terms": ...} layout were named by the key
        # alone.  Each holds a well-hashed wrong polynomial here, so reading
        # one would warn or change the report.
        version = kohnert.__version__
        value = json.dumps({"terms": [{"coeff": [[0, 7]], "exps": [1]}]})
        for w in perms.all_permutations(3):
            param = perms.format_permutation(w)
            for family in ("K", "grothendieck"):
                entry = json.dumps(
                    {
                        "family": family,
                        "param": param,
                        "version": version,
                        "value_sha256": hashlib.sha256(value.encode()).hexdigest(),
                    }
                )
                name = hashlib.sha256(f"{family}|{param}|{version}".encode()).hexdigest()
                (tmp_path / f"{name}.json").write_text(entry[:-1] + ', "value": ' + value + "}")
        old = sorted(tmp_path.iterdir())
        assert len(old) == 12
        cold = harness.verify("conj2", n=3, cache_dir=str(tmp_path))
        assert cold.meta["cache"] == {"hits": 0, "misses": 12}
        warm = harness.verify("conj2", n=3, cache_dir=str(tmp_path))
        assert warm.meta["cache"] == {"hits": 12, "misses": 0}
        assert capsys.readouterr().err == ""
        expected = harness.verify("conj2", n=3).deterministic_json()
        assert cold.deterministic_json() == warm.deterministic_json() == expected
        assert len(list(tmp_path.iterdir())) == 24

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
