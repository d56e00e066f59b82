"""Acceptance suite: one test per criterion, exact integer equality
throughout, with the stated runtime budgets asserted.  Each test prints a
single PASS/FAIL line (run with -s to see them all).

Criterion 5 is expected to fail: the ghost-move rule is pinned byte-exactly
by the worked-example criteria (2-4), and under that rule the b = -1
skyline identity is false for 22 of the 330 compositions in the sweep range
(smallest counterexample 0,0,1,2).  The sweep reports each counterexample
with a minimal term diff; see the failure message.
"""

import random
import time
from itertools import combinations

from kohnert import bases, diagrams, harness, perms, tableaux
from kohnert.cli import main as cli_main
from kohnert.diagrams import GHOST, PLUS, Diagram
from kohnert.poly import Polynomial, demazure, divided_difference
from kohnert.poly import isobaric, twisted_demazure
from kohnert.tableaux import Tableau

m = Polynomial.monomial


class _Criterion:
    def __init__(self, num, description, budget_s):
        self.num = num
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.num} [{elapsed:.2f}s]: {self.description}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.num} exceeded its {self.budget_s}s budget"
            )
        return False


def test_criterion_1_split_reproduction(capsys):
    with _Criterion(1, "block-Schur split of the six-part composition", 5.0):
        code = cli_main(["split", "--alpha", "1,3,0,2,2,1", "--descents", "2,5,6"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("= 1") == 4
        for line in [
            "E[(3,2) | (2,1,1) | ()] = 1",
            "E[(3,2) | (2,1) | (1)] = 1",
            "E[(3,1) | (2,2) | (1)] = 1",
            "E[(3,1) | (2,2,1) | ()] = 1",
        ]:
            assert line in out, line
        expansion = bases.key_split_expansion((1, 3, 0, 2, 2, 1), (2, 5, 6))
        witnesses = {
            ((3, 2), (2, 1, 1), ()): (
                Tableau([[1, 3, 4], [2, 5]]), Tableau([[4, 6], [5], [6]]), Tableau([]),
            ),
            ((3, 2), (2, 1), (1,)): (
                Tableau([[1, 3, 4], [2, 5]]), Tableau([[4, 6], [5]]), Tableau([[6]]),
            ),
            ((3, 1), (2, 2), (1,)): (
                Tableau([[1, 3, 4], [2]]), Tableau([[4, 5], [5, 6]]), Tableau([[6]]),
            ),
            ((3, 1), (2, 2, 1), ()): (
                Tableau([[1, 3, 4], [2]]), Tableau([[4, 5], [5, 6], [6]]), Tableau([]),
            ),
        }
        assert {k: v[0] for k, v in expansion.items()} == {k: 1 for k in witnesses}
        for lams, wit in witnesses.items():
            assert expansion[lams][1] == [wit]
        assert perms.perm_from_code((1, 3, 0, 2, 2, 1)) == (2, 5, 1, 6, 7, 4, 3)
        assert tableaux.peeling_tableau((1, 3, 0, 2, 2, 1)) == Tableau(
            [[1, 3, 4], [2, 5], [4, 6], [5], [6]]
        )


def test_criterion_2_one_step_successors():
    with _Criterion(2, "six one-step ghost-move successors, rendering match", 1.0):
        start = Diagram.from_cells([
            (1, 2, PLUS), (3, 2, GHOST), (4, 2, PLUS),
            (2, 1, PLUS), (3, 1, PLUS), (4, 1, PLUS), (5, 1, PLUS),
        ])
        got = sorted(d.render(5, 2) for d in diagrams.successors(start, diagrams.K_KOHNERT))
        expected = sorted([
            "+.g+.\n+.+++",
            "+.g+.\n+g+++",
            "++g..\n.++++",
            "++gg.\n.++++",
            "+.g+.\n++++.",
            "+.g+.\n++++g",
        ])
        assert got == expected


def test_criterion_3_thirteen_diagram_polynomial():
    with _Criterion(3, "13-diagram closure and its b = -1 evaluation", 1.0):
        found = diagrams.closure(diagrams.skyline((1, 0, 2)), diagrams.K_KOHNERT)
        assert len(found) == 13
        hist = {}
        for d in found:
            hist[d.ghost_count()] = hist.get(d.ghost_count(), 0) + 1
        assert hist == {0: 5, 1: 6, 2: 2}
        signed = diagrams.j_polynomial((1, 0, 2)).substitute_beta(-1)
        expected = (
            m((1, 0, 2)) + m((1, 1, 1)) + m((2, 0, 1)) + m((2, 1)) + m((1, 2))
            - (m((2, 1, 1), 2) + m((2, 2)) + m((1, 2, 1)) + m((1, 1, 2)) + m((2, 0, 2)))
            + m((2, 2, 1)) + m((2, 1, 2))
        )
        assert signed == expected


def test_criterion_4_rothe_closure_polynomial():
    with _Criterion(4, "3-diagram Rothe closure for 3142", 1.0):
        found = diagrams.closure(diagrams.rothe((3, 1, 4, 2)), diagrams.K_KOHNERT)
        assert len(found) == 3
        K = diagrams.k_polynomial((3, 1, 4, 2))
        assert K.substitute_beta(-1) == m((2, 0, 1)) + m((2, 1)) - m((2, 1, 1))
        ghost_free = diagrams.ghost_weighted_sum(
            d for d in found if d.ghost_count() == 0
        )
        assert ghost_free == bases.schubert((3, 1, 4, 2))


def test_criterion_5_skyline_ghost_identity_sweep():
    with _Criterion(5, "b = -1 skyline identity, weight <= 7, <= 4 parts", 300.0):
        report = harness.verify("conj1", max_weight=7, max_parts=4, jobs=1)
        assert report.totals["skipped"] == 0
        failing = [c.param for c in report.cases if c.status == "fail"]
        assert report.failed() == 0, (
            f"{len(failing)} of {report.totals['total']} compositions violate the "
            f"b = -1 identity under the example-pinned ghost-move rule; "
            f"counterexamples: {failing}. The two sides are each independently "
            f"verified (operator route cross-checked symbolically; diagram route "
            f"pinned by the worked examples), so the identity itself fails; "
            f"see notes/decisions.md for the full analysis."
        )


def test_criterion_6_rothe_ghost_identity_sweep():
    with _Criterion(6, "b = -1 Rothe identity over all of S_5", 300.0):
        report = harness.verify("conj2", n=5, jobs=1)
        assert report.totals == {"pass": 120, "fail": 0, "skipped": 0, "total": 120}


def test_criterion_7_ghost_free_slices():
    with _Criterion(7, "b = 0 slices equal key and Schubert polynomials", 300.0):
        report = harness.verify("kohnert", max_weight=7, max_parts=4, n=5, jobs=1)
        assert report.failed() == 0 and report.totals["skipped"] == 0
        by_family = {}
        for c in report.cases:
            by_family[c.family] = by_family.get(c.family, 0) + 1
        assert by_family == {"kohnert_key": 330, "kohnert_schubert": 120}


def test_criterion_8_splitting_oracle_equivalence():
    with _Criterion(8, "three routes to the key splitting agree, weight <= 6", 300.0):
        report = harness.verify("theorem1", max_weight=6, max_parts=4, jobs=1)
        assert report.totals == {"pass": 210, "fail": 0, "skipped": 0, "total": 210}
        # non-negativity is part of the case check; spot-assert it again
        ex = bases.split_extract(
            bases.key_polynomial((1, 3, 0, 2, 2, 1)), (2, 5, 6)
        )
        assert all(v > 0 for v in ex.values())


def test_criterion_9_identity_suite():
    with _Criterion(9, "compatible-pair, fiber, decomposition and basis identities", 300.0):
        assert harness.verify("bjs", n=5, jobs=1).failed() == 0
        assert harness.verify("theorem4", max_weight=6, max_parts=4, jobs=1).failed() == 0

        # all-shapes key decomposition of Schubert polynomials over S_4
        for w in perms.all_permutations(4):
            seen = {tableaux.insertion_tableau(a) for a in perms.reduced_words(w)}
            total = Polynomial()
            for u in seen:
                total = total + bases.key_polynomial(
                    tableaux.content(tableaux.nil_left_key(u))
                )
            assert total == bases.schubert(w), w
        assert bases.expand_in_basis(bases.schubert((2, 1, 4, 3)), "key") == {
            (2,): {0: 1},
            (1, 0, 1): {0: 1},
        }

        # block-split map is injective and surjective-by-counting over S_4
        for w in perms.all_permutations(4):
            ds = sorted(perms.perm_descents(w))
            for r in range(4):
                for extra in combinations([1, 2, 3], r):
                    d = sorted(set(ds) | set(extra))
                    if not d and perms.perm_length(w) > 0:
                        continue
                    pairs = tableaux.compatible_pairs(w)
                    if any(i and i[-1] > (d[-1] if d else 0) for _, i in pairs):
                        continue
                    images = {
                        tuple(tableaux.split_compatible_pair(p, d)) for p in pairs
                    }
                    assert len(images) == len(pairs)
                    blocks = bases.block_variables(d)
                    total = 0
                    for lams, count in bases.schubert_split_expansion(w, d).items():
                        ways = 1
                        for lam, block in zip(lams, blocks):
                            ways *= sum(
                                1
                                for _ in tableaux.semistandard_tableaux(
                                    lam, len(block)
                                )
                            )
                        total += count * ways
                    assert total == len(pairs)

        # finite ghost-basis expansion round-trips on random polynomials
        rng = random.Random(1302)
        for trial in range(20):
            f = Polynomial()
            for _ in range(rng.randint(1, 6)):
                exps = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 3)))
                if sum(exps) <= 4:
                    f = f + m(exps, rng.randint(-5, 5))
            coeffs = bases.expand_in_basis(f, "J")
            assert bases.reconstruct_from_expansion(coeffs, "J") == f


def test_criterion_10_operator_properties():
    with _Criterion(10, "operator algebra and leading-term properties", 300.0):
        rng = random.Random(77)

        def random_poly():
            f = Polynomial()
            for _ in range(rng.randint(1, 5)):
                exps = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 4)))
                if sum(exps) <= 4:
                    f = f + m(exps, rng.randint(-4, 4))
            return f

        for _ in range(25):
            f = random_poly()
            for i in (1, 2, 3):
                assert divided_difference(i, divided_difference(i, f)).is_zero()
                for op in (demazure, twisted_demazure, isobaric):
                    once = op(i, f)
                    assert op(i, once) == once
            for op in (divided_difference, demazure, isobaric, twisted_demazure):
                if op is not twisted_demazure:
                    assert op(1, op(2, op(1, f))) == op(2, op(1, op(2, f)))
                assert op(1, op(3, f)) == op(3, op(1, f))

        for alpha in harness.compositions_upto(8, 4):
            key = bases.key_polynomial(alpha)
            assert key.leading_monomial() == alpha
            assert key.coefficient(alpha) == {0: 1}
            schub = bases.schubert(perms.perm_from_code(alpha))
            assert schub.leading_monomial() == alpha
            assert schub.coefficient(alpha) == {0: 1}

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

        for alpha in harness.compositions_upto(6, 3):
            for op, expected in (
                (demazure, bases.key_polynomial(alpha)),
                (twisted_demazure, bases.omega_polynomial(alpha)),
            ):
                vals = list(paths(alpha, op))
                assert all(v == expected for v in vals)
