"""Command-line interface.

Subcommands: poly, diagrams, split, egls, talpha, expand, verify.  Exit
codes: 0 on success, 1 when a verification case fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# bases and tableaux are imported by the commands that call them, so a verify
# that reads every polynomial from the cache never loads them.
from . import __version__, diagrams, harness, perms
from .poly import Polynomial


def _parsed(parse, text: str):
    """``parse(text)``, with a ValueError reported as a usage error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(str(exc))


def _bounded_alpha(text: str, max_weight: int, max_parts: int):
    """The composition ``text``, refused past weight ``max_weight`` or
    ``max_parts`` parts."""
    alpha = _parsed(perms.parse_composition, text)
    if len(alpha) > max_parts or sum(alpha) > max_weight:
        raise UsageError(
            f"weight {sum(alpha)} in {len(alpha)} parts is past the bound of "
            f"weight {max_weight} in {max_parts} parts"
        )
    return alpha


class UsageError(Exception):
    pass


# Every bound any sweep family takes, in registry order.
_VERIFY_BOUNDS = tuple(
    dict.fromkeys(name for spec in harness.SWEEPS.values() for name in spec.bounds)
)


# Largest inputs ``poly`` accepts.  The operator recursion's polynomials
# grow fast with the number of parts and the weight of --alpha: the slowest
# compositions of weight 10 in 6 parts found (omega of 0,0,0,1,2,7 and
# 0,0,0,0,1,9, about 55 000 terms) take about 1.5 s, while 0,0,0,0,0,1,7
# (weight 8 in 7 parts) took 3.2 s.  Random Grothendieck polynomials of S_9
# take well under a second, and of S_10 up to 1.5 s before printing.
MAX_POLY_WEIGHT = 10
MAX_POLY_PARTS = 6
MAX_POLY_N = 9


def _cmd_poly(args) -> int:
    from . import bases

    if args.basis in ("key", "omega"):
        if args.alpha is None:
            raise UsageError(f"--alpha is required for {args.basis}")
        alpha = _bounded_alpha(args.alpha, MAX_POLY_WEIGHT, MAX_POLY_PARTS)
        poly = (
            bases.key_polynomial(alpha)
            if args.basis == "key"
            else bases.omega_polynomial(alpha)
        )
    else:
        if args.perm is None:
            raise UsageError(f"--perm is required for {args.basis}")
        w = _parsed(perms.parse_permutation, args.perm)
        if len(w) > MAX_POLY_N:
            raise UsageError(f"a permutation of {len(w)} is past the bound {MAX_POLY_N}")
        poly = bases.schubert(w) if args.basis == "schubert" else bases.grothendieck(w)
    if args.beta is not None:
        poly = poly.substitute_beta(args.beta)
    if args.format == "json":
        print(json.dumps(poly.to_json_obj()))
    else:
        print(poly)
    return 0


# Largest box (rows times columns) of a ``diagrams`` start: the skyline of
# --alpha fills at most max(alpha) by len(alpha), the Rothe diagram of a
# permutation of n at most n by n.  A move costs a few operations on ints
# of twice the box in bits, and printing a diagram costs its box, so the
# 1001 diagrams of ``kkohnert --alpha 0,500`` take about 2 s; the number of
# diagrams is bounded by --cap.  ``expand --basis J`` takes the same bound
# on the box of its input's largest exponent by its last variable: the
# exponents the peel meets stay within both.
MAX_DIAGRAM_BOX = 1000


def _cmd_diagrams(args) -> int:
    if args.cap < 1:
        raise UsageError(f"cap must be at least 1, got {args.cap}")
    if args.alpha is not None:
        alpha = _parsed(perms.parse_composition, args.alpha)
        cols = len(alpha)
        rows = max(alpha, default=0)
    else:
        w = _parsed(perms.parse_permutation, args.perm)
        cols = rows = len(w)
    if rows * cols > MAX_DIAGRAM_BOX:
        raise UsageError(
            f"a start diagram in a box of {rows} by {cols} is past the bound of "
            f"{MAX_DIAGRAM_BOX} cells"
        )
    start = diagrams.skyline(alpha) if args.alpha is not None else diagrams.rothe(w)
    rule = diagrams.RULES[args.rule]
    # Only a listing builds the diagrams; the summary is read off the
    # polynomial the walk counts.
    try:
        if args.list:
            ordered = sorted(diagrams.closure(start, rule, args.cap), key=lambda d: d.key())
            poly = diagrams.ghost_weighted_sum(ordered)
        else:
            poly = diagrams.closure_polynomial(start, rule, args.cap)
    except diagrams.ClosureCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a coefficient of b^g counts diagrams with g ghosts
    by_ghosts: dict[int, int] = {}
    for (_, g), n in poly.terms.items():
        by_ghosts[g] = by_ghosts.get(g, 0) + n
    print(f"diagrams: {sum(by_ghosts.values())}")
    print(
        "by ghost count: "
        + ", ".join(f"{g}: {n}" for g, n in sorted(by_ghosts.items()))
    )
    print(f"generating polynomial: {poly}")
    if args.list:
        for d in ordered:
            print()
            print(d.render(cols, rows))
    return 0


# Largest composition ``split`` accepts.  The tableaux of a block Schur
# polynomial recurse one frame per cell: a single part of weight 500 splits
# in under a second.  The key polynomial's operator recursion takes one step
# per inversion of alpha (a pair of parts, the later one larger), two frames
# each, and its memo keeps every intermediate polynomial: 399 zeros before a
# 1 (399 steps) split in about 2 s, and 499 zeros before a 1 ran out of
# stack.  These bounds do not bound the inversions: 100 zeros before 1,1
# (200 steps) take 2.6 s and 247 MB, 200 zeros before 1,1 ran out of memory
# under a 3 GB limit, and 300 zeros before 1,1 end in a RecursionError.
MAX_SPLIT_WEIGHT = 500
MAX_SPLIT_PARTS = 400

# Largest Coxeter-Knuth class ``split`` walks for its witnesses.  The class
# of the peeling tableau has one reduced word per standard tableau of its
# shape, the sorted composition, so it is counted before the walk.  Of the
# shapes the bound admits, ``--alpha 0,6,0,6,0,6`` (87 516 words in three
# blocks) splits in 3.8-6.5 s CPU at a 40 MB peak, ``6,6,6`` (the same class
# in one block) in 2-3 s and ``11,11`` (58 786 words) in 1.5-2.3 s, on a
# shared 2-CPU Xeon under Python 3.11; ``14,14`` (2 674 440 words) took
# 83 s.
MAX_SPLIT_WORDS = 100_000

# Largest key polynomial ``split`` builds, in terms, as bounded by
# ``_key_terms_bound``.  The bound is exact for a single part after zeros:
# ``--alpha 0,0,0,0,0,0,0,0,0,10`` (92 378 terms) splits in about 2 s,
# ``...,11`` (167 960 terms) took 3.1 s and ``...,20`` (10 015 005 terms)
# ran for over 40 s.
MAX_SPLIT_TERMS = 100_000

# Largest Schur enumeration ``split`` does, in cells: the block Schur
# polynomials fill every semistandard tableau one cell at a time, so the
# work grows with the terms of the key polynomial times its weight, bounded
# by ``_key_terms_bound(alpha) * |alpha|``.  ``--alpha 0,0,150`` (1.7
# million) splits in 1.1 s and ``0,0,0,60`` (2.4 million) in 1.5 s, while
# ``0,0,200`` (4.1 million) took 2.2 s and ``0,0,400`` (32 million) 15.9 s.
MAX_SPLIT_CELLS = 3_000_000


def _key_terms_bound(alpha) -> int:
    """The number of compositions of |alpha| into len(alpha) parts, none
    above max(alpha), by inclusion-exclusion over the parts that exceed it.
    Every monomial of the key polynomial of alpha has such an exponent, so
    this bounds its number of terms."""
    n, k, top = len(alpha), sum(alpha), max(alpha, default=0)
    if n == 0:
        return 1
    return sum(
        (-1) ** j * math.comb(n, j) * math.comb(k - j * (top + 1) + n - 1, n - 1)
        for j in range(min(n, k // (top + 1)) + 1)
    )


def _cmd_split(args) -> int:
    from . import bases, tableaux

    alpha = _bounded_alpha(args.alpha, MAX_SPLIT_WEIGHT, MAX_SPLIT_PARTS)
    words = tableaux.standard_tableaux_count(perms.sort_decreasing(alpha))
    if words > MAX_SPLIT_WORDS:
        raise UsageError(
            f"the Coxeter-Knuth class of {perms.format_composition(alpha)} has "
            f"{words} reduced words, past the bound {MAX_SPLIT_WORDS}"
        )
    terms = _key_terms_bound(alpha)
    if terms > MAX_SPLIT_TERMS:
        raise UsageError(
            f"the key polynomial of {perms.format_composition(alpha)} may have "
            f"{terms} terms, past the bound {MAX_SPLIT_TERMS}"
        )
    cells = terms * sum(alpha)
    if cells > MAX_SPLIT_CELLS:
        raise UsageError(
            f"the key polynomial of {perms.format_composition(alpha)} may have "
            f"{terms} terms of weight {sum(alpha)}, {cells} cells, past the bound "
            f"{MAX_SPLIT_CELLS}"
        )
    if args.descents:
        try:
            d = tuple(int(p) for p in args.descents.split(","))
        except ValueError:
            raise UsageError(f"bad descent list {args.descents!r}")
        # the strict descents of alpha never pass len(alpha), itself at most
        # MAX_SPLIT_PARTS, while each block lists its variables
        if max(d) > MAX_SPLIT_PARTS:
            raise UsageError(f"block bound {max(d)} is past the bound {MAX_SPLIT_PARTS}")
    else:
        d = bases.minimal_blocks(alpha)
    try:
        expansion = bases.key_split_expansion(alpha, d)
    except ValueError as exc:
        raise UsageError(str(exc))
    extracted = bases.split_extract(bases.key_polynomial(alpha), d)
    counts = {k: v[0] for k, v in expansion.items()}
    agree = extracted == counts
    print(f"alpha: {perms.format_composition(alpha)}")
    print(f"blocks: {','.join(map(str, d))}")
    for lams in sorted(expansion):
        count, witnesses = expansion[lams]
        label = " | ".join("(" + ",".join(map(str, l)) + ")" for l in lams)
        print(f"E[{label}] = {count}")
        for tup in witnesses:
            rendered = " | ".join(
                "[" + "; ".join(" ".join(map(str, row)) for row in t.rows) + "]"
                for t in tup
            )
            print(f"  witness: {rendered}")
    if not agree:
        print("error: tableau count disagrees with Schur extraction", file=sys.stderr)
        return 1
    return 0


def _parse_letters(text: str, what: str) -> list[int]:
    t = text.strip()
    try:
        if "," in t or " " in t:
            return [int(p) for p in t.replace(",", " ").split()]
        if t.isdigit():
            return [int(ch) for ch in t]
    except ValueError:
        pass
    raise UsageError(f"bad {what} {text!r}")


# Largest word ``egls`` accepts.  The reducedness check holds a permutation
# up to the largest letter (``--word 20000000,1`` took 781 MB), and a
# decreasing word inserts in quadratic time: 100000,...,98001 takes ~2 s.
MAX_EGLS_LETTER = 100_000
MAX_EGLS_LENGTH = 2000


def _cmd_egls(args) -> int:
    from . import tableaux

    word = _parse_letters(args.word, "word")
    if len(word) > MAX_EGLS_LENGTH or max(word, default=0) > MAX_EGLS_LETTER:
        raise UsageError(
            f"a word of {len(word)} letters up to {max(word, default=0)} is past the "
            f"bound of {MAX_EGLS_LENGTH} letters up to {MAX_EGLS_LETTER}"
        )
    marks = _parse_letters(args.marks, "marks") if args.marks else None
    try:
        p, q = tableaux.egls_insert(word, marks)
    except (tableaux.NonReducedWordError, ValueError) as exc:
        raise UsageError(str(exc))
    print("insertion tableau:")
    print(p.render() or "(empty)")
    print("recording tableau:")
    print(q.render() or "(empty)")
    return 0


# Largest composition ``talpha`` accepts: ``--alpha 1000`` takes 1.6 s,
# ``2000`` 5.8 s, and 1999 zeros before a part of 1000 about 2 s.
MAX_TALPHA_WEIGHT = 1000
MAX_TALPHA_PARTS = 2000


def _cmd_talpha(args) -> int:
    from . import tableaux

    alpha = _bounded_alpha(args.alpha, MAX_TALPHA_WEIGHT, MAX_TALPHA_PARTS)
    t = tableaux.peeling_tableau(alpha)
    w = perms.perm_from_code(alpha)
    print(f"permutation: {perms.format_permutation(w)}")
    print(t.render() or "(empty)")
    nk = tableaux.nil_left_key(t)
    print("nil left key:")
    print(nk.render() or "(empty)")
    print(f"content: {perms.format_composition(tableaux.content(nk))}")
    return 0


# Largest variable ``expand`` accepts.  The basis element led by x^theta
# comes from an operator recursion two frames deep per step, one step per
# inversion of theta: the key expansion of x_400 (399 steps) takes about
# 2 s, and x_900 ran out of stack.  The bound does not bound the
# inversions: x_151*x_152 (300 steps) took 9.6 s and 1 GB, and x_399*x_400
# ends in a RecursionError.
MAX_EXPAND_VARIABLE = 400

# Largest variable ``expand --basis omega`` accepts.  The omega polynomial
# led by x_n has 2^n - 1 terms: the omega expansion of x_12 takes 1.4 s,
# x_13 3.7 s, x_14 7 s and x_16 41 s.  It does not bound the degree: x_2^1000
# takes 3.7 s and 455 MB, and x_2^3000 passed 2.9 GB.
MAX_OMEGA_EXPAND_VARIABLE = 12


def _cmd_expand(args) -> int:
    from . import bases

    try:
        with open(args.input) as fh:
            poly = Polynomial.from_json_obj(json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}")
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad polynomial file {args.input}: {exc}")
    bound = MAX_OMEGA_EXPAND_VARIABLE if args.basis == "omega" else MAX_EXPAND_VARIABLE
    if poly.max_variable() > bound:
        raise UsageError(
            f"the polynomial involves x{poly.max_variable()}, past the bound x{bound}"
        )
    if args.basis == "J":
        # each J element is a closure inside its exponent's skyline box
        rows = max((max(e, default=0) for e, _ in poly.terms), default=0)
        cols = poly.max_variable()
        if rows * cols > MAX_DIAGRAM_BOX:
            raise UsageError(
                f"a J element in a box of {rows} by {cols} is past the bound of "
                f"{MAX_DIAGRAM_BOX} cells"
            )
    try:
        coeffs = bases.expand_in_basis(poly, args.basis)
    except (bases.ExpansionCapError, diagrams.ClosureCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise UsageError(str(exc))
    print(json.dumps(bases.expansion_to_json_obj(coeffs)))
    return 0


def _cmd_verify(args) -> int:
    spec = harness.SWEEPS[args.family]
    bounds = {name: getattr(args, name) for name in _VERIFY_BOUNDS}
    cache_dir = args.cache
    if spec.closure and cache_dir is None:
        cache_dir = os.environ.get(harness.CACHE_ENV) or None
    try:
        report = harness.verify(
            args.family,
            jobs=args.jobs,
            cache_dir=cache_dir,
            cap=args.cap,
            **{k: v for k, v in bounds.items() if v is not None},
        )
    except harness.SweepInputError as exc:
        raise UsageError(str(exc))
    for case in report.cases:
        if case.status != "pass":
            print(f"{case.status.upper()}: {case.family} {case.param}")
    t = report.totals
    print(
        f"{report.config['family']}: {t['pass']} passed, {t['fail']} failed, "
        f"{t['skipped']} skipped (of {t['total']}) "
        f"in {report.meta['wall_time_s']}s"
    )
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.json_text())
        print(f"report written to {args.report}")
    return 1 if report.failed() else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kohnert",
        description="Exact key/Omega/Schubert/Grothendieck polynomial toolkit "
        "with diagram-move enumeration and verification sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print a basis polynomial")
    p.add_argument("basis", choices=["key", "omega", "schubert", "grothendieck"])
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--alpha", help="composition, e.g. 1,3,0,2,2,1")
    start.add_argument("--perm", help="permutation, e.g. 3142 or 3,1,4,2")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--beta", type=int, help="evaluate the b parameter")
    p.set_defaults(run=_cmd_poly)

    p = sub.add_parser("diagrams", help="enumerate move closures")
    p.add_argument("rule", choices=list(diagrams.RULES))
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--alpha", help="start from the skyline of this composition")
    start.add_argument("--perm", help="start from the Rothe diagram of this permutation")
    p.add_argument("--list", action="store_true", help="print every diagram")
    p.add_argument("--cap", type=int, default=diagrams.DEFAULT_CLOSURE_CAP)
    p.set_defaults(run=_cmd_diagrams)

    p = sub.add_parser("split", help="block-Schur expansion of a key polynomial")
    p.add_argument("--alpha", required=True)
    p.add_argument("--descents", help="block bounds, e.g. 2,5,6 (default: strict descents)")
    p.set_defaults(run=_cmd_split)

    p = sub.add_parser("egls", help="column-insert a reduced word")
    p.add_argument("--word", required=True, help="e.g. 431526456 or 4,3,1,5,2,6,4,5,6")
    p.add_argument("--marks", help="recording marks (default 1..m)")
    p.set_defaults(run=_cmd_egls)

    p = sub.add_parser("talpha", help="peeling tableau of a composition")
    p.add_argument("--alpha", required=True)
    p.set_defaults(run=_cmd_talpha)

    p = sub.add_parser("expand", help="expand a polynomial over a basis")
    p.add_argument("--basis", choices=["key", "J", "omega"], required=True)
    p.add_argument("--input", required=True, help="polynomial JSON file")
    p.set_defaults(run=_cmd_expand)

    p = sub.add_parser(
        "verify",
        help="run a verification sweep",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="families (default bounds):\n"
        + "\n".join(
            f"  {name} ({', '.join(f'{k}={v}' for k, v in spec.bounds.items())})"
            for name, spec in harness.SWEEPS.items()
        ),
    )
    p.add_argument("family", choices=list(harness.SWEEPS))
    for name in _VERIFY_BOUNDS:
        p.add_argument("--" + name.replace("_", "-"), type=int, dest=name)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument(
        "--cache",
        help=f"cache directory for closure sweeps (default ${harness.CACHE_ENV})",
    )
    p.add_argument(
        "--cap",
        type=int,
        help="largest closure a case may walk; the cap counts the closure the family "
        "walks, which is the plain one for kohnert and the ghost one for conj1 and "
        f"conj2 (default {diagrams.DEFAULT_CLOSURE_CAP})",
    )
    p.set_defaults(run=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
