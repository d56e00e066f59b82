"""Command-line interface.

Subcommands: poly, diagrams, split, egls, talpha, expand, verify.  Exit
codes: 0 on success; 1 when a verification case fails, when the closure cap
stops the walk of ``diagrams`` or of a J element of ``expand --basis J``,
and when the two routes of ``split`` disagree; 2 on usage errors.

Huge input is refused with exit 2 before it uses up time or memory.  The
``MAX_*`` constants bound input sizes and exact counts taken before any
work (a start diagram's box, a Coxeter-Knuth class's words).  The operator
steps, peel scans and subtractions and Schur enumerations of ``poly``,
``split`` and ``expand`` charge one ``perms.WorkBudget`` of ``WORK_BUDGET``
units per command before they build, and the first charge past it is the
refusal.  Sweeps pass no budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# diagrams, bases and tableaux are imported by the commands that call them,
# so a verify that reads every polynomial from the cache never loads them:
# the parser reads the move rules and the closure cap from ``moves``.
from . import __version__, harness, moves, perms
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


# The work one ``poly``, ``split`` or ``expand`` command may do, in units of
# ``perms.WorkBudget``: a key of n exponent entries costs n + 28.  A unit
# took 13-62 ns in-process (2-CPU box, Python 3.11), so a refusal comes
# within about 2.5 s of CPU: 399 zeros before a 1 (24 million units)
# splits in 1.3-1.8 s as a command, while 10 zeros before nine 1s stops at
# the budget after 2.0-2.3 s.
WORK_BUDGET = 40_000_000


def _cmd_poly(args) -> int:
    from . import bases

    work = perms.WorkBudget(WORK_BUDGET)
    if args.basis in ("key", "omega"):
        if args.alpha is None:
            raise UsageError(f"--alpha is required for {args.basis}")
        alpha = _parsed(perms.parse_composition, args.alpha)
        build = bases.key_polynomial if args.basis == "key" else bases.omega_polynomial
        poly = build(alpha, work)
    else:
        if args.perm is None:
            raise UsageError(f"--perm is required for {args.basis}")
        w = _parsed(perms.parse_permutation, args.perm)
        build = bases.schubert if args.basis == "schubert" else bases.grothendieck
        poly = build(w, work=work)
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


def _check_box(what: str, rows: int, cols: int) -> None:
    """Refuse ``what`` in a box of rows by cols past ``MAX_DIAGRAM_BOX``."""
    if rows * cols > MAX_DIAGRAM_BOX:
        raise UsageError(
            f"{what} in a box of {rows} by {cols} is past the bound of "
            f"{MAX_DIAGRAM_BOX} cells"
        )


def _cmd_diagrams(args) -> int:
    from . import diagrams

    if args.cap < 1:
        raise UsageError(f"cap must be at least 1, got {args.cap}")
    if args.alpha is not None:
        alpha = _parsed(perms.parse_composition, args.alpha)
        cols = len(alpha)
        rows = max(alpha, default=0)
    else:
        w = _parsed(perms.parse_permutation, args.perm)
        cols = rows = len(w)
    _check_box("a start diagram", rows, cols)
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
# in under a second.  Each block lists its variables, so the parts bound
# bounds every block bound of --descents too.  The rest of the work is
# bounded by ``WORK_BUDGET``.
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


def _cmd_split(args) -> int:
    from . import bases, tableaux

    alpha = _bounded_alpha(args.alpha, MAX_SPLIT_WEIGHT, MAX_SPLIT_PARTS)
    words = tableaux.standard_tableaux_count(perms.sort_decreasing(alpha))
    if words > MAX_SPLIT_WORDS:
        raise UsageError(
            f"the Coxeter-Knuth class of {perms.format_composition(alpha)} has "
            f"{words} reduced words, past the bound {MAX_SPLIT_WORDS}"
        )
    if args.descents is not None:
        try:
            d = tuple(int(p) for p in args.descents.split(","))
        except ValueError:
            raise UsageError(f"bad descent list {args.descents!r}")
        # the strict descents of alpha never pass len(alpha), itself at most
        # MAX_SPLIT_PARTS, while each block lists its variables
        if max(d) > MAX_SPLIT_PARTS:
            raise UsageError(f"block bound {max(d)} is past the bound {MAX_SPLIT_PARTS}")
        d = _parsed(lambda bounds: perms.check_block_bounds(bounds, alpha=alpha), d)
    else:
        d = bases.minimal_blocks(alpha)
    # the key polynomial is charged first, so that a refusal comes before
    # the Coxeter-Knuth class is walked
    work = perms.WorkBudget(WORK_BUDGET)
    key = bases.key_polynomial(alpha, work)
    expansion = bases.key_split_expansion(alpha, d)
    extracted = bases.split_extract(key, d, work)
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
            letters = [int(p) for p in t.replace(",", " ").split()]
            if letters:  # separators alone are refused, as '' is
                return letters
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
    marks = None if args.marks is None else _parse_letters(args.marks, "marks")
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


# Largest variable ``expand`` accepts.  A J element is a ghost closure,
# which the closure cap bounds: the J expansions of x_101 and of
# x_399*x_400 stop at the cap after 0.8 s and 1.7 s (331 MB).  The rest of
# the work, the peel's scans and subtractions and the operator steps of the
# key and omega elements, is bounded by ``WORK_BUDGET`` alone.
MAX_EXPAND_VARIABLE = 400

# Largest input file ``expand`` reads, checked by its size before it is
# decoded: a file is read whole before any other bound applies.  As a read
# in one process (2-CPU box, Python 3.11), files of 4 MB took 0.3-0.4 s at
# 37 MB (3 456 terms of up to 400 entries), 0.6 s at 110 MB (105 413 terms
# x1^k) and 0.6-0.7 s at 133 MB (one exponent with 1.15 million
# b-degrees); a 15 MB file of 15 149 long terms took 1.3 s and 104 MB, and
# 15 MB of one-entry terms 2.4 s and 372 MB.
MAX_EXPAND_BYTES = 4_000_000


def _cmd_expand(args) -> int:
    from . import bases

    try:
        with open(args.input) as fh:
            size = os.fstat(fh.fileno()).st_size
            if size > MAX_EXPAND_BYTES:
                raise UsageError(
                    f"{args.input} holds {size} bytes, past the bound of "
                    f"{MAX_EXPAND_BYTES} bytes"
                )
            poly = Polynomial.from_json_obj(json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}")
    except (ValueError, KeyError, RecursionError) as exc:  # JSON nested too deep to decode
        raise UsageError(f"bad polynomial file {args.input}: {exc}")
    if poly.max_variable() > MAX_EXPAND_VARIABLE:
        raise UsageError(
            f"the polynomial involves x{poly.max_variable()}, past the bound "
            f"x{MAX_EXPAND_VARIABLE}"
        )
    if args.basis == "J":
        # each J element is a closure inside its exponent's skyline box
        rows = max((max(e, default=0) for e, _ in poly.terms), default=0)
        _check_box("a J element", rows, poly.max_variable())
    try:
        coeffs = bases.expand_in_basis(poly, args.basis, work=perms.WorkBudget(WORK_BUDGET))
    except moves.ClosureCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise UsageError(str(exc))
    print(json.dumps(bases.expansion_to_json_obj(coeffs)))
    return 0


def _cmd_verify(args) -> int:
    if args.report == "":
        raise UsageError("bad report path ''")
    if args.report is not None:
        # a path that cannot be written is refused before the sweep runs:
        # opening to append changes no file, and a file it made is removed
        made = not os.path.lexists(args.report)
        try:
            open(args.report, "a").close()
        except OSError as exc:
            raise UsageError(f"cannot write report {args.report}: {exc.strerror}")
        if made:
            os.remove(args.report)
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
    if args.report is not None:
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
    p.add_argument("rule", choices=list(moves.RULES))
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--alpha", help="start from the skyline of this composition")
    start.add_argument("--perm", help="start from the Rothe diagram of this permutation")
    p.add_argument("--list", action="store_true", help="print every diagram")
    p.add_argument("--cap", type=int, default=moves.DEFAULT_CLOSURE_CAP)
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
        f"conj2 (default {moves.DEFAULT_CLOSURE_CAP})",
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
    except (UsageError, perms.BoundExceededError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
