"""Verification sweeps, JSON reports, and a persistent polynomial cache.

Each sweep runs a family of independent cases (one per composition or
permutation), comparing two routes to the same polynomial exactly.  A case
passes, fails with a minimal term diff, or is skipped when an enumeration
cap is hit; skipped cases are never counted as passes.  Case order and
report content are deterministic and independent of the worker count.
``SWEEPS`` is the one table of sweep families: each holds its default
bounds and its case families, and a case family gives the param string and
value of each case, the runner of a case and that runner's arguments.
``verify`` runs one sweep family.

Set the environment variable KOHNERT_FAULT_INJECT to "family:param" to
perturb one coefficient of the computed side in that case; the sweep must
then report exactly one failure (used by the self-test).
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
import time
from itertools import combinations
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, NamedTuple

# diagrams, bases and tableaux are imported by the runners that call them,
# so a sweep that reads every polynomial from the cache never loads them:
# the closure rows name their rules and cap through ``moves`` alone.
from . import __version__, moves, perms
from .perms import Composition, Permutation
from .poly import Polynomial, _of

FAULT_ENV = "KOHNERT_FAULT_INJECT"
CACHE_ENV = "KOHNERT_CACHE"

# The reports and cache values are encoded from objects the program has
# just built, which hold no cycle, so these encoders skip the check that
# ``json.dumps`` makes on every container; the bytes are those it writes.
_encode = json.JSONEncoder(check_circular=False).encode
_encode_sorted = json.JSONEncoder(check_circular=False, sort_keys=True).encode


class VerificationCase(NamedTuple):
    family: str
    param: str
    status: str  # pass | fail | skipped
    detail: dict | None = None

    def to_json_obj(self) -> dict:
        return self._asdict()


class SweepReport:
    """The cases of one sweep, their totals counted from the cases, and
    volatile ``meta`` (wall time, worker count)."""

    def __init__(self, config: dict, cases: list[VerificationCase], meta: dict | None = None):
        self.config = config
        self.cases = cases
        self.totals = {
            "pass": sum(1 for c in cases if c.status == "pass"),
            "fail": sum(1 for c in cases if c.status == "fail"),
            "skipped": sum(1 for c in cases if c.status == "skipped"),
            "total": len(cases),
        }
        self.meta = {} if meta is None else meta

    def failed(self) -> int:
        return self.totals["fail"]

    def to_json_obj(self) -> dict:
        return {
            "config": self.config,
            "cases": [c.to_json_obj() for c in self.cases],
            "totals": self.totals,
            "meta": self.meta,
        }

    def deterministic_json(self) -> str:
        """Report serialization excluding volatile metadata (wall time,
        worker count); identical across --jobs settings."""
        obj = self.to_json_obj()
        obj.pop("meta")
        return _encode_sorted(obj)

    def json_text(self) -> str:
        """The report as JSON text with one case per line; ``json.loads`` of
        it equals ``to_json_obj()``, key order included.  Each part is one
        ``_encode`` call, which reaches the C encoder: ``json.dump`` and any
        ``indent`` run the pure-Python one."""
        cases = ",\n".join([_encode(c.to_json_obj()) for c in self.cases])
        return (
            f'{{"config": {_encode(self.config)}, "cases": [\n{cases}\n], '
            f'"totals": {_encode(self.totals)}, "meta": {_encode(self.meta)}}}\n'
        )


def poly_diff(lhs: Polynomial, rhs: Polynomial) -> dict | None:
    """Minimal term diff, or None when equal.  Each entry is
    [exponents, coeff-on-lhs, coeff-on-rhs] for a differing exponent, each
    coeff the [b-degree, count] pairs of that exponent by ascending b-degree."""
    if lhs == rhs:
        return None
    # the exponents of the (exponent, b-degree, count) entries on one side only
    changed = sorted({e for (e, _), _ in lhs.terms.items() ^ rhs.terms.items()})
    # Only those exponents are grouped: each side's b-degrees are probed.
    sides = [(f.terms.get, sorted(set(map(itemgetter(1), f.terms)))) for f in (lhs, rhs)]
    diffs = []
    for e in changed:
        entry = [list(e)]
        for get, degrees in sides:
            entry.append([(d, c) for d in degrees if (c := get((e, d))) is not None])
        diffs.append(entry)
    return {"terms": diffs}


# ---------------------------------------------------------------------------
# persistent polynomial cache


def _flat_value(poly: Polynomial) -> list[list]:
    """The cache value of ``poly``: three parallel lists, its exponents,
    b-degrees and counts, in ``sorted(poly.terms)`` order."""
    terms = poly.terms
    keys = sorted(terms)
    return [
        list(map(itemgetter(0), keys)),
        list(map(itemgetter(1), keys)),
        list(map(terms.__getitem__, keys)),
    ]


def _from_flat_value(text: bytes) -> Polynomial:
    """Read the bytes of a ``_flat_value`` written by ``json.dumps``.  Raises
    ValueError unless they are three lists of equal length, of exponents
    (lists of ints, trimmed), b-degrees and nonzero counts (ints), with no
    negative exponent or b-degree and no (exponent, b-degree) key given
    twice.  The text is checked before it is decoded, with no Python step
    per number: it may hold only digits, brackets, commas and spaces, and a
    minus sign only in the counts, so every number is a non-negative int
    and only a count can be negative.  No list nests below an exponent, so
    the counts are the last ``[``, and the value, its three lists and each
    exponent hold one ``[`` each."""
    lists, _, counts_text = text.rpartition(b"[")
    if lists.translate(None, b"0123456789[], ") or counts_text.translate(None, b"0123456789], -"):
        raise ValueError("the value holds more than lists of ints, or a sign outside its counts")
    value = json.loads(text)
    if type(value) is not list or len(value) != 3 or set(map(type, value)) != {list}:
        raise ValueError("the value is not three lists")
    exps, degs, counts = value
    if not len(exps) == len(degs) == len(counts):
        raise ValueError("the value's lists differ in length")
    if set(map(type, exps)) - {list}:
        raise ValueError("an exponent is not a list")
    if text.count(b"[") != 4 + len(exps):
        raise ValueError("a list nests in the value below an exponent")
    if 0 in map(itemgetter(-1), filter(None, exps)):
        raise ValueError("an exponent ends in 0")
    if 0 in counts:
        raise ValueError("a zero count")
    terms = dict(zip(zip(map(tuple, exps), degs), counts))
    if len(terms) != len(counts):
        raise ValueError("an (exponent, b-degree) key is given twice")
    return _of(terms)


class PolynomialCache:
    """Content-addressed store of computed polynomials.

    Keys are (family tag, canonical parameter, code version); values are the
    polynomial in the flat layout ``[exponents, b_degrees, counts]`` of
    ``_flat_value`` plus the SHA-256 of its bytes.  The entries of one family
    tag and version share an append-only log, whose name hashes both and
    ``_FORMAT``, so a file of another layout is never opened.  An entry is
    one line, the JSON object ``{"family", "param", "version",
    "value_sha256", "value"}`` with the value last, the bytes one
    ``json.dumps`` of it writes, appended between two newlines in one
    ``O_APPEND`` write, so a record appended after a torn tail starts a
    line of its own.
    The object reads each log once, on its first use of that family, and
    indexes where each param's line sits (offset and length, not its bytes):
    the last line whose key fields name a param wins, a line whose key
    fields do not parse is reported, and a line ``put`` appends joins the
    index.  A line whose key fields are the bytes ``_head`` builds names its
    param between them and is not parsed; any other line's key fields are
    parsed as JSON.  A hit reads its line's bytes alone, splits them at the
    last ``, "value": `` (JSON escapes every quote inside a string, so no
    string can hold that text) and checks, in order: that the key fields
    are byte for byte those ``put`` writes for this family, param, version
    and the SHA-256 of the value bytes, and the value's bytes and shape
    (``_from_flat_value``).  An entry that fails any check, a line
    reformatted by hand or a log removed since its scan included, is
    dropped with a warning, recomputed and appended again.  ``hits`` and
    ``misses`` count the reads of this object, and ``lines`` the log lines
    its scans read.
    """

    # The layout of the cache files, hashed into every log's name.
    _FORMAT = "log1"
    # What separates the key fields from the value in a written line.
    _VALUE_FIELD = b', "value": '

    def __init__(self, directory: str, version: str = __version__):
        self.directory = directory
        self.version = version
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.lines = 0
        # family tag -> (its log, {param: (offset, length) of its line})
        self._logs: dict[str, tuple[str, dict[str, tuple[int, int]]]] = {}

    def _path(self, family: str, param: str | None = None) -> str:
        """The log that holds the entry of (family, param): every param of
        a family tag shares it."""
        import hashlib  # only the cache hashes; a sweep without one never loads it

        digest = hashlib.sha256(
            f"{family}|{self.version}|{self._FORMAT}".encode()
        ).hexdigest()
        return os.path.join(self.directory, digest + ".log")

    def _head(self, family: str, param: str, value_sha256: str) -> bytes:
        """The key fields of an entry as ``put`` writes them: ``json.dumps``
        of ``{"family", "param", "version", "value_sha256"}`` without its
        closing brace.  Each string is written by the function ``json.dumps``
        calls for a str, without its dispatch on the type."""
        q = encode_basestring_ascii
        return (
            f'{{"family": {q(family)}, "param": {q(param)}, '
            f'"version": {q(self.version)}, "value_sha256": {q(value_sha256)}'
        ).encode()

    def _log(self, family: str) -> tuple[str, dict[str, tuple[int, int]]]:
        """``family``'s log and where each param's line sits in it, read on
        first use one line at a time: only positions are kept."""
        log = self._logs.get(family)
        if log is None:
            path = self._path(family)
            log = self._logs[family] = (path, {})
            try:
                # Read in 64 KB pieces: with lines of a few KB, 8 KB ones
                # take eight times the reads, and a quarter of the lines
                # straddle two pieces and are joined the slow way.
                fh = open(path, "rb", buffering=1 << 16)
            except FileNotFoundError:
                return log
            with fh:
                end = 0
                for line in fh:
                    start, end = end, end + len(line)
                    length = len(line) - line.endswith(b"\n")
                    if not length:
                        continue
                    self.lines += 1
                    head = line.partition(self._VALUE_FIELD)[0]
                    try:
                        # The param of a line put wrote ends at its first
                        # quote; a line the slice does not rebuild is parsed.
                        param = head.partition(b'"param": "')[2].partition(b'"')[0].decode()
                        if head != self._head(family, param, head[-65:-1].decode()):
                            param = json.loads(head + b"}")["param"]
                        log[1][param] = (start, length)
                    except (ValueError, KeyError, TypeError, RecursionError) as exc:
                        # no later line can replace it, so each read reports it
                        print(
                            f"warning: dropping corrupt cache entry for {family} at "
                            f"byte {start} of {path} ({exc})",
                            file=sys.stderr,
                        )
        return log

    def get(self, family: str, param: str) -> Polynomial | None:
        import hashlib

        path, index = self._log(family)
        if param not in index:
            self.misses += 1
            return None
        offset, length = index[param]
        try:
            # a log removed since its scan is read as a failed check
            fd = os.open(path, os.O_RDONLY)
            try:
                data = os.pread(fd, length, offset)
            finally:
                os.close(fd)
            head, found, tail = data.rpartition(self._VALUE_FIELD)
            if not found or not tail.endswith(b"}"):
                raise ValueError("no value field at the end")
            value = tail[:-1]
            expected = self._head(family, param, hashlib.sha256(value).hexdigest())
            if head != expected:
                # up to the hash's 64 digits and closing quote, the key fields match
                same_key = head[:-65] == expected[:-65]
                raise ValueError("content hash mismatch" if same_key else "key mismatch")
            poly = _from_flat_value(value)
        except (OSError, ValueError, RecursionError) as exc:  # JSON nested too deep to decode
            print(
                f"warning: dropping corrupt cache entry for {family}:{param} ({exc})",
                file=sys.stderr,
            )
            self.misses += 1
            return None
        self.hits += 1
        return poly

    def put(self, family: str, param: str, poly: Polynomial) -> None:
        import hashlib

        value = _encode(_flat_value(poly)).encode()
        # json.dumps of the whole entry, value last, with the value encoded once
        line = (
            self._head(family, param, hashlib.sha256(value).hexdigest())
            + self._VALUE_FIELD
            + value
            + b"}"
        )
        path, index = self._log(family)
        # Mode "ab" opens with O_APPEND, and the buffered file hands the
        # whole record to one write, after which the file's offset is the
        # record's end whatever other writers appended.
        with open(path, "ab") as fh:
            fh.write(b"\n" + line + b"\n")
            fh.flush()
            end = fh.tell()
        index[param] = (end - 1 - len(line), len(line))


def _cached(
    cache: PolynomialCache | None, family: str, param: str, compute: Callable[[], Polynomial]
) -> Polynomial:
    """``compute()`` read through ``cache``, if there is one: an entry that
    is found is returned, and a miss is computed and written."""
    if cache is None:
        return compute()
    poly = cache.get(family, param)
    if poly is None:
        poly = compute()
        cache.put(family, param, poly)
    return poly


# ---------------------------------------------------------------------------
# case execution (module level so worker processes can run them)


def _fault_injected(family: str, param: str) -> bool:
    """Whether KOHNERT_FAULT_INJECT names this case."""
    return os.environ.get(FAULT_ENV) == f"{family}:{param}"


def _compare_case(
    family: str, param: str, lhs: Polynomial, rhs: Polynomial
) -> VerificationCase:
    if _fault_injected(family, param):
        lhs = lhs + Polynomial.monomial((1,))
    if lhs == rhs:
        return VerificationCase(family, param, "pass")
    # A detail holds a few containers per term, and the collections they
    # would trigger walk the whole heap while freeing none of them.
    enabled = gc.isenabled()
    gc.disable()
    try:
        detail = {"lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj(), "diff": poly_diff(lhs, rhs)}
    finally:
        if enabled:
            gc.enable()
    return VerificationCase(family, param, "fail", detail)


def _skip(family: str, param: str, exc: Exception) -> VerificationCase:
    return VerificationCase(family, param, "skipped", {"reason": str(exc)})


class ClosureRow(NamedTuple):
    """The two sides of a closure case family.  The closure of the start
    diagram under ``rule``, summed at b = -1, must equal the operator
    polynomial; a rule without ghosts walks a b-free closure, J or K at
    b = 0, which b = -1 leaves unchanged.  Each side is cached under its
    tag."""

    diagram_tag: str
    start: str  # a function in ``diagrams``
    rule: moves.MoveRule
    operator_tag: str
    operator: str  # a function in ``bases``


def _run_closure_case(
    family: str, param: str, arg: tuple, cfg: dict, row: ClosureRow
) -> VerificationCase:
    cap, cache = cfg["cap"], cfg["cache"]

    def walk() -> Polynomial:
        from . import diagrams  # only a cache miss walks

        return diagrams.closure_polynomial(getattr(diagrams, row.start)(arg), row.rule, cap)

    try:
        lhs = _cached(cache, row.diagram_tag, param, walk)
    except moves.ClosureCapError as exc:
        return _skip(family, param, exc)
    # Each diagram of the closure adds 1 to one coefficient, so a polynomial
    # read from the cache is over the cap when its coefficients sum past it.
    # It is skipped with the walk's own message, which the walk raises at
    # its (cap + 1)-st diagram: a capped sweep skips the same cases with a
    # cache or without.
    if sum(lhs.terms.values()) > cap:
        return _skip(family, param, moves.ClosureCapError(cap, cap))

    def operator() -> Polynomial:
        from . import bases  # only a cache miss computes

        return getattr(bases, row.operator)(arg)

    rhs = _cached(cache, row.operator_tag, param, operator)
    if row.rule.ghosts:
        lhs = lhs.substitute_beta(-1)
    return _compare_case(family, param, lhs, rhs)


def _run_pair_case(
    family: str, param: str, arg: tuple, cfg: dict, enumerated: str, operator: str
) -> VerificationCase:
    """The enumerative generating function against the operator polynomial
    it must equal, both named in ``bases``; neither is cached."""
    from . import bases

    try:
        lhs = getattr(bases, enumerated)(arg)
    except perms.BoundExceededError as exc:
        return _skip(family, param, exc)
    return _compare_case(family, param, lhs, getattr(bases, operator)(arg))


def _run_theorem1_case(family: str, param: str, alpha: Composition, cfg: dict) -> VerificationCase:
    from . import bases

    d = bases.minimal_blocks(alpha)
    try:
        # The compatible-pair route enumerates the reduced words of the
        # coded permutation, whose length is |alpha|, and refuses past the
        # bound.  The tableau-tuple route alone has no length bound, so the
        # case is refused with that error before any route runs.
        perms.check_word_length(sum(alpha))
        extracted = bases.split_extract(bases.key_polynomial(alpha), d)
        counted = {k: v[0] for k, v in bases.key_split_expansion(alpha, d).items()}
        via_pairs = bases.key_split_expansion_via_pairs(alpha, d)
    except perms.BoundExceededError as exc:
        return _skip(family, param, exc)
    if _fault_injected(family, param) and extracted:
        first = min(extracted)
        extracted = {**extracted, first: extracted[first] + 1}
    negatives = {k: v for k, v in extracted.items() if v < 0}
    if extracted == counted == via_pairs and not negatives:
        return VerificationCase(family, param, "pass")
    return VerificationCase(
        family,
        param,
        "fail",
        {
            "blocks": list(d),
            "extracted": bases.split_expansion_to_json_obj(extracted),
            "tableau_tuples": bases.split_expansion_to_json_obj(counted),
            "split_pairs": bases.split_expansion_to_json_obj(via_pairs),
            "negative": bases.split_expansion_to_json_obj(negatives),
        },
    )


def _run_talpha_case(family: str, param: str, alpha: Composition, cfg: dict) -> VerificationCase:
    from . import tableaux

    t = tableaux.peeling_tableau(alpha)
    w = perms.perm_from_code(alpha)
    word = tableaux.row_word(t)
    problems = []
    if tuple(sorted(t.shape(), reverse=True)) != perms.sort_decreasing(alpha):
        problems.append("shape is not the sorted composition")
    if not (perms.is_reduced(word) and perms.word_to_perm(word) == w):
        problems.append("reading word is not reduced for the coded permutation")
    elif tableaux.reduced_insertion_tableau(word) != t:
        problems.append("not fixed by reinsertion of its reading word")
    if tableaux.content(tableaux.nil_left_key(t)) != alpha:
        problems.append("nil left key content differs from the composition")
    if _fault_injected(family, param):
        problems.append("injected fault")
    if not problems:
        return VerificationCase(family, param, "pass")
    return VerificationCase(
        family, param, "fail", {"problems": problems, "tableau": t.to_json_obj()}
    )


def compositions_upto(max_weight: int, max_parts: int) -> list[Composition]:
    """Canonical compositions of weight <= max_weight with <= max_parts
    parts, in graded order (weight, part count, entries).  By stars and
    bars, the compositions of ``total`` into ``n`` parts ending in a non-zero
    part are the choices of n - 1 bars among the first total + n - 2 of
    total + n - 1 slots, in the same lexicographic order.

    >>> compositions_upto(2, 2)
    [(), (1,), (0, 1), (2,), (0, 2), (1, 1)]
    """
    found = [()] if max_weight >= 0 else []
    # with no parts there is no composition of positive weight to look for
    for total in range(1, max_weight + 1 if max_parts else 1):
        for n in range(1, max_parts + 1):
            slots = total + n - 1
            found += (
                tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
                for bars in combinations(range(slots - 1), n - 1)
            )
    return found


def _compositions(bounds: dict) -> list[tuple[str, Composition]]:
    """(param, composition) for each composition within the bounds."""
    return [
        (perms.format_composition(a), a)
        for a in compositions_upto(bounds["max_weight"], bounds["max_parts"])
    ]


def _permutations(bounds: dict) -> list[tuple[str, Permutation]]:
    """(param, permutation) for each element of S_n, shorter params first."""
    return sorted(
        ((perms.format_permutation(w), w) for w in perms.all_permutations(bounds["n"])),
        key=lambda case: (len(case[0]), case[0]),
    )


class CaseFamily(NamedTuple):
    """A family of cases: ``params(bounds)`` gives the (param, value) pair of
    each case, and ``runner(family, param, value, cfg, *args)`` runs one."""

    params: Callable[[dict], list[tuple[str, tuple]]]
    runner: Callable[..., VerificationCase]
    args: tuple = ()


# _permutations holds and sorts all n! permutations in memory: 8! = 40320.
MAX_N = 8
# No case list may be longer than the longest permutation list.
MAX_CASES = math.factorial(MAX_N)


def _composition_count(max_weight: int, max_parts: int) -> int:
    """len(compositions_upto(max_weight, max_parts)), which is
    C(max_weight + max_parts, max_parts), or MAX_CASES + 1 once it passes
    MAX_CASES.  The product runs over the smaller bound and at least doubles
    each step, so it stops after a few steps and builds no huge integer."""
    small, large = sorted((max_weight, max_parts))
    count = 1
    for k in range(1, small + 1):
        count = count * (large + k) // k
        if count > MAX_CASES:
            return MAX_CASES + 1
    return count


class SweepFamily(NamedTuple):
    """One ``kohnert verify`` family: its case families by name, and the
    bound names their parameter functions read, with defaults."""

    cases: dict[str, CaseFamily]
    bounds: dict[str, int]

    @property
    def closure(self) -> bool:
        """Whether the cases build diagram closures, which alone take a
        closure cap and a polynomial cache."""
        return any(case.runner is _run_closure_case for case in self.cases.values())


# Functions are looked up by name when a case runs, so a wrapper installed
# on the module after import is the one called.
SWEEPS = {
    # the skyline ghost closure at b = -1 against the omega polynomial
    "conj1": SweepFamily(
        {"conj1": CaseFamily(_compositions, _run_closure_case, (
            ClosureRow("J", "skyline", moves.K_KOHNERT, "omega", "omega_polynomial"),))},
        {"max_weight": 7, "max_parts": 4}),
    # the Rothe ghost closure at b = -1 against the Grothendieck polynomial
    "conj2": SweepFamily(
        {"conj2": CaseFamily(_permutations, _run_closure_case, (
            ClosureRow("K", "rothe", moves.K_KOHNERT, "grothendieck", "grothendieck"),))},
        {"n": 5}),
    # plain Kohnert closures of skylines and Rothe diagrams against key and
    # Schubert polynomials
    "kohnert": SweepFamily(
        {
            "kohnert_key": CaseFamily(_compositions, _run_closure_case, (
                ClosureRow("J0", "skyline", moves.KOHNERT, "key", "key_polynomial"),)),
            "kohnert_schubert": CaseFamily(_permutations, _run_closure_case, (
                ClosureRow("K0", "rothe", moves.KOHNERT, "schubert", "schubert"),)),
        },
        {"max_weight": 7, "max_parts": 4, "n": 5}),
    # three routes to the key splitting coefficients agree, all non-negative
    "theorem1": SweepFamily(
        {"theorem1": CaseFamily(_compositions, _run_theorem1_case)},
        {"max_weight": 6, "max_parts": 4}),
    # the compatible-pair generating function against the Schubert polynomial
    "bjs": SweepFamily(
        {"bjs": CaseFamily(
            _permutations, _run_pair_case, ("schubert_from_compatible_pairs", "schubert"))},
        {"n": 5}),
    # the insertion-fiber formula against the key polynomial
    "theorem4": SweepFamily(
        {"theorem4": CaseFamily(
            _compositions, _run_pair_case, ("key_by_insertion_fiber", "key_polynomial"))},
        {"max_weight": 6, "max_parts": 4}),
    # shape, reading word, reinsertion and nil left key of the peeling tableau
    "talpha_props": SweepFamily(
        {"talpha_props": CaseFamily(_compositions, _run_talpha_case)},
        {"max_weight": 7, "max_parts": 4}),
}

# Every case family by name, for a worker that gets the name with its task.
_CASES = {name: case for spec in SWEEPS.values() for name, case in spec.cases.items()}


def _run_case(task: tuple) -> VerificationCase:
    family, param, value, cfg = task
    case = _CASES[family]
    return case.runner(family, param, value, cfg, *case.args)


# ---------------------------------------------------------------------------
# sweep drivers


class SweepInputError(ValueError):
    """A sweep was asked for with settings it cannot run; raised before any
    case runs."""


def _checked_config(
    family: str,
    jobs: int = 1,
    cache_dir: str | None = None,
    cap: int | None = None,
    **bounds: int,
) -> dict:
    """The report config of a sweep, with defaults filled in, after checking
    every setting; a cache directory is created if it is missing.  Raises
    SweepInputError; runs no case."""
    spec = SWEEPS.get(family)
    if spec is None:
        raise SweepInputError(f"unknown sweep family {family!r}")
    unknown = sorted(set(bounds) - set(spec.bounds))
    if not spec.closure:
        settings = {"cap": cap, "cache": cache_dir}
        unknown += [name for name, value in settings.items() if value is not None]
    if unknown:
        raise SweepInputError(f"{family} does not take {', '.join(unknown)}")
    if jobs < 1:
        raise SweepInputError(f"jobs must be at least 1, got {jobs}")
    if cap is not None and cap < 1:
        raise SweepInputError(f"cap must be at least 1, got {cap}")
    bounds = {**spec.bounds, **bounds}
    for name, value in bounds.items():
        if value < 0:
            raise SweepInputError(f"{name} must not be negative, got {value}")
    # n <= MAX_N keeps the n! permutation cases within MAX_CASES.
    if bounds.get("n", 0) > MAX_N:
        raise SweepInputError(f"n must be at most {MAX_N}, got {bounds['n']}")
    if "max_weight" in bounds:
        weight, parts = bounds["max_weight"], bounds["max_parts"]
        if _composition_count(weight, parts) > MAX_CASES:
            raise SweepInputError(
                f"weight <= {weight} in <= {parts} parts gives more than {MAX_CASES} cases"
            )
    if cache_dir is not None:
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            raise SweepInputError(f"cannot use {cache_dir!r} as a cache directory: {exc.strerror}")
    config = {"family": family, **bounds}
    if spec.closure:
        config["cap"] = moves.DEFAULT_CLOSURE_CAP if cap is None else cap
    config["version"] = __version__
    return config


def clamp_jobs(jobs: int, cases: int, cpus: int) -> int:
    """Worker processes worth starting: no more than the CPUs or the cases,
    and at least one."""
    return max(1, min(jobs, cpus, cases))


# The cache of a worker process, set by ``_start_worker`` when the pool
# starts the process, with the index of every log the sweep reads.
_worker_cache: PolynomialCache | None = None


def _start_worker(cache: PolynomialCache | None) -> None:
    global _worker_cache
    _worker_cache = cache


# What a cache counts, each summed over a sweep's worker processes.
_CACHE_COUNTS = ("hits", "misses", "lines")


def _run_counted(task: tuple) -> tuple[VerificationCase, tuple[int, ...]]:
    """Run one case in a worker process through the worker's own cache,
    with the cache hits, misses and scanned log lines it added, which the
    sweep's cache object never sees."""
    cache = _worker_cache
    if cache is None:
        return _run_case(task), (0,) * len(_CACHE_COUNTS)
    family, param, value, cfg = task
    before = [getattr(cache, name) for name in _CACHE_COUNTS]
    case = _run_case((family, param, value, {**cfg, "cache": cache}))
    return case, tuple(getattr(cache, name) - n for name, n in zip(_CACHE_COUNTS, before))


def _execute(tasks: list[tuple], workers: int) -> list[VerificationCase]:
    """The cases of ``tasks`` in order.  The cache the tasks share counts
    every read, those made in worker processes included."""
    if workers <= 1:
        return [_run_case(t) for t in tasks]
    # Imported here: a one-worker sweep would pay ~25 ms of start-up for it.
    from concurrent.futures import ProcessPoolExecutor

    # Each worker gets the cache once, when it starts, and no task holds it.
    # The logs of the sweep's closure rows are scanned here first, so every
    # worker starts with their index and none scans them again.
    cache = tasks[0][3]["cache"]
    if cache is not None:
        for name in dict.fromkeys(family for family, *_ in tasks):
            for row in _CASES[name].args:
                cache._log(row.diagram_tag)
                cache._log(row.operator_tag)
    cfg = {**tasks[0][3], "cache": None}
    sent = [(family, param, value, cfg) for family, param, value, _ in tasks]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_start_worker, initargs=(cache,)
    ) as pool:
        counted = list(pool.map(_run_counted, sent, chunksize=1))
    if cache is not None:
        for name, added in zip(_CACHE_COUNTS, zip(*(counts for _, counts in counted))):
            setattr(cache, name, getattr(cache, name) + sum(added))
    return [case for case, _ in counted]


def verify(
    family: str,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    cap: int | None = None,
    **bounds: int,
) -> SweepReport:
    """Run one sweep family of ``SWEEPS`` over the cases within its bounds
    (defaults from the registry).  Every setting is checked before any case
    runs; ``cap`` and ``cache_dir`` apply only to closure sweeps."""
    config = _checked_config(family, jobs, cache_dir, cap, **bounds)
    # One cache object per sweep; each worker process gets a copy when it starts.
    cache = None if cache_dir is None else PolynomialCache(cache_dir)
    cfg = {"cap": config.get("cap"), "cache": cache}
    tasks = [
        (name, param, value, cfg)
        for name, case in SWEEPS[family].cases.items()
        for param, value in case.params(config)
    ]
    workers = clamp_jobs(jobs, len(tasks), os.cpu_count() or 1)
    started = time.time()
    cases = _execute(tasks, workers)
    meta = {
        "jobs": jobs,
        "workers": workers,
        "wall_time_s": round(time.time() - started, 3),
        "cache_dir": cache_dir,
    }
    if cache is not None:
        meta["cache"] = {name: getattr(cache, name) for name in _CACHE_COUNTS}
    return SweepReport(config, cases, meta=meta)
