"""Verification sweeps, JSON reports, and a persistent polynomial cache.

Each sweep runs a family of independent cases (one per composition or
permutation), comparing two routes to the same polynomial exactly.  A case
passes, fails with a minimal term diff, or is skipped when an enumeration
cap is hit; skipped cases are never counted as passes.  Case order and
report content are deterministic and independent of the worker count.
``SWEEPS`` lists the sweep families; ``verify`` runs one.

Set the environment variable KOHNERT_FAULT_INJECT to "family:param" to
perturb one coefficient of the computed side in that case; the sweep must
then report exactly one failure (used by the self-test).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from itertools import chain, combinations
from operator import itemgetter
from typing import Callable, NamedTuple

# bases and tableaux are imported by the runners that call them, so a sweep
# that reads every polynomial from the cache never loads them.
from . import __version__, diagrams, perms
from .perms import Composition
from .poly import Polynomial, _of

FAULT_ENV = "KOHNERT_FAULT_INJECT"
CACHE_ENV = "KOHNERT_CACHE"


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
        return json.dumps(obj, sort_keys=True)

    def json_text(self) -> str:
        """The report as JSON text with one case per line; ``json.loads`` of
        it equals ``to_json_obj()``, key order included.  It is built from
        ``json.dumps`` calls alone, which reach the C encoder: ``json.dump``
        and any ``indent`` run the pure-Python one."""
        dumps = json.dumps
        cases = ",\n".join(dumps(c.to_json_obj()) for c in self.cases)
        return (
            f'{{"config": {dumps(self.config)}, "cases": [\n{cases}\n], '
            f'"totals": {dumps(self.totals)}, "meta": {dumps(self.meta)}}}\n'
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


def _from_flat_value(value) -> Polynomial:
    """Read ``_flat_value`` output decoded from JSON.  Raises ValueError
    unless it is three lists of equal length, of exponents (lists of ints,
    trimmed), b-degrees and nonzero counts (ints), with no negative exponent
    or b-degree and no (exponent, b-degree) key given twice.  Each check is
    one pass in C over the value, with no Python step per term; ``type`` is
    compared exactly, so a bool or a float is not an int."""
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


class PolynomialCache:
    """Content-addressed store of computed polynomials.

    Keys are (family tag, canonical parameter, code version); values are the
    polynomial in the flat layout ``[exponents, b_degrees, counts]`` of
    ``_flat_value`` plus the SHA-256 of its bytes.  A file is the JSON object
    ``{"family", "param", "version", "value_sha256", "value"}`` with the value
    last, written by one ``json.dumps``, and its name hashes the key and
    ``_FORMAT``, so an entry of another layout is never opened: it is a miss,
    recomputed and written once under the new name.  A read splits the file
    at its last ``, "value": `` (JSON escapes every quote inside a string, so
    no string can hold that text) and checks, in order: the key fields, the
    SHA-256 of the exact value bytes it then decodes, and the value's shape
    (``_from_flat_value``).  An entry that fails any check, a file
    reformatted by hand included, is dropped with a warning and recomputed.
    ``hits`` and ``misses`` count the reads of this object.
    """

    # The value layout, hashed into every file name.
    _FORMAT = "flat1"
    # What separates the key fields from the value in a written file.
    _VALUE_FIELD = b', "value": '

    def __init__(self, directory: str, version: str = __version__):
        self.directory = directory
        self.version = version
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, family: str, param: str) -> str:
        import hashlib  # only the cache hashes; a sweep without one never loads it

        digest = hashlib.sha256(
            f"{family}|{param}|{self.version}|{self._FORMAT}".encode()
        ).hexdigest()
        return os.path.join(self.directory, digest + ".json")

    def get(self, family: str, param: str) -> Polynomial | None:
        import hashlib

        path = self._path(family, param)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            head, found, tail = data.rpartition(self._VALUE_FIELD)
            if not found or not tail.endswith(b"}"):
                raise ValueError("no value field at the end")
            key = json.loads(head + b"}")
            if (key["family"], key["param"], key["version"]) != (
                family,
                param,
                self.version,
            ):
                raise ValueError("key mismatch")
            value = tail[:-1]
            if hashlib.sha256(value).hexdigest() != key["value_sha256"]:
                raise ValueError("content hash mismatch")
            poly = _from_flat_value(json.loads(value))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError) as exc:
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

        value = json.dumps(_flat_value(poly)).encode()
        key = json.dumps(
            {
                "family": family,
                "param": param,
                "version": self.version,
                "value_sha256": hashlib.sha256(value).hexdigest(),
            }
        )
        # json.dumps of the whole entry, value last, with the value encoded once
        data = key[:-1].encode() + self._VALUE_FIELD + value + b"}"
        path = self._path(family, param)
        import tempfile  # only a cache write needs it

        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get_or_compute(
        self, family: str, param: str, compute: Callable[[], Polynomial]
    ) -> Polynomial:
        cached = self.get(family, param)
        if cached is not None:
            return cached
        poly = compute()
        self.put(family, param, poly)
        return poly


def _cached(
    cache: PolynomialCache | None, family: str, param: str, compute: Callable[[], Polynomial]
) -> Polynomial:
    if cache is None:
        return compute()
    return cache.get_or_compute(family, param, compute)


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
    return VerificationCase(
        family,
        param,
        "fail",
        {
            "lhs": lhs.to_json_obj(),
            "rhs": rhs.to_json_obj(),
            "diff": poly_diff(lhs, rhs),
        },
    )


def _skip(family: str, param: str, exc: Exception) -> VerificationCase:
    return VerificationCase(family, param, "skipped", {"reason": str(exc)})


def _run_closure_case(
    family: str, param: str, arg: tuple, cfg: dict,
    diagram_tag: str, start: str, rule: diagrams.MoveRule, operator_tag: str, operator_side: str,
) -> VerificationCase:
    cap, cache = cfg["cap"], cfg["cache"]

    def walk() -> Polynomial:
        return diagrams.closure_polynomial(getattr(diagrams, start)(arg), rule, cap)

    try:
        lhs = _cached(cache, diagram_tag, param, walk)
    except diagrams.ClosureCapError as exc:
        return _skip(family, param, exc)

    def operator() -> Polynomial:
        from . import bases  # only a cache miss computes

        return getattr(bases, operator_side)(arg)

    rhs = _cached(cache, operator_tag, param, operator)
    return _compare_case(family, param, lhs.substitute_beta(-1), rhs)


def _run_pair_case(
    family: str, param: str, arg: tuple, cfg: dict, enumerated: str, operator: str
) -> VerificationCase:
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
    elif tableaux.insertion_tableau(word) != t:
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


def _comp_params(bounds: dict) -> list[str]:
    return [
        perms.format_composition(a)
        for a in compositions_upto(bounds["max_weight"], bounds["max_parts"])
    ]


def _perm_params(bounds: dict) -> list[str]:
    return sorted(
        (perms.format_permutation(w) for w in perms.all_permutations(bounds["n"])),
        key=lambda s: (len(s), s),
    )


# A parameter kind: a sweep's parameters from its bounds, and their parser.
class _Kind(NamedTuple):
    params: Callable[[dict], list[str]]
    parse: Callable[[str], tuple]


_COMPOSITIONS = _Kind(_comp_params, perms.parse_composition)
_PERMUTATIONS = _Kind(_perm_params, perms.parse_permutation)

# Every case family: its parameter kind, its runner, and the runner's own
# arguments after (family, param, parsed param, cfg).
# - A closure row names the diagram side's cache tag, its start diagram (a
#   function in ``diagrams``) and the move rule whose closure it sums at
#   b = -1, then the operator side's cache tag and its function in
#   ``bases``.  The kohnert families walk the plain closure, which has no
#   ghosts, so b = -1 leaves its polynomial, J or K at b = 0, unchanged.
# - A pair row names the enumerative generating function and the operator
#   polynomial it must equal, both in ``bases``; they are never cached.
# Functions are looked up by name when a case runs, so a wrapper installed
# on the module after import is the one called.
_CASES = {
    "conj1": (_COMPOSITIONS, _run_closure_case,
              ("J", "skyline", diagrams.K_KOHNERT, "omega", "omega_polynomial")),
    "kohnert_key": (_COMPOSITIONS, _run_closure_case,
                    ("J0", "skyline", diagrams.KOHNERT, "key", "key_polynomial")),
    "conj2": (_PERMUTATIONS, _run_closure_case,
              ("K", "rothe", diagrams.K_KOHNERT, "grothendieck", "grothendieck")),
    "kohnert_schubert": (_PERMUTATIONS, _run_closure_case,
                         ("K0", "rothe", diagrams.KOHNERT, "schubert", "schubert")),
    "bjs": (_PERMUTATIONS, _run_pair_case, ("schubert_from_compatible_pairs", "schubert")),
    "theorem4": (_COMPOSITIONS, _run_pair_case, ("key_by_insertion_fiber", "key_polynomial")),
    "theorem1": (_COMPOSITIONS, _run_theorem1_case, ()),
    "talpha_props": (_COMPOSITIONS, _run_talpha_case, ()),
}


def _run_case(task: tuple) -> VerificationCase:
    family, param, cfg = task
    kind, runner, args = _CASES[family]
    return runner(family, param, kind.parse(param), cfg, *args)


# ---------------------------------------------------------------------------
# sweep drivers


# _perm_params holds and sorts all n! permutations in memory: 8! = 40320.
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
    """One ``kohnert verify`` family: its case families (rows of ``_CASES``)
    and the bound names their parameter generators read, with defaults."""

    cases: tuple[str, ...]
    bounds: dict[str, int]

    @property
    def closure(self) -> bool:
        """Whether the cases build diagram closures, which alone take a
        closure cap and a polynomial cache."""
        return any(_CASES[name][1] is _run_closure_case for name in self.cases)


SWEEPS = {
    # the skyline ghost closure at b = -1 against the omega polynomial
    "conj1": SweepFamily(("conj1",), {"max_weight": 7, "max_parts": 4}),
    # the Rothe ghost closure at b = -1 against the Grothendieck polynomial
    "conj2": SweepFamily(("conj2",), {"n": 5}),
    # plain Kohnert closures of skylines and Rothe diagrams against key and
    # Schubert polynomials
    "kohnert": SweepFamily(
        ("kohnert_key", "kohnert_schubert"), {"max_weight": 7, "max_parts": 4, "n": 5}
    ),
    # three routes to the key splitting coefficients agree, all non-negative
    "theorem1": SweepFamily(("theorem1",), {"max_weight": 6, "max_parts": 4}),
    # the compatible-pair generating function against the Schubert polynomial
    "bjs": SweepFamily(("bjs",), {"n": 5}),
    # the insertion-fiber formula against the key polynomial
    "theorem4": SweepFamily(("theorem4",), {"max_weight": 6, "max_parts": 4}),
    # shape, reading word, reinsertion and nil left key of the peeling tableau
    "talpha_props": SweepFamily(("talpha_props",), {"max_weight": 7, "max_parts": 4}),
}


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
    every setting.  Raises SweepInputError; runs nothing."""
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
    config = {"family": family, **bounds}
    if spec.closure:
        config["cap"] = diagrams.DEFAULT_CLOSURE_CAP if cap is None else cap
    config["version"] = __version__
    return config


def clamp_jobs(jobs: int, cases: int, cpus: int) -> int:
    """Worker processes worth starting: no more than the CPUs or the cases,
    and at least one."""
    return max(1, min(jobs, cpus, cases))


def _run_counted(task: tuple) -> tuple[VerificationCase, int, int]:
    """Run one case in a worker process, with the cache hits and misses it
    made: the worker reads through its own pickled copy of the cache, whose
    counts the sweep's cache object never sees."""
    cache = task[2]["cache"]
    if cache is None:
        return _run_case(task), 0, 0
    hits, misses = cache.hits, cache.misses
    case = _run_case(task)
    return case, cache.hits - hits, cache.misses - misses


def _execute(tasks: list[tuple], workers: int) -> list[VerificationCase]:
    """The cases of ``tasks`` in order.  The cache the tasks share counts
    every read, those made in worker processes included."""
    if workers <= 1:
        return [_run_case(t) for t in tasks]
    # Imported here: a one-worker sweep would pay ~25 ms of start-up for it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        counted = list(pool.map(_run_counted, tasks, chunksize=1))
    cache = tasks[0][2]["cache"]
    if cache is not None:
        cache.hits += sum(hits for _, hits, _ in counted)
        cache.misses += sum(misses for _, _, misses in counted)
    return [case for case, _, _ in counted]


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
    # One cache object per sweep; a worker process gets a copy with each task.
    cache = None if cache_dir is None else PolynomialCache(cache_dir)
    cfg = {"cap": config.get("cap"), "cache": cache}
    tasks = [
        (case_family, param, cfg)
        for case_family in SWEEPS[family].cases
        for param in _CASES[case_family][0].params(config)
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
        meta["cache"] = {"hits": cache.hits, "misses": cache.misses}
    return SweepReport(config, cases, meta=meta)


def _sweep_function(family: str) -> Callable[..., SweepReport]:
    names = tuple(SWEEPS[family].bounds)

    def run(*args: int, **kwargs) -> SweepReport:
        if len(args) > len(names):
            raise TypeError(f"{family} takes at most {len(names)} positional bounds")
        return verify(family, **dict(zip(names, args)), **kwargs)

    run.__doc__ = f"verify({family!r}, ...), taking {', '.join(names)} positionally too."
    return run


verify_conjecture1 = _sweep_function("conj1")
verify_conjecture2 = _sweep_function("conj2")
verify_kohnert = _sweep_function("kohnert")
verify_theorem1 = _sweep_function("theorem1")
verify_bjs = _sweep_function("bjs")
verify_theorem4 = _sweep_function("theorem4")
verify_talpha_props = _sweep_function("talpha_props")
