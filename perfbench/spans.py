"""Span recorder for the traced run.

Wraps the public entry points of each kohnert module from outside the
package and records one span per call: name, start, end, parent span index,
case id, and an optional size (closure size, words enumerated, terms copied,
cache bytes).  Spans stay in memory until ``write``.  Leaving the ``with``
block puts back every wrapped attribute, and checks that it did.

Only the traced run imports this module; untraced runs must not.
"""

from __future__ import annotations

import functools
import json
import os
import time

# Sizes are computed from a call's arguments and result, never by doing the
# work again.


def _len_result(args, result):
    return len(result)


def _add_terms(args, result):
    return len(args[0].terms) + len(args[1].terms)


def _cache_read_bytes(args, result):
    if result is None:
        return None  # a miss
    cache, family, param = args[:3]
    return os.path.getsize(cache._path(family, param))


def _cache_written_bytes(args, result):
    cache, family, param = args[:3]
    return os.path.getsize(cache._path(family, param))


def _targets(kohnert):
    """Every wrapped attribute, as (owner, attribute, span name, size)."""
    from kohnert.harness import PolynomialCache
    from kohnert.poly import Polynomial

    bases, diagrams, harness = kohnert.bases, kohnert.diagrams, kohnert.harness
    perms, tableaux = kohnert.perms, kohnert.tableaux
    return [
        (perms, "reduced_words", "perms.reduced_words", _len_result),
        (Polynomial, "__add__", "poly.add", _add_terms),
        (Polynomial, "from_json_obj", "poly.json_decode", None),
        # The operators as bases binds them: the recursions look them up there.
        (bases, "demazure", "poly.operator", None),
        (bases, "twisted_demazure", "poly.operator", None),
        (bases, "isobaric", "poly.operator", None),
        (bases, "divided_difference", "poly.operator", None),
        (diagrams, "closure", "diagrams.closure", _len_result),
        (diagrams, "ghost_weighted_sum", "diagrams.accumulate", None),
        (tableaux, "compatible_pairs", "tableaux.compatible_pairs", _len_result),
        (tableaux, "coxeter_knuth_class", "tableaux.ck_class", _len_result),
        (tableaux, "egls_insert", "tableaux.insertion", None),
        (bases, "key_polynomial", "bases.key", None),
        (bases, "omega_polynomial", "bases.omega", None),
        (bases, "schubert", "bases.schubert", None),
        (bases, "grothendieck", "bases.grothendieck", None),
        (bases, "split_extract", "bases.split_extract", None),
        (bases, "schur_in_variables", "bases.schur", None),
        (bases, "key_split_expansion", "bases.key_split", None),
        (bases, "key_split_expansion_via_pairs", "bases.via_pairs", None),
        (bases, "schubert_from_compatible_pairs", "bases.pairs_sum", None),
        (bases, "key_by_insertion_fiber", "bases.pairs_sum", None),
        (PolynomialCache, "__init__", "harness.cache_init", None),
        (PolynomialCache, "get", "harness.cache_get", _cache_read_bytes),
        (PolynomialCache, "put", "harness.cache_put", _cache_written_bytes),
        # The case is the request: the serial executor calls this per case.
        (harness, "_run_case", "harness.case", None),
        (kohnert.cli, "main", "cli.main", None),
    ]


class SpanRecorder:
    """Context manager that wraps the kohnert entry points while open.

    ``spans`` holds lists [name, start, end, parent, case, size]; ``parent``
    is the index of the enclosing span or None, ``case`` the
    "family:param" of the enclosing case or None.
    """

    def __init__(self):
        import kohnert
        import kohnert.cli  # noqa: F401  (the cli is not imported by the package)

        self.spans: list[list] = []
        self._stack: list[int] = []
        self._case: str | None = None
        self._targets = _targets(kohnert)
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, function, name, size):
        spans, stack, recorder = self.spans, self._stack, self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, recorder._case, None]
            spans.append(span)
            stack.append(index)
            outer_case = recorder._case
            if name == "harness.case":
                family, param = args[0][:2]
                recorder._case = span[4] = f"{family}:{param}"
            span[1] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                recorder._case = outer_case
            if size is not None:
                span[5] = size(args, result)
            return result

        return traced

    def __enter__(self) -> "SpanRecorder":
        try:
            for owner, attr, name, size in self._targets:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name, size))
                else:
                    wrapped = self._wrap(original, name, size)
                self._originals.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def wrapped_attributes(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _, _ in self._targets]

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent, case, size."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
