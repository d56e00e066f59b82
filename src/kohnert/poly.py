"""Sparse exact polynomials in x1, x2, ... with integer coefficients in b.

The coefficient ring is Z[b] for a distinguished formal parameter b.  A
polynomial is one flat map from (exponent tuple, b-degree) to a nonzero
integer: the entry ``(e, d): c`` is the term c * b^d * x^e.  All arithmetic
is exact; Python integers never overflow.

Exponent tuples are canonical: trailing zeros are trimmed, so ``(1, 0, 2)``
means x1*x3^2 and ``()`` means the constant monomial 1.  ``Polynomial(counts)``
is the one constructor from counted monomials ``{(exps, deg): count}``: it
trims the exponents, merges the keys that become equal and drops zero totals.

>>> f = Polynomial({((1, 0), 0): 2, ((1,), 0): 1, ((0, 1), 1): -1, ((2,), 1): 0})
>>> f.terms
{((1,), 0): 3, ((0, 1), 1): -1}
>>> print(f)
-b*x2 + 3*x1

The total order on monomials used throughout compares exponent vectors at the
first index where they differ, and the *smaller* entry wins.  Equivalently,
the largest monomial is the one whose exponent tuple is lexicographically
least.  For canonical (trimmed) tuples this coincides with Python's tuple
comparison, so ``min(terms)[0]`` is the leading exponent and ``sorted(terms)``
lists the terms in descending monomial order, b-degrees ascending within a
monomial.

The four operators of the basis recursions (``divided_difference``,
``demazure``, ``twisted_demazure``, ``isobaric``) are each the divided
difference of m * f for a small fixed polynomial m in x_i and x_{i+1}
(1, x_i, x_i - x_i x_{i+1} and 1 - x_{i+1}).  Each is one pass over the
terms of f that applies the closed form of the divided difference to the
terms of m times the term; no product polynomial is built.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Mapping

Exponent = tuple[int, ...]
Term = tuple[Exponent, int]
BetaCoeff = dict[int, int]


def trim(seq: Iterable[int]) -> tuple[int, ...]:
    """Drop trailing zeros: trim((1, 2, 0)) == (1, 2)."""
    out = tuple(seq)
    end = len(out)
    while end and out[end - 1] == 0:
        end -= 1
    return out[:end]


def _of(terms: dict[Term, int]) -> "Polynomial":
    """The polynomial whose term map is ``terms`` itself, for results that
    are canonical by construction: trimmed exponents, nonzero counts."""
    res = Polynomial.__new__(Polynomial)
    res.terms = terms
    return res


def _json_int(value) -> int:
    """``value``, refused unless it is an int."""
    if type(value) is not int:
        raise ValueError(f"expected an integer in polynomial JSON, got {value!r}")
    return value


class Polynomial:
    """Immutable sparse polynomial over Z[b].

    ``terms`` maps (trimmed exponent tuple, b-degree) to a nonzero int; see
    the module docstring for the constructor.  Instances must not be mutated
    after construction; all operations return new polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, counts: Mapping[tuple[Iterable[int], int], int] | None = None):
        terms: dict[Term, int] = {}
        if counts:
            for (exps, deg), count in counts.items():
                key = (trim(exps), deg)
                terms[key] = terms.get(key, 0) + count
        self.terms = {key: c for key, c in terms.items() if c}

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: int = 1, beta_deg: int = 0) -> "Polynomial":
        return cls({(tuple(exps), beta_deg): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_beta_free(self) -> bool:
        return not any(deg for _, deg in self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            else:
                del out[key]
        return _of(out)

    def __neg__(self) -> "Polynomial":
        return _of({key: -c for key, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Term, int] = {}
        for (ea, da), ca in self.terms.items():
            for (eb, db), cb in other.terms.items():
                # the sum of two trimmed tuples, the longer one's tail kept
                key = (tuple(map(add, ea, eb)) + (ea[len(eb) :] or eb[len(ea) :]), da + db)
                out[key] = out.get(key, 0) + ca * cb
        return _of({key: c for key, c in out.items() if c})

    def __rmul__(self, other: int) -> "Polynomial":
        if not isinstance(other, int):
            return NotImplemented
        if other == 0:
            return Polynomial()
        return _of({key: other * c for key, c in self.terms.items()})

    def scale(self, coeff: Mapping[int, int]) -> "Polynomial":
        """Multiply by an element of Z[b] given as a coefficient dict."""
        return self * Polynomial({((), deg): c for deg, c in coeff.items()})

    def coefficient(self, exps: Iterable[int]) -> BetaCoeff:
        """The coefficient of x^exps in Z[b], as b-degree -> nonzero int."""
        e = trim(exps)
        return {deg: c for (f, deg), c in self.terms.items() if f == e}

    def apply_transposition(self, i: int) -> "Polynomial":
        """Swap the variables x_i and x_{i+1} (1-indexed)."""
        if i < 1:
            raise ValueError("variable index must be >= 1")
        out: dict[Term, int] = {}
        for (e, deg), c in self.terms.items():
            e += (0,) * (i + 1 - len(e))
            # a bijection on exponents, so no two terms meet
            out[trim(e[: i - 1] + (e[i], e[i - 1]) + e[i + 1 :]), deg] = c
        return _of(out)

    def substitute_beta(self, value: int) -> "Polynomial":
        """Evaluate b at an integer, collecting terms."""
        out: dict[Term, int] = {}
        for (e, deg), c in self.terms.items():
            out[e, 0] = out.get((e, 0), 0) + c * value**deg
        return _of({key: c for key, c in out.items() if c})

    def leading_monomial(self) -> Exponent:
        """The largest exponent in the monomial order (see module docstring)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return min(self.terms)[0]

    def max_variable(self) -> int:
        """Largest variable index occurring (0 for constants)."""
        return max((len(e) for e, _ in self.terms), default=0)

    def lowest_degree_part(self) -> "Polynomial":
        """Homogeneous component of minimal x-degree."""
        if not self.terms:
            return Polynomial()
        dmin = min(sum(e) for e, _ in self.terms)
        return _of({key: c for key, c in self.terms.items() if sum(key[0]) == dmin})

    def to_json_obj(self) -> dict:
        """One entry per exponent in descending monomial order, with its
        [b-degree, count] pairs by ascending b-degree."""
        terms = self.terms
        keys = sorted(terms)
        out: list[dict] = []
        last = None
        # one pass over the sorted keys: a key's exponent either repeats the
        # last entry's, which gains a pair, or starts a new entry
        for (e, deg), c in zip(keys, map(terms.__getitem__, keys)):
            if e == last:
                out[-1]["coeff"].append((deg, c))
            else:
                out.append({"coeff": [(deg, c)], "exps": list(e)})
                last = e
        return {"terms": out}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Polynomial":
        """Read ``to_json_obj`` output.  Raises ValueError on JSON of another
        shape, a number that is not an integer, a negative exponent or
        b-degree, and an exponent or a b-degree of one exponent given
        twice.

        Only ``kohnert expand --input`` reads this format; the polynomial
        cache stores its own flat layout (``harness.PolynomialCache``)."""
        counts: dict[Term, int] = {}
        seen: set[Exponent] = set()
        try:
            for t in obj["terms"]:
                e = trim([_json_int(v) for v in t["exps"]])
                if e in seen:
                    raise ValueError(f"duplicate exponent {e} in polynomial JSON")
                if e and min(e) < 0:
                    raise ValueError("negative exponent in polynomial JSON")
                seen.add(e)
                for deg, c in t["coeff"]:
                    if _json_int(deg) < 0:
                        raise ValueError("negative b-degree in polynomial JSON")
                    if (e, deg) in counts:
                        raise ValueError(f"duplicate b-degree {deg} of exponent {e} in polynomial JSON")
                    counts[e, deg] = _json_int(c)
        except TypeError as exc:
            # Indexing, iterating or unpacking a value of the wrong JSON type;
            # the numbers are type-checked as they are read.
            raise ValueError(f"polynomial JSON of the wrong shape: {exc}") from None
        return cls(counts)

    def __str__(self) -> str:
        return render_text(self)

    def __repr__(self) -> str:
        return f"Polynomial({render_text(self)})"


ZERO = Polynomial()
ONE = Polynomial.monomial(())


def x(i: int) -> Polynomial:
    """The variable x_i (1-indexed)."""
    if i < 1:
        raise ValueError("variable index must be >= 1")
    return Polynomial.monomial((0,) * (i - 1) + (1,))


def beta(deg: int = 1) -> Polynomial:
    return Polynomial.monomial((), 1, deg)


def _monomial_text(e: Exponent, beta_deg: int, mag: int) -> str:
    parts = []
    if mag != 1 or (beta_deg == 0 and not e):
        parts.append(str(mag))
    if beta_deg == 1:
        parts.append("b")
    elif beta_deg > 1:
        parts.append(f"b^{beta_deg}")
    for i, p in enumerate(e, start=1):
        if p == 1:
            parts.append(f"x{i}")
        elif p > 1:
            parts.append(f"x{i}^{p}")
    return "*".join(parts)


def render_text(f: Polynomial) -> str:
    """Render in descending monomial order, e.g. ``x1^2*x3 - b*x1*x2``."""
    if f.is_zero():
        return "0"
    out = []
    for (e, deg), c in sorted(f.terms.items()):
        body = _monomial_text(e, deg, abs(c))
        if not out:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append((" + " if c > 0 else " - ") + body)
    return "".join(out)


def _divided_difference_of_product(
    i: int, f: Polynomial, factor: tuple[tuple[int, int, int], ...], work=None
) -> Polynomial:
    """divided_difference(i, m * f) in one pass over the terms of f, for
    m = sum of coeff * x_i^a * x_{i+1}^b over the (a, b, coeff) of
    ``factor``; no product polynomial is built.

    A term of m * f has the exponents p + a and q + b of x_i and x_{i+1},
    where p and q are those of a term of f, and the closed form of
    ``divided_difference`` maps it; the other exponents and the
    coefficient in b ride along.  A key can end in 0 only when nothing
    follows x_{i+1}, and only such a key is trimmed.  A
    ``perms.WorkBudget`` is charged before any key is built."""
    if i < 1:
        raise ValueError("operator index must be >= 1")
    if work is not None:
        # a term builds |p + a - q - b| keys of its padded length per row
        padded = (e + (0,) * (i + 1 - len(e)) for e, _ in f.terms)
        units = sum(
            abs(e[i - 1] + a - e[i] - b) * (len(e) + work.KEY_OVERHEAD)
            for e in padded
            for a, b, _ in factor
        )
        work.charge(units, "an operator step")
    counts: dict[Term, int] = {}
    get = counts.get
    for (e, deg), c in f.terms.items():
        e += (0,) * (i + 1 - len(e))
        head, tail = e[: i - 1], e[i + 1 :]
        for a, b, coeff in factor:
            p, q = e[i - 1] + a, e[i] + b
            if p > q:
                lo, hi, signed = q, p, c * coeff
            elif p < q:
                lo, hi, signed = p, q, -c * coeff
            else:
                continue
            top = p + q - 1
            for k in range(lo, hi):
                key = head + (k, top - k) + tail
                if not key[-1]:
                    key = trim(key)
                counts[key, deg] = get((key, deg), 0) + signed
    return _of({key: c for key, c in counts.items() if c})


def divided_difference(i: int, f: Polynomial, work=None) -> Polynomial:
    """Divided difference: (f - s_i f) / (x_i - x_{i+1}), term by term.

    On a monomial whose exponents of x_i and x_{i+1} are p and q, the image
    is the sum of x_i^k x_{i+1}^(p+q-1-k) over q <= k < p when p > q, minus
    the same sum over p <= k < q when p < q, and 0 when p == q; the other
    exponents and the coefficient in b ride along.

    >>> print(divided_difference(1, Polynomial.monomial((3, 1))))
    x1*x2^2 + x1^2*x2
    >>> print(divided_difference(1, Polynomial.monomial((1, 3))))
    -x1*x2^2 - x1^2*x2
    """
    return _divided_difference_of_product(i, f, ((0, 0, 1),), work)


def demazure(i: int, f: Polynomial, work=None) -> Polynomial:
    """The symmetrizing operator f -> divided_difference(i, x_i * f)."""
    return _divided_difference_of_product(i, f, ((1, 0, 1),), work)


def twisted_demazure(i: int, f: Polynomial, work=None) -> Polynomial:
    """f -> divided_difference(i, x_i * (1 - x_{i+1}) * f)."""
    return _divided_difference_of_product(i, f, ((1, 0, 1), (1, 1, -1)), work)


def isobaric(i: int, f: Polynomial, work=None) -> Polynomial:
    """f -> divided_difference(i, (1 - x_{i+1}) * f)."""
    return _divided_difference_of_product(i, f, ((0, 0, 1), (0, 1, -1)), work)
