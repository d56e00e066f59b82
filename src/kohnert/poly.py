"""Sparse exact polynomials in x1, x2, ... with integer coefficients in b.

A polynomial is a finite map from exponent tuples to coefficients.  The
coefficient ring is Z[b] for a distinguished formal parameter b, stored as a
map from b-degree to a nonzero integer.  All arithmetic is exact; Python
integers never overflow.

Exponent tuples are canonical: trailing zeros are trimmed, so ``(1, 0, 2)``
means x1*x3^2 and ``()`` means the constant monomial 1.

The total order on monomials used throughout compares exponent vectors at the
first index where they differ, and the *smaller* entry wins.  Equivalently,
the largest monomial is the one whose exponent tuple is lexicographically
least.  For canonical (trimmed) tuples this coincides with Python's tuple
comparison, so ``min(terms)`` is the leading exponent and ``sorted(terms)``
lists exponents in descending monomial order.
"""

from __future__ import annotations

from typing import Iterable, Mapping

Exponent = tuple[int, ...]
BetaCoeff = dict[int, int]


def trim(seq: Iterable[int]) -> tuple[int, ...]:
    """Drop trailing zeros: trim((1, 2, 0)) == (1, 2)."""
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _coeff_add(acc: BetaCoeff, other: Mapping[int, int], scale: int = 1) -> None:
    """In-place acc += scale * other, dropping zeros."""
    for d, c in other.items():
        v = acc.get(d, 0) + scale * c
        if v:
            acc[d] = v
        else:
            acc.pop(d, None)


def _coeff_mul(a: Mapping[int, int], b: Mapping[int, int]) -> BetaCoeff:
    out: BetaCoeff = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            v = out.get(d, 0) + ca * cb
            if v:
                out[d] = v
            else:
                out.pop(d, None)
    return out


class Polynomial:
    """Immutable sparse polynomial over Z[b].

    ``terms`` maps canonical exponent tuples to nonzero coefficient dicts
    (b-degree -> nonzero int).  Instances must not be mutated after
    construction; all operations return new polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Mapping[int, int]] | None = None):
        canon: dict[Exponent, BetaCoeff] = {}
        if terms:
            for exps, coeff in terms.items():
                e = trim(exps)
                acc = canon.setdefault(e, {})
                _coeff_add(acc, coeff)
                if not acc:
                    del canon[e]
        self.terms = canon

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: int = 1, beta_deg: int = 0) -> "Polynomial":
        if coeff == 0:
            return cls()
        return cls({trim(exps): {beta_deg: coeff}})

    @classmethod
    def from_counts(cls, counts: Mapping[tuple[Iterable[int], int], int]) -> "Polynomial":
        """Sum of count * b^deg * x^exps over ``{(exps, deg): count}``.

        Exponent tuples need not be trimmed; keys that become equal after
        trimming are merged, and zero totals dropped.  Building the sum in
        one pass avoids the quadratic copying of repeated ``+``.
        """
        terms: dict[Exponent, BetaCoeff] = {}
        for (exps, deg), count in counts.items():
            acc = terms.setdefault(trim(exps), {})
            acc[deg] = acc.get(deg, 0) + count
        return cls(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_beta_free(self) -> bool:
        return all(set(c) <= {0} for c in self.terms.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = {e: dict(c) for e, c in self.terms.items()}
        for e, c in other.terms.items():
            acc = out.setdefault(e, {})
            _coeff_add(acc, c)
            if not acc:
                del out[e]
        res = Polynomial.__new__(Polynomial)
        res.terms = out
        return res

    def __neg__(self) -> "Polynomial":
        res = Polynomial.__new__(Polynomial)
        res.terms = {e: {d: -v for d, v in c.items()} for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Exponent, BetaCoeff] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                la, lb = len(ea), len(eb)
                if la < lb:
                    e = tuple(eb[i] + (ea[i] if i < la else 0) for i in range(lb))
                else:
                    e = tuple(ea[i] + (eb[i] if i < lb else 0) for i in range(la))
                acc = out.setdefault(e, {})
                _coeff_add(acc, _coeff_mul(ca, cb))
                if not acc:
                    del out[e]
        res = Polynomial.__new__(Polynomial)
        res.terms = out
        return res

    def __rmul__(self, other: int) -> "Polynomial":
        if not isinstance(other, int):
            return NotImplemented
        if other == 0:
            return Polynomial()
        res = Polynomial.__new__(Polynomial)
        res.terms = {e: {d: other * v for d, v in c.items()} for e, c in self.terms.items()}
        return res

    def scale(self, coeff: Mapping[int, int]) -> "Polynomial":
        """Multiply by an element of Z[b] given as a coefficient dict."""
        out: dict[Exponent, BetaCoeff] = {}
        for e, c in self.terms.items():
            v = _coeff_mul(c, coeff)
            if v:
                out[e] = v
        res = Polynomial.__new__(Polynomial)
        res.terms = out
        return res

    def coefficient(self, exps: Iterable[int]) -> BetaCoeff:
        return dict(self.terms.get(trim(exps), {}))

    def apply_transposition(self, i: int) -> "Polynomial":
        """Swap the variables x_i and x_{i+1} (1-indexed)."""
        if i < 1:
            raise ValueError("variable index must be >= 1")
        out: dict[Exponent, BetaCoeff] = {}
        for e, c in self.terms.items():
            ee = list(e) + [0] * max(0, i + 1 - len(e))
            ee[i - 1], ee[i] = ee[i], ee[i - 1]
            k = trim(ee)
            acc = out.setdefault(k, {})
            _coeff_add(acc, c)
        res = Polynomial.__new__(Polynomial)
        res.terms = {e: c for e, c in out.items() if c}
        return res

    def substitute_beta(self, value: int) -> "Polynomial":
        """Evaluate b at an integer, collecting terms."""
        out: dict[Exponent, BetaCoeff] = {}
        for e, c in self.terms.items():
            total = sum(v * value**d for d, v in c.items())
            if total:
                out[e] = {0: total}
        res = Polynomial.__new__(Polynomial)
        res.terms = out
        return res

    def leading_monomial(self) -> Exponent:
        """The largest exponent in the monomial order (see module docstring)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return min(self.terms)

    def max_variable(self) -> int:
        """Largest variable index occurring (0 for constants)."""
        return max((len(e) for e in self.terms), default=0)

    def lowest_degree_part(self) -> "Polynomial":
        """Homogeneous component of minimal x-degree."""
        if not self.terms:
            return Polynomial()
        dmin = min(sum(e) for e in self.terms)
        res = Polynomial.__new__(Polynomial)
        res.terms = {e: dict(c) for e, c in self.terms.items() if sum(e) == dmin}
        return res

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {"coeff": sorted(self.terms[e].items()), "exps": list(e)}
                for e in sorted(self.terms)
            ]
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Polynomial":
        terms: dict[Exponent, BetaCoeff] = {}
        for t in obj["terms"]:
            e = trim(int(v) for v in t["exps"])
            coeff = {int(d): int(c) for d, c in t["coeff"]}
            if e in terms:
                raise ValueError(f"duplicate exponent {e} in polynomial JSON")
            if any(v < 0 for v in e):
                raise ValueError("negative exponent in polynomial JSON")
            terms[e] = coeff
        return cls(terms)

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
    flat = []
    for e in sorted(f.terms):
        for d in sorted(f.terms[e]):
            flat.append((e, d, f.terms[e][d]))
    out = []
    for idx, (e, d, c) in enumerate(flat):
        body = _monomial_text(e, d, abs(c))
        if idx == 0:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append((" + " if c > 0 else " - ") + body)
    return "".join(out)


def divided_difference(i: int, f: Polynomial) -> Polynomial:
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
    if i < 1:
        raise ValueError("operator index must be >= 1")
    counts: dict[tuple[Exponent, int], int] = {}
    for e, c in f.terms.items():
        e += (0,) * (i + 1 - len(e))
        p, q = e[i - 1], e[i]
        lo, hi, sign = (q, p, 1) if p > q else (p, q, -1)
        for k in range(lo, hi):
            image = e[: i - 1] + (k, p + q - 1 - k) + e[i + 1 :]
            for deg, v in c.items():
                counts[image, deg] = counts.get((image, deg), 0) + sign * v
    return Polynomial.from_counts(counts)


def demazure(i: int, f: Polynomial) -> Polynomial:
    """The symmetrizing operator f -> divided_difference(i, x_i * f)."""
    return divided_difference(i, x(i) * f)


def twisted_demazure(i: int, f: Polynomial) -> Polynomial:
    """f -> divided_difference(i, x_i * (1 - x_{i+1}) * f)."""
    return divided_difference(i, x(i) * (ONE - x(i + 1)) * f)


def isobaric(i: int, f: Polynomial) -> Polynomial:
    """f -> divided_difference(i, (1 - x_{i+1}) * f)."""
    return divided_difference(i, (ONE - x(i + 1)) * f)
