"""Exact sparse Laurent polynomials for graded dimensions and traces.

``TPoly`` is a Laurent polynomial in the grading variable t with exact
rational coefficients; graded vector spaces are TPolys with nonnegative
integer coefficients, graded traces are general TPolys.  ``MaskPoly``
additionally carries a square-free product of marker variables (a bitmask)
per term and silently drops any product in which a marker would repeat;
this pruning is what isolates multilinear components in cross-effect and
derivative extraction.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = int | Fraction


def exact_div(v: Scalar, q: int) -> Scalar:
    """v / q exactly: an int when q divides v, else a Fraction."""
    if isinstance(v, int):
        a, r = divmod(v, q)
        return Fraction(v, q) if r else a
    w = v / q
    return w.numerator if w.denominator == 1 else w


class TPoly:
    """Laurent polynomial in t, stored as {exponent: nonzero coefficient}."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, Scalar] | None = None):
        self.c: dict[int, Scalar] = {d: v for d, v in (coeffs or {}).items() if v}

    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    @classmethod
    def one(cls) -> "TPoly":
        return cls({0: 1})

    @classmethod
    def term(cls, degree: int, coeff: Scalar = 1) -> "TPoly":
        return cls({degree: coeff})

    @classmethod
    def constant(cls, coeff: Scalar) -> "TPoly":
        return cls({0: coeff})

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other: "TPoly") -> "TPoly":
        out = dict(self.c)
        for d, v in other.c.items():
            w = out.get(d, 0) + v
            if w:
                out[d] = w
            else:
                out.pop(d, None)
        res = TPoly.__new__(TPoly)
        res.c = out
        return res

    def __sub__(self, other: "TPoly") -> "TPoly":
        out = dict(self.c)
        for d, v in other.c.items():
            w = out.get(d, 0) - v
            if w:
                out[d] = w
            else:
                out.pop(d, None)
        res = TPoly.__new__(TPoly)
        res.c = out
        return res

    def __neg__(self) -> "TPoly":
        res = TPoly.__new__(TPoly)
        res.c = {d: -v for d, v in self.c.items()}
        return res

    def __mul__(self, other: "TPoly") -> "TPoly":
        out: dict[int, Scalar] = {}
        for d1, v1 in self.c.items():
            for d2, v2 in other.c.items():
                d = d1 + d2
                w = out.get(d, 0) + v1 * v2
                if w:
                    out[d] = w
                else:
                    out.pop(d, None)
        res = TPoly.__new__(TPoly)
        res.c = out
        return res

    def scale(self, a: Scalar) -> "TPoly":
        if not a:
            return TPoly.zero()
        res = TPoly.__new__(TPoly)
        res.c = {d: a * v for d, v in self.c.items()}
        return res

    def div_exact(self, q: int) -> "TPoly":
        """Every coefficient divided by the integer q (see ``exact_div``)."""
        res = TPoly.__new__(TPoly)
        res.c = {d: exact_div(v, q) for d, v in self.c.items()}
        return res

    def twist(self, m: int, signed: bool) -> "TPoly":
        """Substitute t -> t^m, with t -> (-1)^(m-1) t^m in signed mode.

        This is the effect on a graded trace of passing from an operator to
        its m-th power combined with the sign rule for odd degrees.
        """
        if m == 1:
            return self
        if signed and m % 2 == 0:
            res = TPoly.__new__(TPoly)
            res.c = {m * d: (v if d % 2 == 0 else -v) for d, v in self.c.items()}
            return res
        res = TPoly.__new__(TPoly)
        res.c = {m * d: v for d, v in self.c.items()}
        return res

    def coeff(self, degree: int) -> Scalar:
        return self.c.get(degree, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.c))

    def is_nonneg_integral(self) -> bool:
        return all(v >= 1 and (isinstance(v, int) or v.denominator == 1) for v in self.c.values())

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        bits = []
        for d in sorted(self.c):
            v = self.c[d]
            if d == 0:
                bits.append(f"{v}")
            elif d == 1:
                bits.append(f"{v}*t")
            else:
                bits.append(f"{v}*t^{d}")
        return " + ".join(bits)


def dims_poly(dims: dict[int, int]) -> TPoly:
    """Graded dimension polynomial from {degree: dimension}."""
    p = TPoly(dims)
    if not all(isinstance(v, int) and v >= 0 for v in dims.values()):
        raise ValueError(f"dimensions must be nonnegative integers: {dims!r}")
    return p


class MaskPoly:
    """Polynomial in t and square-free markers x_j, term key (mask, t-degree).

    The bitmask records which markers divide the term.  Multiplication drops
    any product of terms with overlapping masks, implementing the rule
    x_j^2 = 0 used for multilinear extraction.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[tuple[int, int], Scalar] | None = None):
        self.c: dict[tuple[int, int], Scalar] = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def zero(cls) -> "MaskPoly":
        return cls()

    @classmethod
    def from_tpoly(cls, tp: TPoly, mask: int = 0) -> "MaskPoly":
        res = cls.__new__(cls)
        res.c = {(mask, d): v for d, v in tp.c.items()}  # already nonzero
        return res

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MaskPoly):
            return NotImplemented
        return self.c == other.c

    def __add__(self, other: "MaskPoly") -> "MaskPoly":
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        res = MaskPoly.__new__(MaskPoly)
        res.c = out
        return res

    def __mul__(self, other: "MaskPoly") -> "MaskPoly":
        out: dict[tuple[int, int], Scalar] = {}
        for (m1, d1), v1 in self.c.items():
            for (m2, d2), v2 in other.c.items():
                if m1 & m2:
                    continue
                k = (m1 | m2, d1 + d2)
                w = out.get(k, 0) + v1 * v2
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
        res = MaskPoly.__new__(MaskPoly)
        res.c = out
        return res

    def div_exact(self, q: int) -> "MaskPoly":
        """Every coefficient divided by the integer q (see ``exact_div``)."""
        res = MaskPoly.__new__(MaskPoly)
        res.c = {k: exact_div(v, q) for k, v in self.c.items()}
        return res

    def coeff_mask(self, mask: int) -> TPoly:
        """The t-polynomial multiplying the given exact marker product."""
        return TPoly({d: v for (m, d), v in self.c.items() if m == mask})

    def marker_free(self) -> TPoly:
        return self.coeff_mask(0)

    def __repr__(self) -> str:
        return f"MaskPoly({self.c!r})"
