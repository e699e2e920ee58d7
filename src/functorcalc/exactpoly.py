"""Exact sparse Laurent polynomials for graded dimensions and traces.

``TPoly`` is a Laurent polynomial in the grading variable t with exact
rational coefficients; graded vector spaces are TPolys with nonnegative
integer coefficients, graded traces are general TPolys.  ``MaskPoly``
additionally carries a square-free product of marker variables (a bitmask)
per term and silently drops any product in which a marker would repeat;
this pruning is what isolates multilinear components in cross-effect and
derivative extraction.  Both, and ``symfun.PSPoly``, inherit their
additive structure from one base, ``Sparse``, and define only their
products.
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


class Sparse:
    """Sparse {key: nonzero coefficient}, the additive structure shared by
    ``TPoly``, ``MaskPoly`` and ``symfun.PSPoly``.

    Coefficients are scalars or, for ``PSPoly``, ``TPoly``s; sums never
    start from ``0`` and every method keeps zero coefficients out of the
    dict.  Subclasses add their own product.  Equality holds within one
    type only, and leaves instances unhashable unless a subclass says how.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: dict | None = None):
        self.c: dict = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def _wrap(cls, c: dict):
        """An instance around a dict that is already free of zeros."""
        res = cls.__new__(cls)
        res.c = c
        return res

    @classmethod
    def zero(cls):
        return cls()

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.c == other.c

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k)
            w = v if w is None else w + v
            if w:
                out[k] = w
            else:
                del out[k]
        cls = type(self)  # built in place: this is the hot path of every route
        res = cls.__new__(cls)
        res.c = out
        return res

    def __neg__(self):
        return self._wrap({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + -other

    def div_exact(self, q: int):
        """Every coefficient divided by the integer q (see ``exact_div``)."""
        return self._wrap({k: exact_div(v, q) for k, v in self.c.items()})


class TPoly(Sparse):
    """Laurent polynomial in t, stored as {exponent: nonzero coefficient}."""

    __slots__ = ()

    @classmethod
    def one(cls) -> "TPoly":
        return cls({0: 1})

    @classmethod
    def term(cls, degree: int, coeff: Scalar = 1) -> "TPoly":
        return cls({degree: coeff})

    def __hash__(self):
        return hash(frozenset(self.c.items()))

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
        return TPoly._wrap(out)

    def scale(self, a: Scalar) -> "TPoly":
        if not a:
            return TPoly.zero()
        return TPoly._wrap({d: a * v for d, v in self.c.items()})

    def twist(self, m: int, signed: bool) -> "TPoly":
        """Substitute t -> t^m, with t -> (-1)^(m-1) t^m in signed mode.

        This is the effect on a graded trace of passing from an operator to
        its m-th power combined with the sign rule for odd degrees.
        """
        if m == 1:
            return self
        res = TPoly.__new__(TPoly)  # built in place: the trace route twists every class value
        if signed and m % 2 == 0:
            res.c = {m * d: (v if d % 2 == 0 else -v) for d, v in self.c.items()}
        else:
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


class MaskPoly(Sparse):
    """Polynomial in t and square-free markers x_j, term key (mask, t-degree).

    The bitmask records which markers divide the term.  Multiplication drops
    any product of terms with overlapping masks, implementing the rule
    x_j^2 = 0 used for multilinear extraction.
    """

    __slots__ = ()

    @classmethod
    def from_tpoly(cls, tp: TPoly) -> "MaskPoly":
        res = cls.__new__(cls)  # built in place: runs once per class in every trace
        res.c = {(0, d): v for d, v in tp.c.items()}  # already nonzero
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
        res = MaskPoly.__new__(MaskPoly)  # built in place: the trace route's hot path
        res.c = out
        return res

    def coeff_mask(self, mask: int) -> TPoly:
        """The t-polynomial multiplying the given exact marker product."""
        return TPoly({d: v for (m, d), v in self.c.items() if m == mask})

    def marker_free(self) -> TPoly:
        return self.coeff_mask(0)

    def __repr__(self) -> str:
        return f"MaskPoly({self.c!r})"
