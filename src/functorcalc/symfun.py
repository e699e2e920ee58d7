"""Power-sum symmetric functions, plethysm, and generating functions.

A ``PSPoly`` is a polynomial in power sums p_m, with Laurent-polynomial
coefficients in the grading variable; a monomial p_mu is keyed by the
partition mu.  Characters of symmetric groups pass to symmetric functions
by the usual transform chi -> sum_mu chi(mu) p_mu / z_mu and back by
reading off p_mu coefficients.  Plethysm substitutes one symmetric
function into another; its graded (signed) variant twists the inner
function by p_j -> p_{jm}, t -> (-1)^(m-1) t^m when substituted into p_m,
which is the rule matching sign-respecting permutation actions on tensor
powers.
``RationalSeries`` holds truncated exponential generating functions and
composes them, the counting shadow of the composition product.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .characters import GradedCharacter
from .exactpoly import Sparse, TPoly, exact_div
from .partitions import Partition, centralizer_order, partitions_of

Monomial = Partition  # p_mu, the product of p_m over the parts m of mu


class PSPoly(Sparse):
    """Polynomial in power sums, {monomial: coefficient}."""

    __slots__ = ()

    @classmethod
    def from_character(cls, chi: GradedCharacter) -> "PSPoly":
        """Characteristic transform: sum_mu chi(mu) p_mu / z_mu."""
        out: dict[Monomial, TPoly] = {}
        for mu, val in chi.values.items():
            if val:
                out[mu] = val.scale(Fraction(1, centralizer_order(mu)))
        return cls(out)

    def mul(self, other: "PSPoly", max_weight: int | None = None) -> "PSPoly":
        out: dict[Monomial, TPoly] = {}
        for m1, v1 in self.c.items():
            w1 = sum(m1)
            for m2, v2 in other.c.items():
                if max_weight is not None and w1 + sum(m2) > max_weight:
                    continue
                mono = tuple(sorted(m1 + m2))
                p = v1 * v2
                w = out.get(mono)
                w = p if w is None else w + p
                if w:
                    out[mono] = w
                else:
                    out.pop(mono, None)
        return PSPoly._wrap(out)

    def __mul__(self, other: "PSPoly") -> "PSPoly":
        return self.mul(other)

    def div_exact(self, q: int) -> "PSPoly":
        """Every coefficient divided by the integer q (see ``TPoly.div_exact``)."""
        return PSPoly._wrap({k: v.div_exact(q) for k, v in self.c.items()})

    def twist(self, m: int, signed: bool) -> "PSPoly":
        """p_j -> p_{jm}; coefficients t -> (+-) t^m."""
        if m == 1:
            return self
        return PSPoly({tuple(j * m for j in mono): v.twist(m, signed) for mono, v in self.c.items()})

    def substitute(self, image, max_weight: int | None = None) -> "PSPoly":
        """Ring homomorphism sending each power sum p_m to image(m)."""
        out = PSPoly.zero()
        for mono, coeff in self.c.items():
            term = PSPoly({(): coeff})
            for m in mono:
                term = term.mul(image(m), max_weight)
                if not term:
                    break
            out = out + term
        return out

    def truncate_weight(self, max_weight: int) -> "PSPoly":
        return PSPoly({k: v for k, v in self.c.items() if sum(k) <= max_weight})

    def to_character(self, n: int) -> GradedCharacter:
        """Inverse characteristic transform on the weight-n part.

        Each value z_mu * (p_mu coefficient) is an ``int`` wherever it is
        integral and an exact ``Fraction`` otherwise (see ``exact_div``).
        """
        vals: dict[Partition, TPoly] = {}
        for mu in partitions_of(n):
            coeff = self.c.get(mu)
            if coeff:
                z = centralizer_order(mu)
                vals[mu] = TPoly._wrap({d: exact_div(v.numerator * z, v.denominator)
                                        for d, v in coeff.c.items()})
        return GradedCharacter(n, vals)

    def __repr__(self) -> str:
        return f"PSPoly({self.c!r})"


def plethysm(outer: PSPoly, inner: PSPoly, signed: bool = False, max_weight: int | None = None) -> PSPoly:
    """outer[inner]: substitute the inner function into every power sum of the outer.

    With a weight bound, monomials above the bound are dropped throughout —
    consistent because the inner function must have no constant term, so
    weights never decrease.
    """
    if () in inner.c:
        raise ValueError("inner function of a plethysm must have zero constant term")
    cache: dict[int, PSPoly] = {}

    def image(m: int) -> PSPoly:
        if m not in cache:
            tw = inner.twist(m, signed)
            cache[m] = tw.truncate_weight(max_weight) if max_weight is not None else tw
        return cache[m]

    return outer.substitute(image, max_weight)


class RationalSeries:
    """Truncated exponential generating function sum_n a_n x^n / n!.

    Coefficients a_n are Laurent polynomials in the grading variable; the
    truncation order is len(coeffs) - 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list[TPoly]):
        self.coeffs = list(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"RationalSeries({self.coeffs!r})"


def egf_compose(outer: RationalSeries, inner: RationalSeries) -> RationalSeries:
    """Composite series outer(inner(x)), requiring inner(0) = 0.

    Computed through ordinary coefficients: with I_j = inner_j / j! and
    powers of the inner series truncated at the common order, the n-th
    composite coefficient is n! * sum_k outer_k / k! * [x^n] inner(x)^k.
    """
    if inner.coeffs and inner.coeffs[0]:
        raise ValueError("inner series must have zero constant term")
    order = min(outer.order, inner.order)
    ordinary = [c.scale(Fraction(1, math.factorial(j))) for j, c in enumerate(inner.coeffs[: order + 1])]

    # powers[k][n] = [x^n] inner(x)^k
    powers: list[list[TPoly]] = [[TPoly.one()] + [TPoly.zero()] * order]
    for _ in range(order):
        prev = powers[-1]
        nxt = [TPoly.zero()] * (order + 1)
        for a in range(order + 1):
            if not prev[a]:
                continue
            for b in range(1, order + 1 - a):
                if ordinary[b]:
                    nxt[a + b] = nxt[a + b] + prev[a] * ordinary[b]
        powers.append(nxt)

    out = []
    for n in range(order + 1):
        acc = TPoly.zero()
        for k in range(0, n + 1 if n else 1):
            if k <= outer.order and outer.coeffs[k]:
                acc = acc + (outer.coeffs[k] * powers[k][n]).scale(Fraction(1, math.factorial(k)))
        out.append(acc.scale(math.factorial(n)))
    return RationalSeries(out)
