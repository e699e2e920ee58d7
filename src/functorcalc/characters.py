"""Symmetric group characters, exact and graded.

Irreducible characters are computed by border-strip recursion on beta
numbers (the tests check their dimensions against hook products).
A ``GradedCharacter`` records, for one symmetric group, the graded trace
of each conjugacy class as a Laurent polynomial in t, and supports the
inner products, inductions and restrictions the composition product and
the derivative extraction are built from.

The Schur certificate (``schur_decomposition``, ``is_genuine``) reads the
cached ``character_table`` and the class sizes n!/z_mu, so a multiplicity
is one integer sum n! <chi, chi_lam> = sum_mu |C_mu| chi_lam(mu) chi(mu)
and one exact division by n!; ``GradedCharacter.inner`` is its
brute-force oracle in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactpoly import TPoly, exact_div
from .partitions import (
    Partition,
    centralizer_order,
    partitions_of,
    sub_multisets,
    weight,
)


def _beta_set(lam: Partition) -> frozenset[int]:
    """First-column hook lengths of the partition, as a canonical beta set."""
    dec = tuple(sorted(lam, reverse=True))
    k = len(dec)
    beta = frozenset(part + (k - 1 - i) for i, part in enumerate(dec))
    return _unpad(beta)


def _unpad(beta: frozenset[int]) -> frozenset[int]:
    while 0 in beta:
        beta = frozenset(b - 1 for b in beta if b != 0)
    return beta


@lru_cache(maxsize=None)
def _mn(beta: frozenset, mu: Partition) -> int:
    """Border-strip recursion: strips of length r are moves b -> b - r."""
    if not mu:
        return 1
    r = mu[-1]
    rest = mu[:-1]
    total = 0
    for b in beta:
        if b >= r and (b - r) not in beta:
            crossings = sum(1 for b2 in beta if b - r < b2 < b)
            term = _mn(_unpad(frozenset(beta - {b}) | {b - r}), rest)
            total += -term if crossings % 2 else term
    return total


def irreducible_character_value(lam: Partition, mu: Partition) -> int:
    """Character of the irreducible labelled by lam at the class of cycle type mu."""
    if weight(lam) != weight(mu):
        raise ValueError(f"weights differ: {lam} vs {mu}")
    return _mn(_beta_set(lam), mu)


class GradedCharacter:
    """Graded trace function on the conjugacy classes of one symmetric group.

    values[mu] is the trace of any permutation of cycle type mu, as a
    Laurent polynomial in the grading variable.  The zero group (n == 0)
    has a single class, the empty partition.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict[Partition, TPoly]):
        self.n = n
        zero = TPoly.zero()  # shared: no code mutates a TPoly's coefficients
        self.values = {mu: values.get(mu, zero) for mu in partitions_of(n)}

    @classmethod
    def zero(cls, n: int) -> "GradedCharacter":
        return cls(n, {})

    @classmethod
    def trivial(cls, n: int, degree: int = 0) -> "GradedCharacter":
        one = TPoly.term(degree)
        return cls(n, {mu: one for mu in partitions_of(n)})

    @classmethod
    def sign(cls, n: int, degree: int = 0) -> "GradedCharacter":
        vals = {}
        for mu in partitions_of(n):
            s = (-1) ** (weight(mu) - len(mu))
            vals[mu] = TPoly.term(degree, s)
        return cls(n, vals)

    @classmethod
    def irreducible(cls, lam: Partition, degree: int = 0) -> "GradedCharacter":
        n = weight(lam)
        return cls(
            n,
            {mu: TPoly.term(degree, irreducible_character_value(lam, mu)) for mu in partitions_of(n)},
        )

    def is_zero(self) -> bool:
        return not any(self.values.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __add__(self, other: "GradedCharacter") -> "GradedCharacter":
        self._check(other)
        return GradedCharacter(self.n, {mu: self.values[mu] + other.values[mu] for mu in self.values})

    def __sub__(self, other: "GradedCharacter") -> "GradedCharacter":
        self._check(other)
        return GradedCharacter(self.n, {mu: self.values[mu] - other.values[mu] for mu in self.values})

    def tensor(self, other: "GradedCharacter") -> "GradedCharacter":
        self._check(other)
        return GradedCharacter(self.n, {mu: self.values[mu] * other.values[mu] for mu in self.values})

    def scale(self, a) -> "GradedCharacter":
        if isinstance(a, TPoly):
            return GradedCharacter(self.n, {mu: self.values[mu] * a for mu in self.values})
        return GradedCharacter(self.n, {mu: self.values[mu].scale(a) for mu in self.values})

    def _check(self, other: "GradedCharacter") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched group sizes {self.n} and {other.n}")

    def dim_poly(self) -> TPoly:
        return self.values[(1,) * self.n] if self.n else self.values[()]

    def inner(self, other: "GradedCharacter") -> TPoly:
        """<chi, psi> = sum_mu chi(mu) psi(mu) / z_mu (characters here are rational)."""
        self._check(other)
        out = TPoly.zero()
        for mu in self.values:
            prod = self.values[mu] * other.values[mu]
            out = out + prod.scale(Fraction(1, centralizer_order(mu)))
        return out

    def _scaled_multiplicities(self):
        """(lam, {degree: n! * <self, chi_lam> coefficient}) for every irreducible lam.

        Each coefficient is sum_mu |C_mu| * chi_lam(mu) * self(mu), an int
        for an integral character; zero coefficients are left out.
        """
        table = character_table(self.n)
        weighted = []  # (mu, {degree: |C_mu| * self(mu) coefficient}) on the support
        for mu, size in _class_sizes(self.n):
            val = self.values[mu]
            if val:
                # integral Fraction coefficients become ints here, once per class
                weighted.append((mu, {d: v.numerator * size if v.denominator == 1 else v * size
                                      for d, v in val.c.items()}))
        for lam in partitions_of(self.n):
            acc: dict[int, int | Fraction] = {}
            for mu, vals in weighted:
                c = table[lam, mu]
                if c:
                    for d, v in vals.items():
                        acc[d] = acc.get(d, 0) + c * v
            yield lam, {d: v for d, v in acc.items() if v}

    def schur_decomposition(self) -> dict[Partition, TPoly]:
        """Multiplicity polynomial of every irreducible; complete for class functions."""
        order = math.factorial(self.n)
        return {lam: TPoly._wrap({d: exact_div(v, order) for d, v in m.items()})
                for lam, m in self._scaled_multiplicities()}

    def is_genuine(self) -> bool:
        """True when every irreducible occurs with nonnegative integer graded multiplicity."""
        order = math.factorial(self.n)
        return all(v > 0 and not v % order
                   for _, m in self._scaled_multiplicities() for v in m.values())

    def __repr__(self) -> str:
        return f"GradedCharacter(n={self.n}, values={self.values!r})"


@lru_cache(maxsize=None)
def _class_sizes(n: int) -> tuple[tuple[Partition, int], ...]:
    """(mu, n!/z_mu) for every partition mu of n: the class sizes of S_n."""
    order = math.factorial(n)
    return tuple((mu, order // centralizer_order(mu)) for mu in partitions_of(n))


def induce_young(chi1: GradedCharacter, chi2: GradedCharacter) -> GradedCharacter:
    """Induction of an outer tensor product along a two-block parabolic subgroup.

    (Ind chi1 x chi2)(rho) = sum over splittings rho = alpha + beta (as
    multisets) of z_rho / (z_alpha z_beta) * chi1(alpha) * chi2(beta).  The
    ratio is a product of binomial coefficients (which cycles of each
    length go to alpha), so it is an int and integer characters induce to
    integer characters.
    """
    a, b = chi1.n, chi2.n
    n = a + b
    vals: dict[Partition, TPoly] = {}
    for rho in partitions_of(n):
        z_rho = centralizer_order(rho)
        acc = TPoly.zero()
        for alpha, beta in sub_multisets(rho, a):
            coeff = z_rho // (centralizer_order(alpha) * centralizer_order(beta))
            acc = acc + (chi1.values[alpha] * chi2.values[beta]).scale(coeff)
        vals[rho] = acc
    return GradedCharacter(n, vals)


def induce_young_many(chis: list[GradedCharacter]) -> GradedCharacter:
    out = GradedCharacter(0, {(): TPoly.one()})
    for chi in chis:
        out = induce_young(out, chi)
    return out


@lru_cache(maxsize=None)
def character_table(n: int) -> dict[tuple[Partition, Partition], int]:
    """{(lam, mu): chi_lam(mu)} for every pair of partitions of n.

    The Schur certificate (``GradedCharacter.schur_decomposition`` and
    ``is_genuine``) reads its values from here.
    """
    return {
        (lam, mu): irreducible_character_value(lam, mu)
        for lam in partitions_of(n)
        for mu in partitions_of(n)
    }
