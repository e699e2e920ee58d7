"""Equivariant graded traces of composite evaluations.

The semantic route to derivatives: evaluate a functor on a sum of marked
lines, let a permutation act, and read characters off the marker
monomial where every line appears exactly once.

For a graded space W with an operator h, the whole trace calculus only
needs the family pow_m(W, h) = twisted trace of h^m (the twist sends a
degree-d piece to degree m*d, with a sign (-1)^((m-1)d) in Koszul mode):
the trace of a permutation with cycle type mu acting on W^(tensor n)
intertwined with h per slot is the product of pow over the parts of mu.
Evaluations of a sequence then have traces

    trace = sum_k sum_{mu of k} chi_k(mu)/z_mu * prod_i pow_{mu_i},

which is ``InducedPow(F, family, signed).pow(1)``; the same class sum
computes pow_m of an evaluation from pow of the inputs, with the entry
characters twisted — no induced matrices are ever formed.

Every pow is a true trace.  Traces of polynomial functors are integer
polynomials in the eigenvalues (Macdonald, Symmetric Functions and Hall
Polynomials, I.7), so for characters of virtual representations every
pow has ``int`` coefficients and the class sums, which divide by the
group order once per sum, never leave the integers.  Marker bookkeeping
uses square-free masks; dropping repeated markers is exact for the
extracted coefficients because a monomial with a repeated marker can
never multiply back into a square-free one.
"""

from __future__ import annotations

from .characters import GradedCharacter
from .exactpoly import MaskPoly, TPoly
from .partitions import Partition, class_sum, partitions_of
from .symseq import SymSeq


_NO_LINES = MaskPoly.zero()


class LinesPow:
    """Marked zero-degree lines permuted by a permutation of cycle type nu.

    The operator h sends line j to the next line of its cycle, times the
    marker x_j.  On a cycle of length c, h^c is the product of the
    cycle's markers on each of its c lines, so the trace of h^m is m
    times the sum, over the m-cycles, of the product of their markers: a
    line contributes only when its cycle length divides m, and any
    shorter cycle would repeat a marker.
    """

    def __init__(self, nu: Partition, first_marker: int = 0):
        by_length: dict[int, list[int]] = {}
        j = first_marker
        for part in nu:
            mask = 0
            for _ in range(part):
                mask |= 1 << j
                j += 1
            by_length.setdefault(part, []).append(mask)
        self._pows = {m: MaskPoly({(mask, 0): m for mask in masks}) for m, masks in by_length.items()}

    def pow(self, m: int) -> MaskPoly:
        return self._pows.get(m, _NO_LINES)


class SpacePow:
    """A fixed graded space with the identity operator."""

    def __init__(self, X: TPoly, signed: bool):
        self.X = X
        self.signed = signed

    def pow(self, m: int) -> MaskPoly:
        return MaskPoly.from_tpoly(self.X.twist(m, self.signed))


class SumPow:
    """Direct sum: traces add."""

    def __init__(self, *parts):
        self.parts = parts

    def pow(self, m: int) -> MaskPoly:
        out = MaskPoly.zero()
        for p in self.parts:
            out = out + p.pow(m)
        return out


class InducedPow:
    """Evaluation of a sequence on an inner family, as a new pow family.

    pow_m(G(W)) = sum_k sum_{mu of k} chi_{G_k}(mu) twisted by m, over
    z_mu, times prod_i pow_{m * mu_i}(W): powers of an induced operator
    are induced from powers, so the recursion never leaves trace data.
    For a true-trace inner family and characters of virtual
    representations the result has ``int`` coefficients.
    """

    def __init__(self, G: SymSeq, inner, signed: bool):
        if not G.complete:
            raise ValueError("trace recursion needs a complete sequence")
        self.G = G
        self.inner = inner
        self.signed = signed
        self._cache: dict[int, MaskPoly] = {}

    def pow(self, m: int) -> MaskPoly:
        if m not in self._cache:
            total = MaskPoly.zero()
            for k, chi in self.G.entries.items():
                total = total + class_sum(
                    (k,),
                    lambda mu: chi.values[mu].twist(m, self.signed),
                    lambda _, part: self.inner.pow(m * part),
                    MaskPoly.from_tpoly,
                )
            self._cache[m] = total
        return self._cache[m]


def multi_trace(F: SymSeq, slots: list[tuple[object, int]]) -> MaskPoly:
    """Trace on the multilinear part of F with slot groups filled by families.

    slots = [(family_1, k_1), ..., (family_r, k_r)]: the entry of F on
    k = k_1 + ... + k_r letters is restricted to the product of symmetric
    groups permuting equal slots, slot group i is filled with k_i copies
    of family i, and coinvariants are taken by averaging over classes.
    The families already carry the sign mode.
    """
    if not F.complete:
        raise ValueError("trace evaluation needs a complete sequence")
    groups = tuple(ki for _, ki in slots)
    return class_sum(
        groups,
        F.entry(sum(groups)).values.__getitem__,
        lambda i, part: slots[i][0].pow(part),
        MaskPoly.from_tpoly,
    )


def extract_value(tr: MaskPoly, nu: Partition) -> TPoly:
    """Character value at nu from the all-markers coefficient of a trace.

    With one marker per line, a permutation of cycle type nu acting on
    the lines through ``LinesPow(nu)`` acts on the multilinear part of
    F(lines), which is the entry F_n itself, times the product of all n
    markers.  The coefficient of that square-free monomial in the true
    trace is therefore the character value of F_n at nu.
    """
    return tr.coeff_mask((1 << sum(nu)) - 1)


def composite_derivatives(
    F: SymSeq,
    G: SymSeq,
    nmax: int,
    signed: bool = False,
    base: TPoly | None = None,
) -> SymSeq:
    """Derivative sequence of V -> F(G(base + V)), read off twisted traces.

    Entirely independent of the composition product: the composite is
    never expanded, only traced.  At base 0 with G reduced, entry n is
    traced from the truncations of F and G at n: the arity-l entry of G
    puts at least m*l markers into pow_m, and the arity-k entry of F at
    least k, so higher arities cannot reach the monomial of n markers.
    """
    if not (F.complete and G.complete):
        raise ValueError("trace recursion needs a complete sequence")
    at_zero = not base and G.is_reduced()
    entries: dict[int, GradedCharacter] = {}
    for n in range(nmax + 1):
        Fn, Gn = (F.truncate(n), G.truncate(n)) if at_zero else (F, G)
        vals: dict[Partition, TPoly] = {}
        for nu in partitions_of(n):
            fam = LinesPow(nu)
            if base:
                fam = SumPow(SpacePow(base, signed), fam)
            tr = InducedPow(Fn, InducedPow(Gn, fam, signed), signed).pow(1)
            vals[nu] = extract_value(tr, nu)
        entries[n] = GradedCharacter(n, vals)
    return SymSeq(entries, bound=nmax)
