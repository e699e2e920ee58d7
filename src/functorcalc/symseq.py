"""Symmetric sequences and the composition product.

A symmetric sequence assigns to each n >= 0 a graded character of the
n-th symmetric group; entry 0 is a plain graded space (the constant
term).  Sequences either know all their entries (``complete``, finitely
supported) or only a window 0..bound of them; operations track which.

The composition product is computed two independent ways:

* per-partition route: for each partition of n, induce the restriction
  of an outer entry tensored with inner entries along the corresponding
  product of wreath products, as a class sum over the restriction whose
  cycles are filled with twisted characteristics of the inner entries;
* plethysm route: apply the characteristic transform to both sequences
  and substitute one total symmetric function into the other.

Both accept a ``signed`` flag that makes permutations of tensor factors
act with Koszul signs (odd grading contributes a sign per transposition);
the flag only changes power-sum twists, never stored characters.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import GradedCharacter
from .exactpoly import Scalar, TPoly, exact_div
from .partitions import (
    Partition,
    block_structure,
    class_sum,
    concat,
    partitions_of,
    weight,
)
from .symfun import PSPoly, plethysm


class TruncationError(ValueError):
    """An entry beyond the known window of a truncated sequence was requested."""


class SymSeq:
    """Symmetric sequence of graded characters.

    entries: {n: GradedCharacter on n letters}, zero entries omitted.
    bound:   None for a complete (finitely supported, fully known)
             sequence, else the last index whose entry is known.
    """

    __slots__ = ("entries", "bound")

    def __init__(self, entries: dict[int, GradedCharacter], bound: int | None = None):
        clean: dict[int, GradedCharacter] = {}
        for n, chi in entries.items():
            if chi.n != n:
                raise ValueError(f"entry {n} is a character on {chi.n} letters")
            if not chi.is_zero():
                clean[n] = chi
        if bound is not None and any(n > bound for n in clean):
            raise ValueError("entry beyond the stated bound")
        self.entries = clean
        self.bound = bound

    @property
    def complete(self) -> bool:
        return self.bound is None

    def degree(self) -> int:
        """Largest index with a nonzero entry (complete sequences only)."""
        if not self.complete:
            raise TruncationError("degree of a truncated sequence is unknown")
        return max(self.entries, default=0)

    def entry(self, n: int) -> GradedCharacter:
        if not self.complete and n > self.bound:
            raise TruncationError(f"entry {n} beyond window 0..{self.bound}")
        return self.entries.get(n, GradedCharacter.zero(n))

    def is_reduced(self) -> bool:
        return 0 not in self.entries

    def reduced_part(self) -> "SymSeq":
        """The same sequence with the constant entry removed."""
        return SymSeq({n: chi for n, chi in self.entries.items() if n > 0}, self.bound)

    def __add__(self, other: "SymSeq") -> "SymSeq":
        bound = _min_bound(self.bound, other.bound)
        top = max(list(self.entries) + list(other.entries), default=0) if bound is None else bound
        return SymSeq(
            {n: self.entry(n) + other.entry(n) for n in range(top + 1)},
            bound,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymSeq):
            return NotImplemented
        return self.bound == other.bound and self.entries == other.entries

    def truncate(self, n: int) -> "SymSeq":
        """Kill all entries above n; the result is complete of degree <= n."""
        return SymSeq({m: chi for m, chi in self.entries.items() if m <= n})

    def layer_part(self, n: int) -> "SymSeq":
        """The single entry n, as a complete sequence."""
        return SymSeq({n: self.entry(n)})

    def __repr__(self) -> str:
        rng = "complete" if self.complete else f"bound={self.bound}"
        return f"SymSeq({sorted(self.entries)}, {rng})"


def _min_bound(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def unit_seq() -> SymSeq:
    """Unit of the composition product: one trivial line in entry 1."""
    return SymSeq({1: GradedCharacter.trivial(1)})


def composition_summand(A: SymSeq, B: SymSeq, lam: Partition, signed: bool = False) -> GradedCharacter:
    """The summand of (A o B) at one partition of n.

    For n = k_1*l_1 + ... + k_r*l_r this is the induction, from the product
    of wreath products over the blocks, of (restriction of A_k) tensored
    with one copy of B_{l_i} per block, with k = k_1 + ... + k_r.  Computed
    as the class sum of A_k over the product of the symmetric groups on
    k_1, ..., k_r letters, a cycle of length m in group i contributing
    the characteristic of B_{l_i} twisted by m (signed when asked).  Every
    term has weight exactly n, so nothing needs truncating.
    """
    n = weight(lam)
    blocks = block_structure(lam)
    a_k = A.entry(len(lam))
    if a_k.is_zero():
        return GradedCharacter.zero(n)

    inners = [PSPoly.from_character(B.entry(l)) for l, _ in blocks]
    twisted: dict[tuple[int, int], PSPoly] = {}

    def image(i: int, m: int) -> PSPoly:
        if (i, m) not in twisted:
            twisted[i, m] = inners[i].twist(m, signed)
        return twisted[i, m]

    groups = tuple(k for _, k in blocks)
    return class_sum(groups, a_k.values.__getitem__, image, lambda v: PSPoly({(): v})).to_character(n)


def _compose_bounds(A: SymSeq, B: SymSeq, bound: int | None) -> tuple[int, bool]:
    """Effective computation window and completeness of a composite."""
    if not B.is_reduced():
        raise ValueError("inner sequence of a composite must be reduced (no constant term)")
    if A.complete and B.complete:
        full = A.degree() * max(B.degree(), 0) if A.degree() else 0
        # the constant entry of A survives composition even when A has degree 0
        full = max(full, 0)
        eff = full if bound is None else min(bound, full)
        return eff, eff >= full
    avail = _min_bound(A.bound, B.bound)
    if bound is None:
        if avail is None:
            raise TruncationError("composite of unbounded sequences needs an explicit bound")
        return avail, False
    if avail is not None and bound > avail:
        raise TruncationError(f"composite bound {bound} exceeds known window {avail}")
    return bound, False


def compose(A: SymSeq, B: SymSeq, signed: bool = False, bound: int | None = None) -> SymSeq:
    """Composition product, summand by summand over partitions."""
    eff, full = _compose_bounds(A, B, bound)
    entries: dict[int, GradedCharacter] = {}
    for n in range(eff + 1):
        acc = GradedCharacter.zero(n)
        for lam in partitions_of(n):
            acc = acc + composition_summand(A, B, lam, signed)
        entries[n] = acc
    return SymSeq(entries, None if full else eff)


def compose_plethysm(A: SymSeq, B: SymSeq, signed: bool = False, bound: int | None = None) -> SymSeq:
    """Composition product through the characteristic transform (independent route)."""
    eff, full = _compose_bounds(A, B, bound)
    f = PSPoly.zero()
    for k in range(eff + 1):
        f = f + PSPoly.from_character(A.entry(k))
    g = PSPoly.zero()
    for l in range(1, eff + 1):
        g = g + PSPoly.from_character(B.entry(l))
    h = plethysm(f, g, signed, max_weight=eff)
    entries = {n: h.to_character(n) for n in range(eff + 1)}
    return SymSeq(entries, None if full else eff)


def evaluate(A: SymSeq, X: TPoly, signed: bool = False) -> TPoly:
    """Graded dimension of the sequence applied to a graded space.

    Sum over n of the coinvariants of entry_n tensor X^(tensor n): each
    class of cycle type mu contributes chi(mu)/z_mu times the product over
    parts m of the trace of an m-cycle on X^(tensor m), which is the
    dimension polynomial twisted by t -> (+-) t^m.
    """
    if not A.complete:
        raise TruncationError("evaluation requires a complete sequence")
    if not X.is_nonneg_integral() and X:
        raise ValueError("spaces must have nonnegative integer graded dimensions")
    total = TPoly.zero()
    for n, chi in A.entries.items():
        total = total + class_sum((n,), chi.values.__getitem__, lambda _, m: X.twist(m, signed), lambda v: v)
    return total


def shift_base(A: SymSeq, X: TPoly, signed: bool = False) -> SymSeq:
    """Sequence of the same functor re-expanded around the base point X.

    Entry n at a class nu collects, over all m and partitions mu of m, the
    trace of entry n+m at the class nu + mu weighted by 1/z_mu and by the
    twisted dimension polynomial of X per part of mu: extra tensor slots
    are filled with X and averaged out.
    """
    if not A.complete:
        raise TruncationError("base change requires a complete sequence")
    deg = A.degree()
    entries: dict[int, GradedCharacter] = {}
    for n in range(deg + 1):
        vals: dict[Partition, TPoly] = {}
        for nu in partitions_of(n):
            acc = TPoly.zero()
            for m in range(0, deg - n + 1):
                values = A.entry(n + m).values
                acc = acc + class_sum(
                    (m,), lambda mu: values[concat(nu, mu)], lambda _, part: X.twist(part, signed), lambda v: v
                )
            vals[nu] = acc
        entries[n] = GradedCharacter(n, vals)
    return SymSeq(entries)


def compose_around(
    F: SymSeq,
    G: SymSeq,
    X: TPoly,
    signed: bool = False,
    bound: int | None = None,
    compose_fn=compose,
) -> SymSeq:
    """Chain-rule product at the base point X, the prediction for the
    derivatives of V -> F(G(X + V)).

    The derivatives of F re-expanded around G(X), composed with those of
    G re-expanded around X with the constant entry removed.  compose_fn
    replaces the composition product (the battery's self-test feeds a
    corrupted one).
    """
    return compose_fn(
        shift_base(F, evaluate(G, X, signed), signed),
        shift_base(G, X, signed).reduced_part(),
        signed=signed,
        bound=bound,
    )


def _scalar_to_json(a: Fraction):
    """Exact scalar as a JSON value: int when integral, else "p/q"."""
    frac = Fraction(a)
    if frac.denominator == 1:
        return int(frac)
    return f"{frac.numerator}/{frac.denominator}"


def _scalar_from_json(v) -> Scalar:
    """Exact scalar from a JSON value, by the ``exact_div`` rule: an int when integral, else a Fraction."""
    if isinstance(v, bool):
        raise ValueError("scalar values must be integers or 'p/q' strings")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return exact_div(Fraction(v), 1)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational scalar {v!r}") from exc
    raise ValueError("scalar values must be integers or 'p/q' strings")


def reject_unknown_keys(doc: dict, known: tuple[str, ...], what: str) -> None:
    """Raise ValueError naming the first key of doc that is not in known: a
    misspelled key would otherwise read as a different input."""
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {what} (expected {', '.join(known)})")


def space_to_json(X: TPoly) -> dict:
    """Graded space as {"dims": {degree: dimension}} with string keys."""
    return {"dims": {str(d): _scalar_to_json(X.coeff(d)) for d in X.support()}}


def space_from_json(data) -> TPoly:
    """Parse a graded space; dimensions must be nonnegative integers."""
    if not isinstance(data, dict) or not isinstance(data.get("dims"), dict):
        raise ValueError("a graded space is {'dims': {degree: dimension}}")
    reject_unknown_keys(data, ("dims",), "a graded space")
    coeffs: dict[int, int] = {}
    for key, val in data["dims"].items():
        try:
            d = int(key)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"degree key {key!r} is not an integer") from exc
        dim = _scalar_from_json(val)
        if not isinstance(dim, int) or dim < 0:
            raise ValueError(f"dimension at degree {d} must be a nonnegative integer")
        if dim:
            coeffs[d] = dim
    return TPoly(coeffs)


def seq_to_json(A: SymSeq, cells=None) -> dict:
    """Serialize a sequence: characters grouped by entry and internal degree.

    Each entry lists, per degree d, the nonzero class-function values as
    [partition, value] pairs in a fixed class order, so equal sequences
    serialize to identical documents.  An optional cell presentation
    (the generator form) is embedded verbatim under "cells".
    """
    entries = []
    for n in sorted(A.entries):
        chi = A.entries[n]
        degree_set = sorted({d for poly in chi.values.values() for d in poly.support()})
        degrees = []
        for d in degree_set:
            items = []
            for mu in partitions_of(n):
                c = chi.values[mu].coeff(d)
                if c:
                    items.append([list(mu), _scalar_to_json(c)])
            if items:
                degrees.append({"d": d, "character": items})
        if degrees:
            entries.append({"n": n, "degrees": degrees})
    doc = {"bound": A.bound, "entries": entries}
    if cells is not None:
        from .holim import cells_to_json

        doc["cells"] = cells_to_json(cells)
    return doc


def seq_from_json(data) -> SymSeq:
    """Parse a sequence document, accepting either presentation.

    With only "entries", the characters are read off directly (under the
    stated bound, null meaning complete).  With "cells", the sequence is
    built from the cell presentation; if explicit entries are also
    present the two must agree exactly, otherwise the document is
    rejected as inconsistent.
    """
    if not isinstance(data, dict):
        raise ValueError("a sequence document must be a JSON object")
    reject_unknown_keys(data, ("bound", "entries", "cells"), "a sequence document")
    bound = data.get("bound")
    if bound is not None and (isinstance(bound, bool) or not isinstance(bound, int) or bound < 0):
        raise ValueError("bound must be null or a nonnegative integer")
    raw_entries = data.get("entries", [])
    if not isinstance(raw_entries, list):
        raise ValueError("entries must be a list")
    entries: dict[int, GradedCharacter] = {}
    for item in raw_entries:
        if not isinstance(item, dict):
            raise ValueError("each entry must be an object with 'n' and 'degrees'")
        reject_unknown_keys(item, ("n", "degrees"), "an entry")
        n = item.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError("entry index n must be a nonnegative integer")
        if n in entries:
            raise ValueError(f"entry {n} appears twice")
        if bound is not None and n > bound:
            raise ValueError(f"entry {n} lies beyond the stated bound {bound}")
        classes = tuple(partitions_of(n))
        vals: dict = {mu: TPoly.zero() for mu in classes}
        degrees = item.get("degrees", [])
        if not isinstance(degrees, list):
            raise ValueError("degrees must be a list")
        seen_d = set()
        for block in degrees:
            if not isinstance(block, dict):
                raise ValueError("each degree block must be an object with 'd' and 'character'")
            reject_unknown_keys(block, ("d", "character"), f"a degree block of entry {n}")
            d = block.get("d")
            if isinstance(d, bool) or not isinstance(d, int):
                raise ValueError("internal degree d must be an integer")
            if d in seen_d:
                raise ValueError(f"degree {d} appears twice in entry {n}")
            seen_d.add(d)
            char = block.get("character", [])
            if not isinstance(char, list):
                raise ValueError("character must be a list of [partition, value] pairs")
            seen_mu = set()
            for pair in char:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ValueError("character items are [partition, value] pairs")
                parts, raw_val = pair
                if not (isinstance(parts, list) and all(isinstance(p, int) and not isinstance(p, bool) and p > 0 for p in parts)):
                    raise ValueError(f"malformed cycle type {parts!r} in entry {n}")
                mu = tuple(sorted(parts))
                if sum(mu) != n:
                    raise ValueError(f"cycle type {parts!r} is not a partition of {n}")
                if mu in seen_mu:
                    raise ValueError(f"cycle type {parts!r} appears twice at degree {d} of entry {n}")
                seen_mu.add(mu)
                val = _scalar_from_json(raw_val)
                if val:
                    vals[mu] = vals[mu] + TPoly.term(d, val)
        chi = GradedCharacter(n, vals)
        if not chi.is_zero():
            entries[n] = chi
    from_entries = SymSeq(entries, bound=bound)
    raw_cells = data.get("cells")
    if raw_cells is None:
        return from_entries
    from .holim import cells_from_json, cells_sequence

    from_cells = cells_sequence(cells_from_json(raw_cells))
    if raw_entries:
        if bound is not None:
            raise ValueError("a document with both cells and entries must be complete (bound null)")
        if from_cells != from_entries:
            raise ValueError("cells and entries describe different sequences")
    return from_cells
