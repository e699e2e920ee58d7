"""Functor-level calculus: cross-effects, partition summands, layers, towers.

A functor here is a complete symmetric sequence A acting on graded spaces
by V -> sum_n (A_n tensor V^(tensor n)) coinvariants; entry 0 is the
constant term.  Polynomial truncation keeps entries up to n, the n-th
layer keeps exactly entry n.  This module computes the quantities that
the composition product is supposed to predict — cross-effects, the
summand functors attached to partitions, layers of composites, and tower
stages of composites with a homogeneous outer functor — by routes that
never expand the composition product, so that tests can compare the two.
"""

from __future__ import annotations

from itertools import combinations, product

from .characters import GradedCharacter
from .exactpoly import TPoly
from .partitions import (
    Partition,
    PiPoset,
    block_structure,
    class_sum,
    compositions_of,
    multinomial,
    partitions_of,
)
from .symseq import SymSeq, evaluate
from .trace import InducedPow, LinesPow, SpacePow, extract_value, multi_trace


def cross_effect_eval(F: SymSeq, spaces: list[TPoly], signed: bool = False) -> TPoly:
    """r-th cross-effect at r spaces, by the alternating evaluation cube.

    Inclusion-exclusion over subsets of the arguments kills every summand
    that ignores at least one argument, leaving the part multilinear in
    all of them.
    """
    r = len(spaces)
    total = TPoly.zero()
    for size in range(r + 1):
        for subset in combinations(range(r), size):
            acc = TPoly.zero()
            for i in subset:
                acc = acc + spaces[i]
            value = evaluate(F, acc, signed)
            total = total + (value if (r - size) % 2 == 0 else -value)
    return total


def co_cross_effect_eval(F: SymSeq, spaces: list[TPoly], signed: bool = False) -> TPoly:
    """The same multilinear part, from restrictions of the entries.

    Sum over shapes (n_1, ..., n_r) with every n_i >= 1: the entry on
    n_1 + ... + n_r letters, restricted to the product of symmetric
    groups, with slot group i evaluated on the i-th space.
    """
    r = len(spaces)
    total = TPoly.zero()
    for n in range(r, F.degree() + 1):
        chi = F.entry(n)
        if chi.is_zero():
            continue
        for shape in compositions_of(n):
            if len(shape) == r:
                total = total + class_sum(
                    shape, chi.values.__getitem__, lambda i, part: spaces[i].twist(part, signed), lambda v: v
                )
    return total


def _layer_family(G: SymSeq, l: int, inner, signed: bool) -> InducedPow:
    """Trace family of the l-th layer functor of G applied to an inner family."""
    return InducedPow(G.layer_part(l), inner, signed)


def fgl_derivatives(F: SymSeq, G: SymSeq, lam: Partition, nmax: int, signed: bool = False) -> SymSeq:
    """Derivatives of the summand functor attached to a partition, via traces.

    The functor sends V to the coinvariants of F_k tensored with one copy
    of the l_i-th layer of G per block, over the product of symmetric
    groups permuting equal blocks.  Its derivatives are extracted from
    marked-line traces; the composition product predicts a single entry.
    """
    blocks = block_structure(lam)
    entries: dict[int, GradedCharacter] = {}
    for n in range(nmax + 1):
        vals: dict[Partition, TPoly] = {}
        for nu in partitions_of(n):
            fam = LinesPow(nu)
            slots = [(_layer_family(G, l, fam, signed), k) for (l, k) in blocks]
            vals[nu] = extract_value(multi_trace(F, slots), nu)
        entries[n] = GradedCharacter(n, vals)
    return SymSeq(entries, bound=nmax)


def fgl_value(F: SymSeq, G: SymSeq, lam: Partition, X: TPoly, signed: bool = False) -> TPoly:
    """Value of the summand functor attached to a partition on a space."""
    blocks = block_structure(lam)
    slots = [(_layer_family(G, l, SpacePow(X, signed), signed), k) for (l, k) in blocks]
    return multi_trace(F, slots).marker_free()


def layer_value_via_summands(F: SymSeq, G: SymSeq, n: int, X: TPoly, signed: bool = False) -> TPoly:
    """Value of the n-th layer of the composite as a sum of partition summands."""
    total = TPoly.zero()
    for lam in partitions_of(n):
        total = total + fgl_value(F, G, lam, X, signed)
    return total


def dn_product_value(F: SymSeq, G: SymSeq, n: int, X: TPoly, signed: bool = False) -> TPoly:
    """n-th layer of F o G for homogeneous F, from tuples of layers of G.

    F must be concentrated in one entry k.  The value is the sum, over
    multisets of k positive integers with total n, of the coinvariants of
    F_k tensored with the corresponding layers of G.
    """
    k = _homogeneous_degree(F)
    total = TPoly.zero()
    for lam in partitions_of(n):
        if len(lam) == k:
            total = total + fgl_value(F, G, lam, X, signed)
    return total


def pn_limit_value(F: SymSeq, G: SymSeq, n: int, X: TPoly, signed: bool = False) -> TPoly:
    """n-th tower stage of F o G for homogeneous F, through the index poset.

    Builds the diagram over k-tuples of positive integers with sum at most
    n whose object at r is (the value of) F_k tensor the product of the
    r_i-th truncations of G, with projection maps; runs the split limit
    engine to find which product-of-layers labels survive and how often;
    then averages the symmetric group of slot permutations out of each
    orbit of surviving labels.
    """
    from .holim import SplitDiagram, split_limit

    k = _homogeneous_degree(F)
    poset = PiPoset(k, n)
    if not poset.objects:
        return TPoly.zero()

    labels_at: dict[tuple[int, ...], frozenset] = {}
    for r in poset.objects:
        labels_at[r] = frozenset(product(*(range(1, a + 1) for a in r)))
    diagram = SplitDiagram(
        objects=list(poset.objects),
        arrows=poset.arrows(),
        labels=labels_at,
    )
    counts = split_limit(diagram)

    orbit_counts: dict[tuple[int, ...], int] = {}
    for label, mult in counts.items():
        rep = tuple(sorted(label))
        orbit_counts[rep] = orbit_counts.get(rep, 0) + mult

    total = TPoly.zero()
    for rep, mult in sorted(orbit_counts.items()):
        orbit_size = multinomial(tuple(a for _, a in block_structure(rep)))
        if mult % orbit_size:
            raise ArithmeticError(f"limit multiplicity {mult} not a multiple of orbit size at {rep}")
        total = total + fgl_value(F, G, rep, X, signed).scale(mult // orbit_size)
    return total


def _homogeneous_degree(F: SymSeq) -> int:
    if not F.complete or len(F.entries) != 1:
        raise ValueError("a homogeneous functor has exactly one nonzero entry")
    return next(iter(F.entries))


def truncation_value(F: SymSeq, n: int, X: TPoly, signed: bool = False) -> TPoly:
    """Value of the n-th polynomial truncation on a space."""
    return evaluate(F.truncate(n), X, signed)


def tower_stage_square_value(F: SymSeq, G: SymSeq, n: int, X: TPoly, signed: bool = False) -> TPoly:
    """Stage n of the composite tower as a limit of stages of the factors.

    For n up to 3, builds the refinement diagram whose objects are
    composites of lower tower stages of F and G (plus, at n = 3, the
    second derivative of F smashed with two tower stages of G) and takes
    its limit with the split engine.  F and G must be reduced.

    The diagonal arrow out of (stage-2 F)(stage-1 G) carries the averaged
    two-block summand into the full tensor square by the norm map.
    Rationally the norm is an isomorphism onto the invariants, and any
    section of the diagram is forced to vanish on the complement of the
    invariants (the other arrow into that corner already lands inside
    them), so the complement label is deleted when the diagram is built
    and the shared label is identified with its averaged source.
    """
    if not F.is_reduced() or not G.is_reduced():
        raise ValueError("tower stage comparison needs reduced sequences")
    if n not in (1, 2, 3):
        raise ValueError("only stages 1 to 3 are modeled")

    lin1, lin2, lin3 = ("lin", 1), ("lin", 2), ("lin", 3)
    quad11, quad12, cub111 = ("orb", (1, 1)), ("orb", (1, 2)), ("orb", (1, 1, 1))
    label_reps = {lin1: (1,), lin2: (2,), lin3: (3,), quad11: (1, 1), quad12: (1, 2), cub111: (1, 1, 1)}

    if n == 1:
        objects = {"F1G1": {lin1}}
        arrows = []
    elif n == 2:
        objects = {
            "F1G2": {lin1, lin2},
            "F2G1": {lin1, quad11},
            "F1G1": {lin1},
        }
        arrows = [("F1G2", "F1G1"), ("F2G1", "F1G1")]
    else:
        objects = {
            "F1G3": {lin1, lin2, lin3},
            "F3G1": {lin1, quad11, cub111},
            "d2F.G1G2": {quad11, quad12},
            "F1G2": {lin1, lin2},
            "F2G1": {lin1, quad11},
            "d2F.G1G1": {quad11},
            "F1G1": {lin1},
        }
        arrows = [
            ("F1G3", "F1G2"),
            ("F1G2", "F1G1"),
            ("F3G1", "F2G1"),
            ("F2G1", "F1G1"),
            ("F2G1", "d2F.G1G1"),
            ("d2F.G1G2", "d2F.G1G1"),
        ]

    from .holim import SplitDiagram, split_limit

    diagram = SplitDiagram(objects=list(objects), arrows=arrows, labels={k: frozenset(v) for k, v in objects.items()})
    counts = split_limit(diagram)
    total = TPoly.zero()
    for label, mult in sorted(counts.items()):
        total = total + fgl_value(F, G, label_reps[label], X, signed).scale(mult)
    return total
