"""Composition product and sequence calculus against element-level oracles.

The main oracle builds the composite module literally: a basis vector per
set partition of {0..n-1} (with admissible block sizes), a permutation acts
by moving partitions around, and the trace at each class is a weighted
count of invariant partitions.  This covers trivial and sign entries in
arbitrary degrees, with and without Koszul signs, independently of both
package composition routes.
"""

import random
from itertools import product as iproduct

import pytest

from functorcalc.characters import GradedCharacter
from functorcalc.exactpoly import TPoly, dims_poly
from functorcalc.generate import random_cells
from functorcalc.holim import cells_sequence
from functorcalc.partitions import partitions_of, weight
from functorcalc.symfun import RationalSeries, egf_compose
from functorcalc.symseq import (
    SymSeq,
    TruncationError,
    compose,
    compose_plethysm,
    composition_summand,
    evaluate,
    shift_base,
    unit_seq,
)
from functorcalc.verify import first_difference
from helpers import cycle_type


def perm_sign(perm) -> int:
    return -1 if (len(perm) - len(cycle_type(perm))) % 2 else 1


def permutation_of_type(mu, n):
    perm = []
    start = 0
    for part in mu:
        perm.extend(list(range(start + 1, start + part)) + [start])
        start += part
    assert len(perm) == n
    return tuple(perm)


def set_partitions(elements):
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for p in set_partitions(rest):
        yield (frozenset([first]),) + p
        for i, block in enumerate(p):
            yield p[:i] + (block | {first},) + p[i + 1 :]


def monomial_seq(layout: dict[int, tuple[str, int]]) -> SymSeq:
    """Sequence with trivial or sign entries in chosen degrees: {n: (kind, degree)}."""
    entries = {}
    for n, (kind, degree) in layout.items():
        entries[n] = GradedCharacter.trivial(n, degree) if kind == "h" else GradedCharacter.sign(n, degree)
    return SymSeq(entries)


def oracle_composite_character(a_layout, b_layout, n, signed) -> GradedCharacter:
    """Trace of the composite on each class, by counting invariant set partitions."""
    values = {}
    for mu in partitions_of(n):
        g = permutation_of_type(mu, n)
        total = TPoly.zero()
        for p in set_partitions(tuple(range(n))):
            if len(p) not in a_layout or any(len(b) not in b_layout for b in p):
                continue
            moved = {frozenset(g[i] for i in b) for b in p}
            if moved != set(p):
                continue
            blocks = sorted(p, key=min)
            pi = tuple(blocks.index(frozenset(g[i] for i in blocks[j])) for j in range(len(blocks)))
            a_kind, a_deg = a_layout[len(p)]
            coeff = perm_sign(pi) if a_kind == "e" else 1
            degree = a_deg + sum(b_layout[len(b)][1] for b in p)
            for start in _cycles(pi):
                length = _cycle_len(pi, start)
                block = sorted(blocks[start])
                composite = list(block)
                for _ in range(length):
                    composite = [g[i] for i in composite]
                within = tuple(block.index(i) for i in composite)
                if b_layout[len(block)][0] == "e":
                    coeff *= perm_sign(within)
            if signed:
                odd = [j for j in range(len(blocks)) if b_layout[len(blocks[j])][1] % 2]
                sub = {j: pi[j] for j in odd}
                order = sorted(sub)
                coeff *= perm_sign(tuple(order.index(sub[j]) for j in order))
            total = total + TPoly.term(degree, coeff)
        values[mu] = total
    return GradedCharacter(n, values)


def _cycles(pi):
    seen = set()
    for start in range(len(pi)):
        if start not in seen:
            j = start
            while j not in seen:
                seen.add(j)
                j = pi[j]
            yield start


def _cycle_len(pi, start):
    length, j = 0, start
    while True:
        j = pi[j]
        length += 1
        if j == start:
            return length


ORACLE_CASES = [
    ({1: ("h", 0), 2: ("h", 0)}, {1: ("h", 0), 2: ("h", 0)}),
    ({2: ("h", 0)}, {2: ("h", 0)}),
    ({2: ("e", 0)}, {2: ("e", 0)}),
    ({2: ("h", 1)}, {1: ("h", 1), 2: ("e", 0)}),
    ({1: ("h", 0), 3: ("e", 2)}, {1: ("h", 1), 2: ("h", 1)}),
    ({2: ("e", 1), 3: ("h", 0)}, {1: ("e", 1), 2: ("h", 2)}),
]


@pytest.mark.parametrize("a_layout,b_layout", ORACLE_CASES)
@pytest.mark.parametrize("signed", [False, True])
def test_compose_matches_set_partition_oracle(a_layout, b_layout, signed):
    A = monomial_seq(a_layout)
    B = monomial_seq(b_layout)
    got = compose(A, B, signed=signed, bound=5)
    for n in range(6):
        assert got.entry(n) == oracle_composite_character(a_layout, b_layout, n, signed)


def random_complete_seq(rng: random.Random, max_entry: int = 3, max_deg: int = 2, allow_const: bool = False) -> SymSeq:
    entries = {}
    for n in range(0 if allow_const else 1, max_entry + 1):
        chi = GradedCharacter.zero(n)
        for lam in partitions_of(n):
            if rng.random() < 0.4:
                chi = chi + GradedCharacter.irreducible(lam, degree=rng.randrange(0, max_deg + 1))
        if not chi.is_zero():
            entries[n] = chi
    return SymSeq(entries)


@pytest.mark.parametrize("signed", [False, True])
def test_compose_routes_agree(signed):
    rng = random.Random(42 + signed)
    for _ in range(8):
        A = random_complete_seq(rng, allow_const=True)
        B = random_complete_seq(rng)
        lhs = compose(A, B, signed=signed, bound=6)
        rhs = compose_plethysm(A, B, signed=signed, bound=6)
        assert first_difference(lhs, rhs, 6) is None


@pytest.mark.parametrize("signed", [False, True])
def test_unit_laws(signed):
    rng = random.Random(17 + signed)
    for route in (compose, compose_plethysm):
        for _ in range(4):
            A = random_complete_seq(rng, allow_const=True)
            assert route(A, unit_seq(), signed=signed) == A
            reduced = random_complete_seq(rng)
            assert route(unit_seq(), reduced, signed=signed) == reduced


@pytest.mark.parametrize("signed", [False, True])
def test_associativity(signed):
    rng = random.Random(23 + signed)
    for _ in range(4):
        A = random_complete_seq(rng, max_entry=2, allow_const=True)
        B = random_complete_seq(rng, max_entry=2)
        C = random_complete_seq(rng, max_entry=2)
        lhs = compose(compose(A, B, signed=signed, bound=5), C, signed=signed, bound=5)
        rhs = compose(A, compose(B, C, signed=signed, bound=5), signed=signed, bound=5)
        assert first_difference(lhs, rhs, 5) is None


def test_compose_requires_reduced_inner():
    A = random_complete_seq(random.Random(1))
    B = SymSeq({0: GradedCharacter.trivial(0), 1: GradedCharacter.trivial(1)})
    with pytest.raises(ValueError):
        compose(A, B)


def test_composition_summand_at_empty_partition():
    A = SymSeq({0: GradedCharacter.trivial(0, degree=2), 2: GradedCharacter.trivial(2)})
    B = random_complete_seq(random.Random(2))
    assert composition_summand(A, B, ()) == GradedCharacter.trivial(0, degree=2)
    assert compose(A, B).entry(0) == GradedCharacter.trivial(0, degree=2)


def brute_sym_power(X: TPoly, k: int, signed: bool) -> TPoly:
    """Multisets of basis vectors, with repeats of odd-degree vectors banned when signed."""
    basis = []
    for d, m in sorted(X.c.items()):
        basis.extend([d] * m)
    out = TPoly.zero()

    def rec(i, left, deg, last_odd_used):
        nonlocal out
        if left == 0:
            out = out + TPoly.term(deg)
            return
        if i == len(basis):
            return
        rec(i + 1, left, deg, None)
        if signed and basis[i] % 2:
            rec(i + 1, left - 1, deg + basis[i], None)
        else:
            for r in range(1, left + 1):
                rec(i + 1, left - r, deg + r * basis[i], None)

    rec(0, k, 0, None)
    return out


def brute_alt_power(X: TPoly, k: int, signed: bool) -> TPoly:
    """Subsets when unsigned; odd-degree vectors become repeatable when signed."""
    basis = []
    for d, m in sorted(X.c.items()):
        basis.extend([d] * m)
    out = TPoly.zero()

    def rec(i, left, deg):
        nonlocal out
        if left == 0:
            out = out + TPoly.term(deg)
            return
        if i == len(basis):
            return
        rec(i + 1, left, deg)
        if signed and basis[i] % 2:
            for r in range(1, left + 1):
                rec(i + 1, left - r, deg + r * basis[i])
        else:
            rec(i + 1, left - 1, deg + basis[i])

    rec(0, k, 0)
    return out


@pytest.mark.parametrize("signed", [False, True])
def test_evaluate_matches_brute_force_powers(signed):
    spaces = [dims_poly({0: 2}), dims_poly({0: 1, 1: 1}), dims_poly({1: 2, 2: 1}), dims_poly({0: 1, 3: 2})]
    for X in spaces:
        for k in range(0, 4):
            sym = SymSeq({k: GradedCharacter.trivial(k)})
            alt = SymSeq({k: GradedCharacter.sign(k)})
            assert evaluate(sym, X, signed) == brute_sym_power(X, k, signed)
            assert evaluate(alt, X, signed) == brute_alt_power(X, k, signed)


def test_signed_square_of_odd_line_vanishes():
    line = dims_poly({1: 1})
    sym2 = SymSeq({2: GradedCharacter.trivial(2)})
    assert evaluate(sym2, line, signed=True) == TPoly.zero()
    assert evaluate(sym2, line, signed=False) == TPoly.term(2)


@pytest.mark.parametrize("signed", [False, True])
def test_evaluate_agrees_with_composition_invariants(signed):
    rng = random.Random(31 + signed)
    for _ in range(5):
        A = random_complete_seq(rng, allow_const=True)
        X = dims_poly({0: rng.randrange(0, 3), 1: rng.randrange(0, 3), 2: rng.randrange(0, 2)})
        B = SymSeq({1: GradedCharacter(1, {(1,): X})}) if X else SymSeq({})
        via_compose = TPoly.zero()
        for n, chi in compose(A, B, signed=signed).entries.items():
            via_compose = via_compose + chi.inner(GradedCharacter.trivial(n))
        assert evaluate(A, X, signed) == via_compose


@pytest.mark.parametrize("signed", [False, True])
def test_shift_base_additivity(signed):
    rng = random.Random(37 + signed)
    for _ in range(5):
        A = random_complete_seq(rng, allow_const=True)
        X = dims_poly({0: rng.randrange(0, 2), 2: rng.randrange(0, 2)})
        Y = dims_poly({0: rng.randrange(0, 2), 1: rng.randrange(0, 2)})
        shifted = shift_base(A, X, signed)
        assert evaluate(shifted, Y, signed) == evaluate(A, X + Y, signed)
        assert shift_base(A, TPoly.zero(), signed) == A


def test_shift_base_square_example():
    # re-expanding the squaring functor around X: entry 1 is X many lines, entry 2 unchanged
    sym2 = SymSeq({2: GradedCharacter.trivial(2)})
    X = dims_poly({0: 2, 1: 1})
    shifted = shift_base(sym2, X)
    assert shifted.entry(2) == GradedCharacter.trivial(2)
    assert shifted.entry(1) == GradedCharacter(1, {(1,): X})
    assert shifted.entry(0).dim_poly() == brute_sym_power(X, 2, False)


def test_truncate_window_and_errors():
    A = random_complete_seq(random.Random(3), max_entry=3)
    cut = A.truncate(2)
    assert cut.complete and cut.degree() <= 2
    win = SymSeq({m: chi for m, chi in A.entries.items() if m <= 2}, bound=2)
    assert not win.complete
    with pytest.raises(TruncationError):
        win.entry(3)
    with pytest.raises(TruncationError):
        evaluate(win, TPoly.one())
    with pytest.raises(ValueError):
        SymSeq({2: GradedCharacter.trivial(1)})
    with pytest.raises(ValueError):
        SymSeq({3: GradedCharacter.trivial(3)}, bound=2)


def dims_series(A: SymSeq, order: int) -> RationalSeries:
    """Exponential generating function of graded entry dimensions."""
    return RationalSeries([A.entry(n).dim_poly() for n in range(order + 1)])


def test_dims_series_composes():
    # entry dimensions are blind to how permutations act, so the generating
    # function identity holds with and without Koszul signs
    rng = random.Random(5)
    for signed in (False, True):
        A = random_complete_seq(rng, max_entry=2, allow_const=True)
        B = random_complete_seq(rng, max_entry=2)
        comp = compose(A, B, signed=signed)
        order = max(comp.degree(), 1)
        lhs = dims_series(comp, order)
        rhs = egf_compose(dims_series(A, order), dims_series(B, order))
        assert lhs == rhs


def test_compose_bound_semantics():
    A = random_complete_seq(random.Random(8), max_entry=3)
    B = random_complete_seq(random.Random(9), max_entry=3)
    capped = compose(A, B, bound=4)
    assert not capped.complete and capped.bound == 4
    full = compose(A, B)
    assert full.complete
    assert first_difference(full, capped, 4) is None
    with pytest.raises(TruncationError):
        compose(SymSeq({m: chi for m, chi in A.entries.items() if m <= 2}, bound=2), B, bound=5)


@pytest.mark.parametrize("signed", [False, True])
def test_product_routes_return_int_characters(signed):
    """Both product routes hand on int coefficients for cell inputs, so the
    Schur certificate downstream computes on ints."""
    rng = random.Random(311 + signed)
    for _ in range(4):
        A = cells_sequence(random_cells(rng, max_degree=3))
        B = cells_sequence(random_cells(rng, max_degree=2)).reduced_part()
        for route in (compose, compose_plethysm):
            seq = route(A, B, signed=signed)
            coeffs = [v for chi in seq.entries.values() for val in chi.values.values() for v in val.c.values()]
            assert coeffs and all(type(v) is int for v in coeffs), route.__name__
