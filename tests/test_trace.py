"""Trace engine against the algebraic composition and base-change routes."""

import random

import pytest

from functorcalc.characters import GradedCharacter
from functorcalc.exactpoly import dims_poly
from functorcalc.generate import random_cells
from functorcalc.holim import cells_sequence
from functorcalc.partitions import partitions_of
from functorcalc.symseq import SymSeq, compose, evaluate, shift_base, unit_seq
from functorcalc.trace import (
    InducedPow,
    LinesPow,
    SpacePow,
    SumPow,
    composite_derivatives,
    multi_trace,
)
from functorcalc.verify import first_difference


def random_seq(rng: random.Random, max_entry: int = 3, max_deg: int = 2, allow_const: bool = False) -> SymSeq:
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
def test_extraction_inverts_evaluation(signed):
    rng = random.Random(101 + signed)
    for _ in range(6):
        A = random_seq(rng, allow_const=True)
        got = composite_derivatives(A, unit_seq(), 3, signed)
        assert first_difference(got, A, 3) is None


@pytest.mark.parametrize("signed", [False, True])
def test_composite_traces_match_composition_product(signed):
    rng = random.Random(211 + signed)
    for _ in range(5):
        F = random_seq(rng, max_entry=3, allow_const=True)
        G = random_seq(rng, max_entry=3)
        via_traces = composite_derivatives(F, G, 4, signed)
        via_algebra = compose(F, G, signed=signed, bound=4)
        assert first_difference(via_traces, via_algebra, 4) is None


@pytest.mark.parametrize("signed", [False, True])
def test_traced_base_change_matches_shift(signed):
    rng = random.Random(307 + signed)
    for _ in range(5):
        A = random_seq(rng, allow_const=True)
        X = dims_poly({0: rng.randrange(0, 3), 1: rng.randrange(0, 2), 2: rng.randrange(0, 2)})
        got = composite_derivatives(A, unit_seq(), 3, signed, base=X)
        assert first_difference(got, shift_base(A, X, signed), 3) is None


@pytest.mark.parametrize("signed", [False, True])
def test_composite_traces_at_a_base_point(signed):
    rng = random.Random(401 + signed)
    for _ in range(4):
        F = random_seq(rng, max_entry=2, allow_const=True)
        G = random_seq(rng, max_entry=2)
        X = dims_poly({0: rng.randrange(0, 2), 1: rng.randrange(0, 2)})
        via_traces = composite_derivatives(F, G, 3, signed, base=X)
        inner_value = evaluate(G, X, signed)
        claimed = compose(
            shift_base(F, inner_value, signed),
            shift_base(G, X, signed).reduced_part(),
            signed=signed,
            bound=3,
        )
        assert first_difference(via_traces, claimed, 3) is None


@pytest.mark.parametrize("signed", [False, True])
def test_composite_traces_handle_inner_constant(signed):
    rng = random.Random(503 + signed)
    for _ in range(4):
        F = random_seq(rng, max_entry=2, allow_const=True)
        G = random_seq(rng, max_entry=2, allow_const=True)
        got = composite_derivatives(F, G, 3, signed)
        shifted = compose(
            shift_base(F, G.entry(0).dim_poly(), signed),
            G.reduced_part(),
            signed=signed,
            bound=3,
        )
        assert first_difference(got, shifted, 3) is None


def test_multi_trace_single_slot_matches_trace():
    rng = random.Random(601)
    for signed in (False, True):
        F = random_seq(rng, max_entry=3)
        for n in range(1, 4):
            for nu in partitions_of(n):
                fam = LinesPow(nu)
                lhs = multi_trace(F.layer_part(n), [(fam, n)])
                rhs = InducedPow(F.layer_part(n), fam, signed).pow(1)
                assert lhs == rhs


def marked_permutation_trace(nu, m):
    """Oracle: trace of h^m for the explicit marked permutation matrix of LinesPow(nu).

    Line j sits in a cycle of the consecutive blocks nu, and h sends
    line j to the next line of its cycle times the marker x_j.  Entries
    are polynomials {exponent tuple: coefficient} in the n markers, with
    no square-free truncation; monomials with a repeated marker are
    dropped only from the finished trace.
    """
    n = sum(nu)
    succ, start = [], 0
    for part in nu:
        succ += [start + (i + 1) % part for i in range(part)]
        start += part

    def mono(j):
        return tuple(int(i == j) for i in range(n))

    def mat_mul(a, b):
        out = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    for e1, c1 in a[i][k].items():
                        for e2, c2 in b[k][j].items():
                            e = tuple(x + y for x, y in zip(e1, e2))
                            out[i][j][e] = out[i][j].get(e, 0) + c1 * c2
        return out

    h = [[{} for _ in range(n)] for _ in range(n)]
    for j in range(n):
        h[succ[j]][j] = {mono(j): 1}
    power = [[{(0,) * n: 1} if i == j else {} for j in range(n)] for i in range(n)]
    for _ in range(m):
        power = mat_mul(power, h)
    trace = {}
    for i in range(n):
        for e, c in power[i][i].items():
            trace[e] = trace.get(e, 0) + c
    return {e: c for e, c in trace.items() if c and max(e, default=0) <= 1}


def test_lines_pow_is_the_true_trace_of_marked_permutation_powers():
    for n in range(1, 6):
        for nu in partitions_of(n):
            for m in range(1, 7):
                tr = LinesPow(nu).pow(m)
                assert all(d == 0 for _, d in tr.c)
                got = {tuple((mask >> j) & 1 for j in range(n)): c for (mask, _), c in tr.c.items()}
                assert got == marked_permutation_trace(nu, m)


@pytest.mark.parametrize("signed", [False, True])
def test_traces_of_cell_sequences_have_int_coefficients(signed):
    # characters of genuine representations give integer traces, so the
    # class sums' single division by the group order is always exact
    rng = random.Random(701 + signed)
    for _ in range(4):
        F = cells_sequence(random_cells(rng, max_degree=3))
        G = cells_sequence(random_cells(rng, max_degree=3)).reduced_part()
        X = dims_poly({0: rng.randrange(0, 2), 1: rng.randrange(0, 2)})
        for n in range(1, 4):
            for nu in partitions_of(n):
                for fam in (LinesPow(nu), SumPow(SpacePow(X, signed), LinesPow(nu))):
                    inner = InducedPow(G, fam, signed)
                    traces = [inner.pow(m) for m in range(1, 4)]
                    traces.append(InducedPow(F, inner, signed).pow(1))
                    for tr in traces:
                        assert all(type(v) is int for v in tr.c.values())


@pytest.mark.parametrize("signed", [False, True])
def test_base_zero_truncation_keeps_entries_above_the_window_out(signed):
    # factors with entries above nmax: the per-arity truncation at base 0
    # must drop exactly what cannot reach the all-marker coefficient
    rng = random.Random(809 + signed)
    for _ in range(4):
        F = random_seq(rng, max_entry=5, allow_const=True)
        G = random_seq(rng, max_entry=5)
        for nmax in (2, 3):
            assert composite_derivatives(F, G, nmax, signed) == compose(F, G, signed=signed, bound=nmax)
