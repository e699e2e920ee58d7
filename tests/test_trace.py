"""Trace engine against the algebraic composition and base-change routes."""

import random

import pytest

from functorcalc.characters import GradedCharacter
from functorcalc.exactpoly import dims_poly
from functorcalc.partitions import partitions_of
from functorcalc.symseq import SymSeq, compose, evaluate, shift_base, unit_seq
from functorcalc.trace import (
    InducedPow,
    LinesPow,
    composite_derivatives,
    extract_value,
    multi_trace,
)


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
        assert got.agrees_with(A, 3)


@pytest.mark.parametrize("signed", [False, True])
def test_composite_traces_match_composition_product(signed):
    rng = random.Random(211 + signed)
    for _ in range(5):
        F = random_seq(rng, max_entry=3, allow_const=True)
        G = random_seq(rng, max_entry=3)
        via_traces = composite_derivatives(F, G, 4, signed)
        via_algebra = compose(F, G, signed=signed, bound=4)
        assert via_traces.agrees_with(via_algebra, 4)


@pytest.mark.parametrize("signed", [False, True])
def test_traced_base_change_matches_shift(signed):
    rng = random.Random(307 + signed)
    for _ in range(5):
        A = random_seq(rng, allow_const=True)
        X = dims_poly({0: rng.randrange(0, 3), 1: rng.randrange(0, 2), 2: rng.randrange(0, 2)})
        got = composite_derivatives(A, unit_seq(), 3, signed, base=X)
        assert got.agrees_with(shift_base(A, X, signed), 3)


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
        assert via_traces.agrees_with(claimed, 3)


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
        assert got.agrees_with(shifted, 3)


def test_multi_trace_single_slot_matches_trace():
    rng = random.Random(601)
    for signed in (False, True):
        F = random_seq(rng, max_entry=3)
        for n in range(1, 4):
            for nu in partitions_of(n):
                fam = LinesPow(nu)
                lhs = multi_trace(F.layer_part(n), [(fam, n)], signed)
                rhs = InducedPow(F.layer_part(n), fam, signed).pow(1)
                assert lhs == rhs


def test_extract_value_scaling():
    # a 3-cycle on the third tensor power of the tautological line sequence
    A = SymSeq({3: GradedCharacter.trivial(3).scale(3)})
    tr = InducedPow(A, LinesPow((3,)), False).pow(1)
    assert extract_value(tr, (3,)) == A.entry(3).values[(3,)]
