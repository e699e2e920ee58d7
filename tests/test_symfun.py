"""Symmetric function layer: transforms, plethysm, generating functions."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from functorcalc.characters import GradedCharacter, induce_young
from functorcalc.exactpoly import TPoly
from functorcalc.partitions import bell_number, partitions_of
from functorcalc.symfun import PSPoly, RationalSeries, egf_compose, plethysm


def random_graded_character(rng: random.Random, n: int, max_deg: int = 2) -> GradedCharacter:
    chi = GradedCharacter.zero(n)
    for lam in partitions_of(n):
        for _ in range(rng.randrange(0, 2)):
            chi = chi + GradedCharacter.irreducible(lam, degree=rng.randrange(0, max_deg + 1))
    return chi


def test_characteristic_roundtrip():
    rng = random.Random(7)
    for n in range(0, 7):
        for _ in range(5):
            chi = random_graded_character(rng, n)
            assert PSPoly.from_character(chi).to_character(n) == chi


def test_characteristic_sends_induction_to_product():
    rng = random.Random(11)
    for a, b in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 4)]:
        for _ in range(4):
            chi1 = random_graded_character(rng, a)
            chi2 = random_graded_character(rng, b)
            lhs = PSPoly.from_character(induce_young(chi1, chi2))
            rhs = PSPoly.from_character(chi1) * PSPoly.from_character(chi2)
            assert lhs == rhs


def schur_multiplicities_int(chi: GradedCharacter) -> dict:
    out = {}
    for lam, poly in chi.schur_decomposition().items():
        if poly:
            assert poly.support() == (0,)
            out[lam] = poly.coeff(0)
    return out


def test_classical_degree_four_plethysms():
    h2 = PSPoly.from_character(GradedCharacter.trivial(2))
    e2 = PSPoly.from_character(GradedCharacter.sign(2))
    assert schur_multiplicities_int(plethysm(h2, h2).to_character(4)) == {(4,): 1, (2, 2): 1}
    assert schur_multiplicities_int(plethysm(e2, e2).to_character(4)) == {(1, 1, 2): 1}
    assert schur_multiplicities_int(plethysm(h2, e2).to_character(4)) == {(2, 2): 1, (1, 1, 1, 1): 1}
    assert schur_multiplicities_int(plethysm(e2, h2).to_character(4)) == {(1, 3): 1}


def test_plethysm_rejects_constant_term():
    one = PSPoly({(): TPoly.one()})
    with pytest.raises(ValueError):
        plethysm(one, one)


def test_twist_composition_law():
    rng = random.Random(3)
    for signed in (False, True):
        for _ in range(10):
            chi = random_graded_character(rng, rng.randrange(1, 5))
            f = PSPoly.from_character(chi)
            for j in (1, 2, 3):
                for m in (1, 2, 3):
                    assert f.twist(j, signed).twist(m, signed) == f.twist(j * m, signed)


def test_plethysm_associativity():
    rng = random.Random(5)
    for signed in (False, True):
        for _ in range(6):
            f = PSPoly.from_character(random_graded_character(rng, rng.randrange(1, 4)))
            g = PSPoly.from_character(random_graded_character(rng, rng.randrange(1, 3)))
            h = PSPoly.from_character(random_graded_character(rng, rng.randrange(1, 3)))
            lhs = plethysm(plethysm(f, g, signed), h, signed, max_weight=8)
            rhs = plethysm(f, plethysm(g, h, signed, max_weight=8), signed, max_weight=8)
            assert lhs.truncate_weight(8) == rhs


def test_plethysm_truncation_consistency():
    rng = random.Random(9)
    f = PSPoly.from_character(random_graded_character(rng, 2)) + PSPoly.from_character(
        random_graded_character(rng, 3)
    )
    g = PSPoly.from_character(random_graded_character(rng, 1)) + PSPoly.from_character(
        random_graded_character(rng, 2)
    )
    full = plethysm(f, g)
    assert plethysm(f, g, max_weight=4) == full.truncate_weight(4)


def test_plethysm_identity_element():
    p1 = PSPoly({(1,): TPoly.one()})
    f = PSPoly.from_character(GradedCharacter.irreducible((1, 2), degree=1))
    for signed in (False, True):
        assert plethysm(f, p1, signed) == f
        assert plethysm(p1, f, signed) == f


def test_egf_compose_bell_numbers():
    order = 12
    ones = RationalSeries([TPoly.one()] * (order + 1))
    shifted = RationalSeries([TPoly.zero()] + [TPoly.one()] * order)
    composite = egf_compose(ones, shifted)
    for n in range(order + 1):
        assert composite.coeffs[n] == TPoly.term(0, bell_number(n))


def test_egf_compose_matches_sympy():
    rng = random.Random(21)
    x, t = sympy.symbols("x t")
    order = 8
    for _ in range(4):
        outer = [TPoly({rng.randrange(0, 3): rng.randrange(1, 4)}) for _ in range(order + 1)]
        inner = [TPoly.zero()] + [TPoly({rng.randrange(0, 3): rng.randrange(0, 3)}) for _ in range(order)]

        def to_sympy(coeffs):
            return sum(
                sympy.Rational(c) * t**d * x**n / sympy.factorial(n)
                for n, poly in enumerate(coeffs)
                for d, c in poly.c.items()
            )

        f = to_sympy(outer)
        g = to_sympy(inner)
        composite = sympy.series(f.subs(x, g), x, 0, order + 1).removeO()
        got = egf_compose(RationalSeries(outer), RationalSeries(inner))
        for n in range(order + 1):
            expected = sympy.expand(composite.coeff(x, n) * sympy.factorial(n))
            mine = sum(sympy.Rational(c) * t**d for d, c in got.coeffs[n].c.items())
            assert sympy.simplify(expected - mine) == 0


def test_egf_compose_rejects_constant_term():
    with pytest.raises(ValueError):
        egf_compose(RationalSeries([TPoly.one()]), RationalSeries([TPoly.one()]))


def test_fraction_coefficients_survive():
    f = PSPoly({(1,): TPoly.term(0, Fraction(1, 2))})
    g = f + f
    assert g == PSPoly({(1,): TPoly.one()})
    assert math.isclose(float(sum(Fraction(v) for v in g.c[(1,)].c.values())), 1.0)


def test_to_character_returns_ints_and_keeps_rationals_exact():
    rng = random.Random(19)
    for n in range(1, 6):
        chi = random_graded_character(rng, n)
        back = PSPoly.from_character(chi).to_character(n)
        assert back == chi
        assert all(type(v) is int for val in back.values.values() for v in val.c.values())
    third = GradedCharacter.trivial(3).scale(Fraction(1, 3))
    back = PSPoly.from_character(third).to_character(3)
    assert back == third
    assert all(v == Fraction(1, 3) and type(v) is Fraction for val in back.values.values() for v in val.c.values())
