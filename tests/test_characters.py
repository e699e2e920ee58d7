"""Character computations against element-level brute force and classical identities."""

import math
import random
from fractions import Fraction
from itertools import permutations

from functorcalc.characters import (
    GradedCharacter,
    character_table,
    induce_young,
    induce_young_many,
    irreducible_character_value,
)
from functorcalc.exactpoly import TPoly
from functorcalc.partitions import centralizer_order, concat, partitions_of, weight
from helpers import cycle_type


def hook_dimension(lam) -> int:
    """Dimension of the irreducible via the hook product (independent of the recursion)."""
    dec = tuple(sorted(lam, reverse=True))
    n = weight(lam)
    cols = [0] * (dec[0] if dec else 0)
    for row in dec:
        for j in range(row):
            cols[j] += 1
    hooks = 1
    for i, row in enumerate(dec):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    return math.factorial(n) // hooks


def test_table_sigma3_explicit():
    # classes ordered (1,1,1), (1,2), (3)
    assert [irreducible_character_value((3,), mu) for mu in partitions_of(3)] == [1, 1, 1]
    assert [irreducible_character_value((1, 1, 1), mu) for mu in partitions_of(3)] == [1, -1, 1]
    assert [irreducible_character_value((1, 2), mu) for mu in partitions_of(3)] == [2, 0, -1]


def test_table_sigma4_row():
    # the two-row irreducible (2, 2) on classes (1^4), (1,1,2), (1,3), (2,2), (4)
    vals = [irreducible_character_value((2, 2), mu) for mu in partitions_of(4)]
    assert vals == [2, 0, -1, 2, 0]


def test_dimensions_match_hook_products():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert irreducible_character_value(lam, (1,) * n) == hook_dimension(lam)


def test_dimension_squares_sum_to_group_order():
    for n in range(1, 8):
        assert sum(hook_dimension(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


def test_row_orthonormality():
    for n in range(1, 7):
        for lam1 in partitions_of(n):
            for lam2 in partitions_of(n):
                ip = sum(
                    Fraction(
                        irreducible_character_value(lam1, mu) * irreducible_character_value(lam2, mu),
                        centralizer_order(mu),
                    )
                    for mu in partitions_of(n)
                )
                assert ip == (1 if lam1 == lam2 else 0)


def test_column_orthogonality():
    for n in range(1, 8):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                s = sum(
                    irreducible_character_value(lam, mu) * irreducible_character_value(lam, nu)
                    for lam in partitions_of(n)
                )
                assert s == (centralizer_order(mu) if mu == nu else 0)


def test_permutation_character_decomposition():
    # fixed-point character = trivial + standard
    for n in range(2, 7):
        for mu in partitions_of(n):
            fixed = sum(1 for p in mu if p == 1)
            assert fixed == irreducible_character_value((n,), mu) + irreducible_character_value(
                concat((1,), (n - 1,)), mu
            )


def test_cycle_type_and_class_sizes():
    assert cycle_type((1, 0, 2)) == (1, 2)
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    for n in range(1, 6):
        counts: dict = {}
        for perm in permutations(range(n)):
            counts[cycle_type(perm)] = counts.get(cycle_type(perm), 0) + 1
        for mu, size in counts.items():
            assert size == math.factorial(n) // centralizer_order(mu)


def _brute_force_induction(chi1, chi2, a, b):
    """(Ind chi)(g) = |H|^-1 * sum over x in G with x g x^-1 in H of chi(x g x^-1)."""
    n = a + b
    order_h = math.factorial(a) * math.factorial(b)
    values = {}
    for mu in partitions_of(n):
        rep = _permutation_of_type(mu, n)
        total = TPoly.zero()
        for x in permutations(range(n)):
            xinv = [0] * n
            for i, xi in enumerate(x):
                xinv[xi] = i
            conj = tuple(x[rep[xinv[i]]] for i in range(n))
            if all(conj[i] < a for i in range(a)) and all(conj[i] >= a for i in range(a, n)):
                t1 = cycle_type(conj[:a])
                t2 = cycle_type(tuple(c - a for c in conj[a:]))
                total = total + chi1.values[t1] * chi2.values[t2]
        values[mu] = total.scale(Fraction(1, order_h))
    return GradedCharacter(n, values)


def _permutation_of_type(mu, n):
    perm = []
    start = 0
    for part in mu:
        perm.extend(list(range(start + 1, start + part)) + [start])
        start += part
    assert len(perm) == n
    return tuple(perm)


def test_induce_young_matches_brute_force():
    cases = [
        (GradedCharacter.irreducible((1,)), GradedCharacter.irreducible((1, 1))),
        (GradedCharacter.irreducible((2,)), GradedCharacter.irreducible((1, 1))),
        (GradedCharacter.trivial(2, degree=1), GradedCharacter.sign(3)),
        (GradedCharacter.irreducible((1, 2)), GradedCharacter.irreducible((2,))),
        (GradedCharacter.sign(1), GradedCharacter.irreducible((1, 3))),
    ]
    for chi1, chi2 in cases:
        got = induce_young(chi1, chi2)
        expected = _brute_force_induction(chi1, chi2, chi1.n, chi2.n)
        assert got == expected


def test_frobenius_reciprocity():
    for a, b in [(1, 2), (2, 2), (2, 3), (1, 4)]:
        n = a + b
        for lam1 in partitions_of(a):
            for lam2 in partitions_of(b):
                chi1 = GradedCharacter.irreducible(lam1)
                chi2 = GradedCharacter.irreducible(lam2)
                ind = induce_young(chi1, chi2)
                for lam in partitions_of(n):
                    psi = GradedCharacter.irreducible(lam)
                    lhs = ind.inner(psi)
                    rhs = TPoly.zero()
                    for alpha in partitions_of(a):
                        for beta in partitions_of(b):
                            val = (
                                chi1.values[alpha]
                                * chi2.values[beta]
                                * psi.values[concat(alpha, beta)]
                            )
                            rhs = rhs + val.scale(
                                Fraction(1, centralizer_order(alpha) * centralizer_order(beta))
                            )
                    assert lhs == rhs


def test_induction_in_stages():
    chis = [GradedCharacter.trivial(1), GradedCharacter.sign(2), GradedCharacter.trivial(2)]
    assert induce_young_many(chis) == induce_young(induce_young(chis[0], chis[1]), chis[2])


def test_graded_operations():
    chi = GradedCharacter.trivial(2, degree=1) + GradedCharacter.sign(2, degree=2)
    assert chi.dim_poly() == TPoly({1: 1, 2: 1})
    assert chi.schur_decomposition() == {(2,): TPoly.term(1), (1, 1): TPoly.term(2)}
    assert chi.is_genuine()
    virtual = GradedCharacter.trivial(2) - GradedCharacter.sign(2)
    assert not virtual.is_genuine()
    assert chi.inner(GradedCharacter.trivial(2)) == TPoly.term(1)


def test_tensor_with_sign_conjugates():
    def transpose(lam):
        dec = sorted(lam, reverse=True)
        return tuple(sorted(sum(1 for r in dec if r > j) for j in range(dec[0])))

    for n in range(1, 7):
        sign = GradedCharacter.sign(n)
        for lam in partitions_of(n):
            twisted = GradedCharacter.irreducible(lam).tensor(sign)
            assert twisted == GradedCharacter.irreducible(transpose(lam))


def test_regular_character():
    for n in range(1, 6):
        reg = GradedCharacter.zero(n)
        for lam in partitions_of(n):
            reg = reg + GradedCharacter.irreducible(lam).scale(hook_dimension(lam))
        for mu in partitions_of(n):
            expected = TPoly.term(0, math.factorial(n)) if mu == (1,) * n else TPoly.zero()
            assert reg.values[mu] == expected


def test_character_table_cache():
    tab = character_table(5)
    assert tab[((5,), (1, 4))] == 1
    assert tab[((1, 1, 1, 1, 1), (1, 4))] == -1
    assert len(tab) == len(partitions_of(5)) ** 2


def _random_class_function(rng, n, kind):
    """A seeded graded class function of S_n of one of four kinds."""
    chi = GradedCharacter.zero(n)
    if kind in ("genuine", "virtual"):
        for lam in partitions_of(n):
            for _ in range(rng.randrange(0, 3)):
                term = GradedCharacter.irreducible(lam, degree=rng.randrange(-1, 3))
                chi = chi - term if kind == "virtual" and rng.random() < 0.3 else chi + term
        return chi
    values = {}
    for mu in partitions_of(n):
        if rng.random() < 0.7:
            d = rng.randrange(0, 2)
            if kind == "rational":
                values[mu] = TPoly.term(d, Fraction(rng.randrange(-7, 8), rng.randrange(1, 5)))
            else:  # an integer class function, stored as integral Fractions
                values[mu] = TPoly.term(d, Fraction(rng.randrange(-3, 6 * n)))
    return GradedCharacter(n, values)


def test_schur_certificate_matches_inner_products():
    """Brute force of the table-based certificate: every multiplicity is
    rebuilt as <chi, chi_lam> by ``GradedCharacter.inner``."""
    rng = random.Random(1207)
    irreducibles = {n: {lam: GradedCharacter.irreducible(lam) for lam in partitions_of(n)}
                    for n in range(8)}
    seen = {True: 0, False: 0}
    for n in range(8):
        for kind in ("genuine", "virtual", "rational", "integer"):
            for _ in range(3 if n > 5 else 5):
                chi = _random_class_function(rng, n, kind)
                expected = {lam: chi.inner(irr) for lam, irr in irreducibles[n].items()}
                got = chi.schur_decomposition()
                assert got == expected, (n, kind)
                # exact division: an int exactly where the multiplicity is integral
                assert all(type(v) is int or v.denominator != 1 for m in got.values() for v in m.c.values())
                genuine = all(not m or all(v > 0 and Fraction(v).denominator == 1 for v in m.c.values())
                              for m in expected.values())
                assert chi.is_genuine() == genuine, (n, kind)
                seen[genuine] += 1
    # both outcomes occur, non-integral positive multiplicities among them
    assert seen[True] >= 20 and seen[False] >= 20
    half = GradedCharacter.irreducible((1, 2)).scale(Fraction(1, 2))
    assert not half.is_genuine()
    assert half.schur_decomposition()[(1, 2)] == TPoly.term(0, Fraction(1, 2))
