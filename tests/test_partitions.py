"""Partition and poset combinatorics against independent recurrences."""

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import pytest

from functorcalc.exactpoly import MaskPoly, TPoly
from functorcalc.partitions import (
    PiPoset,
    bell_number,
    block_structure,
    centralizer_order,
    class_sum,
    compositions_of,
    concat,
    multinomial,
    partition,
    partitions_of,
    set_partition_count_check,
    stabilizer_order,
    sub_multisets,
    weight,
)
from functorcalc.trace import LinesPow
from helpers import cycle_type


@lru_cache(maxsize=None)
def partition_count_pentagonal(n: int) -> int:
    """Oracle: Euler's pentagonal number recurrence for p(n)."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count_pentagonal(n - g1) + partition_count_pentagonal(n - g2))
        k += 1
    return total


@lru_cache(maxsize=None)
def bell_binomial(n: int) -> int:
    """Oracle: B(n+1) = sum_k C(n, k) B(k)."""
    if n == 0:
        return 1
    return sum(math.comb(n - 1, k) * bell_binomial(k) for k in range(n))


def test_partition_counts_match_pentagonal_recurrence():
    for n in range(0, 26):
        assert len(partitions_of(n)) == partition_count_pentagonal(n)


def test_partitions_of_small_values_explicit():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert partitions_of(2) == ((1, 1), (2,))
    assert partitions_of(3) == ((1, 1, 1), (1, 2), (3,))
    assert partitions_of(4) == ((1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,))


def test_partitions_are_canonical_and_ordered():
    for n in range(8):
        ps = partitions_of(n)
        for p in ps:
            assert weight(p) == n
            assert all(a <= b for a, b in zip(p, p[1:]))
        assert list(ps) == sorted(ps)


def test_partition_normalizes_and_rejects():
    assert partition([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(ValueError):
        partition([0, 1])


def test_block_structure_and_orders():
    assert block_structure((1, 1, 2)) == ((1, 2), (2, 1))
    # n = 4 = 2*1 + 1*2: order (1!)^2 * 2! * (2!)^1 * 1! = 4
    assert stabilizer_order((1, 1, 2)) == 4
    assert stabilizer_order((1, 1, 1)) == 6
    assert stabilizer_order((3,)) == 6
    assert stabilizer_order((2, 2)) == 8
    assert centralizer_order((1, 1, 2)) == 4
    assert centralizer_order((2, 2)) == 8
    assert centralizer_order((1, 2, 3)) == 6


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(math.factorial(n) // centralizer_order(p) for p in partitions_of(n)) == math.factorial(n)


def test_bell_numbers_match_binomial_recurrence():
    for n in range(0, 16):
        assert bell_number(n) == bell_binomial(n)


def test_bell_small_values_explicit():
    assert [bell_number(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]


def test_set_partition_count_identity():
    for n in range(1, 13):
        assert set_partition_count_check(n)


def test_concat():
    assert concat((1, 2), (1, 1, 3)) == (1, 1, 1, 2, 3)


def test_sub_multisets_against_brute_force():
    for p in partitions_of(6):
        for total in range(0, 7):
            got = sorted(sub_multisets(p, total))
            seen = set()
            for r in range(len(p) + 1):
                for idx in combinations(range(len(p)), r):
                    alpha = tuple(p[i] for i in idx)
                    if sum(alpha) == total:
                        beta = tuple(p[i] for i in range(len(p)) if i not in idx)
                        seen.add((alpha, beta))
            assert got == sorted(seen)


def test_compositions_and_multinomials():
    for n in range(1, 9):
        assert len(compositions_of(n)) == 2 ** (n - 1)
    assert multinomial((1, 2)) == 3
    assert multinomial((2, 2)) == 6
    assert multinomial((1, 1, 1)) == 6
    # ordered set partitions into blocks of any sizes, counted two ways
    for n in range(1, 7):
        assert sum(multinomial(c) for c in compositions_of(n)) == sum(
            math.factorial(len(set_p)) * count_set_partitions_with_blocks(n, set_p)
            for set_p in partitions_of(n)
        )


def count_set_partitions_with_blocks(n: int, p) -> int:
    return math.factorial(n) // stabilizer_order(p)


def covers(poset: PiPoset):
    """Arrows that decrease exactly one coordinate by exactly one."""
    for r in poset.objects:
        for i in range(poset.k):
            if r[i] > 1:
                yield r, r[:i] + (r[i] - 1,) + r[i + 1 :]


def test_pi_poset_small():
    poset = PiPoset(2, 3)
    assert set(poset.objects) == {(1, 1), (1, 2), (2, 1)}
    assert set(covers(poset)) == {((1, 2), (1, 1)), ((2, 1), (1, 1))}
    assert set(poset.arrows()) == {((1, 2), (1, 1)), ((2, 1), (1, 1))}
    assert PiPoset(3, 2).objects == ()
    assert PiPoset(1, 3).objects == ((1,), (2,), (3,))
    # arrows in the chain 3 -> 2 -> 1 plus the composite
    assert len(PiPoset(1, 3).arrows()) == 3


def test_pi_poset_counts():
    # k-tuples of positive integers with sum <= n: C(n, k) of them in total
    for k in range(1, 4):
        for n in range(k, 8):
            assert len(PiPoset(k, n).objects) == math.comb(n, k)


# ---------------------------------------------------------------------------
# the cycle-index kernel shared by the trace, product and evaluation routes


def slot_groupings(max_total: int):
    """Every tuple of slot-group sizes with total <= max_total, plus a lone empty group."""
    yield (0,)
    for n in range(max_total + 1):
        yield from compositions_of(n)


def brute_class_sum(groups, value, image, lift):
    """Oracle: average over every element of S_{k_1} x ... x S_{k_r}, one at a time.

    No centralizer orders: each tuple of permutations contributes its own
    cycle types, weighted by one over the group order.
    """
    elements = list(product(*(permutations(range(k)) for k in groups)))
    total = lift(TPoly.zero())
    for perms in elements:
        types = [cycle_type(p) for p in perms]
        merged = partition(m for t in types for m in t)
        term = lift(value(merged).scale(Fraction(1, len(elements))))
        for i, t in enumerate(types):
            for m in t:
                term = term * image(i, m)
        total = total + term
    return total


def random_class_function(rng: random.Random, n: int, coeffs=(-2, -1, 1, 3)) -> dict:
    """Random TPoly per cycle type, about a third of them zero."""
    return {
        mu: TPoly({rng.randrange(0, 3): rng.choice(coeffs)}) if rng.random() < 0.67 else TPoly.zero()
        for mu in partitions_of(n)
    }


@pytest.mark.parametrize("signed", [False, True])
def test_class_sum_matches_permutation_average_on_twisted_spaces(signed):
    rng = random.Random(71 + signed)
    for groups in slot_groupings(5):
        for _ in range(2):
            values = random_class_function(rng, sum(groups))
            spaces = [TPoly({d: rng.randrange(0, 3) for d in (0, 1, 2)}) for _ in groups]

            def image(i, m):
                return spaces[i].twist(m, signed)

            def lift(v):
                return v

            expected = brute_class_sum(groups, values.__getitem__, image, lift)
            assert class_sum(groups, values.__getitem__, image, lift) == expected


def test_class_sum_matches_permutation_average_on_marked_lines():
    # marker families vanish on cycle lengths they lack and on overlapping
    # markers, so many terms die part-way through their product
    rng = random.Random(73)
    for groups in slot_groupings(5):
        for shared_markers in (False, True, True):
            values = random_class_function(rng, sum(groups))
            families = []
            first = 0
            for k in groups:
                shapes = partitions_of(k)
                shape = shapes[rng.randrange(len(shapes))]
                families.append(LinesPow(shape, first_marker=rng.randrange(0, 3) if shared_markers else first))
                first += sum(shape)

            def image(i, m):
                return families[i].pow(m)

            expected = brute_class_sum(groups, values.__getitem__, image, MaskPoly.from_tpoly)
            assert class_sum(groups, values.__getitem__, image, MaskPoly.from_tpoly) == expected


def test_class_sum_keeps_rational_values_exact():
    # non-integral Fraction values take the exact-division fallback; integral
    # Fractions must come out the same as the ints they equal
    rng = random.Random(79)
    rational = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(4, 1), -1)
    fractional_results = 0
    for groups in slot_groupings(5):
        for _ in range(2):
            values = random_class_function(rng, sum(groups), coeffs=rational)
            spaces = [TPoly({d: rng.randrange(0, 3) for d in (0, 1)}) for _ in groups]
            families = [LinesPow(partitions_of(k)[-1], first_marker=3 * i) for i, k in enumerate(groups)]
            for image, lift in (
                (lambda i, m: spaces[i].twist(m, False), lambda v: v),
                (lambda i, m: families[i].pow(m), MaskPoly.from_tpoly),
            ):
                got = class_sum(groups, values.__getitem__, image, lift)
                assert got == brute_class_sum(groups, values.__getitem__, image, lift)
                for v in got.c.values():
                    assert type(v) is int or v.denominator > 1
                    fractional_results += type(v) is Fraction
    assert fractional_results
