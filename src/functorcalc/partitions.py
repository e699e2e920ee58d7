"""Integer partitions, block structures and index posets.

Partitions are canonical tuples of parts sorted in nondecreasing order;
they double as cycle types of permutations and as the index set for the
summands of the composition product.  A partition ``n = k_1*l_1 + ... +
k_r*l_r`` with ``l_1 < ... < l_r`` has block structure ``((l_1, k_1), ...,
(l_r, k_r))`` and attached subgroup of order ``prod (l_i!)^{k_i} * k_i!``.

``class_sum`` is the one cycle-index sum over a product of symmetric
groups: evaluation, base change, the per-partition product, cross
effects and every trace go through it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .exactpoly import TPoly

Partition = tuple[int, ...]


def partition(parts) -> Partition:
    """Canonical form: parts sorted nondecreasingly, all parts >= 1."""
    p = tuple(sorted(int(x) for x in parts))
    if any(x < 1 for x in p):
        raise ValueError(f"parts must be positive: {parts!r}")
    return p


def weight(p: Partition) -> int:
    return sum(p)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, lexicographically ordered on nondecreasing parts.

    partitions_of(3) == ((1, 1, 1), (1, 2), (3),).
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(remaining: int, minimum: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(minimum, remaining + 1):
            gen(remaining - part, part, prefix + (part,))

    out: list[Partition] = []
    gen(n, 1, ())
    return tuple(out)


def block_structure(p: Partition) -> tuple[tuple[int, int], ...]:
    """Distinct part sizes with multiplicities: ((l_1, k_1), ..., (l_r, k_r)), l_1 < ... < l_r."""
    blocks: list[tuple[int, int]] = []
    for part in p:
        if blocks and blocks[-1][0] == part:
            blocks[-1] = (part, blocks[-1][1] + 1)
        else:
            blocks.append((part, 1))
    return tuple(blocks)


def stabilizer_order(p: Partition) -> int:
    """Order of the product of wreath products attached to the partition.

    For n = k_1*l_1 + ... + k_r*l_r this is prod_i (l_i!)^{k_i} * k_i!.
    """
    order = 1
    for l, k in block_structure(p):
        order *= math.factorial(l) ** k * math.factorial(k)
    return order


def centralizer_order(p: Partition) -> int:
    """z_p = prod_m m^{a_m} * a_m! for a permutation of cycle type p.

    The class of cycle type p in the symmetric group on sum(p) letters has
    n!/z_p elements.
    """
    z = 1
    for m, a in block_structure(p):
        z *= m**a * math.factorial(a)
    return z


@lru_cache(maxsize=None)
def _class_table(groups: tuple[int, ...]) -> tuple[int, tuple[tuple[Partition, int, tuple[tuple[int, int], ...]], ...]]:
    """The group order and every tuple of classes (mu_1, ..., mu_r), mu_i a partition of groups[i].

    The order is groups[0]! ... groups[r-1]!.  Each row is (merged cycle
    type, the class size order / (z_{mu_1} ... z_{mu_r}), the pairs (i, m)
    for every part m of every mu_i), so that class sums never sort parts
    or compute centralizer orders.
    """
    order = 1
    for k in groups:
        order *= math.factorial(k)
    table = []
    for mus in product(*(partitions_of(k) for k in groups)):
        z = 1
        for mu in mus:
            z *= centralizer_order(mu)
        merged = partition(m for mu in mus for m in mu)
        parts = tuple((i, m) for i, mu in enumerate(mus) for m in mu)
        table.append((merged, order // z, parts))
    return order, tuple(table)


def class_sum(groups, value, image, lift):
    """Cycle-index sum over the product of symmetric groups on groups[i] letters.

    With order = groups[0]! ... groups[r-1]!, returns

        (1 / order) * sum over tuples (mu_1, ..., mu_r), mu_i a partition
        of groups[i], of  |class| * lift(value(mu_1 + ... + mu_r))
                                  * prod_i prod_{parts m of mu_i} image(i, m),

    where |class| = order / (z_{mu_1} ... z_{mu_r}) counts the group
    elements of that cycle type.  This is the average over the group of
    value(cycle type) times the product, over the cycles of each slot
    group i, of image(i, length).  value maps a cycle type on
    sum(groups) letters to a TPoly (zero values are skipped); lift
    carries a TPoly into the ring the images live in (TPoly, MaskPoly or
    PSPoly), and a term stops multiplying as soon as it vanishes.

    Class sizes are integers, so integer values and images keep every
    product in ``int``; the one division by the order, at the end, gives
    an ``int`` wherever it is exact and an exact ``Fraction`` otherwise.
    """
    order, table = _class_table(tuple(groups))
    total = lift(TPoly.zero())
    for merged, size, parts in table:
        val = value(merged)
        if not val:
            continue
        # integral Fraction coefficients become ints here, once per class
        scaled = {d: v.numerator * size if v.denominator == 1 else v * size for d, v in val.c.items()}
        term = lift(TPoly._wrap(scaled))  # class sizes are >= 1: no zeros
        for i, m in parts:
            term = term * image(i, m)
            if not term:
                break
        else:  # only terms that survived every factor are added
            total = total + term
    return total.div_exact(order)


def concat(p: Partition, q: Partition) -> Partition:
    """Cycle type of a block-diagonal pair: merge of the two part multisets."""
    return partition(p + q)


def sub_multisets(p: Partition, total: int):
    """All sub-multisets of p with given total, each reported once.

    Yields pairs (alpha, beta) with alpha + beta = p as multisets and
    sum(alpha) == total.  Used for restriction along a two-block subgroup.
    """
    blocks = block_structure(p)

    def gen(i: int, remaining: int, alpha: tuple[int, ...], beta: tuple[int, ...]):
        if i == len(blocks):
            if remaining == 0:
                yield alpha, beta
            return
        l, k = blocks[i]
        for take in range(0, k + 1):
            if l * take > remaining:
                break
            yield from gen(i + 1, remaining - l * take, alpha + (l,) * take, beta + (l,) * (k - take))

    if 0 <= total <= weight(p):
        yield from gen(0, total, (), ())


@lru_cache(maxsize=None)
def bell_number(n: int) -> int:
    """Number of set partitions of an n-set, via the Bell triangle."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def set_partition_count_check(n: int) -> bool:
    """Assert sum over partitions of n!/|H(lambda)| equals the Bell number.

    The summand counts set partitions of an n-set whose block sizes realize
    the given partition, so the total must be Bell(n).
    """
    total = sum(Fraction(math.factorial(n), stabilizer_order(p)) for p in partitions_of(n))
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral set partition count at n={n}")
    return int(total) == bell_number(n)


def compositions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """Ordered sequences of positive integers summing to n."""
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            out.append((first,) + rest)
    return tuple(out)


def multinomial(comp: tuple[int, ...]) -> int:
    """n! / (c_1! * ... * c_r!) for a composition of n."""
    n = sum(comp)
    value = math.factorial(n)
    for c in comp:
        value //= math.factorial(c)
    return value


class PiPoset:
    """Poset of k-tuples of positive integers with sum <= n.

    There is an arrow r -> s exactly when r_i >= s_i for every i; covering
    arrows decrease a single coordinate by one.  Indexes the homotopy limit
    presentation of the n-th tower stage of a composite with k-homogeneous
    outer functor.  Empty when n < k.
    """

    def __init__(self, k: int, n: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.n = n
        self.objects: tuple[tuple[int, ...], ...] = tuple(self._generate(k, n))

    @staticmethod
    def _generate(k: int, n: int):
        def gen(i: int, budget: int, prefix: tuple[int, ...]):
            if i == k:
                yield prefix
                return
            # every remaining coordinate needs at least 1
            for v in range(1, budget - (k - i - 1) + 1):
                yield from gen(i + 1, budget - v, prefix + (v,))

        if n >= k:
            yield from gen(0, n, ())

    def leq(self, s: tuple[int, ...], r: tuple[int, ...]) -> bool:
        """True when there is an arrow r -> s (componentwise r >= s)."""
        return all(a >= b for a, b in zip(r, s))

    def arrows(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """All strict arrows (r, s) with r -> s."""
        out = []
        for r in self.objects:
            for s in self.objects:
                if r != s and self.leq(s, r):
                    out.append((r, s))
        return tuple(out)
