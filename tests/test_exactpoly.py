"""The additive kernel shared by TPoly, MaskPoly and PSPoly, against plain dicts.

Every route of the battery adds, subtracts and divides in these three
rings through one base class, ``exactpoly.Sparse``.  The reference here
flattens each polynomial to {key: scalar}, accumulates term by term and
drops zeros only at the end, so it shares no code with the kernel.
"""

import random
from fractions import Fraction

import pytest

from functorcalc.exactpoly import MaskPoly, TPoly
from functorcalc.symfun import PSPoly


def _scalar(rng: random.Random):
    if rng.random() < 0.5:
        return rng.randrange(-3, 4)
    return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))


# Each ring: a random flat key, a builder from a flat {key: scalar} dict,
# and the flattening back.  PSPoly keys are (monomial, t-degree) pairs.

def _tpoly_key(rng):
    return rng.randrange(-2, 3)


def _mask_key(rng):
    return rng.randrange(4), rng.randrange(0, 3)


def _ps_key(rng):
    return rng.choice([(), (1,), (2,), (1, 1), (1, 2)]), rng.randrange(0, 2)


def _build_ps(flat):
    grouped: dict = {}
    for (mono, d), v in flat.items():
        grouped.setdefault(mono, {})[d] = v
    return PSPoly({mono: TPoly(c) for mono, c in grouped.items()})


def _flatten_ps(p):
    return {(mono, d): v for mono, tp in p.c.items() for d, v in tp.c.items()}


RINGS = {
    "TPoly": (_tpoly_key, TPoly, lambda p: dict(p.c)),
    "MaskPoly": (_mask_key, MaskPoly, lambda p: dict(p.c)),
    "PSPoly": (_ps_key, _build_ps, _flatten_ps),
}


def _reference(*signed_flats):
    """Sum of the flat dicts with the given signs, zeros dropped at the end."""
    acc: dict = {}
    for sign, flat in signed_flats:
        for k, v in flat.items():
            acc[k] = acc.get(k, 0) + sign * v
    return {k: v for k, v in acc.items() if v != 0}


def _random_flat(rng, key):
    # zeros included: the constructor must drop them
    return {key(rng): _scalar(rng) for _ in range(rng.randrange(0, 6))}


def _random_pair(rng, key):
    """Two flat dicts, the second often built to cancel part or all of the first."""
    a = _random_flat(rng, key)
    b = _random_flat(rng, key)
    mode = rng.randrange(4)
    for k, v in a.items():
        if mode == 1 or (mode == 2 and rng.random() < 0.5):
            b[k] = -v  # cancels in a + b
        elif mode == 3 and rng.random() < 0.5:
            b[k] = v  # cancels in a - b
    return a, b


def _assert_stored_nonzero(p):
    for v in p.c.values():
        assert v, f"zero coefficient stored in {p!r}"
        if isinstance(v, TPoly):
            _assert_stored_nonzero(v)


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_additive_kernel_matches_plain_dicts(ring):
    key, build, flatten = RINGS[ring]
    rng = random.Random(8101 + len(ring))
    cancelled = 0
    for _ in range(400):
        fa, fb = _random_pair(rng, key)
        a, b = build(fa), build(fb)
        ra, rb = _reference((1, fa)), _reference((1, fb))
        assert flatten(a) == ra and flatten(b) == rb
        results = {
            "a + b": (a + b, _reference((1, fa), (1, fb))),
            "a - b": (a - b, _reference((1, fa), (-1, fb))),
            "-a": (-a, _reference((-1, fa))),
            "b + a": (b + a, _reference((1, fb), (1, fa))),
        }
        for name, (got, expected) in results.items():
            assert type(got) is type(a), name
            assert flatten(got) == expected, name
            assert bool(got) == bool(expected), name
            _assert_stored_nonzero(got)
        cancelled += any(k in rb and (v + rb[k] == 0 or v == rb[k]) for k, v in ra.items())
        # the operands are left as they were
        assert flatten(a) == ra and flatten(b) == rb
        # equality is equality of the reduced terms, whatever the build order
        assert (a == b) == (ra == rb)
        assert a == build(dict(reversed(list(fa.items()))))
        assert (a + b) - b == a
        assert not (a - a) and a - a == type(a).zero()
    assert cancelled > 50  # the pairs really do cancel


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_div_exact_is_int_exactly_when_exact(ring):
    key, build, flatten = RINGS[ring]
    rng = random.Random(8111 + len(ring))
    ints = fractions = 0
    for _ in range(300):
        flat = _random_flat(rng, key)
        q = rng.choice([1, 2, 3, 4, 6, -2])
        got = flatten(build(flat).div_exact(q))
        expected = {k: Fraction(v) / q for k, v in _reference((1, flat)).items()}
        assert got == expected
        for k, v in got.items():
            assert (type(v) is int) == (expected[k].denominator == 1)
            ints += type(v) is int
            fractions += type(v) is not int
    assert ints and fractions


def test_construction_drops_zeros_and_types_stay_apart():
    assert TPoly({0: 0, 1: 2, 2: Fraction(0)}).c == {1: 2}
    assert MaskPoly({(1, 0): 0}).c == {}
    assert PSPoly({(1,): TPoly({0: 0}), (): TPoly.one()}).c == {(): TPoly.one()}
    assert not TPoly.zero() and not MaskPoly.zero() and not PSPoly.zero()
    # equality holds within one ring only
    assert TPoly.zero() != MaskPoly.zero()
    assert MaskPoly.from_tpoly(TPoly.one()) != TPoly.one()
    assert hash(TPoly({1: 2})) == hash(TPoly({1: Fraction(2)}))
    with pytest.raises(TypeError):
        hash(MaskPoly.zero())
    with pytest.raises(TypeError):
        hash(PSPoly.zero())
