"""Seeded construction of random verification instances.

Every randomized check draws its inputs here, so the shapes produced in
this module delimit what the battery actually exercises.  Two constraints
drive the choices:

* Instances must be genuine: every entry is the character of an honest
  permutation module (a sum of row-tabloid cells, optionally sign
  twisted), so Schur multiplicities are nonnegative integers by
  construction and the realization layer can rebuild the same functor
  from the identical cell list.
* Instances must stay small: per-entry dimensions are capped, internal
  degrees stay in a narrow band (mostly 0 and 1, occasionally 2), and
  high arities only use the single-row cell, so batteries of a hundred
  pairs finish in seconds.

All generators take an explicit ``random.Random`` and are deterministic
functions of its state.
"""

from __future__ import annotations

import random

from .exactpoly import TPoly
from .holim import Cell
from .partitions import multinomial

#: Compositions allowed per arity.  Cell dimension is the multinomial
#: coefficient of the composition, so these keep every entry at dim <= 3.
_SMALL_CELLS: dict[int, tuple[tuple[int, ...], ...]] = {
    1: ((1,),),
    2: ((2,), (1, 1)),
    3: ((3,), (1, 2)),
}

MAX_ENTRY_DIM = 3

#: Random spaces have total dimension 1 or 2, each letter in degree 0 or 1.
MAX_SPACE_DIM = 2
SPACE_DEGREES = (0, 1)


def allowed_compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """Compositions available to the generator at arity n."""
    if n < 1:
        raise ValueError("arity must be positive")
    return _SMALL_CELLS.get(n, ((n,),))


def cell_dim(alpha: tuple[int, ...]) -> int:
    """Dimension of the row-tabloid module of the composition."""
    return multinomial(tuple(alpha))


def _random_degree(rng: random.Random) -> int:
    roll = rng.random()
    if roll < 0.45:
        return 0
    if roll < 0.9:
        return 1
    return 2


def random_entry_cells(rng: random.Random, n: int) -> list[Cell]:
    """Random nonzero cell list for a single arity, total dim <= MAX_ENTRY_DIM."""
    cells: list[Cell] = []
    total = 0
    options = allowed_compositions(n)
    while True:
        alpha = options[rng.randrange(len(options))]
        d = cell_dim(alpha)
        if total + d > MAX_ENTRY_DIM:
            break
        cells.append(Cell(alpha, sign=rng.random() < 0.5, degree=_random_degree(rng)))
        total += d
        if rng.random() < 0.6:
            break
    return cells


def random_cells(rng: random.Random, max_degree: int) -> list[Cell]:
    """Random reduced cell functor with entries up to the given arity.

    Each arity from 1 to max_degree is populated independently with
    probability one half; the result is never empty (a lone linear
    cell is the fallback), so generated functors are genuine, reduced
    and nonzero.
    """
    cells: list[Cell] = []
    for n in range(1, max_degree + 1):
        if rng.random() < 0.5:
            cells.extend(random_entry_cells(rng, n))
    if not cells:
        cells.append(Cell((1,), sign=False, degree=_random_degree(rng)))
    return cells


def random_homogeneous_cells(rng: random.Random, n: int) -> list[Cell]:
    """Random nonzero cell list concentrated in a single arity."""
    cells = random_entry_cells(rng, n)
    if not cells:
        cells = [Cell(allowed_compositions(n)[0], sign=rng.random() < 0.5, degree=_random_degree(rng))]
    return cells


def random_space(rng: random.Random) -> TPoly:
    """Random nonzero graded space with total dimension <= MAX_SPACE_DIM."""
    total = rng.randrange(1, MAX_SPACE_DIM + 1)
    coeffs: dict[int, int] = {}
    for _ in range(total):
        d = SPACE_DEGREES[rng.randrange(len(SPACE_DEGREES))]
        coeffs[d] = coeffs.get(d, 0) + 1
    return TPoly(coeffs)


def random_trivial_cells(rng: random.Random, max_degree: int) -> list[Cell]:
    """Random reduced functor built from single-row cells only.

    Single-row cells carry the trivial action, so the entry characters
    are constant on classes and the graded dimensions follow the plain
    exponential-generating-function calculus.
    """
    cells: list[Cell] = []
    for n in range(1, max_degree + 1):
        if rng.random() < 0.6:
            for _ in range(rng.randrange(1, MAX_ENTRY_DIM + 1)):
                cells.append(Cell((n,), sign=False, degree=_random_degree(rng)))
    if not cells:
        cells.append(Cell((1,)))
    return cells
