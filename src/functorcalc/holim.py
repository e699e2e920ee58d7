"""Limits of diagrams of graded spaces, exactly, and the telescope oracle.

Two engines:

* ``split_limit``: diagrams whose maps are label-preserving projections
  (every object is a sum of labelled summands, each arrow keeps a subset
  of the source labels and is the identity on those).  The limit is read
  off combinatorially: each label contributes one copy per connected
  component of the set of objects carrying it.
* ``CubeLimit``: the homotopy limit of a punctured cube of graded
  spaces.  Its degree-d part is the direct sum over i of the i-th
  cohomology of the cubical total complex of the degree-(d+i) parts,
  which has one summand per vertex and one map per one-element
  inclusion.  The tests check it against the cochain complex over the
  chains of the nerve, a brute-force oracle with one summand per chain.

On top of the engines, this module realizes functors by honest bases and
matrices (``RealFunctor``: sums of row-tabloid cells with optional sign
twist and internal degree) and implements the excisive-approximation
construction ``TnFunctor``: the homotopy limit of the functor applied to
fiberwise joins over the punctured cube.  Iterating it is an oracle for
polynomial truncation that never touches symmetric sequences.  Joins
shift degree by one, so the construction is only conservative when
permutations act with Koszul signs; the realization layer therefore
always applies them.

All of it stands on exact linear algebra that eliminates in ``int`` only:
``_rref`` is fraction-free Gauss-Jordan returning integer rows, kernel
vectors are built from those rows in ``int``, ``solve_in_columns`` makes
the only division, and a ``Subquotient`` chooses its image basis and its
kernel representatives in one pass over a single integer echelon basis.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iproduct
from math import gcd, lcm

Vec = list
Matrix = list  # list of rows; rows x cols = target dim x source dim


# ---------------------------------------------------------------------------
# exact linear algebra


def mat_zero(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def _integer_row(row: Vec) -> list[int]:
    """The row times the lcm of its denominators: a list of ints."""
    den = 1
    for x in row:
        if x.denominator != 1:
            den = lcm(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in row]


def _eliminate(row: list[int], pivot_row: list[int], c: int) -> list[int]:
    """Clear column c of row against pivot_row, then divide out the gcd."""
    p, f = pivot_row[c], row[c]
    out = [p * a - f * b for a, b in zip(row, pivot_row)]
    g = gcd(*out)
    return [a // g for a in out] if g > 1 else out


def _rref(rows: list[Vec]) -> tuple[list[list[int]], list[int]]:
    """Integer reduced row echelon form; returns (rows, pivot column indices).

    Fraction-free Gauss-Jordan: the rows are scaled to integers and every
    elimination step stays in ``int`` (each new row divided by the gcd of
    its entries).  Each returned row is zero at every other pivot, so
    dividing it by its own pivot gives the row of the rational RREF; that
    division is left to the callers that need it.
    """
    mat = [_integer_row(row) for row in rows]
    pivots: list[int] = []
    r = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = _eliminate(mat[i], mat[r], c)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def mat_rank(A: Matrix) -> int:
    return len(_rref(A)[0]) if A else 0


def kernel_basis(A: Matrix, cols: int) -> list[list[int]]:
    """Integer basis of the null space of A acting on column vectors of length cols.

    The vector of a free column f sets f to the lcm L of the pivots of
    the rows that touch f, and each such pivot column p to -row[f] * L /
    row[p]: a positive multiple of the rational vector with a 1 at f.
    """
    if not A:
        return [[1 if j == i else 0 for j in range(cols)] for i in range(cols)]
    red, pivots = _rref(A)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        touching = [(row, p) for row, p in zip(red, pivots) if row[f]]
        scale = lcm(*(row[p] for row, p in touching))
        v = [0] * cols
        v[f] = scale
        for row, p in touching:
            v[p] = -row[f] * (scale // row[p])
        basis.append(v)
    return basis


def solve_in_columns(columns: list[Vec], w: Vec) -> Vec | None:
    """Coefficients expressing w in the given columns, or None."""
    if not columns:
        return [] if not any(w) else None
    rows = len(w)
    aug = [[columns[j][i] for j in range(len(columns))] + [w[i]] for i in range(rows)]
    red, pivots = _rref(aug)
    ncols = len(columns)
    if ncols in pivots:
        return None
    coeffs = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        coeffs[p] = Fraction(row[-1], row[p])
    return coeffs


class Subquotient:
    """Basis data for ker / im inside an ambient space.

    reps: kernel vectors extending a basis of the image to one of the
    kernel; coords(w) expresses a kernel vector in the quotient basis.

    One pass picks both: the im vectors, then the ker vectors, are reduced
    in ``int`` against a growing echelon basis (each basis row vanishes at
    the pivots of the rows before it), and a vector is kept exactly when a
    nonzero remainder is left, i.e. when it is not in the span of the
    vectors kept before it.
    """

    def __init__(self, ambient_dim: int, ker: list[Vec], im: list[Vec]):
        self.ambient_dim = ambient_dim
        basis: list[tuple[int, list[int]]] = []  # (pivot column, row)

        def independent(v: Vec) -> bool:
            row = _integer_row(v)
            for c, b in basis:
                if row[c]:
                    row = _eliminate(row, b, c)
            c = next((j for j, x in enumerate(row) if x), None)
            if c is None:
                return False
            basis.append((c, row))
            return True

        self.im: list[Vec] = [v for v in im if independent(v)]
        self.reps: list[Vec] = [v for v in ker if independent(v)]

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, w: Vec) -> Vec:
        sol = solve_in_columns(self.reps + self.im, w)
        if sol is None:
            raise ArithmeticError("vector not in the kernel span; maps do not commute")
        return sol[: len(self.reps)]


# ---------------------------------------------------------------------------
# split (label projection) limits


class SplitDiagram:
    """Diagram whose arrows are projections onto subsets of labels.

    objects: hashable ids; arrows: (src, tgt) pairs; labels: object ->
    frozenset of labels.  Every arrow must satisfy labels(tgt) <=
    labels(src) and acts as the identity on the shared labels, zero on
    the rest; this is validated on construction.
    """

    def __init__(self, objects, arrows, labels):
        self.objects = list(objects)
        self.arrows = list(arrows)
        self.labels = dict(labels)
        for src, tgt in self.arrows:
            if not self.labels[tgt] <= self.labels[src]:
                raise ValueError(
                    f"arrow {src} -> {tgt} is not a projection: target has labels "
                    f"{set(self.labels[tgt]) - set(self.labels[src])} missing from the source"
                )


def split_limit(diagram: SplitDiagram) -> dict:
    """Multiplicity of each label in the limit of a projection-form diagram.

    A section picks one element of each object; per label the constraints
    say: equal along every arrow whose two ends both carry the label (an
    arrow into an object not carrying it imposes nothing, since the map
    is zero there, and the projection form rules out arrows that create
    the label).  So each label contributes one free choice per connected
    component of the subgraph of objects carrying it.
    """
    out: dict = {}
    all_labels = set()
    for labs in diagram.labels.values():
        all_labels |= labs
    for label in all_labels:
        support = [x for x in diagram.objects if label in diagram.labels[x]]
        parent = {x: x for x in support}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for src, tgt in diagram.arrows:
            if src in parent and tgt in parent:
                parent[find(src)] = find(tgt)
        components = len({find(x) for x in support})
        if components:
            out[label] = components
    return out


# ---------------------------------------------------------------------------
# homotopy limits of punctured cubes


class DegreeComplex:
    """Cochain complex of one degree slice, with its cohomology bases."""

    def __init__(self, dims: list[int], diffs: list[Matrix]):
        self.dims = dims
        self.diffs = diffs
        self.levels: list[Subquotient] = []
        for p in range(len(dims)):
            ker = (
                kernel_basis(diffs[p], dims[p])
                if p < len(diffs)
                else [[1 if j == i else 0 for j in range(dims[p])] for i in range(dims[p])]
            )
            im: list[Vec] = []
            if p > 0 and dims[p - 1]:
                prev = diffs[p - 1]
                for j in range(dims[p - 1]):
                    im.append([prev[i][j] for i in range(dims[p])])
            self.levels.append(Subquotient(dims[p], ker, im))


class CubeLimit:
    """Homotopy limit of a punctured cube of graded spaces, with chosen bases.

    subsets: the nonempty subsets of a finite set, as sorted tuples;
    spaces: subset -> tuple of basis degrees; maps: (U, V) -> Matrix for
    every one-element inclusion U < V (other pairs are not read).  The
    degree-d part of the value is the sum over i of the i-th cohomology of
    the cubical total complex of the degree-(d+i) slices: its degree-p
    term is the sum of the slices at the subsets U with |U| = p + 1, and
    its differential sends the U-summand to each V = U + {x} by (-1)^k
    times the map, k the position of x in V (Munson and Volic, *Cubical
    Homotopy Theory*, on homotopy limits of punctured cubes).  Each vertex
    is one summand, so the complexes of all slices together are exactly as
    large as the spaces.
    """

    def __init__(self, subsets: list, maps: dict, spaces: dict):
        top = max(len(u) for u in subsets)
        self.levels = [[u for u in subsets if len(u) == p + 1] for p in range(top)]
        self.slices: dict = {u: {} for u in subsets}  # vertex -> degree -> basis positions
        for u in subsets:
            for j, d in enumerate(spaces[u]):
                self.slices[u].setdefault(d, []).append(j)
        degrees = sorted({d for degs in spaces.values() for d in degs})
        self.complexes = {e: self._build_complex(e, maps) for e in degrees}
        # basis layout of the value: per output degree d, blocks (e, i)
        self.dims: dict[int, int] = {}
        layout: dict[int, list[tuple[int, int]]] = {}
        for e, cx in self.complexes.items():
            for i, level in enumerate(cx.levels):
                if level.dim:
                    d = e - i
                    layout.setdefault(d, []).append((e, i))
                    self.dims[d] = self.dims.get(d, 0) + level.dim
        self.layouts = {d: sorted(blocks) for d, blocks in layout.items()}

    def _positions(self, u, e: int) -> list[int]:
        return self.slices[u].get(e, [])

    def _build_complex(self, e: int, maps: dict) -> DegreeComplex:
        dims: list[int] = []
        offsets: list[dict] = []
        for level in self.levels:
            offs = {}
            total = 0
            for u in level:
                offs[u] = total
                total += len(self._positions(u, e))
            offsets.append(offs)
            dims.append(total)
        diffs: list[Matrix] = []
        for p in range(len(self.levels) - 1):
            mat = mat_zero(dims[p + 1], dims[p])
            for v in self.levels[p + 1]:
                rows = self._positions(v, e)
                for k in range(len(v)):
                    u = v[:k] + v[k + 1 :]
                    cols = self._positions(u, e)
                    m = maps[(u, v)]
                    sign = -1 if k % 2 else 1
                    r0, c0 = offsets[p + 1][v], offsets[p][u]
                    for bi, i in enumerate(rows):
                        for bj, j in enumerate(cols):
                            if m[i][j]:
                                mat[r0 + bi][c0 + bj] = sign * m[i][j]
            diffs.append(mat)
        return DegreeComplex(dims, diffs)

    def value_degrees(self) -> tuple[int, ...]:
        out: list[int] = []
        for d in sorted(self.layouts):
            out.extend([d] * self.dims[d])
        return tuple(out)

    def induced_map(self, other: "CubeLimit", object_maps: dict) -> Matrix:
        """Matrix of the map of limits induced by object_maps: self -> other.

        object_maps[U] is a matrix from self's space at U to other's; the
        cubes must have the same vertices and commuting squares (any
        failure surfaces as a vector falling outside a kernel span).
        """
        out = mat_zero(len(other.value_degrees()), len(self.value_degrees()))
        tgt_offsets: dict[tuple[int, int], int] = {}
        pos = 0
        for d in sorted(other.layouts):
            for block in other.layouts[d]:
                tgt_offsets[block] = pos
                pos += other.complexes[block[0]].levels[block[1]].dim
        col = 0
        for d in sorted(self.layouts):
            for (e, i) in self.layouts[d]:
                reps = self.complexes[e].levels[i].reps
                # a missing target block means that cohomology vanishes;
                # the pushed cocycles are then boundaries and map to zero
                if (e, i) in tgt_offsets:
                    target = other.complexes[e].levels[i]
                    base = tgt_offsets[(e, i)]
                    for c, rep in enumerate(reps):
                        pushed = self._push(other, object_maps, e, i, rep)
                        for r, val in enumerate(target.coords(pushed)):
                            if val:
                                out[base + r][col + c] = val
                col += len(reps)
        return out

    def _push(self, other: "CubeLimit", object_maps: dict, e: int, p: int, vec: Vec) -> Vec:
        """A degree-p cochain of the e slice through the object maps, vertex by vertex."""
        out: Vec = []
        start = 0
        for u in self.levels[p]:
            cols = self._positions(u, e)
            piece = vec[start : start + len(cols)]
            start += len(cols)
            m = object_maps[u]
            out.extend(sum(m[i][j] * x for j, x in zip(cols, piece) if x) for i in other._positions(u, e))
        return out


# ---------------------------------------------------------------------------
# realization: honest bases and matrices for cell functors


class BudgetError(RuntimeError):
    """A computation would exceed the configured size budget."""


class Cell:
    """Row-tabloid cell: composition alpha, optional sign twist, internal degree.

    The module is the permutation module of ordered row tabloids of shape
    alpha, tensored with the sign character when twisted, placed in the
    given internal degree.
    """

    __slots__ = ("alpha", "sign", "degree")

    def __init__(self, alpha: tuple[int, ...], sign: bool = False, degree: int = 0):
        if not alpha or any(a < 1 for a in alpha):
            raise ValueError(f"composition parts must be positive: {alpha!r}")
        self.alpha = tuple(alpha)
        self.sign = bool(sign)
        self.degree = degree

    @property
    def n(self) -> int:
        return sum(self.alpha)

    def key(self):
        return (self.alpha, self.sign, self.degree)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cell) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Cell(alpha={self.alpha}, sign={self.sign}, degree={self.degree})"


def _canonical_word(cell: Cell, rows: tuple[tuple[int, ...], ...], degs: tuple[int, ...]):
    """Sort each row, tracking the sign; None when the orbit is killed.

    Permutations act with Koszul signs (a transposition of two slots
    holding odd-degree vectors contributes -1) times the sign character
    when the cell is twisted.  An orbit dies when some stabilizing
    transposition acts by -1: a repeated letter in a row whose sign
    exponent (cell twist + letter degree) is odd.
    """
    coeff = 1
    out_rows = []
    for row in rows:
        letters = list(row)
        inv_all = 0
        inv_odd = 0
        for i in range(len(letters)):
            for j in range(i + 1, len(letters)):
                if letters[i] > letters[j]:
                    inv_all += 1
                    if degs[letters[i]] % 2 and degs[letters[j]] % 2:
                        inv_odd += 1
        sign_exp = (inv_all if cell.sign else 0) + inv_odd
        if sign_exp % 2:
            coeff = -coeff
        letters.sort()
        for i in range(len(letters) - 1):
            if letters[i] == letters[i + 1] and (degs[letters[i]] + (1 if cell.sign else 0)) % 2:
                return None, 0
        out_rows.append(tuple(letters))
    return tuple(out_rows), coeff


class RealValue:
    """Ordered basis of an evaluated functor: (cell index, word) per vector."""

    __slots__ = ("degs", "basis", "index")

    def __init__(self, degs: tuple[int, ...], basis: list):
        self.degs = degs
        self.basis = basis
        self.index = {b: i for i, b in enumerate(basis)}

    @property
    def dims(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.degs:
            out[d] = out.get(d, 0) + 1
        return out


class RealFunctor:
    """Sum of cells, evaluated by explicit orbit bases and matrices.

    Values and induced matrices are memoized: iterated approximations
    evaluate the same inner functor on the same spaces over and over,
    and the caches turn that repetition from exponential to linear.
    """

    def __init__(self, cells: list[Cell]):
        self.cells = list(cells)
        self._values: dict = {}
        self._maps: dict = {}

    def evaluate(self, degs: tuple[int, ...]) -> RealValue:
        degs = tuple(degs)
        cached = self._values.get(degs)
        if cached is not None:
            return cached
        basis = []
        out_degs = []
        nletters = len(degs)
        for ci, cell in enumerate(self.cells):
            for rows in self._cell_words(cell, nletters, degs):
                basis.append((ci, rows))
                out_degs.append(cell.degree + sum(degs[l] for row in rows for l in row))
        value = RealValue(tuple(out_degs), basis)
        self._values[degs] = value
        return value

    def _cell_words(self, cell: Cell, nletters: int, degs: tuple[int, ...]):
        def row_choices(length: int):
            # nondecreasing words; letters of odd sign exponent cannot repeat
            def rec(start: int, left: int, prefix: tuple[int, ...]):
                if left == 0:
                    yield prefix
                    return
                for letter in range(start, nletters):
                    if prefix and prefix[-1] == letter and (degs[letter] + (1 if cell.sign else 0)) % 2:
                        continue
                    yield from rec(letter, left - 1, prefix + (letter,))

            yield from rec(0, length, ())

        for combo in iproduct(*[row_choices(a) for a in cell.alpha]):
            yield tuple(combo)

    def induced(self, f: Matrix, src: RealValue, tgt: RealValue, src_degs, tgt_degs) -> Matrix:
        """Matrix of the functor applied to a linear map given on bases.

        f[i][j] = coefficient of target letter i in the image of source
        letter j; the induced map expands multilinearly over the word
        slots and re-canonicalizes each resulting word.
        """
        key = (tuple(tuple(row) for row in f), tuple(src_degs), tuple(tgt_degs))
        cached = self._maps.get(key)
        if cached is not None:
            return cached
        out = mat_zero(len(tgt.degs), len(src.degs))
        for col, (ci, rows) in enumerate(src.basis):
            cell = self.cells[ci]
            slots = [l for row in rows for l in row]
            shape = [len(row) for row in rows]
            choices = []
            for l in slots:
                imgs = [(i, f[i][l]) for i in range(len(tgt_degs)) if f[i][l]]
                choices.append(imgs)
            for pick in iproduct(*choices):
                coeff = 1
                for _, c in pick:
                    coeff *= c
                letters = [i for i, _ in pick]
                it = iter(letters)
                new_rows = tuple(tuple(next(it) for _ in range(s)) for s in shape)
                canon, sgn = _canonical_word(cell, new_rows, tuple(tgt_degs))
                if canon is None:
                    continue
                row_idx = tgt.index.get((ci, canon))
                if row_idx is None:
                    raise ArithmeticError("image word missing from target basis")
                out[row_idx][col] += coeff * sgn
        self._maps[key] = out
        return out


# ---------------------------------------------------------------------------
# fiberwise joins and the excisive approximation


def join_space(u_size: int, degs: tuple[int, ...]) -> tuple[int, ...]:
    """Degrees of U * X = X^(u_size - 1) shifted up one degree."""
    return tuple(d + 1 for _ in range(u_size - 1) for d in degs)


def join_inclusion(u: tuple[int, ...], v: tuple[int, ...], nx: int) -> Matrix:
    """Matrix of U * X -> V * X for U a subset of V, on fold-kernel bases.

    Basis vectors are differences e(u_i) - e(u_0) per non-minimal element
    and per X letter; rewriting against the other minimum gives one or
    two terms with integer coefficients.
    """
    su, sv = list(u), list(v)
    rows = (len(sv) - 1) * nx
    cols = (len(su) - 1) * nx
    out = mat_zero(rows, cols)
    vpos = {elt: i for i, elt in enumerate(sv[1:])}
    u0 = su[0]
    for ci, elt in enumerate(su[1:]):
        for x in range(nx):
            col = ci * nx + x
            # e(elt) - e(u0) = (e(elt) - e(v0)) - (e(u0) - e(v0))
            if elt != sv[0]:
                out[vpos[elt] * nx + x][col] += 1
            if u0 != sv[0]:
                out[vpos[u0] * nx + x][col] -= 1
    return out


class TnValue:
    """Value of an excisive approximation: a punctured-cube limit plus caches."""

    __slots__ = ("degs", "limit", "inner_values", "dims")

    def __init__(self, degs, limit: CubeLimit, inner_values: dict):
        self.degs = degs
        self.limit = limit
        self.inner_values = inner_values
        self.dims = {}
        for d in degs:
            self.dims[d] = self.dims.get(d, 0) + 1


class TnFunctor:
    """The homotopy limit of F(U * X) over nonempty U in a (n+1)-point set.

    Wraps any functor exposing evaluate/induced; wrapping its own output
    iterates the construction.  A budget caps the total basis size of the
    values F(U * X), summed over the vertices U; the cubical complexes
    have one summand per vertex, so the same total bounds the chain
    complexes whose cohomology is the value.
    """

    def __init__(self, inner, n: int, budget: int = 200000):
        self.inner = inner
        self.n = n
        self.budget = budget
        self._values: dict = {}
        self._maps: dict = {}

    def _cube(self):
        points = tuple(range(self.n + 1))
        subsets = []
        for size in range(1, len(points) + 1):
            subsets.extend(combinations(points, size))
        return subsets

    def evaluate(self, degs: tuple[int, ...]) -> TnValue:
        degs = tuple(degs)
        cached = self._values.get(degs)
        if cached is not None:
            return cached
        subsets = self._cube()
        inner_values = {}
        spaces = {}
        total = 0
        for u in subsets:
            udegs = join_space(len(u), degs)
            val = self.inner.evaluate(udegs)
            inner_values[u] = (udegs, val)
            spaces[u] = val.degs
            total += len(val.degs)
            if total > self.budget:
                raise BudgetError(f"evaluation size {total} exceeds budget {self.budget}")
        maps = {}
        nx = len(degs)
        for v in subsets:
            if len(v) == 1:
                continue
            vdegs, vval = inner_values[v]
            for k in range(len(v)):
                u = v[:k] + v[k + 1 :]
                udegs, uval = inner_values[u]
                maps[(u, v)] = self.inner.induced(join_inclusion(u, v, nx), uval, vval, udegs, vdegs)
        limit = CubeLimit(subsets, maps, spaces)
        value = TnValue(limit.value_degrees(), limit, inner_values)
        self._values[degs] = value
        return value

    def induced(self, f: Matrix, src: TnValue, tgt: TnValue, src_degs, tgt_degs) -> Matrix:
        key = (tuple(tuple(row) for row in f), tuple(src_degs), tuple(tgt_degs))
        cached = self._maps.get(key)
        if cached is not None:
            return cached
        object_maps = {}
        nx_src = len(src_degs)
        nx_tgt = len(tgt_degs)
        for u in self._cube():
            block = mat_zero((len(u) - 1) * nx_tgt, (len(u) - 1) * nx_src)
            for rep in range(len(u) - 1):
                for i in range(nx_tgt):
                    for j in range(nx_src):
                        if f[i][j]:
                            block[rep * nx_tgt + i][rep * nx_src + j] = f[i][j]
            su_degs, su_val = src.inner_values[u]
            tu_degs, tu_val = tgt.inner_values[u]
            object_maps[u] = self.inner.induced(block, su_val, tu_val, su_degs, tu_degs)
        out = src.limit.induced_map(tgt.limit, object_maps)
        self._maps[key] = out
        return out


def cell_character(cell: Cell):
    """Symmetric-group character of a cell (for the sequence-level routes)."""
    from .characters import GradedCharacter, induce_young_many
    from .exactpoly import TPoly

    chi = induce_young_many([GradedCharacter.trivial(a) for a in cell.alpha])
    if cell.sign:
        chi = chi.tensor(GradedCharacter.sign(chi.n))
    if cell.degree:
        chi = chi.scale(TPoly.term(cell.degree))
    return chi


def cells_sequence(cells: list[Cell]):
    """The symmetric sequence whose entries are the summed cell characters."""
    from .symseq import SymSeq

    by_n: dict = {}
    for cell in cells:
        chi = cell_character(cell)
        by_n[chi.n] = by_n[chi.n] + chi if chi.n in by_n else chi
    return SymSeq(by_n)


def t_n_oracle(
    cells: list[Cell],
    n: int,
    degs: tuple[int, ...],
    window: int,
    max_iter: int = 12,
    budget: int = 200000,
) -> dict:
    """Iterate the excisive approximation and report per-degree stable dims.

    The part of the functor of degree above n does not die at any finite
    iterate: each application shifts it up by at least (degree - n), so
    it escapes every fixed range of degrees instead.  Stabilization is
    therefore detected on the window of degrees <= window: the iteration
    stops once two consecutive iterates agree there.  The realization
    layer always applies Koszul signs; that is what makes the window
    empty out (for example, a square kills a repeated odd letter), so
    this oracle has no unsigned variant.

    Each iterate refuses with ``BudgetError`` once the basis sizes of its
    cube's vertices, which are also the sizes of its chain complexes, add
    up past ``budget``.

    Returns a dict with keys ``history`` (list of {degree: dim} per
    iterate, starting at the functor itself), ``stable`` ({degree: dim}
    restricted to the window, once repeated), and ``iterations``.
    """
    functor = RealFunctor(cells)

    def windowed(dims: dict) -> dict:
        return {d: v for d, v in dims.items() if d <= window}

    history = [functor.evaluate(degs).dims]
    stable = None
    for _ in range(max_iter):
        functor = TnFunctor(functor, n, budget)
        history.append(functor.evaluate(degs).dims)
        if windowed(history[-1]) == windowed(history[-2]):
            stable = windowed(history[-1])
            break
    return {"history": history, "stable": stable, "iterations": len(history) - 1}


def t_n_expected(cells: list[Cell], n: int, degs: tuple[int, ...], window: int | None = None):
    """The window and the dims ``t_n_oracle`` should stabilize to there.

    That is the value of the degree-n truncation of the cells' sequence at
    the point with the given letter degrees, with Koszul signs like the
    realization layer.  The default window reaches two past the highest
    degree of that value and of the point.  Returns (window, {degree: dim}).
    """
    from .exactpoly import dims_poly
    from .symseq import evaluate

    point = dims_poly({d: degs.count(d) for d in set(degs)})
    value = evaluate(cells_sequence(cells).truncate(n), point, signed=True)
    if window is None:
        window = max(list(value.support()) + list(degs) + [0]) + 2
    return window, {d: int(value.coeff(d)) for d in value.support() if d <= window}


def cells_to_json(cells: list[Cell]) -> list[dict]:
    """Cell presentation as JSON: one record per distinct cell with multiplicity."""
    order: list[tuple] = []
    counts: dict[tuple, int] = {}
    for cell in cells:
        key = cell.key()
        if key not in counts:
            order.append(key)
            counts[key] = 0
        counts[key] += 1
    return [
        {"composition": list(alpha), "sign": sign, "degree": degree, "multiplicity": counts[(alpha, sign, degree)]}
        for (alpha, sign, degree) in order
    ]


def cells_from_json(items) -> list[Cell]:
    """Parse a cell presentation, expanding multiplicities."""
    if not isinstance(items, list):
        raise ValueError("cells must be a list of cell records")
    cells: list[Cell] = []
    for item in items:
        if not isinstance(item, dict):
            raise ValueError("each cell record must be an object")
        comp = item.get("composition")
        if not (isinstance(comp, list) and comp and all(isinstance(a, int) and not isinstance(a, bool) and a > 0 for a in comp)):
            raise ValueError(f"malformed composition {comp!r}")
        sign = item.get("sign", False)
        if not isinstance(sign, bool):
            raise ValueError("sign must be a boolean")
        degree = item.get("degree", 0)
        if isinstance(degree, bool) or not isinstance(degree, int):
            raise ValueError("degree must be an integer")
        mult = item.get("multiplicity", 1)
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise ValueError("multiplicity must be a positive integer")
        cells.extend(Cell(tuple(comp), sign=sign, degree=degree) for _ in range(mult))
    return cells
