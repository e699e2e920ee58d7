"""Limits of diagrams of graded spaces, exactly, and the telescope oracle.

Three engines, in increasing strength:

* ``split_limit``: diagrams whose maps are label-preserving projections
  (every object is a sum of labelled summands, each arrow keeps a subset
  of the source labels and is the identity on those).  The limit is read
  off combinatorially: each label contributes one copy per connected
  component of the set of objects carrying it.
* ``linear_limit``: the plain (underived) limit of an arbitrary diagram
  of graded spaces — the kernel of the difference map.  This is NOT a
  homotopy limit; tests document where the two disagree.
* ``derived_limits`` / ``PosetDiagramValue``: the genuine thing.  Over a finite
  poset shape the homotopy limit of a diagram of graded spaces has
  degree-d part equal to the direct sum over i of the i-th derived limit
  of the degree-(d+i) parts, computed from the cochain complex over
  strictly increasing chains of the shape.

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


def mat_identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if A and B and len(A[0]) != len(B):
        raise ValueError("shape mismatch")
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = mat_zero(rows, cols)
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                oi = out[i]
                for j in range(cols):
                    if Bk[j]:
                        oi[j] += a * Bk[j]
    return out


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
# plain (underived) linear limits


def linear_limit(spaces: dict, maps: dict) -> dict[int, int]:
    """Dimensions per degree of the kernel of the difference map.

    spaces: object -> {degree: dim}; maps: (src, tgt) -> {degree: Matrix}.
    This computes sections on the nose (the zeroth derived limit only).
    """
    degrees = sorted({d for dims in spaces.values() for d in dims})
    objects = sorted(spaces, key=repr)
    out: dict[int, int] = {}
    for deg in degrees:
        dims = {x: spaces[x].get(deg, 0) for x in objects}
        offsets = {}
        total = 0
        for x in objects:
            offsets[x] = total
            total += dims[x]
        rows: list[Vec] = []
        for (src, tgt), blocks in maps.items():
            block = blocks.get(deg, mat_zero(dims[tgt], dims[src]))
            for i in range(dims[tgt]):
                row = [0] * total
                row[offsets[tgt] + i] = -1
                for j in range(dims[src]):
                    row[offsets[src] + j] += block[i][j]
                rows.append(row)
        dim = total - mat_rank(rows) if rows else total
        if dim:
            out[deg] = dim
    return out


# ---------------------------------------------------------------------------
# derived limits over a finite poset shape


def _chains(objects: list, rel: set[tuple], max_len: int) -> list[list[tuple]]:
    """Strictly increasing chains per length; rel holds (smaller, larger) pairs."""
    for x, y in list(rel):
        for z, w in list(rel):
            if y == z and (x, w) not in rel:
                raise ValueError(f"relation is not transitive at {x} -> {y} -> {w}")
    chains: list[list[tuple]] = [[(x,) for x in objects]]
    while len(chains) <= max_len:
        nxt = []
        for chain in chains[-1]:
            last = chain[-1]
            for y in objects:
                if (last, y) in rel:
                    nxt.append(chain + (y,))
        if not nxt:
            break
        chains.append(nxt)
    return chains


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


class PosetDiagramValue:
    """Homotopy limit of a poset diagram of graded spaces, with chosen bases.

    spaces: object -> tuple of basis degrees; maps: (x, y) -> Matrix for
    every related pair x < y (maps must be closed under composition —
    callers supply them directly).  The degree-d part of the value is the
    sum over i of the i-th cohomology of the chain complex of the
    degree-(d+i) slices.
    """

    def __init__(self, objects: list, rel_maps: dict, spaces: dict):
        self.objects = sorted(objects, key=repr)
        self.spaces = spaces
        self.rel_maps = rel_maps
        rel = set(rel_maps)
        self.chain_lists = _chains(self.objects, rel, max_len=len(self.objects))
        self.all_degrees = sorted({d for degs in spaces.values() for d in degs})
        self.complexes: dict[int, DegreeComplex] = {}
        self.layouts: dict[int, list[tuple[int, int]]] = {}
        for e in self.all_degrees:
            self.complexes[e] = self._build_complex(e)
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

    def _slice_dims(self, e: int) -> dict:
        return {x: sum(1 for d in self.spaces[x] if d == e) for x in self.objects}

    def _slice_positions(self, x, e: int) -> list[int]:
        return [j for j, d in enumerate(self.spaces[x]) if d == e]

    def _slice_map(self, pair, e: int) -> Matrix:
        src, tgt = pair
        m = self.rel_maps[pair]
        rows = self._slice_positions(tgt, e)
        cols = self._slice_positions(src, e)
        return [[m[i][j] for j in cols] for i in rows]

    def _build_complex(self, e: int) -> DegreeComplex:
        sdims = self._slice_dims(e)
        chain_dims: list[int] = []
        offsets: list[dict] = []
        for chains in self.chain_lists:
            offs = {}
            total = 0
            for chain in chains:
                offs[chain] = total
                total += sdims[chain[-1]]
            offsets.append(offs)
            chain_dims.append(total)
        diffs: list[Matrix] = []
        for p in range(len(self.chain_lists) - 1):
            mat = mat_zero(chain_dims[p + 1], chain_dims[p])
            for chain in self.chain_lists[p + 1]:
                row0 = offsets[p + 1][chain]
                # face maps dropping one object; dropping the last applies the arrow
                for omit in range(len(chain)):
                    face = chain[:omit] + chain[omit + 1 :]
                    if len(face) != len(chain) - 1 or face not in offsets[p]:
                        continue
                    sign = -1 if omit % 2 else 1
                    col0 = offsets[p][face]
                    if omit < len(chain) - 1:
                        for j in range(sdims[chain[-1]]):
                            mat[row0 + j][col0 + j] += sign
                    else:
                        block = self._slice_map((chain[-2], chain[-1]), e)
                        for i in range(sdims[chain[-1]]):
                            for j in range(sdims[chain[-2]]):
                                if block[i][j]:
                                    mat[row0 + i][col0 + j] += sign * block[i][j]
            diffs.append(mat)
        return DegreeComplex(chain_dims, diffs)

    def value_degrees(self) -> tuple[int, ...]:
        out: list[int] = []
        for d in sorted(self.layouts):
            out.extend([d] * self.dims[d])
        return tuple(out)

    def induced_map(self, other: "PosetDiagramValue", object_maps: dict) -> Matrix:
        """Matrix of the map of limits induced by object_maps: self -> other.

        object_maps[x] is a matrix from self.spaces[x] to other.spaces[x];
        the diagrams must have the same shape and commuting squares (any
        failure surfaces as a vector falling outside a kernel span).
        """
        src_degs = self.value_degrees()
        tgt_degs = other.value_degrees()
        out = mat_zero(len(tgt_degs), len(src_degs))
        col = 0
        tgt_offsets: dict[tuple[int, int], int] = {}
        pos = 0
        for d in sorted(other.layouts):
            for block in other.layouts[d]:
                tgt_offsets[block] = pos
                pos += other.complexes[block[0]].levels[block[1]].dim
        for d in sorted(self.layouts):
            for (e, i) in self.layouts[d]:
                level = self.complexes[e].levels[i]
                for rep in level.reps:
                    # push the representative through the cochain map at (e, i)
                    pushed = self._push_chain_vector(other, object_maps, e, i, rep)
                    if (e, i) in tgt_offsets:
                        coords = other.complexes[e].levels[i].coords(pushed)
                        base = tgt_offsets[(e, i)]
                        for r, val in enumerate(coords):
                            if val:
                                out[base + r][col] = val
                    # a missing target block means that cohomology vanishes;
                    # the pushed cocycle is then a boundary and maps to zero
                    col += 1
        return out

    def _push_chain_vector(self, other: "PosetDiagramValue", object_maps, e: int, p: int, vec: Vec) -> Vec:
        src_sdims = self._slice_dims(e)
        tgt_sdims = other._slice_dims(e)
        src_off = {}
        total = 0
        for chain in self.chain_lists[p]:
            src_off[chain] = total
            total += src_sdims[chain[-1]]
        tgt_off = {}
        total_t = 0
        for chain in other.chain_lists[p]:
            tgt_off[chain] = total_t
            total_t += tgt_sdims[chain[-1]]
        out = [Fraction(0)] * total_t
        for chain in self.chain_lists[p]:
            s0 = src_off[chain]
            piece = vec[s0 : s0 + src_sdims[chain[-1]]]
            if not any(piece):
                continue
            x = chain[-1]
            block_rows = other._slice_positions(x, e)
            block_cols = self._slice_positions(x, e)
            m = object_maps[x]
            t0 = tgt_off[chain]
            for bi, i in enumerate(block_rows):
                acc = Fraction(0)
                for bj, j in enumerate(block_cols):
                    if m[i][j] and piece[bj]:
                        acc += m[i][j] * piece[bj]
                out[t0 + bi] += acc
        return out


def derived_limits(objects: list, rel_maps: dict, spaces: dict) -> dict[int, dict[int, int]]:
    """Dimensions of the i-th derived limits per degree: {degree: {i: dim}}."""
    value = PosetDiagramValue(objects, rel_maps, spaces)
    out: dict[int, dict[int, int]] = {}
    for e, cx in value.complexes.items():
        for i, level in enumerate(cx.levels):
            if level.dim:
                out.setdefault(e, {})[i] = level.dim
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
    """Value of an excisive approximation: a poset-limit value plus caches."""

    __slots__ = ("degs", "limit", "inner_values", "dims")

    def __init__(self, degs, limit: PosetDiagramValue, inner_values: dict):
        self.degs = degs
        self.limit = limit
        self.inner_values = inner_values
        self.dims = {}
        for d in degs:
            self.dims[d] = self.dims.get(d, 0) + 1


class TnFunctor:
    """The homotopy limit of F(U * X) over nonempty U in a (n+1)-point set.

    Wraps any functor exposing evaluate/induced; wrapping its own output
    iterates the construction.  A budget caps the total basis sizes that
    may be materialized.
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
        rel_maps = {}
        nx = len(degs)
        for u in subsets:
            for v in subsets:
                if u != v and set(u) <= set(v):
                    incl = join_inclusion(u, v, nx)
                    udegs, uval = inner_values[u]
                    vdegs, vval = inner_values[v]
                    rel_maps[(u, v)] = self.inner.induced(incl, uval, vval, udegs, vdegs)
        limit = PosetDiagramValue(subsets, rel_maps, spaces)
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
