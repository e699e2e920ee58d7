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

Every realized functor has the same two methods, memoized on degrees
by their shared base ``Realized``: ``evaluate(degs)`` gives the value at
the space with those letter degrees (an object with ``.degs``, the
degree of each basis vector, and ``.dims``), and
``induced(f, src_degs, tgt_degs)`` gives the sparse matrix of the
functor applied to a letter map f between two such spaces.  A value
depends only on its degrees, so ``induced`` reads both ends from the
``evaluate`` memo.

All of it stands on one exact primitive, a sparse integer echelon basis
(``Echelon``) whose rows carry the integer combination of inputs they
equal: kernels of differentials are the combinations that reduce to
zero, and a ``Subquotient`` picks its image basis and kernel
representatives in one pass over one such basis, then reads coordinates
off the same basis.  Rational inputs are scaled to integers once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, product as iproduct
from heapq import heapify, heappop, heappush
from math import gcd, lcm

Vec = dict  # sparse vector: index -> nonzero entry
Matrix = list  # sparse columns: one Vec per source basis vector, indexed by target


# ---------------------------------------------------------------------------
# exact linear algebra


class Echelon:
    """Sparse integer echelon basis that tracks what each row is made of.

    Rows are ``{column: int}``; each is zero at the pivots of the rows
    before it.  A vector added with a label is scaled once to integers
    (by the lcm of its denominators), and every row carries the integer
    combination ``{label: coefficient}`` of the labelled input vectors it
    equals; unlabelled inputs are not tracked.  Reducing a vector clears,
    in row order, exactly the pivots it meets, so it touches no other row.
    """

    def __init__(self):
        self.rows: list[tuple[int, Vec, dict]] = []  # (pivot, row, combination)
        self.pivot_rows: dict[int, int] = {}  # pivot column -> row index

    def reduce(self, v: Vec, label=None) -> tuple[Vec, dict]:
        """The remainder of v against the rows, and the combination it equals."""
        scale = 1
        for x in v.values():
            if x.denominator != 1:
                scale = lcm(scale, x.denominator)
        row = {c: x.numerator * (scale // x.denominator) for c, x in v.items() if x}
        combo = {} if label is None else {label: scale}
        if not self.rows:
            return row, combo
        pivot_rows = self.pivot_rows
        heap = [pivot_rows[c] for c in row if c in pivot_rows]
        heapify(heap)
        while heap:
            k = heappop(heap)
            c, b, b_combo = self.rows[k]
            f = row.get(c)
            if not f:  # queued twice, or cancelled since
                continue
            p = b[c]
            row = _combine(p, row, f, b)
            combo = _combine(p, combo, f, b_combo)
            g = gcd(*row.values(), *combo.values())
            if g > 1:
                row = {j: x // g for j, x in row.items()}
                combo = {j: x // g for j, x in combo.items()}
            # b is zero at the pivots before its own: only later rows are met
            for j in b:
                if j in row and j in pivot_rows:
                    heappush(heap, pivot_rows[j])
        return row, combo

    def add(self, v: Vec, label=None) -> dict | None:
        """Keep v's nonzero remainder as a new row; else return the relation,
        the combination of inputs that reduced to zero."""
        row, combo = self.reduce(v, label)
        if not row:
            return combo
        pivot = min(row)
        self.pivot_rows[pivot] = len(self.rows)
        self.rows.append((pivot, row, combo))
        return None


def _combine(p: int, u: dict, f: int, w: dict) -> dict:
    """p * u - f * w on sparse integer vectors."""
    out = {j: p * x for j, x in u.items()}
    for j, x in w.items():
        y = out.get(j, 0) - f * x
        if y:
            out[j] = y
        else:
            del out[j]
    return out


def kernel(columns: list[Vec]) -> list[Vec]:
    """Integer basis of the kernel of the map with the given sparse columns.

    Each column that reduces to zero against the columns before it gives
    one kernel vector: the integer combination of columns it reduced by.
    """
    basis = Echelon()
    relations = (basis.add(col, j) for j, col in enumerate(columns))
    return [r for r in relations if r is not None]


class Subquotient:
    """Basis data for ker / im inside an ambient space, on sparse vectors.

    reps: kernel vectors extending a basis of the image to one of the
    kernel; coords(w) expresses a kernel vector in the quotient basis.

    One echelon basis serves both: the im vectors, then the ker vectors,
    are added to it, and a vector is kept exactly when a nonzero
    remainder is left, i.e. when it is not in the span of the vectors
    kept before it.  The reps are added with their positions as labels,
    so reducing w against the same basis reads off its coordinates.
    """

    def __init__(self, ker: list[Vec], im: list[Vec]):
        self._basis = Echelon()
        self.im: list[Vec] = [v for v in im if self._basis.add(v) is None]
        self.reps: list[Vec] = []
        for v in ker:
            if self._basis.add(v, len(self.reps)) is None:
                self.reps.append(v)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, w: Vec) -> Vec:
        """The coordinates of w on the reps, sparse: position -> coefficient."""
        row, combo = self._basis.reduce(w, -1)
        if row:
            raise ArithmeticError("vector not in the kernel span; maps do not commute")
        # combo[-1] * w + sum of combo[r] * reps[r] lies in the image span
        den = combo.pop(-1)
        return {r: Fraction(-a, den) if a % den else -a // den for r, a in combo.items()}


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
    """Cochain complex of one degree slice, with its cohomology bases.

    cols[p] holds the sparse columns of the differential out of level p,
    one per basis vector of that level; the last level's are empty.
    """

    def __init__(self, cols: list[list[Vec]]):
        self.dims = [len(c) for c in cols]
        self.levels = [Subquotient(kernel(c), cols[p - 1] if p else []) for p, c in enumerate(cols)]


def _dims(degs: tuple[int, ...]) -> dict[int, int]:
    """{degree: multiplicity} of a basis, in order of first appearance."""
    out: dict[int, int] = {}
    for d in degs:
        out[d] = out.get(d, 0) + 1
    return out


class CubeLimit:
    """Homotopy limit of a punctured cube of graded spaces, with chosen bases.

    subsets: the nonempty subsets of a finite set, as sorted tuples;
    spaces: subset -> tuple of basis degrees; maps: (U, V) -> Matrix, of
    degree 0, for every one-element inclusion U < V (other pairs are not
    read).  The
    degree-d part of the value is the sum over i of the i-th cohomology of
    the cubical total complex of the degree-(d+i) slices: its degree-p
    term is the sum of the slices at the subsets U with |U| = p + 1, and
    its differential sends the U-summand to each V = U + {x} by (-1)^k
    times the map, k the position of x in V (Munson and Volic, *Cubical
    Homotopy Theory*, on homotopy limits of punctured cubes).  Each vertex
    is one summand, so the complexes of all slices together are exactly as
    large as the spaces.  The value's basis degrees are ``degs``, in
    ascending order, and ``dims`` counts them per degree.
    """

    def __init__(self, subsets: list, maps: dict, spaces: dict):
        self.levels, self.cofaces = _cube_shape(tuple(subsets))
        self.slices: dict = {u: {} for u in subsets}  # vertex -> degree -> basis positions
        self.local: dict = {}  # vertex -> each basis position's index within its slice
        for u in subsets:
            local = self.local[u] = []
            for j, d in enumerate(spaces[u]):
                positions = self.slices[u].setdefault(d, [])
                local.append(len(positions))
                positions.append(j)
        # per degree slice and level: the first cochain index of each vertex,
        # and the (vertex, basis position) behind each cochain index
        self.offsets: dict = {}
        self.owners: dict = {}
        degrees = sorted({d for degs in spaces.values() for d in degs})
        self.complexes = {e: self._build_complex(e, maps) for e in degrees}
        # basis of the value: the i-th cohomology of slice e lies in degree
        # e - i; blocks[(e, i)] is its first index, in ascending degree
        self.blocks: dict[tuple[int, int], int] = {}
        degs: list[int] = []
        for d, e, i in sorted((e - i, e, i) for e, cx in self.complexes.items() for i in range(len(cx.levels))):
            dim = self.complexes[e].levels[i].dim
            if dim:
                self.blocks[(e, i)] = len(degs)
                degs += [d] * dim
        self.degs = tuple(degs)
        self.dims = _dims(self.degs)

    def _build_complex(self, e: int, maps: dict) -> DegreeComplex:
        owners: list[list] = []
        offsets: list[dict] = []
        for level in self.levels:
            own: list = []
            offsets.append({})
            for u in level:
                offsets[-1][u] = len(own)
                own += [(u, j) for j in self.slices[u].get(e, ())]
            owners.append(own)
        self.offsets[e], self.owners[e] = offsets, owners
        cols: list[list[Vec]] = []
        for p, own in enumerate(owners):
            cols.append([])
            for u, j in own:
                col: Vec = {}
                for v, sign in self.cofaces[u]:
                    r0 = offsets[p + 1][v]
                    for i, x in maps[(u, v)][j].items():
                        col[r0 + self.local[v][i]] = sign * x
                cols[-1].append(col)
        return DegreeComplex(cols)

    def induced_map(self, other: "CubeLimit", object_maps: dict) -> Matrix:
        """Matrix of the map of limits induced by object_maps: self -> other.

        object_maps[U] is a degree-0 matrix from self's space at U to
        other's; the cubes must have the same vertices and commuting
        squares (any failure surfaces as a vector falling outside a kernel
        span).
        """
        out: Matrix = [{} for _ in self.degs]
        for (e, i), col in self.blocks.items():
            # a missing target block means that cohomology vanishes;
            # the pushed cocycles are then boundaries and map to zero
            base = other.blocks.get((e, i))
            if base is None:
                continue
            target = other.complexes[e].levels[i]
            for c, rep in enumerate(self.complexes[e].levels[i].reps):
                pushed = self._push(other, object_maps, e, i, rep)
                out[col + c] = {base + r: val for r, val in target.coords(pushed).items()}
        return out

    def _push(self, other: "CubeLimit", object_maps: dict, e: int, p: int, vec: Vec) -> Vec:
        """A sparse degree-p cochain of the e slice through the object maps."""
        out: Vec = {}
        for pos, x in vec.items():
            u, j = self.owners[e][p][pos]
            base = other.offsets[e][p][u]
            for i, y in object_maps[u][j].items():
                r = base + other.local[u][i]
                out[r] = out.get(r, 0) + y * x
        return {r: y for r, y in out.items() if y}


@cache
def _cube_shape(subsets: tuple) -> tuple[list, dict]:
    """The vertices per level, and the signed one-element inclusions out of each."""
    top = max(len(u) for u in subsets)
    levels = [[u for u in subsets if len(u) == p + 1] for p in range(top)]
    cofaces: dict = {u: [] for u in subsets}
    for level in levels[1:]:
        for v in level:
            for k in range(len(v)):
                cofaces[v[:k] + v[k + 1 :]].append((v, -1 if k % 2 else 1))
    return levels, cofaces


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


class Realized:
    """A functor realized by bases and matrices, memoized on degrees.

    ``evaluate(degs)`` is the value at the space whose basis letters have
    the given degrees; ``induced(f, src_degs, tgt_degs)`` is the matrix of
    the functor applied to the letter map f (sparse columns, one per
    source letter) between two such spaces.  Subclasses compute them in
    ``_evaluate`` and ``_induced``, which may read both ends of the map
    from ``evaluate``: a value depends only on its degrees, so each is
    computed once.  Iterated approximations evaluate the same inner
    functor on the same spaces over and over, and the memos turn that
    repetition from exponential to linear.
    """

    def __init__(self):
        self._values: dict = {}
        self._maps: dict = {}

    def evaluate(self, degs: tuple[int, ...]):
        degs = tuple(degs)
        value = self._values.get(degs)
        if value is None:
            value = self._values[degs] = self._evaluate(degs)
        return value

    def induced(self, f: Matrix, src_degs: tuple[int, ...], tgt_degs: tuple[int, ...]) -> Matrix:
        src_degs, tgt_degs = tuple(src_degs), tuple(tgt_degs)
        key = (tuple(tuple(col.items()) for col in f), src_degs, tgt_degs)
        out = self._maps.get(key)
        if out is None:
            out = self._maps[key] = self._induced(f, src_degs, tgt_degs)
        return out


class RealValue:
    """Ordered basis of an evaluated functor: (cell index, word) per vector."""

    __slots__ = ("degs", "basis", "index")

    def __init__(self, degs: tuple[int, ...], basis: list):
        self.degs = degs
        self.basis = basis
        self.index = {b: i for i, b in enumerate(basis)}

    @property
    def dims(self) -> dict[int, int]:
        return _dims(self.degs)


class RealFunctor(Realized):
    """Sum of cells, evaluated by explicit orbit bases and matrices."""

    def __init__(self, cells: list[Cell]):
        super().__init__()
        self.cells = list(cells)

    def _evaluate(self, degs: tuple[int, ...]) -> RealValue:
        basis = []
        out_degs = []
        nletters = len(degs)
        for ci, cell in enumerate(self.cells):
            for rows in self._cell_words(cell, nletters, degs):
                basis.append((ci, rows))
                out_degs.append(cell.degree + sum(degs[l] for row in rows for l in row))
        return RealValue(tuple(out_degs), basis)

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

    def _induced(self, f: Matrix, src_degs: tuple[int, ...], tgt_degs: tuple[int, ...]) -> Matrix:
        """Matrix of the functor applied to a linear map given on bases.

        f[j][i] = coefficient of target letter i in the image of source
        letter j; the induced map expands multilinearly over the word
        slots and re-canonicalizes each resulting word.
        """
        src, tgt = self.evaluate(src_degs), self.evaluate(tgt_degs)
        out: Matrix = []
        for ci, rows in src.basis:
            cell = self.cells[ci]
            slots = [l for row in rows for l in row]
            shape = [len(row) for row in rows]
            col: Vec = {}
            for pick in iproduct(*[f[l].items() for l in slots]):
                coeff = 1
                for _, c in pick:
                    coeff *= c
                letters = [i for i, _ in pick]
                it = iter(letters)
                new_rows = tuple(tuple(next(it) for _ in range(s)) for s in shape)
                canon, sgn = _canonical_word(cell, new_rows, tgt_degs)
                if canon is None:
                    continue
                row_idx = tgt.index.get((ci, canon))
                if row_idx is None:
                    raise ArithmeticError("image word missing from target basis")
                col[row_idx] = col.get(row_idx, 0) + coeff * sgn
            out.append({i: x for i, x in col.items() if x})
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
    out: Matrix = [{} for _ in range((len(su) - 1) * nx)]
    vpos = {elt: i for i, elt in enumerate(sv[1:])}
    u0 = su[0]
    for ci, elt in enumerate(su[1:]):
        for x in range(nx):
            col = out[ci * nx + x]
            # e(elt) - e(u0) = (e(elt) - e(v0)) - (e(u0) - e(v0))
            if elt != sv[0]:
                col[vpos[elt] * nx + x] = 1
            if u0 != sv[0]:
                col[vpos[u0] * nx + x] = -1
    return out


class TnFunctor(Realized):
    """The homotopy limit of F(U * X) over nonempty U in a (n+1)-point set.

    Wraps any functor with the two-method interface of ``Realized``
    (``evaluate(degs)``, ``induced(f, src_degs, tgt_degs)``) and has it
    too: its value is the ``CubeLimit`` itself, and wrapping its own
    output iterates the construction.  A budget caps the total basis size
    of the values F(U * X), summed over the vertices U; the cubical
    complexes have one summand per vertex, so the same total bounds the
    chain complexes whose cohomology is the value.
    """

    def __init__(self, inner, n: int, budget: int = 200000):
        super().__init__()
        self.inner = inner
        self.n = n
        self.budget = budget
        self.subsets = [u for size in range(1, n + 2) for u in combinations(range(n + 1), size)]

    def _evaluate(self, degs: tuple[int, ...]) -> CubeLimit:
        joins = {u: join_space(len(u), degs) for u in self.subsets}
        # every vertex is evaluated, and the budget checked, before any map
        spaces = {}
        total = 0
        for u in self.subsets:
            spaces[u] = self.inner.evaluate(joins[u]).degs
            total += len(spaces[u])
            if total > self.budget:
                raise BudgetError(f"evaluation size {total} exceeds budget {self.budget}")
        maps = {}
        for v in self.subsets[self.n + 1 :]:  # past the singletons, which receive none
            for k in range(len(v)):
                u = v[:k] + v[k + 1 :]
                maps[(u, v)] = self.inner.induced(join_inclusion(u, v, len(degs)), joins[u], joins[v])
        return CubeLimit(self.subsets, maps, spaces)

    def _induced(self, f: Matrix, src_degs: tuple[int, ...], tgt_degs: tuple[int, ...]) -> Matrix:
        src, tgt = self.evaluate(src_degs), self.evaluate(tgt_degs)
        nx_tgt = len(tgt_degs)
        object_maps = {}
        for u in self.subsets:
            # f on each of the |U| - 1 copies of X
            block = [{rep * nx_tgt + i: x for i, x in col.items()} for rep in range(len(u) - 1) for col in f]
            object_maps[u] = self.inner.induced(block, join_space(len(u), src_degs), join_space(len(u), tgt_degs))
        return src.induced_map(tgt, object_maps)


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
    realization layer.  Returns (window, {degree: dim}).

    Raises ``ValueError`` when the window lies below every degree the
    functor or its iterates can hold at the point, so that the comparison
    would pass on nothing.  Those degrees are the functor's own value's
    (they contain the truncated value's) and, for a cell of arity m > n,
    at least c + m * a + (m - n), c its internal degree and a the lowest
    letter degree: joins raise letters by one and the cube's cohomology
    lowers by at most n.  Cells of arity <= n are held.  The default
    window reaches two past the highest degree of the truncated value and
    of the point, and at least to the lowest of those reachable degrees,
    so it is refused only when no degree is reachable at all.
    """
    from .exactpoly import dims_poly
    from .symseq import evaluate

    point = dims_poly({d: degs.count(d) for d in set(degs)})
    seq = cells_sequence(cells)
    value = evaluate(seq.truncate(n), point, signed=True)
    reachable = list(evaluate(seq, point, signed=True).support())
    if degs:
        reachable += [c.degree + c.n * min(degs) + c.n - n for c in set(cells) if c.n > n]
    if window is None:
        window = max(max(list(value.support()) + list(degs) + [0]) + 2, min(reachable, default=0))
    if not any(d <= window for d in reachable):
        raise ValueError(f"window {window} holds no degree of the functor or its iterates "
                         f"at the point, so the comparison would pass on nothing")
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
