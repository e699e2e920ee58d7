"""Limit engines and the realization layer against hand-checked values.

The split engine and the cubical limit are checked against test-side
oracles (the plain linear limit; the cochain complex over the nerve)
and against small diagrams whose limits were computed by hand.  The
realization layer is checked against the character calculus (dimension
bridge) and for strict functoriality of induced matrices.  The
iteration trajectories of the
excisive approximation on one- and two-homogeneous functors were
derived by hand from the suspension behaviour of the join and are
frozen here.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from functorcalc import generate
from functorcalc.exactpoly import TPoly, dims_poly
from functorcalc.holim import (
    BudgetError,
    Cell,
    CubeLimit,
    DegreeComplex,
    Echelon,
    Matrix,
    RealFunctor,
    SplitDiagram,
    Subquotient,
    TnFunctor,
    cell_character,
    cells_sequence,
    join_inclusion,
    join_space,
    kernel,
    split_limit,
    t_n_expected,
    t_n_oracle,
)
from functorcalc.symseq import evaluate


# ---------------------------------------------------------------------------
# exact linear algebra


# The engine's vectors are sparse ({index: entry}) and its matrices are
# lists of sparse columns; the tests write dense lists and convert.


def _sparse(v) -> dict:
    return {j: x for j, x in enumerate(v) if x}


def _columns(m: list, ncols: int) -> Matrix:
    """Sparse columns of a dense matrix given as a list of rows."""
    return [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(ncols)]


def _dense(cols: Matrix, nrows: int) -> list:
    return [[col.get(i, 0) for col in cols] for i in range(nrows)]


def _plain_rref(rows):
    """Textbook Gauss-Jordan over Fraction: normalize each pivot, clear its column."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _rank(rows) -> int:
    """Rank by the plain elimination, independent of the engine's."""
    return len(_plain_rref(rows)[0])


def test_rank_and_kernel_small():
    A = [[1, 2], [2, 4]]
    basis = Echelon()
    for row in A:
        basis.add(_sparse(row))
    assert len(basis.rows) == 1
    ker = kernel(_columns(A, 2))
    assert len(ker) == 1
    v = ker[0]
    assert all(sum(Fraction(row[j]) * x for j, x in v.items()) == 0 for row in A)


def test_subquotient_coords():
    sq = Subquotient([{0: 1}, {1: 1}], [{0: 1}])
    assert sq.dim == 1
    assert sq.coords({1: 1}) == {0: 1}
    assert sq.coords({0: 5, 1: 1}) == {0: 1}  # the image part is quotiented away
    with pytest.raises(ArithmeticError):
        sq.coords({2: 1})


def _random_entry(rng, rational):
    x = rng.choice([0, 0, 0, 1, -1, 2, -3, rng.randint(-40, 40)])
    return Fraction(x, rng.randint(1, 9)) if rational and rng.random() < 0.4 else x


def _random_matrix(rng, rows, cols, rational=True):
    """A random matrix; about half of them are forced to low rank."""
    if rng.random() < 0.5:
        return [[_random_entry(rng, rational) for _ in range(cols)] for _ in range(rows)]
    gens = [[_random_entry(rng, rational) for _ in range(cols)] for _ in range(rng.randint(0, 3))]
    return [[sum((rng.randint(-3, 3) * g[j] for g in gens), 0) for j in range(cols)]
            for _ in range(rows)]


def test_kernel_matches_plain_gauss_jordan():
    rng = random.Random(4201)
    shapes = [(0, 0), (1, 0), (3, 0), (1, 1), (2, 2)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3000)]
    shapes += [(rng.randint(8, 14), rng.randint(1, 4)) for _ in range(100)]  # tall
    shapes += [(rng.randint(1, 4), rng.randint(8, 14)) for _ in range(100)]  # wide
    for rows, cols in shapes:
        A = _random_matrix(rng, rows, cols)
        ker = kernel(_columns(A, cols))
        assert len(ker) == cols - _rank(A), A
        assert all(type(x) is int for v in ker for x in v.values())
        assert all(sum(Fraction(row[j]) * x for j, x in v.items()) == 0 for row in A for v in ker)
        assert _rank([[v.get(j, 0) for j in range(cols)] for v in ker]) == len(ker)
    for rows, cols in [(1, 1), (3, 5), (6, 2)]:
        zero = [[0] * cols for _ in range(rows)]
        assert kernel(_columns(zero, cols)) == [{j: 1} for j in range(cols)]


def test_echelon_rows_are_their_tracked_combinations():
    rng = random.Random(4219)
    for _ in range(400):
        dim = rng.randint(1, 8)
        vecs = _random_matrix(rng, rng.randint(0, 9), dim)
        basis = Echelon()
        relations = {k: basis.add(_sparse(v), k) for k, v in enumerate(vecs)}

        def value(combo, j):
            return sum((c * Fraction(vecs[k][j]) for k, c in combo.items()), Fraction(0))

        pivots = []
        for pivot, row, combo in basis.rows:
            # integer rows, zero at the pivots before their own
            assert row[pivot] and all(type(x) is int for x in row.values())
            assert not set(pivots) & set(row)
            pivots.append(pivot)
            assert all(value(combo, j) == row.get(j, 0) for j in range(dim))
        for k, rel in relations.items():
            if rel is not None:
                assert rel[k] and all(value(rel, j) == 0 for j in range(dim))
        assert len(basis.rows) == _rank(vecs)


def _greedy_keep(chosen, candidates):
    """Keep each candidate that raises the rank of everything kept so far."""
    kept = []
    for v in candidates:
        if _rank(chosen + kept + [v]) > _rank(chosen + kept):
            kept.append(v)
    return kept


def test_subquotient_is_the_greedy_rank_selection():
    rng = random.Random(4211)
    for trial in range(400):
        rational = trial % 2 == 1
        dim = rng.randint(1, 7)
        im = _random_matrix(rng, rng.randint(0, 6), dim, rational)
        ker = _random_matrix(rng, rng.randint(0, 7), dim, rational)
        sq = Subquotient([_sparse(v) for v in ker], [_sparse(v) for v in im])
        kept_im = _greedy_keep([], im)
        assert sq.im == [_sparse(v) for v in kept_im]
        assert sq.reps == [_sparse(v) for v in _greedy_keep(kept_im, ker)]
        assert sq.dim == len(sq.reps)


def test_subquotient_coords_refuse_vectors_off_the_kernel_span():
    rng = random.Random(4217)
    for _ in range(200):
        dim = rng.randint(2, 6)
        ker = _random_matrix(rng, rng.randint(1, dim - 1), dim)
        im = [[sum((rng.randint(-2, 2) * v[j] for v in ker), 0) for j in range(dim)]]
        sq = Subquotient([_sparse(v) for v in ker], [_sparse(v) for v in im])
        reps = [[v.get(j, 0) for j in range(dim)] for v in sq.reps]
        kept_im = [[v.get(j, 0) for j in range(dim)] for v in sq.im]
        # a kernel-span vector has its coordinates; adding an image vector
        # does not move them
        coeffs = [rng.randint(-3, 3) for _ in reps]
        w = [sum((a * v[j] for a, v in zip(coeffs, reps)), 0) for j in range(dim)]
        shifted = [a + b for a, b in zip(w, im[0])]
        assert sq.coords(_sparse(w)) == _sparse(coeffs)
        assert sq.coords(_sparse(shifted)) == _sparse(coeffs)
        off = [_random_entry(rng, True) for _ in range(dim)]
        if _rank(kept_im + reps + [off]) > _rank(kept_im + reps):
            with pytest.raises(ArithmeticError):
                sq.coords(_sparse(off))


# ---------------------------------------------------------------------------
# split limits


def test_split_limit_single_object():
    d = SplitDiagram(["o"], [], {"o": frozenset({"a", "b"})})
    assert split_limit(d) == {"a": 1, "b": 1}


def test_split_limit_pullback_counts():
    d = SplitDiagram(
        ["a", "b", "c"],
        [("a", "c"), ("b", "c")],
        {"a": frozenset({"x", "y"}), "b": frozenset({"x", "z"}), "c": frozenset({"x"})},
    )
    assert split_limit(d) == {"x": 1, "y": 1, "z": 1}


def test_split_limit_disconnected_support_doubles():
    d = SplitDiagram(["p", "q"], [], {"p": frozenset({"x"}), "q": frozenset({"x"})})
    assert split_limit(d) == {"x": 2}


def test_split_limit_rejects_label_creation():
    with pytest.raises(ValueError):
        SplitDiagram(["a", "b"], [("a", "b")], {"a": frozenset({"x"}), "b": frozenset({"x", "y"})})


def _realize_split(diagram: SplitDiagram, weights: dict):
    """Explicit matrices for a projection-form diagram, one line per label."""
    order = {x: sorted(diagram.labels[x]) for x in diagram.objects}
    spaces = {x: {} for x in diagram.objects}
    for x in diagram.objects:
        for lab in order[x]:
            deg = weights[lab]
            spaces[x][deg] = spaces[x].get(deg, 0) + 1
    maps = {}
    for (src, tgt) in diagram.arrows:
        blocks = {}
        degs = sorted({weights[lab] for lab in order[src]} | {weights[lab] for lab in order[tgt]})
        for deg in degs:
            src_labs = [lab for lab in order[src] if weights[lab] == deg]
            tgt_labs = [lab for lab in order[tgt] if weights[lab] == deg]
            blocks[deg] = [[1 if s == t else 0 for s in src_labs] for t in tgt_labs]
        maps[(src, tgt)] = blocks
    return spaces, maps


def test_split_limit_agrees_with_linear_limit_on_realizations():
    rng = random.Random(811)
    for _ in range(10):
        nobj = rng.randrange(2, 5)
        objects = [f"o{i}" for i in range(nobj)]
        # build labels downward-closed along randomly chosen arrows
        labels = {x: set() for x in objects}
        arrows = []
        for i in range(nobj - 1, -1, -1):
            labels[objects[i]].add(f"l{i}")
            for j in range(i + 1, nobj):
                if rng.random() < 0.5:
                    arrows.append((objects[i], objects[j]))
                    labels[objects[i]] |= labels[objects[j]]
        diagram = SplitDiagram(objects, arrows, {x: frozenset(labs) for x, labs in labels.items()})
        weights = {lab: rng.randrange(0, 3) for labs in labels.values() for lab in labs}
        counts = split_limit(diagram)
        by_degree: dict[int, int] = {}
        for lab, mult in counts.items():
            by_degree[weights[lab]] = by_degree.get(weights[lab], 0) + mult
        spaces, maps = _realize_split(diagram, weights)
        assert linear_limit(spaces, maps) == by_degree


# ---------------------------------------------------------------------------
# plain linear limits: the kernel of the difference map, the test oracle of
# split_limit (this is NOT a homotopy limit)


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
        rows: list[list] = []
        for (src, tgt), blocks in maps.items():
            block = blocks.get(deg, [[0] * dims[src] for _ in range(dims[tgt])])
            for i in range(dims[tgt]):
                row = [0] * total
                row[offsets[tgt] + i] = -1
                for j in range(dims[src]):
                    row[offsets[src] + j] += block[i][j]
                rows.append(row)
        dim = total - _rank(rows)
        if dim:
            out[deg] = dim
    return out


def test_linear_limit_of_an_isomorphism():
    spaces = {"a": {0: 2}, "b": {0: 2}}
    maps = {("a", "b"): {0: [[1, 1], [0, 1]]}}
    assert linear_limit(spaces, maps) == {0: 2}


def test_linear_limit_pullback_of_surjections():
    spaces = {"a": {0: 2}, "b": {0: 2}, "c": {0: 1}}
    maps = {("a", "c"): {0: [[1, 0]]}, ("b", "c"): {0: [[1, 0]]}}
    assert linear_limit(spaces, maps) == {0: 3}  # a + b - c


def test_linear_limit_chain_of_surjections_is_the_top():
    spaces = {"p2": {0: 3, 1: 1}, "p1": {0: 2}}
    maps = {("p2", "p1"): {0: [[1, 0, 0], [0, 1, 0]]}}
    assert linear_limit(spaces, maps) == {0: 3, 1: 1}


# ---------------------------------------------------------------------------
# derived limits: the cubical complex against the nerve
#
# The nerve complex below is the brute-force oracle of CubeLimit: the
# cochain complex over all strictly increasing chains of a poset, one
# summand per chain, needing a map for every related pair.  On a
# punctured cube it computes the same derived limits as the cubical
# complex, which has one summand per vertex.


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
        self.complexes = {e: self._build_complex(e) for e in self.all_degrees}
        # basis of the value: the i-th cohomology of slice e lies in degree
        # e - i; blocks[(e, i)] is its first index, in ascending degree
        self.blocks: dict[tuple[int, int], int] = {}
        self.dims: dict[int, int] = {}
        degs: list[int] = []
        for d, e, i in sorted((e - i, e, i) for e, cx in self.complexes.items() for i in range(len(cx.levels))):
            dim = self.complexes[e].levels[i].dim
            if dim:
                self.blocks[(e, i)] = len(degs)
                degs += [d] * dim
                self.dims[d] = self.dims.get(d, 0) + dim
        self.degs = tuple(degs)

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
            mat = [[0] * chain_dims[p] for _ in range(chain_dims[p + 1])]
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
        cols = [_columns(mat, chain_dims[p]) for p, mat in enumerate(diffs)]
        return DegreeComplex(cols + [[{} for _ in range(chain_dims[-1])]])

    def induced_map(self, other: "PosetDiagramValue", object_maps: dict) -> Matrix:
        """Matrix of the map of limits induced by object_maps: self -> other.

        object_maps[x] is a matrix from self.spaces[x] to other.spaces[x];
        the diagrams must have the same shape and commuting squares (any
        failure surfaces as a vector falling outside a kernel span).
        """
        out = [[0] * len(self.degs) for _ in other.degs]
        for (e, i), col in self.blocks.items():
            level = self.complexes[e].levels[i]
            for c, rep in enumerate(level.reps):
                # push the representative through the cochain map at (e, i)
                dense = [rep.get(k, 0) for k in range(self.complexes[e].dims[i])]
                pushed = self._push_chain_vector(other, object_maps, e, i, dense)
                # a missing target block means that cohomology vanishes;
                # the pushed cocycle is then a boundary and maps to zero
                if (e, i) in other.blocks:
                    coords = other.complexes[e].levels[i].coords(_sparse(pushed))
                    base = other.blocks[(e, i)]
                    for r, val in coords.items():
                        out[base + r][col + c] = val
        return out

    def _push_chain_vector(self, other: "PosetDiagramValue", object_maps, e: int, p: int, vec: list) -> list:
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




def derived_limits(objects: list, rel_maps: dict, spaces: dict, engine=PosetDiagramValue) -> dict[int, dict[int, int]]:
    """Dimensions of the i-th derived limits per degree: {degree: {i: dim}}."""
    return derived_dims(engine(objects, rel_maps, spaces))


def derived_dims(value) -> dict[int, dict[int, int]]:
    out: dict[int, dict[int, int]] = {}
    for e, cx in value.complexes.items():
        for i, level in enumerate(cx.levels):
            if level.dim:
                out.setdefault(e, {})[i] = level.dim
    return out


class DenseCube(CubeLimit):
    """CubeLimit taking and giving dense matrices (lists of rows), as the nerve does."""

    def __init__(self, subsets, maps, spaces):
        self.sizes = {u: len(spaces[u]) for u in subsets}
        super().__init__(subsets, {(u, v): _columns(m, self.sizes[u]) for (u, v), m in maps.items()}, spaces)

    def induced_map(self, other, object_maps):
        sparse = {u: _columns(m, self.sizes[u]) for u, m in object_maps.items()}
        return _dense(super().induced_map(other, sparse), len(other.degs))


#: both engines take (objects, maps, spaces); the nerve reads every related
#: pair, the cube only the one-element inclusions
ENGINES = (PosetDiagramValue, DenseCube)

A, B, AB = (0,), (1,), (0, 1)  # the punctured square A -> AB <- B


def test_derived_limit_single_object():
    for engine in ENGINES:
        out = derived_limits([A], {}, {A: (0, 0, 1)}, engine)
        assert out == {0: {0: 2}, 1: {0: 1}}


def test_derived_limit_pullback_of_surjections_has_no_higher_terms():
    spaces = {A: (0, 0), B: (0, 0), AB: (0,)}
    rel = {
        (A, AB): [[1, 0]],
        (B, AB): [[1, 0]],
    }
    for engine in ENGINES:
        assert derived_limits([A, B, AB], rel, spaces, engine) == {0: {0: 3}}


def test_derived_limit_detects_the_loop_term():
    """Punctured square with zero legs: no sections, one first-derived line."""
    spaces = {A: (), B: (), AB: (0,)}
    rel = {(A, AB): [[]], (B, AB): [[]]}
    for engine in ENGINES:
        assert derived_limits([A, B, AB], rel, spaces, engine) == {0: {1: 1}}


def test_constant_punctured_cube_has_trivial_higher_limits():
    objects = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    rel = {}
    for u in objects:
        for v in objects:
            if u != v and set(u) <= set(v):
                rel[(u, v)] = [[1]]
    spaces = {u: (0,) for u in objects}
    # 7 objects, 12 chains of length 2, 6 of length 3; 3 + 3 + 1 vertices
    assert PosetDiagramValue(objects, rel, spaces).complexes[0].dims == [7, 12, 6]
    assert DenseCube(objects, rel, spaces).complexes[0].dims == [3, 3, 1]
    for engine in ENGINES:
        assert derived_limits(objects, rel, spaces, engine) == {0: {0: 1}}


def test_derived_limit_euler_characteristic():
    rng = random.Random(823)
    for _ in range(6):
        da, db, dc = (rng.randrange(0, 3) for _ in range(3))
        spaces = {A: (0,) * da, B: (0,) * db, AB: (0,) * dc}
        rel = {
            (A, AB): [[rng.randrange(-2, 3) for _ in range(da)] for _ in range(dc)],
            (B, AB): [[rng.randrange(-2, 3) for _ in range(db)] for _ in range(dc)],
        }
        for engine in ENGINES:
            out = derived_limits([A, B, AB], rel, spaces, engine).get(0, {})
            euler_limits = out.get(0, 0) - out.get(1, 0)
            assert euler_limits == (da + db + dc) - 2 * dc


def test_induced_map_of_scalar_is_scalar():
    spaces = {A: (0,), B: (0,), AB: (0, 1)}
    rel = {(A, AB): [[1], [0]], (B, AB): [[1], [0]]}
    for engine in ENGINES:
        value = engine([A, B, AB], rel, spaces)
        doubled = value.induced_map(value, {A: [[2]], B: [[2]], AB: [[2, 0], [0, 2]]})
        n = len(value.degs)
        assert n == sum(value.dims.values())
        assert doubled == [[2 if i == j else 0 for j in range(n)] for i in range(n)]


def _punctured_cube(npoints):
    return [u for size in range(1, npoints + 1) for u in combinations(range(npoints), size)]


def _related(subsets):
    return [(u, v) for u in subsets for v in subsets if u != v and set(u) <= set(v)]


def _join_cube(functor, subsets, degs):
    """U -> F(U * X): its values, and its maps on every related pair."""
    joins = {u: join_space(len(u), degs) for u in subsets}
    values = {u: functor.evaluate(joins[u]) for u in subsets}
    maps = {}
    for u, v in _related(subsets):
        maps[(u, v)] = _dense(functor.induced(join_inclusion(u, v, len(degs)), joins[u], joins[v]), len(values[v].degs))
    return values, maps


def _join_object_maps(functor, f, subsets, x, y):
    """F(U * f) at every vertex U, for a map f of letters of degrees x to
    letters of degrees y (rows: target letters)."""
    out = {}
    for u in subsets:
        sdegs, tdegs = join_space(len(u), x), join_space(len(u), y)
        block = [[f[i % len(y)][j % len(x)] if i // len(y) == j // len(x) else 0 for j in range(len(sdegs))]
                 for i in range(len(tdegs))]
        out[u] = _induced(functor, block, sdegs, tdegs)
    return out


def _diagonal(entries):
    return [[entries[i] if i == j else 0 for j in range(len(entries))] for i in range(len(entries))]


def _diagonal_cube(subsets, scalars):
    """Edge maps U -> V multiply coordinate j by the product of scalars[x][j]
    over the points x added, so every square commutes."""
    return {(u, v): _diagonal([prod(s[j] for x, s in enumerate(scalars) if x in v and x not in u)
                               for j in range(len(scalars[0]))])
            for u, v in _related(subsets)}


def _block_ranks(src, tgt, matrix):
    """Rank of each (slice, level) block of an induced map, and of the whole map."""
    def offsets(value):
        return {(e, i): range(start, start + value.complexes[e].levels[i].dim)
                for (e, i), start in value.blocks.items()}

    rows, cols = offsets(tgt), offsets(src)
    ranks = {b: _rank([[matrix[r][c] for c in cols[b]] for r in rows[b]]) for b in cols if b in rows}
    return ranks, _rank(matrix)


def _assert_cube_matches_nerve(subsets, cubes, phi, psi):
    """cubes: three (maps, spaces) over subsets; phi: cube 0 -> 1, psi: 1 -> 2."""
    nerves = [PosetDiagramValue(subsets, maps, spaces) for maps, spaces in cubes]
    limits = [DenseCube(subsets, maps, spaces) for maps, spaces in cubes]
    for nerve, cube in zip(nerves, limits):
        assert derived_dims(cube) == derived_dims(nerve)
    for k, object_maps in [(0, phi), (1, psi)]:
        by_nerve = nerves[k].induced_map(nerves[k + 1], object_maps)
        by_cube = limits[k].induced_map(limits[k + 1], object_maps)
        assert _block_ranks(limits[k], limits[k + 1], by_cube) == _block_ranks(nerves[k], nerves[k + 1], by_nerve)
    # the cube's induced map is a functor
    sizes = [{u: len(spaces[u]) for u in subsets} for _, spaces in cubes]
    dims = [len(cube.degs) for cube in limits]
    assert limits[0].induced_map(limits[0], {u: _identity(sizes[0][u]) for u in subsets}) == _identity(dims[0])
    composite = {u: _mul_shaped(psi[u], phi[u], sizes[2][u], sizes[1][u], sizes[0][u]) for u in subsets}
    assert limits[0].induced_map(limits[2], composite) == _mul_shaped(
        limits[1].induced_map(limits[2], psi), limits[0].induced_map(limits[1], phi), dims[2], dims[1], dims[0])


def test_cube_limit_matches_the_nerve_on_join_cubes():
    rng = random.Random(4229)
    for trial in range(16):
        npoints = trial % 4 + 1
        subsets = _punctured_cube(npoints)
        # at four points the nerve has 149 chains; keep its spaces small
        cells = random_cells(rng, 3) if npoints < 4 else random_cells(rng, 2)[:1]
        functor = RealFunctor(cells)
        letters = 2 if npoints < 4 else 1
        x, y, z = (tuple(rng.randrange(0, 2) for _ in range(rng.randint(1, letters))) for _ in range(3))
        cubes = [_join_cube(functor, subsets, degs) for degs in (x, y, z)]
        phi = _join_object_maps(functor, _random_graded_map(rng, x, y), subsets, x, y)
        psi = _join_object_maps(functor, _random_graded_map(rng, y, z), subsets, y, z)
        spaces = [{u: val.degs for u, val in values.items()} for values, _ in cubes]
        _assert_cube_matches_nerve(subsets, [(maps, sp) for (_, maps), sp in zip(cubes, spaces)], phi, psi)


def test_cube_limit_matches_the_nerve_on_diagonal_cubes():
    rng = random.Random(4231)
    for trial in range(40):
        npoints = trial % 4 + 1
        subsets = _punctured_cube(npoints)
        degs = tuple(rng.randrange(0, 2) for _ in range(rng.randint(1, 3)))

        def draw():
            return [[rng.choice([0, 0, 1, -1, 2]) for _ in degs] for _ in range(npoints)]

        # cube k + 1 has edge scalars ratios[x][j] * those of cube k, and the
        # map between them scales coordinate j at U by start[j] times the
        # product of ratios[x][j] over x in U: every square commutes
        scalars, cubes, object_maps = draw(), [], []
        for k in range(3):
            cubes.append((_diagonal_cube(subsets, scalars), {u: degs for u in subsets}))
            ratios, start = draw(), [rng.choice([0, 1, -1, 3]) for _ in degs]
            object_maps.append({u: _diagonal([start[j] * prod(ratios[x][j] for x in u) for j in range(len(degs))])
                                for u in subsets})
            scalars = [[r * c for r, c in zip(rs, cs)] for rs, cs in zip(ratios, scalars)]
        _assert_cube_matches_nerve(subsets, cubes, object_maps[0], object_maps[1])
# ---------------------------------------------------------------------------
# realization layer


def random_cells(rng: random.Random, max_n: int = 3):
    cells = []
    for _ in range(rng.randrange(1, 4)):
        n = rng.randrange(1, max_n + 1)
        alpha = []
        left = n
        while left:
            part = rng.randrange(1, left + 1)
            alpha.append(part)
            left -= part
        cells.append(Cell(tuple(alpha), sign=rng.random() < 0.5, degree=rng.randrange(0, 2)))
    return cells


def test_realization_dims_match_character_evaluation():
    rng = random.Random(829)
    for _ in range(12):
        cells = random_cells(rng)
        degs = tuple(rng.randrange(0, 3) for _ in range(rng.randrange(0, 4)))
        counts: dict[int, int] = {}
        for d in degs:
            counts[d] = counts.get(d, 0) + 1
        value = RealFunctor(cells).evaluate(degs)
        claimed = evaluate(cells_sequence(cells), dims_poly(counts), signed=True)
        assert dims_poly(value.dims) == claimed


def test_realization_parity_rules():
    sym2 = RealFunctor([Cell((2,), sign=False)])
    lam2 = RealFunctor([Cell((2,), sign=True)])
    odd_line, even_line = (1,), (0,)
    assert sym2.evaluate(odd_line).dims == {}  # repeated odd letter dies
    assert lam2.evaluate(odd_line).dims == {2: 1}  # sign twist saves it
    assert sym2.evaluate(even_line).dims == {0: 1}
    assert lam2.evaluate(even_line).dims == {}


def _random_graded_map(rng, src_degs, tgt_degs):
    return [
        [rng.randrange(-1, 3) if tgt_degs[i] == src_degs[j] else 0 for j in range(len(src_degs))]
        for i in range(len(tgt_degs))
    ]


def _induced(functor, f, src_degs, tgt_degs):
    """functor.induced on dense matrices."""
    return _dense(functor.induced(_columns(f, len(src_degs)), src_degs, tgt_degs), len(functor.evaluate(tgt_degs).degs))


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mul_shaped(A, B, rows, inner, cols):
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if A[i][k]:
                for j in range(cols):
                    out[i][j] += A[i][k] * B[k][j]
    return out


def _assert_functor_laws(functor, u, v, w, f, g) -> bool:
    """induced(g f) = induced(g) induced(f), and the identity letter map
    induces the identity; True when the composite's matrix is nonzero."""
    dims = [len(functor.evaluate(x).degs) for x in (u, v, w)]
    left = _induced(functor, _mul_shaped(g, f, len(w), len(v), len(u)), u, w)
    assert left == _mul_shaped(_induced(functor, g, v, w), _induced(functor, f, u, v), dims[2], dims[1], dims[0])
    assert _induced(functor, _identity(len(u)), u, u) == _identity(dims[0])
    return any(any(row) for row in left)


def test_realization_functoriality():
    rng = random.Random(839)
    for _ in range(8):
        cells = random_cells(rng)
        functor = RealFunctor(cells)
        u = tuple(rng.randrange(0, 2) for _ in range(rng.randrange(1, 3)))
        v = tuple(rng.randrange(0, 2) for _ in range(rng.randrange(1, 4)))
        w = tuple(rng.randrange(0, 2) for _ in range(rng.randrange(1, 3)))
        f = _random_graded_map(rng, u, v)
        g = _random_graded_map(rng, v, w)
        _assert_functor_laws(functor, u, v, w, f, g)


def test_cell_character_of_the_regular_representation():
    chi = cell_character(Cell((1, 1), sign=False, degree=1))
    assert chi.values[(1, 1)] == TPoly.term(1).scale(2)
    assert chi.values[(2,)] == TPoly.zero()
    triv = cell_character(Cell((2,), sign=False))
    assert all(v == TPoly.one() for v in triv.values.values())


def test_cells_sequence_has_int_coefficients():
    # Young induction scales by binomial coefficients, never by a fraction
    rng = random.Random(4223)
    for _ in range(30):
        seq = cells_sequence(generate.random_cells(rng, 5))
        for chi in seq.entries.values():
            for poly in chi.values.values():
                assert all(type(poly.coeff(d)) is int for d in poly.support())


# ---------------------------------------------------------------------------
# joins and the excisive approximation


def test_join_inclusions_compose():
    rng = random.Random(853)
    for _ in range(10):
        w = tuple(sorted(rng.sample(range(4), rng.randrange(2, 5))))
        v = tuple(sorted(rng.sample(w, rng.randrange(2, len(w) + 1))))
        u = tuple(sorted(rng.sample(v, rng.randrange(1, len(v) + 1))))
        nx = rng.randrange(1, 3)
        rows, mid, cols = (len(w) - 1) * nx, (len(v) - 1) * nx, (len(u) - 1) * nx
        direct = _dense(join_inclusion(u, w, nx), rows)
        composed = _mul_shaped(_dense(join_inclusion(v, w, nx), rows), _dense(join_inclusion(u, v, nx), mid),
                               rows, mid, cols)
        assert direct == composed


def test_first_approximation_fixes_the_identity_functor():
    for degs in [(0,), (0, 1)]:
        result = t_n_oracle([Cell((1,))], 1, degs, window=4, max_iter=3)
        dims = {d: degs.count(d) for d in set(degs)}
        assert result["history"][0] == dims
        assert result["history"][1] == dims
        assert result["stable"] == dims


def test_approximation_fixes_functors_of_its_own_degree():
    # a two-homogeneous functor is untouched by the second approximation
    for cell, degs, dims in [
        (Cell((2,), sign=True), (0, 0), {0: 1}),
        (Cell((2,), sign=False), (0, 0), {0: 3}),
        (Cell((2,), sign=False), (0, 1), {0: 1, 1: 1}),
    ]:
        result = t_n_oracle([cell], 2, degs, window=5, max_iter=2)
        assert result["history"][0] == dims
        assert result["history"][1] == dims, f"{cell} moved under its own approximation"


def test_square_functor_oscillates_and_clears_the_window():
    """Hand-derived trajectory: the two-homogeneous part climbs one degree
    per iterate (suspension trades symmetric for exterior squares), so the
    window empties instead of the dims ever repeating globally."""
    result = t_n_oracle([Cell((2,), sign=False)], 1, (0,), window=3, max_iter=8)
    assert result["history"][0] == {0: 1}
    assert result["history"][1] == {}
    assert result["history"][2] == {2: 1}
    assert result["history"][3] == {}
    assert result["stable"] == {}


def test_exterior_square_iterates_to_zero_in_the_window():
    result = t_n_oracle([Cell((2,), sign=True)], 1, (0,), window=2, max_iter=8)
    assert result["history"][0] == {}
    assert result["history"][1] == {1: 1}
    assert result["stable"] == {}


def test_mixed_functor_stabilizes_to_its_linear_part():
    cells = [Cell((1,)), Cell((2,), sign=False)]
    result = t_n_oracle(cells, 1, (0,), window=3, max_iter=8)
    expected = evaluate(cells_sequence(cells).truncate(1), dims_poly({0: 1}), signed=True)
    assert result["stable"] == {d: c for d, c in expected.c.items()}
    assert result["history"][0] == {0: 2}


class _NonIntegralSpy:
    """Passes evaluate and induced through, counting non-integral matrix entries."""

    def __init__(self, inner):
        self.inner = inner
        self.non_integral = 0

    def evaluate(self, degs):
        return self.inner.evaluate(degs)

    def induced(self, *args):
        out = self.inner.induced(*args)
        self.non_integral += sum(1 for col in out for x in col.values() if Fraction(x).denominator != 1)
        return out


def test_rational_induced_maps_keep_the_history():
    """Sym^3 at one even and one odd line, excision degree 2.

    Iterate 0 is by hand: with Koszul signs Sym^3(e + o) is e^3 in degree
    0 plus e^2 o in degree 1 (o^2 dies), so {0: 1, 1: 1}.  Iterates 1-3
    are frozen from the dense fraction-free elimination this engine
    replaced.  It is the cheapest known input whose induced maps carry
    non-integral entries into the next iterate's complexes.
    """
    result = t_n_oracle([Cell((3,))], 2, (0, 1), window=99, max_iter=3)
    assert result["history"] == [
        {0: 1, 1: 1},
        {2: 2, 3: 3, 4: 1},
        {2: 5, 3: 13, 4: 12, 5: 4},
        {3: 20, 4: 62, 5: 63, 6: 21},
    ]
    spy = _NonIntegralSpy(TnFunctor(RealFunctor([Cell((3,))]), 2))
    assert TnFunctor(spy, 2).evaluate((0, 1)).dims == result["history"][2]
    assert spy.non_integral > 0


def test_window_refusal_spares_every_window_an_iterate_reaches():
    rng = random.Random(4241)
    for _ in range(60):
        cells = random_cells(rng, 3)
        n = rng.randint(1, 2)
        degs = tuple(rng.randrange(0, 3) for _ in range(rng.randint(1, 2)))
        history = t_n_oracle(cells, n, degs, window=99, max_iter=2)["history"]
        reached = [d for dims in history for d in dims]
        if reached:
            t_n_expected(cells, n, degs, min(reached))
    # X (x) X at a line of degree 3: the value is {6: 1}, iterate 1 is {7: 1}
    assert t_n_oracle([Cell((1, 1))], 1, (3,), window=99, max_iter=1)["history"] == [{6: 1}, {7: 1}]
    for window in (-1, 1, 5):
        with pytest.raises(ValueError):
            t_n_expected([Cell((1, 1))], 1, (3,), window)
    assert t_n_expected([Cell((1, 1))], 1, (3,), 6) == (6, {})
    # Lambda^2 at an even line is zero, but its residue visits degree 1
    assert t_n_expected([Cell((2,), sign=True)], 1, (0,), 1) == (1, {})
    with pytest.raises(ValueError):
        t_n_expected([Cell((2,), sign=True)], 1, (0,), 0)


def test_approximation_is_a_functor():
    """T_n F's induced matrices compose and keep identities, the laws a
    composite of realized functors will rely on."""
    rng = random.Random(4253)
    shapes = [(1,), (2,), (1, 1), (1, 2)]
    nonvacuous = 0
    for _ in range(40):
        cells = [Cell(rng.choice(shapes), sign=rng.random() < 0.5, degree=rng.randrange(0, 2))
                 for _ in range(rng.randint(1, 2))]
        functor = TnFunctor(RealFunctor(cells), rng.randint(1, 2))
        u, v, w = (tuple(rng.randrange(0, 2) for _ in range(rng.randint(1, 3))) for _ in range(3))
        f, g = _random_graded_map(rng, u, v), _random_graded_map(rng, v, w)
        nonvacuous += _assert_functor_laws(functor, u, v, w, f, g)
    assert nonvacuous >= 15


def test_budget_refusal():
    with pytest.raises(BudgetError):
        TnFunctor(RealFunctor([Cell((3,), sign=False)]), 2, budget=3).evaluate((0, 0))


class _CountingFunctor:
    """Passes evaluate and induced through to a functor, counting induced calls."""

    def __init__(self, inner):
        self.inner = inner
        self.induced_calls = 0

    def evaluate(self, degs):
        return self.inner.evaluate(degs)

    def induced(self, *args):
        self.induced_calls += 1
        return self.inner.induced(*args)


def test_approximation_maps_one_element_inclusions_within_its_budget():
    degs = (0, 1)
    for n in (1, 2, 3):
        counting = _CountingFunctor(RealFunctor([Cell((1, 1)), Cell((2,), sign=True)]))
        value = TnFunctor(counting, n).evaluate(degs)
        # each vertex V receives one inclusion per point of V, and the n + 1
        # singletons receive none: (n + 1) 2^n - (n + 1) maps (28 at n = 3)
        assert counting.induced_calls == (n + 1) * 2**n - (n + 1)
        # one summand per vertex: the complexes of all slices together are
        # exactly the vertex basis total that the budget counts
        total = sum(len(counting.evaluate(join_space(len(u), degs)).degs) for u in _punctured_cube(n + 1))
        assert sum(sum(cx.dims) for cx in value.complexes.values()) == total
        TnFunctor(counting, n, budget=total).evaluate(degs)
        with pytest.raises(BudgetError):
            TnFunctor(counting, n, budget=total - 1).evaluate(degs)
