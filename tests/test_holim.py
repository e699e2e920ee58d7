"""Limit engines and the realization layer against hand-checked values.

The split engine, the plain linear limit, and the derived-limit
machinery are checked against each other and against small diagrams
whose limits were computed by hand.  The realization layer is checked
against the character calculus (dimension bridge) and for strict
functoriality of induced matrices.  The iteration trajectories of the
excisive approximation on one- and two-homogeneous functors were
derived by hand from the suspension behaviour of the join and are
frozen here.
"""

import random
from fractions import Fraction

import pytest

from functorcalc import generate
from functorcalc.exactpoly import TPoly, dims_poly
from functorcalc.holim import (
    BudgetError,
    Cell,
    PosetDiagramValue,
    RealFunctor,
    SplitDiagram,
    Subquotient,
    TnFunctor,
    _rref,
    cell_character,
    cells_sequence,
    derived_limits,
    join_inclusion,
    kernel_basis,
    linear_limit,
    mat_identity,
    mat_mul,
    mat_rank,
    split_limit,
    t_n_oracle,
)
from functorcalc.symseq import evaluate


# ---------------------------------------------------------------------------
# exact linear algebra


def test_rank_and_kernel_small():
    A = [[1, 2], [2, 4]]
    assert mat_rank(A) == 1
    ker = kernel_basis(A, 2)
    assert len(ker) == 1
    v = ker[0]
    assert all(sum(Fraction(a) * x for a, x in zip(row, v)) == 0 for row in A)


def test_subquotient_coords():
    ker = [[1, 0, 0], [0, 1, 0]]
    im = [[1, 0, 0]]
    sq = Subquotient(3, ker, im)
    assert sq.dim == 1
    assert sq.coords([0, 1, 0]) == [1]
    assert sq.coords([5, 1, 0]) == [1]  # the image part is quotiented away
    with pytest.raises(ArithmeticError):
        sq.coords([0, 0, 1])


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


def test_rref_matches_plain_gauss_jordan():
    rng = random.Random(4201)
    shapes = [(0, 0), (1, 0), (3, 0), (1, 1), (2, 2)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3000)]
    shapes += [(rng.randint(8, 14), rng.randint(1, 4)) for _ in range(100)]  # tall
    shapes += [(rng.randint(1, 4), rng.randint(8, 14)) for _ in range(100)]  # wide
    for rows, cols in shapes:
        A = _random_matrix(rng, rows, cols)
        red, pivots = _rref(A)
        assert all(type(x) is int for row in red for x in row)
        # each integer row is zero at the other pivots; dividing by its own
        # pivot gives the rational RREF
        reduced = [[Fraction(x, row[p]) for x in row] for row, p in zip(red, pivots)]
        assert (reduced, pivots) == _plain_rref(A), A
    for rows, cols in [(1, 1), (3, 5), (6, 2)]:
        zero = [[0] * cols for _ in range(rows)]
        assert _rref(zero) == ([], [])
    # the rank and kernel built on it agree with the plain elimination
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        A = _random_matrix(rng, rows, cols)
        red, pivots = _plain_rref(A)
        assert mat_rank(A) == len(red)
        ker = kernel_basis(A, cols)
        assert len(ker) == cols - len(pivots)
        assert all(type(x) is int for v in ker for x in v)
        assert all(sum(Fraction(a) * x for a, x in zip(row, v)) == 0 for row in A for v in ker)
        # each vector is a positive multiple of the rational one with a 1 at its free column
        for f, v in zip([c for c in range(cols) if c not in pivots], ker):
            plain = [Fraction(int(j == f)) for j in range(cols)]
            for row, p in zip(red, pivots):
                plain[p] = -row[f]
            assert v[f] > 0 and [Fraction(x, v[f]) for x in v] == plain


def _greedy_keep(chosen, candidates):
    """Keep each candidate that raises the rank of everything kept so far."""
    kept = []
    for v in candidates:
        if mat_rank(chosen + kept + [v]) > mat_rank(chosen + kept):
            kept.append(v)
    return kept


def test_subquotient_is_the_greedy_rank_selection():
    rng = random.Random(4211)
    for trial in range(400):
        rational = trial % 2 == 1
        dim = rng.randint(1, 7)
        im = _random_matrix(rng, rng.randint(0, 6), dim, rational)
        ker = _random_matrix(rng, rng.randint(0, 7), dim, rational)
        sq = Subquotient(dim, ker, im)
        assert sq.im == _greedy_keep([], im)
        assert sq.reps == _greedy_keep(sq.im, ker)
        assert sq.dim == len(sq.reps)


def test_subquotient_coords_refuse_vectors_off_the_kernel_span():
    rng = random.Random(4217)
    for _ in range(200):
        dim = rng.randint(2, 6)
        ker = _random_matrix(rng, rng.randint(1, dim - 1), dim)
        im = [[sum((rng.randint(-2, 2) * v[j] for v in ker), 0) for j in range(dim)]]
        sq = Subquotient(dim, ker, im)
        # a kernel-span vector has its coordinates; adding an image vector
        # does not move them
        coeffs = [rng.randint(-3, 3) for _ in sq.reps]
        w = [sum((a * v[j] for a, v in zip(coeffs, sq.reps)), 0) for j in range(dim)]
        shifted = [a + b for a, b in zip(w, im[0])]
        assert sq.coords(w) == coeffs
        assert sq.coords(shifted) == coeffs
        off = [_random_entry(rng, True) for _ in range(dim)]
        if mat_rank(sq.im + sq.reps + [off]) > mat_rank(sq.im + sq.reps):
            with pytest.raises(ArithmeticError):
                sq.coords(off)


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
# plain linear limits


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
# derived limits


def test_derived_limit_single_object():
    out = derived_limits(["o"], {}, {"o": (0, 0, 1)})
    assert out == {0: {0: 2}, 1: {0: 1}}


def test_derived_limit_pullback_of_surjections_has_no_higher_terms():
    spaces = {"a": (0, 0), "b": (0, 0), "c": (0,)}
    rel = {
        ("a", "c"): [[1, 0]],
        ("b", "c"): [[1, 0]],
    }
    out = derived_limits(["a", "b", "c"], rel, spaces)
    assert out == {0: {0: 3}}


def test_derived_limit_detects_the_loop_term():
    """Punctured square with zero legs: no sections, one first-derived line."""
    spaces = {"a": (), "b": (), "c": (0,)}
    rel = {("a", "c"): [[]], ("b", "c"): [[]]}
    out = derived_limits(["a", "b", "c"], rel, spaces)
    assert out == {0: {1: 1}}


def test_constant_punctured_cube_has_trivial_higher_limits():
    objects = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    rel = {}
    for u in objects:
        for v in objects:
            if u != v and set(u) <= set(v):
                rel[(u, v)] = [[1]]
    spaces = {u: (0,) for u in objects}
    value = PosetDiagramValue(objects, rel, spaces)
    assert value.complexes[0].dims == [7, 12, 6]
    assert derived_limits(objects, rel, spaces) == {0: {0: 1}}


def test_derived_limit_euler_characteristic():
    rng = random.Random(823)
    for _ in range(6):
        da, db, dc = (rng.randrange(0, 3) for _ in range(3))
        spaces = {"a": (0,) * da, "b": (0,) * db, "c": (0,) * dc}
        rel = {
            ("a", "c"): [[rng.randrange(-2, 3) for _ in range(da)] for _ in range(dc)],
            ("b", "c"): [[rng.randrange(-2, 3) for _ in range(db)] for _ in range(dc)],
        }
        out = derived_limits(["a", "b", "c"], rel, spaces).get(0, {})
        euler_limits = out.get(0, 0) - out.get(1, 0)
        assert euler_limits == (da + db + dc) - 2 * dc


def test_induced_map_of_scalar_is_scalar():
    spaces = {"a": (0,), "b": (0,), "c": (0, 1)}
    rel = {("a", "c"): [[1], [0]], ("b", "c"): [[1], [0]]}
    value = PosetDiagramValue(["a", "b", "c"], rel, spaces)
    doubled = value.induced_map(value, {"a": [[2]], "b": [[2]], "c": [[2, 0], [0, 2]]})
    n = len(value.value_degrees())
    assert n == sum(value.dims.values())
    assert doubled == [[2 if i == j else 0 for j in range(n)] for i in range(n)]


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


def _mul_shaped(A, B, rows, inner, cols):
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if A[i][k]:
                for j in range(cols):
                    out[i][j] += A[i][k] * B[k][j]
    return out


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
        fu, fv, fw = functor.evaluate(u), functor.evaluate(v), functor.evaluate(w)
        left = functor.induced(_mul_shaped(g, f, len(w), len(v), len(u)), fu, fw, u, w)
        right = _mul_shaped(
            functor.induced(g, fv, fw, v, w),
            functor.induced(f, fu, fv, u, v),
            len(fw.degs),
            len(fv.degs),
            len(fu.degs),
        )
        assert left == right
        ident = functor.induced(mat_identity(len(u)), fu, fu, u, u)
        assert ident == mat_identity(len(fu.degs))


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
        direct = join_inclusion(u, w, nx)
        composed = mat_mul(join_inclusion(v, w, nx), join_inclusion(u, v, nx))
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


def test_budget_refusal():
    with pytest.raises(BudgetError):
        TnFunctor(RealFunctor([Cell((3,), sign=False)]), 2, budget=3).evaluate((0, 0))
