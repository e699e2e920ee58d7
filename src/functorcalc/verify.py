"""Verification battery: every checkable identity, run two ways.

Each check pits independently implemented routes against each other on
seeded random instances and compares exactly — rational arithmetic end
to end, no tolerances.  A check record carries a stable name, a one-line
claim, the instance count, and a list of failures; failures embed the
generating cells and a reproduction command.  Reports contain no floats
and no timestamps, so a fixed ``RunConfig`` produces a byte-identical
report; wall-clock times are returned separately for console display
only.

Each identity the command line also checks has one function that returns
its routes: ``chain_rule_routes``, ``product_routes``, ``summand_routes``
and ``tower_values``.  The checks and the ``cli`` commands both call them,
find the first disagreeing entry with ``first_difference`` and show its
two sides with ``entry_json``, so the two callers cannot drift apart.

Every check runs on one ``_Check``: it holds the check's name, its
generator (seeded by the run seed and that name), the instance count
and the failures, and it draws the random pairs, records a failure, and
compares two sequences entry by entry, recording the first entry where
they differ with both sides' characters (``compare``).

The ``mutate`` flag is a self-test of the harness: it feeds a corrupted
composition product (a spurious two-letter summand) to every check that
compares the product against an independently computed reference.
Exactly those checks must then fail; checks that only relate the product
to itself (associativity, truncation identities) keep the honest product
and keep passing.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from time import perf_counter

from .characters import GradedCharacter, induce_young
from .exactpoly import TPoly
from .functor import (
    co_cross_effect_eval,
    cross_effect_eval,
    dn_product_value,
    fgl_derivatives,
    layer_value_via_summands,
    pn_limit_value,
    tower_stage_square_value,
    truncation_value,
)
from .generate import (
    random_cells,
    random_homogeneous_cells,
    random_space,
    random_trivial_cells,
)
from .holim import Cell, cells_sequence, cells_to_json, t_n_expected, t_n_oracle
from .partitions import bell_number, partitions_of, set_partition_count_check
from .symfun import RationalSeries, egf_compose
from .symseq import (
    SymSeq,
    TruncationError,
    compose,
    compose_around,
    compose_plethysm,
    composition_summand,
    evaluate,
    seq_to_json,
    shift_base,
    unit_seq,
)
from .trace import composite_derivatives

#: Bell numbers B_0..B_12; the classical values the counting identities hit.
BELL_FROZEN = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597)


@dataclass(frozen=True)
class RunConfig:
    """Knobs of a battery run.

    seed drives every generator; bound is the comparison window of the
    main chain-rule check (other checks pin the windows their claims
    state); sign_mode selects plain or Koszul-signed symmetry (or both);
    pairs scales instance counts; budget caps the approximation oracle;
    mutate runs the harness self-test (the report records it as
    "mutated", outside "config").
    """

    seed: int = 2026
    bound: int = 6
    sign_mode: str = "both"
    pairs: int = 100
    budget: int = 200000
    mutate: bool = False

    def __post_init__(self):
        if self.sign_mode not in ("unsigned", "signed", "both"):
            raise ValueError("sign_mode must be 'unsigned', 'signed' or 'both'")
        if self.bound < 2:
            raise ValueError("bound must be at least 2")
        if self.pairs < 1 or self.budget < 1 or self.seed < 0:
            raise ValueError("seed, pairs and budget must be positive")

    def mode_counts(self, count: int) -> list[tuple[bool, int]]:
        """(signed?, instances) blocks: the full count in the primary mode
        plus a quarter-sized block in the other when running both."""
        if self.sign_mode == "unsigned":
            return [(False, count)]
        if self.sign_mode == "signed":
            return [(True, count)]
        return [(False, count), (True, max(count // 4, 5))]

    def alternate(self, i: int) -> bool:
        """Per-instance mode for checks that interleave the two."""
        if self.sign_mode == "unsigned":
            return False
        if self.sign_mode == "signed":
            return True
        return i % 2 == 1

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "mutate"}


# ---------------------------------------------------------------------------
# the identities: each returns its two routes, for the checks and the CLI


def chain_rule_routes(F: SymSeq, G: SymSeq, bound: int, signed: bool, base: TPoly | None = None,
                      compose_fn=compose) -> tuple[SymSeq, SymSeq]:
    """Derivatives of the composite read off traces, and the composition
    product of the derivative sequences (around base, when one is given)."""
    lhs = composite_derivatives(F, G, bound, signed, base=base)
    if base is None:
        return lhs, compose_fn(F, G, signed=signed, bound=bound)
    return lhs, compose_around(F, G, base, signed, bound, compose_fn)


def product_routes(A: SymSeq, B: SymSeq, signed: bool, bound: int | None,
                   compose_fn=compose) -> tuple[SymSeq, SymSeq]:
    """The composition product by per-partition induction and by plethysm."""
    return (compose_fn(A, B, signed=signed, bound=bound),
            compose_plethysm(A, B, signed=signed, bound=bound))


def summand_routes(F: SymSeq, G: SymSeq, lam, upto: int, signed: bool) -> tuple[SymSeq, SymSeq]:
    """Traced derivatives 0..upto of the lam-summand functor, and its induced character."""
    return (fgl_derivatives(F, G, lam, upto, signed),
            SymSeq({sum(lam): composition_summand(F, G, lam, signed)}, bound=upto))


def tower_values(F: SymSeq, G: SymSeq, n: int, X: TPoly, signed: bool,
                 compose_fn=compose) -> tuple[TPoly, TPoly]:
    """Stage n and layer n of the composite at X, from the truncated product."""
    composite = compose_fn(F, G, signed=signed, bound=n)
    return (evaluate(composite.truncate(n), X, signed),
            evaluate(composite.layer_part(n), X, signed))


def first_difference(lhs: SymSeq, rhs: SymSeq, upto: int) -> int | None:
    """The first entry n <= upto where the two sequences differ, or None."""
    return next((n for n in range(upto + 1) if lhs.entry(n) != rhs.entry(n)), None)


def entry_json(chi: GradedCharacter) -> dict:
    """One entry character as a one-entry sequence document."""
    return seq_to_json(SymSeq({chi.n: chi}))


class Tally:
    """Running count of characters certified genuine across checks."""

    def __init__(self):
        self.count = 0
        self.violations: list[dict] = []

    def add_seq(self, seq: SymSeq, upto: int, chk: _Check):
        for n in range(upto + 1):
            try:
                chi = seq.entry(n)
            except TruncationError:  # narrower windows contribute what they know
                break
            self.count += 1
            if not chi.is_genuine():
                self.violations.append(chk.note(
                    check=chk.name, detail=f"entry {n} has a negative or fractional Schur multiplicity"))


class _Check:
    """One check's run: its seeded draws, instance count and failures.

    The generator is seeded by the run seed and the check's name, so
    every check draws the same instances whichever checks run beside it.
    """

    def __init__(self, cfg: RunConfig, tally: Tally, name: str):
        self.cfg = cfg
        self.tally = tally
        self.name = name
        # string seeding hashes via sha512, stable across processes
        self.rng = random.Random(f"{cfg.seed}:{name}")
        # the command line that reruns this check under the whole config
        line = (f"functorcalc verify --seed {cfg.seed} --bound {cfg.bound} --pairs {cfg.pairs} "
                f"--sign-mode {cfg.sign_mode} --budget {cfg.budget} --check {name}")
        self.repro = line + " --mutate" if cfg.mutate else line
        self.instances = 0
        self.failures: list[dict] = []

    def draw(self, *degrees: int) -> list:
        """One random cell list per degree, then the sequence of each."""
        cells = [random_cells(self.rng, d) for d in degrees]
        return cells + [cells_sequence(cs) for cs in cells]

    def note(self, **record) -> dict:
        """Record a failure with the given fields and the repro line; returns it."""
        record["repro"] = self.repro
        self.failures.append(record)
        return record

    def fail(self, idx, signed: bool, f_cells, g_cells, detail: str, lhs=None, rhs=None):
        """Record a failure on a pair of cell lists; lhs and rhs are the two
        disagreeing entry characters, when there are any."""
        record = self.note(instance=idx, signed=signed, outer_cells=cells_to_json(f_cells),
                           inner_cells=cells_to_json(g_cells), detail=detail)
        if lhs is not None:
            record.update(lhs=entry_json(lhs), rhs=entry_json(rhs))

    def compare(self, idx, signed: bool, f_cells, g_cells, lhs: SymSeq, rhs: SymSeq, upto: int,
                what: str, where: str = "", certify: bool = True) -> bool:
        """Compare two sequences on entries 0..upto; True when they agree.

        The first entry that differs is recorded as "<what> first at entry
        n<where>", with both sides' entry n as one-entry sequence documents.
        When they agree and certify is set, rhs goes to the genuineness tally.
        """
        n = first_difference(lhs, rhs, upto)
        if n is not None:
            self.fail(idx, signed, f_cells, g_cells, f"{what} first at entry {n}{where}",
                      lhs.entry(n), rhs.entry(n))
            return False
        if certify:
            self.tally.add_seq(rhs, upto, self)
        return True

    def record(self, claim: str) -> dict:
        return {
            "check": self.name,
            "claim": claim,
            "instances": self.instances,
            "failures": self.failures,
            "status": "pass" if not self.failures else "fail",
        }


# ---------------------------------------------------------------------------
# the checks


def _check_chain_rule_zero_base(chk: _Check, compose_fn) -> dict:
    cfg = chk.cfg
    for signed, count in cfg.mode_counts(cfg.pairs):
        for i in range(count):
            f_cells, g_cells, F, G = chk.draw(cfg.bound, cfg.bound)
            lhs, rhs = chain_rule_routes(F, G, cfg.bound, signed, compose_fn=compose_fn)
            chk.instances += 1
            chk.compare(i, signed, f_cells, g_cells, lhs, rhs, cfg.bound,
                        "derivative route and product route differ")
    return chk.record(
        "derivative characters of a composite of reduced functors equal the "
        "composition product of the two derivative sequences")


def _check_chain_rule_general_base(chk: _Check, compose_fn) -> dict:
    window = 4
    main_count = max(chk.cfg.pairs // 4, 25)
    for i in range(main_count):
        signed = chk.cfg.alternate(i)
        f_cells, g_cells, F, G = chk.draw(5, 5)
        X = random_space(chk.rng)
        lhs, rhs = chain_rule_routes(F, G, window, signed, base=X, compose_fn=compose_fn)
        chk.instances += 1
        chk.compare(i, signed, f_cells, g_cells, lhs, rhs, window,
                    "trace route and shifted product route differ", f" (base dims {X!r})")
    # coefficient form: re-expanding the composite around X is the composite
    # of the re-expansions
    for i in range(12):
        signed = chk.cfg.alternate(i)
        f_cells, g_cells, F, G = chk.draw(3, 3)
        X = random_space(chk.rng)
        shifted_composite = shift_base(compose_fn(F, G, signed=signed), X, signed)
        rhs = compose_around(F, G, X, signed, window, compose_fn)
        chk.instances += 1
        chk.compare(i + main_count, signed, f_cells, g_cells, shifted_composite, rhs, window,
                    "re-expanded composite and composite of re-expansions differ",
                    f" (base dims {X!r})", certify=False)
    return chk.record(
        "around any base, derivatives of a composite equal the composition "
        "product of the base-shifted derivative sequences")


def _check_path_agreement(chk: _Check, compose_fn) -> dict:
    window = 8
    for i in range(max(chk.cfg.pairs // 2, 50)):
        signed = chk.cfg.alternate(i)
        f_cells, g_cells, A, B = chk.draw(4, 4)
        lhs, rhs = product_routes(A, B, signed, window, compose_fn)
        chk.instances += 1
        chk.compare(i, signed, f_cells, g_cells, lhs, rhs, window,
                    "per-partition route and plethysm route differ")
    return chk.record(
        "the per-partition induction route and the symmetric-function "
        "plethysm route compute the same composition product")


def _check_unit_laws(chk: _Check, compose_fn) -> dict:
    one = unit_seq()
    for i in range(20):
        signed = chk.cfg.alternate(i)
        a_cells, A = chk.draw(chk.cfg.bound)
        chk.instances += 1
        left = compose_fn(A, one, signed=signed)
        right = compose_fn(one, A, signed=signed)
        if left != A or right != A:
            side = "right" if left != A else "left"
            chk.fail(i, signed, a_cells, [],
                     f"composition with the one-letter identity on the {side} "
                     f"changed the sequence")
    return chk.record(
        "the one-letter identity sequence is a two-sided unit for the "
        "composition product")


def _check_associativity(chk: _Check, compose_fn) -> dict:
    window = 6
    for i in range(12):
        signed = chk.cfg.alternate(i)
        a_cells, b_cells, c_cells, A, B, C = chk.draw(3, 3, 3)
        lhs = compose(compose(A, B, signed=signed, bound=window), C, signed=signed, bound=window)
        rhs = compose(A, compose(B, C, signed=signed, bound=window), signed=signed, bound=window)
        chk.instances += 1
        chk.compare(i, signed, a_cells, b_cells, lhs, rhs, window,
                    "the two association orders differ",
                    f" (third factor {cells_to_json(c_cells)!r})", certify=False)
    return chk.record("the composition product is associative on reduced sequences")


def _check_faa_di_bruno(chk: _Check, compose_fn) -> dict:
    order = 10
    for i in range(8):
        a_cells = random_trivial_cells(chk.rng, 5)
        b_cells = random_trivial_cells(chk.rng, 5)
        A, B = cells_sequence(a_cells), cells_sequence(b_cells)
        composite = compose_fn(A, B, signed=False, bound=order)
        outer = RationalSeries([A.entry(n).dim_poly() for n in range(order + 1)])
        inner = RationalSeries([B.entry(n).dim_poly() for n in range(order + 1)])
        series = egf_compose(outer, inner)
        chk.instances += 1
        mismatch = next(
            (n for n in range(order + 1) if composite.entry(n).dim_poly() != series.coeffs[n]),
            None)
        if mismatch is not None:
            chk.fail(i, False, a_cells, b_cells,
                     f"graded dimension of the composite differs from the "
                     f"exponential-series composite first at entry {mismatch}")
        else:
            chk.tally.add_seq(composite, order, chk)
    return chk.record(
        "graded dimensions of a composite follow composition of exponential "
        "generating functions")


def _check_set_partition_counts(chk: _Check, compose_fn) -> dict:
    for n in range(13):
        chk.instances += 1
        if bell_number(n) != BELL_FROZEN[n]:
            chk.note(instance=n, detail=f"recurrence value {bell_number(n)} differs from the "
                                        f"frozen count {BELL_FROZEN[n]}")
        if not set_partition_count_check(n):
            chk.note(instance=n, detail="sum over partitions of n!/(automorphisms of the block "
                                        "structure) missed the set-partition count")
    return chk.record(
        "summand index sets of the composition product are counted by the "
        "Bell numbers")


def _check_partition_summands(chk: _Check, compose_fn) -> dict:
    for i in range(max(chk.cfg.pairs // 4, 25)):
        signed = chk.cfg.alternate(i)
        n = chk.rng.randrange(1, 6)
        classes = partitions_of(n)
        lam = classes[chk.rng.randrange(len(classes))]
        f_cells, g_cells, F, G = chk.draw(5, 5)
        nmax = min(n + 1, 5)
        derivs, expected = summand_routes(F, G, lam, nmax, signed)
        chk.instances += 1
        chk.compare(i, signed, f_cells, g_cells, derivs, expected, nmax,
                    f"derivatives of the {list(lam)!r}-summand functor differ from "
                    f"the induced summand character")
    return chk.record(
        "each partition summand of the product is the full derivative "
        "sequence of its one-summand functor, homogeneous in its arity")


def _check_layer_decomposition(chk: _Check, compose_fn) -> dict:
    window = 5
    for i in range(12):
        signed = chk.cfg.alternate(i)
        f_cells, g_cells, F, G = chk.draw(window, window)
        composite = compose_fn(F, G, signed=signed, bound=window)
        chk.instances += 1
        for n in range(1, window + 1):
            total = GradedCharacter.zero(n)
            for lam in partitions_of(n):
                total = total + fgl_derivatives(F, G, lam, n, signed).entry(n)
            if total != composite.entry(n):
                chk.fail(i, signed, f_cells, g_cells,
                         f"sum of summand derivative characters differs from the "
                         f"product entry first at arity {n}", total, composite.entry(n))
                break
        else:
            chk.tally.add_seq(composite, window, chk)
    return chk.record(
        "each layer of a composite decomposes as the direct sum of its "
        "partition summands, summand characters computed by traces")


def _check_homogeneous_tower(chk: _Check, compose_fn) -> dict:
    for i in range(10):
        signed = chk.cfg.alternate(i)
        k = chk.rng.randrange(1, 4)
        f_cells = random_homogeneous_cells(chk.rng, k)
        g_cells = random_cells(chk.rng, 4)
        F, G = cells_sequence(f_cells), cells_sequence(g_cells)
        X = random_space(chk.rng)
        chk.instances += 1
        bad_detail = None
        for n in range(k, 7):
            stage_expected, layer_expected = tower_values(F, G, n, X, signed, compose_fn)
            if pn_limit_value(F, G, n, X, signed) != stage_expected:
                bad_detail = f"stage {n} value differs from the truncated product value"
                break
            if dn_product_value(F, G, n, X, signed) != layer_expected:
                bad_detail = f"layer {n} value differs from the product layer value"
                break
            if layer_value_via_summands(F, G, n, X, signed) != layer_expected:
                bad_detail = f"layer {n} summand-sum value differs from the product layer value"
                break
        if bad_detail is not None:
            chk.fail(i, signed, f_cells, g_cells, bad_detail + f" (base dims {X!r})")
    return chk.record(
        "for a homogeneous outer functor, tower stages computed as split "
        "limits over the coarsening poset match truncations of the product")


def _check_tower_stage_squares(chk: _Check, compose_fn) -> dict:
    idx = 0
    for stage in (1, 2, 3):
        for _ in range(3):
            signed = chk.cfg.alternate(idx)
            f_cells, g_cells, F, G = chk.draw(3, 3)
            X = random_space(chk.rng)
            chk.instances += 1
            expected, _ = tower_values(F, G, stage, X, signed, compose_fn)
            if tower_stage_square_value(F, G, stage, X, signed) != expected:
                chk.fail(idx, signed, f_cells, g_cells,
                         f"stage-{stage} limit over the arrow diagram differs from "
                         f"the truncated product value (base dims {X!r})")
            idx += 1
    # degenerate shapes: a linear outer functor collapses the diagram to one
    # corner; the identity inner functor gives plain truncation
    linear = cells_sequence([Cell((1,))])
    g_cells, G = chk.draw(3)
    X = random_space(chk.rng)
    chk.instances += 1
    if tower_stage_square_value(linear, G, 3, X, False) != tower_values(
            linear, G, 3, X, False, compose_fn)[0]:
        chk.fail(idx, False, [Cell((1,))], g_cells,
                 "linear outer functor: diagram value differs from the truncated product")
    idx += 1
    f_cells, F = chk.draw(3)
    chk.instances += 1
    if tower_stage_square_value(F, linear, 2, X, False) != truncation_value(F, 2, X, False):
        chk.fail(idx, False, f_cells, [Cell((1,))],
                 "identity inner functor: diagram value differs from plain truncation")
    return chk.record(
        "tower stages of a composite through stage three arise as limits of "
        "the documented stage diagrams of smaller stages and layers")


def _check_truncation_identities(chk: _Check, compose_fn) -> dict:
    for i in range(max(chk.cfg.pairs // 2, 50)):
        signed = chk.cfg.alternate(i)
        n = chk.rng.randrange(1, 7)
        a_cells, b_cells, A, B = chk.draw(4, 4)
        chk.instances += 1
        full = compose(A, B, signed=signed, bound=n)
        left = compose(A.truncate(n), B, signed=signed, bound=n)
        right = compose(A, B.truncate(n), signed=signed, bound=n)
        for truncated in (left, right):
            if not chk.compare(i, signed, a_cells, b_cells, full, truncated, n,
                               f"truncating a factor at {n} changed the composite window",
                               certify=False):
                break
    # a linear outer functor commutes with truncation on the nose
    for i in range(12):
        signed = chk.cfg.alternate(i)
        n = chk.rng.randrange(1, 7)
        lin_cells = [Cell((1,), sign=False, degree=chk.rng.randrange(0, 2))]
        g_cells, G = chk.draw(4)
        L = cells_sequence(lin_cells)
        chk.instances += 1
        whole = compose(L, G.truncate(n), signed=signed)
        windowed = compose(L, G, signed=signed, bound=n)
        if whole.degree() > n or first_difference(whole, windowed, n) is not None:
            chk.fail(i, signed, lin_cells, g_cells,
                     f"linear outer functor does not commute with truncation at {n}")
    return chk.record(
        "truncating the composite equals truncating either factor first, "
        "and a linear outer functor commutes with truncation exactly")


def _check_cross_effects(chk: _Check, compose_fn) -> dict:
    for i in range(24):
        signed = chk.cfg.alternate(i)
        r = chk.rng.randrange(1, 4)
        f_cells, F = chk.draw(4)
        spaces = [random_space(chk.rng) for _ in range(r)]
        chk.instances += 1
        lhs = cross_effect_eval(F, spaces, signed)
        rhs = co_cross_effect_eval(F, spaces, signed)
        if lhs != rhs:
            chk.fail(i, signed, f_cells, [], f"{r}-variable cross effect and dual route disagree")
            continue
        zeroed = list(spaces)
        zeroed[chk.rng.randrange(r)] = TPoly.zero()
        if cross_effect_eval(F, zeroed, signed) != TPoly.zero():
            chk.fail(i, signed, f_cells, [],
                     f"{r}-variable cross effect fails to vanish on a zero slot")
    # above the degree every cross effect vanishes
    for i in range(6):
        signed = chk.cfg.alternate(i)
        f_cells, F = chk.draw(2)
        spaces = [random_space(chk.rng) for _ in range(3)]
        chk.instances += 1
        if cross_effect_eval(F, spaces, signed) != TPoly.zero():
            chk.fail(i, signed, f_cells, [], "3-variable cross effect of a degree-2 functor is nonzero")
    return chk.record(
        "multilinear cross effects computed by inclusion-exclusion match "
        "the dual route and vanish beyond the degree")


#: Fixed instances for the approximation oracle: (label, cells, n, point dims).
ORACLE_INSTANCES: tuple = (
    ("identity", (Cell((1,)),), 1, (0,)),
    ("shifted-line", (Cell((1,), degree=1),), 1, (0, 1)),
    ("symmetric-square-vanishes", (Cell((2,)),), 1, (0,)),
    ("exterior-square-vanishes", (Cell((2,), sign=True),), 1, (0,)),
    ("tensor-square-vanishes", (Cell((1, 1)),), 1, (0,)),
    ("symmetric-cube-vanishes", (Cell((3,)),), 1, (0,)),
    ("exterior-cube-vanishes", (Cell((3,), sign=True),), 1, (0,)),
    ("hook-cell-vanishes", (Cell((1, 2)),), 1, (0,)),
    ("line-plus-square", (Cell((1,)), Cell((2,))), 1, (0,)),
    ("line-plus-shifted-tensor", (Cell((1,)), Cell((1, 1), degree=1)), 1, (0,)),
    ("symmetric-square-held", (Cell((2,)),), 2, (0, 0)),
    ("exterior-square-held", (Cell((2,), sign=True),), 2, (0, 1)),
    ("tensor-square-held", (Cell((1, 1)),), 2, (0,)),
    ("line-plus-exterior-held", (Cell((1,)), Cell((2,), sign=True)), 2, (0, 1)),
    # Functors of degree at most the excision degree are held, so each value
    # is the functor's own.  At a line in degree 0, Sym^3 X is one line and
    # X (x) Sym^2 X is one line: {0: 1} both.
    ("symmetric-cube-held", (Cell((3,)),), 3, (0,)),
    ("hook-cell-held", (Cell((1, 2)),), 3, (0,)),
    # X = two even lines and one odd: X (x) X has graded dimension
    # (2 + t)^2 = 4 + 4t + t^2, so {0: 4, 1: 4, 2: 1}.
    ("tensor-square-held-three-letters", (Cell((1, 1)),), 2, (0, 0, 1)),
    # X = one even line e and two odd lines: the Koszul-signed Sym^2 X is
    # Sym^2 e (+) e (x) odd (+) Lambda^2 odd = 1 + 2t + t^2, so
    # {0: 1, 1: 2, 2: 1}.
    ("symmetric-square-held-three-letters", (Cell((2,)),), 2, (0, 1, 1)),
    # Excision degree 4 holds every functor of degree at most 4.  At a line
    # in degree 0, X (x) X and X (x) X (x) X are one line each: {0: 1}.
    # At X = one even and one odd line, X (x) X has graded dimension
    # (1 + t)^2, so {0: 1, 1: 2, 2: 1}.
    ("tensor-square-held-excision-four", (Cell((1, 1)),), 4, (0,)),
    ("tensor-cube-held-excision-four", (Cell((1, 1, 1)),), 4, (0,)),
    ("tensor-square-held-excision-four-two-letters", (Cell((1, 1)),), 4, (0, 1)),
    # X (x) X (x) X is homogeneous of degree 3, so the second approximation
    # kills it: {}.  At a line in degree 0 its residue climbs one degree per
    # iterate ({0: 1}, {1: 5}, {2: 25}, {3: 125}, ...) and clears the
    # default window of degrees <= 2 at iterate 3.
    ("tensor-cube-vanishes-excision-two", (Cell((1, 1, 1)),), 2, (0,)),
)


def _check_excisive_oracle(chk: _Check, compose_fn) -> dict:
    for label, cells, n, degs in ORACLE_INSTANCES:
        chk.instances += 1
        window, expected = t_n_expected(list(cells), n, degs)
        out = t_n_oracle(list(cells), n, degs, window=window, max_iter=12, budget=chk.cfg.budget)
        if out["stable"] != expected:
            chk.note(instance=label, cells=cells_to_json(list(cells)), excision_degree=n,
                     point_degrees=list(degs),
                     detail=f"stable window dims {out['stable']!r} differ from the "
                            f"truncated evaluation {expected!r} (history {out['history']!r})")
    return chk.record(
        "iterating the join-based approximation stabilizes on every window "
        "of degrees to the value of the truncated functor")


def _check_genuineness(chk: _Check, compose_fn) -> dict:
    chk.instances = chk.tally.count
    chk.failures.extend(dict(v) for v in chk.tally.violations)
    return chk.record(
        "every character derived by the battery has nonnegative integer "
        "multiplicities in the irreducible basis")


# ---------------------------------------------------------------------------
# battery assembly

#: (name, runner, fed the mutated product when self-testing?)
CHECKS: tuple = (
    ("chain-rule-zero-base", _check_chain_rule_zero_base, True),
    ("chain-rule-general-base", _check_chain_rule_general_base, True),
    ("composition-path-agreement", _check_path_agreement, True),
    ("composition-unit-laws", _check_unit_laws, True),
    ("composition-associativity", _check_associativity, False),
    ("faa-di-bruno-dimensions", _check_faa_di_bruno, True),
    ("set-partition-counts", _check_set_partition_counts, False),
    ("partition-summand-derivatives", _check_partition_summands, False),
    ("layer-decomposition", _check_layer_decomposition, True),
    ("homogeneous-tower-values", _check_homogeneous_tower, True),
    ("tower-stage-squares", _check_tower_stage_squares, True),
    ("truncation-identities", _check_truncation_identities, False),
    ("cross-effects", _check_cross_effects, False),
    ("excisive-approximation-oracle", _check_excisive_oracle, False),
    ("schur-genuineness", _check_genuineness, False),
)

CHECK_NAMES: tuple = tuple(name for name, _, _ in CHECKS)

MUTATION_TARGETED: frozenset = frozenset(name for name, _, targeted in CHECKS if targeted)


def corrupted_compose(A: SymSeq, B: SymSeq, signed: bool = False, bound: int | None = None) -> SymSeq:
    """The honest product plus a spurious two-letter regular summand.

    The added character evaluates to the square of the argument, which
    is nonzero on every nonzero space in both sign modes, so every
    independent-route check is guaranteed to notice the corruption.
    """
    out = compose(A, B, signed=signed, bound=bound)
    if out.bound is not None and out.bound < 2:
        return out
    junk = induce_young(GradedCharacter.trivial(1), GradedCharacter.trivial(1))
    entries = dict(out.entries)
    entries[2] = entries[2] + junk if 2 in entries else junk
    return SymSeq(entries, bound=out.bound)


def run_battery(config: RunConfig, check_names=None, log=None):
    """Run the battery; returns (report, wall_times).

    The report is a pure data dict (no floats, no clocks): a fixed
    config yields byte-identical serialized reports.  wall_times maps
    check name to seconds for console display.
    """
    if check_names:
        unknown = [c for c in check_names if c not in CHECK_NAMES]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(sorted(unknown))}")
        selected = [row for row in CHECKS if row[0] in set(check_names)]
    else:
        selected = list(CHECKS)
    tally = Tally()
    records = []
    times: dict[str, float] = {}
    for name, runner, targeted in selected:
        fn = corrupted_compose if (config.mutate and targeted) else compose
        start = perf_counter()
        record = runner(_Check(config, tally, name), fn)
        times[name] = perf_counter() - start
        records.append(record)
        if log is not None:
            log(f"{record['status'].upper():4s} {name} "
                f"({record['instances']} instances, {times[name]:.2f}s)")
    status = "pass" if all(r["status"] == "pass" for r in records) else "fail"
    report = {
        "config": config.to_json(),
        "mutated": config.mutate,
        "checks": records,
        "status": status,
    }
    return report, times
