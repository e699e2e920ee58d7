"""Seeded inputs and per-instance runners of the four benchmark workloads.

Every instance calls the public function of each layer directly, through a
``call(name, fn, *args, **kwargs)`` hook that the worker either passes
straight through (timed run) or wraps in a span (traced run), and checks its
result by exact equality between two routes.

Inputs are built here from the public constructors ``holim.Cell`` and
``holim.cells_sequence`` only; ``functorcalc.generate`` and ``verify`` are
never called, so edits to them cannot move the inputs.

Why the inputs are seeded the way they are: pair cost in these workloads
is driven by which arities are populated, by the dimension of each entry,
by how internal degrees coincide and by which characters cancel (a random
degree-6 pair costs anywhere from 5 to 500 ms).  Pairs drawn independently
per seed made one pass's time swing by 10-40% between seeds (measured on
a 2-core x86 VM), more than the run-to-run timing noise there.  Each
workload therefore has a fixed *skeleton*, drawn once from the battery's
distribution by a generator that ignores the seed: per instance, the
populated arities, the cells (composition, sign twist, internal degree) of
both factors, the base space and the sign mode.  The ``--seed`` then
tensors each sequence with the sign character or not (flipping the twist
of all its cells, which keeps the pattern of cancellations), and for the
untwisted single-row pairs of ``products`` swaps internal degrees 0 and 1
per sequence.  Different seeds give different characters, results and
digests at nearly the same work.

Layer metrics against end-to-end metrics (which layer call should move
which workload's ``instances_per_ref`` / ``instance_ref_p50`` / ``_p90``):

=============================  ===============================  ==========================
call                           moves end-to-end metrics on      small share on
=============================  ===============================  ==========================
trace.composite_derivatives    chainrule-zero, chainrule-base   (zero on products, oracle)
symseq.compose                 products                         both chain-rule workloads
symseq.compose_plethysm        products                         -
symseq.shift_base              chainrule-base                   -
symseq.evaluate                chainrule-base                   oracle
symfun.egf_compose             products                         -
characters.is_genuine          products                         chainrule-zero, -base
holim.t_n_oracle               oracle                           -
=============================  ===============================  ==========================
"""

from __future__ import annotations

import hashlib
import json
import random

from functorcalc.characters import character_table
from functorcalc.exactpoly import dims_poly
from functorcalc.holim import Cell, cells_sequence, t_n_oracle
from functorcalc.partitions import multinomial, partitions_of
from functorcalc.symfun import RationalSeries, egf_compose
from functorcalc.symseq import compose, compose_plethysm, evaluate, seq_to_json, shift_base
from functorcalc.trace import composite_derivatives

#: Why each exists is stated in BENCHMARK.json.
WORKLOADS = ("chainrule-zero", "chainrule-base", "products", "oracle")

#: Layer calls that get a span each in a traced run.
CALLS = (
    "trace.composite_derivatives",
    "symseq.compose",
    "symseq.compose_plethysm",
    "symseq.shift_base",
    "symseq.evaluate",
    "symfun.egf_compose",
    "characters.is_genuine",
    "holim.t_n_oracle",
)

#: Exact per-pass work counts, read from the oracle's results.
COUNTS = ("holim.iterations", "holim.basis_dim")

#: Instances per skeleton.  One pass over them takes 7-10 s on a 2-core
#: x86 VM at the seed commit, so a 25 s run makes 3-4 passes and times at
#: least 100 instances.
POOL_SIZE = {"chainrule-zero": 64, "chainrule-base": 48, "products": 64}

#: Largest arity whose partition and character tables each workload touches.
TABLE_ARITY = {"chainrule-zero": 6, "chainrule-base": 5, "products": 10, "oracle": 3}

ZERO_WINDOW = 6
BASE_WINDOW = 4
PRODUCT_WINDOW = 8
SERIES_ORDER = 10
ORACLE_BUDGET = 200000

#: The excisive-oracle instances, (label, cells, excision degree, point
#: degrees), copied so that additions to the battery do not move this workload.
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
)


# ---------------------------------------------------------------------------
# skeletons: the seed-independent work shape of each instance

#: Compositions per arity, as in the battery: entries stay at dimension <= 3
#: and arities above 3 use the single-row cell only.
_SMALL_CELLS = {1: ((1,),), 2: ((2,), (1, 1)), 3: ((3,), (1, 2))}
_MAX_DIM = 3


def _degree(rng: random.Random) -> int:
    roll = rng.random()
    return 0 if roll < 0.45 else 1 if roll < 0.9 else 2


def _entry_shape(rng: random.Random, n: int) -> list:
    options = _SMALL_CELLS.get(n, ((n,),))
    shape, total = [], 0
    while True:
        alpha = options[rng.randrange(len(options))]
        dim = multinomial(alpha)
        if total + dim > _MAX_DIM:
            break
        shape.append((alpha, rng.random() < 0.5, _degree(rng)))
        total += dim
        if rng.random() < 0.6:
            break
    return shape


def _seq_shape(rng: random.Random, max_arity: int) -> list:
    """(composition, twist, degree) cells, each arity populated with probability 1/2."""
    shape = []
    for n in range(1, max_arity + 1):
        if rng.random() < 0.5:
            shape.extend(_entry_shape(rng, n))
    return shape or [((1,), False, _degree(rng))]


def _single_row_shape(rng: random.Random, max_arity: int) -> list:
    shape = []
    for n in range(1, max_arity + 1):
        if rng.random() < 0.6:
            shape.extend(((n,), False, _degree(rng)) for _ in range(rng.randrange(1, _MAX_DIM + 1)))
    return shape or [((1,), False, 0)]


def _space_shape(rng: random.Random) -> list:
    return [rng.randrange(2) for _ in range(rng.randrange(1, 3))]


def skeleton(workload: str) -> list[dict]:
    """The fixed instance shapes of a workload (not seeded by --seed)."""
    rng = random.Random(f"skeleton:{workload}")
    slots = []
    for i in range(POOL_SIZE[workload]):
        if workload == "chainrule-zero":
            slot = {"kind": "zero", "outer": _seq_shape(rng, 6), "inner": _seq_shape(rng, 6), "signed": i % 2 == 1}
        elif workload == "chainrule-base":
            slot = {"kind": "base", "outer": _seq_shape(rng, 5), "inner": _seq_shape(rng, 5),
                    "base": _space_shape(rng), "signed": i % 2 == 1}
        elif i % 2 == 0:
            slot = {"kind": "plethysm", "outer": _seq_shape(rng, 4), "inner": _seq_shape(rng, 4),
                    "signed": i % 4 == 2}
        else:
            slot = {"kind": "series", "outer": _single_row_shape(rng, 5), "inner": _single_row_shape(rng, 5),
                    "signed": i % 4 == 3}
        slots.append(slot)
    return slots


# ---------------------------------------------------------------------------
# seeded inputs


def _cells(shape: list, rng: random.Random, twisted: bool) -> list[Cell]:
    """Seeded cells on a shape: the sign twist of every cell flipped, or, for
    the untwisted single-row shapes, internal degrees 0 and 1 swapped, with
    probability 1/2 for the whole sequence."""
    if twisted:
        flip = rng.random() < 0.5
        return [Cell(alpha, sign=sign != flip, degree=d) for alpha, sign, d in shape]
    swap = {0: 1, 1: 0} if rng.random() < 0.5 else {}
    return [Cell(alpha, degree=swap.get(d, d)) for alpha, _, d in shape]


def build_cells(workload: str, seed: int) -> list[dict]:
    """Cell-level inputs of one pass: same workload and seed, same lists."""
    if workload == "oracle":
        return [{"kind": "oracle", "label": label, "cells": list(cells), "n": n, "degs": degs}
                for label, cells, n, degs in ORACLE_INSTANCES]
    rng = random.Random(f"{seed}:{workload}")
    out = []
    for slot in skeleton(workload):
        twisted = slot["kind"] != "series"
        inst = {"kind": slot["kind"], "signed": slot["signed"],
                "outer": _cells(slot["outer"], rng, twisted), "inner": _cells(slot["inner"], rng, twisted)}
        if "base" in slot:
            inst["base"] = {d: slot["base"].count(d) for d in sorted(set(slot["base"]))}
        out.append(inst)
    return out


_CELL_KEYS = ("kind", "signed", "outer", "inner", "base", "label", "cells", "n", "degs")


def fingerprint(insts: list[dict]) -> str:
    """Hash of the cell-level inputs, to compare them across processes."""
    doc = [[(k, [c.key() for c in v] if k in ("outer", "inner", "cells") else v)
            for k, v in sorted(inst.items()) if k in _CELL_KEYS]
           for inst in insts]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def build(workload: str, seed: int) -> list[dict]:
    """Instances ready to run: the cell lists plus their sequences."""
    insts = build_cells(workload, seed)
    for inst in insts:
        if inst["kind"] == "oracle":
            inst["seq"] = cells_sequence(inst["cells"])
            continue
        inst["F"] = cells_sequence(inst["outer"])
        inst["G"] = cells_sequence(inst["inner"])
        if "base" in inst:
            inst["X"] = dims_poly(inst["base"])
    return insts


def warm(workload: str) -> None:
    """Fill the partition and character-table caches the workload reads."""
    for n in range(TABLE_ARITY[workload] + 1):
        partitions_of(n)
        character_table(n)


# ---------------------------------------------------------------------------
# one instance: (ok, result, counts)


def _agree(lhs, rhs, upto: int) -> bool:
    return all(lhs.entry(n) == rhs.entry(n) for n in range(upto + 1))


def _genuine(call, seq, upto: int) -> bool:
    return all([call("characters.is_genuine", seq.entry(n).is_genuine) for n in range(upto + 1)])


def _run_zero(inst, call):
    F, G, s = inst["F"], inst["G"], inst["signed"]
    lhs = call("trace.composite_derivatives", composite_derivatives, F, G, ZERO_WINDOW, s)
    rhs = call("symseq.compose", compose, F, G, signed=s, bound=ZERO_WINDOW)
    ok = _agree(lhs, rhs, ZERO_WINDOW) and _genuine(call, rhs, ZERO_WINDOW)
    return ok, rhs, {}


def _run_base(inst, call):
    F, G, X, s = inst["F"], inst["G"], inst["X"], inst["signed"]
    lhs = call("trace.composite_derivatives", composite_derivatives, F, G, BASE_WINDOW, s, base=X)
    inner_value = call("symseq.evaluate", evaluate, G, X, s)
    outer_shift = call("symseq.shift_base", shift_base, F, inner_value, s)
    inner_shift = call("symseq.shift_base", shift_base, G, X, s).reduced_part()
    rhs = call("symseq.compose", compose, outer_shift, inner_shift, signed=s, bound=BASE_WINDOW)
    ok = _agree(lhs, rhs, BASE_WINDOW) and _genuine(call, rhs, BASE_WINDOW)
    return ok, rhs, {}


def _run_plethysm(inst, call):
    F, G, s = inst["F"], inst["G"], inst["signed"]
    lhs = call("symseq.compose", compose, F, G, signed=s, bound=PRODUCT_WINDOW)
    rhs = call("symseq.compose_plethysm", compose_plethysm, F, G, signed=s, bound=PRODUCT_WINDOW)
    ok = _agree(lhs, rhs, PRODUCT_WINDOW) and _genuine(call, lhs, PRODUCT_WINDOW)
    return ok, lhs, {}


def _run_series(inst, call):
    F, G, s = inst["F"], inst["G"], inst["signed"]
    order = SERIES_ORDER
    composite = call("symseq.compose", compose, F, G, signed=s, bound=order)
    outer = RationalSeries([F.entry(n).dim_poly() for n in range(order + 1)])
    inner = RationalSeries([G.entry(n).dim_poly() for n in range(order + 1)])
    series = call("symfun.egf_compose", egf_compose, outer, inner)
    ok = (all(composite.entry(n).dim_poly() == series.coeffs[n] for n in range(order + 1))
          and _genuine(call, composite, order))
    return ok, composite, {}


def _run_oracle(inst, call):
    n, degs = inst["n"], inst["degs"]
    point = dims_poly({d: degs.count(d) for d in set(degs)})
    expected_poly = call("symseq.evaluate", evaluate, inst["seq"].truncate(n), point, signed=True)
    window = max(list(expected_poly.support()) + list(degs) + [0]) + 2
    # over budget, t_n_oracle raises BudgetError: the worker counts it as failed
    out = call("holim.t_n_oracle", t_n_oracle, list(inst["cells"]), n, degs,
               window=window, max_iter=12, budget=ORACLE_BUDGET)
    expected = {d: int(expected_poly.coeff(d)) for d in expected_poly.support() if d <= window}
    ok = out["stable"] is not None and out["stable"] == expected
    counts = {"holim.iterations": out["iterations"],
              "holim.basis_dim": sum(sum(dims.values()) for dims in out["history"])}
    return ok, out, counts


_RUNNERS = {"zero": _run_zero, "base": _run_base, "plethysm": _run_plethysm,
            "series": _run_series, "oracle": _run_oracle}


def run(inst: dict, call):
    """Run one instance; returns (both routes agree and all checks pass, result, counts)."""
    return _RUNNERS[inst["kind"]](inst, call)


def result_doc(inst: dict, result) -> object:
    """Canonical JSON form of an instance result, for the output digest."""
    if result is None:
        return None
    if inst["kind"] == "oracle":
        stable = None if result["stable"] is None else {str(d): v for d, v in sorted(result["stable"].items())}
        history = [{str(d): v for d, v in sorted(h.items())} for h in result["history"]]
        return {"label": inst["label"], "stable": stable, "history": history}
    return seq_to_json(result)
