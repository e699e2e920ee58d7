"""Command-line interface for composing, differentiating and verifying.

Commands

* ``compose``    product of two sequence files, both routes compared
* ``chainrule``  derivative characters of a composite vs the product
* ``derivative`` one partition summand, both routes compared
* ``tower``      tower-stage values of a composite at a space
* ``tn-oracle``  iterated excisive approximation of a cell functor
* ``verify``     the full check battery

Each comparison runs through the identity function in ``verify`` that
the battery calls too.  When the routes disagree, the command names the
first entry that differs, and its JSON report carries both sides of that
entry as ``lhs`` and ``rhs`` (per entry for ``chainrule``), as a battery
failure record does.

Exit codes: 0 success, 1 a check or comparison failed (including a
non-reduced inner sequence), 2 malformed input or arguments (including a
``tower`` stage above 3 for an outer functor that is not homogeneous,
which no second route reaches), 3 an evaluation exceeded the stated
budget.

Reports are exact: every number printed or serialized is an integer or
a rational string, and report files are byte-identical for identical
run configurations (timings only ever go to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from .exactpoly import TPoly, dims_poly
from .functor import dn_product_value, pn_limit_value, tower_stage_square_value
from .holim import BudgetError, cells_from_json, t_n_expected, t_n_oracle
from .partitions import partition
from .symseq import SymSeq, seq_from_json, seq_to_json, space_from_json, space_to_json
from .verify import (
    CHECK_NAMES,
    RunConfig,
    chain_rule_routes,
    entry_json,
    first_difference,
    product_routes,
    run_battery,
    summand_routes,
    tower_values,
)


class InputError(Exception):
    """User-supplied file or argument that cannot be used (exit code 2)."""


def _load(path: str, loader):
    """Decode a JSON file with loader; every way it can fail is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loader(json.load(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _cells_from_file(data):
    """A cell list, bare or under a "cells" key."""
    if isinstance(data, dict) and "cells" in data:
        data = data["cells"]
    return cells_from_json(data)


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise InputError(f"degree list {text!r} must be comma-separated integers") from exc


def _load_space(path: str | None, degrees: str) -> TPoly:
    """A graded space from a JSON file when one is named, else from inline degrees."""
    if path:
        return _load(path, space_from_json)
    degs = _parse_degrees(degrees)
    return dims_poly({d: degs.count(d) for d in set(degs)})


def _emit(doc: dict, json_out: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if json_out is None:
        return
    if json_out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {json_out}: {exc}") from exc


def _dims_lines(X: TPoly) -> str:
    if not X:
        return "0"
    return " + ".join(
        f"{X.coeff(d)}·t^{d}" if d else f"{X.coeff(d)}" for d in X.support()
    )


def _load_pair(args) -> tuple[SymSeq, SymSeq]:
    """The outer and the inner sequence file; the inner one must be reduced."""
    F = _load(args.outer, seq_from_json)
    G = _load(args.inner, seq_from_json)
    if not G.is_reduced():
        print(f"{args.inner} has a constant term; the inner sequence of a composite "
              f"must be reduced", file=sys.stderr)
        raise SystemExit(1)
    return F, G


def _refuse_truncated(args, F: SymSeq, G: SymSeq) -> None:
    """Refuse a truncated outer or inner file before any work: the routes
    of ``derivative`` and ``tower`` need complete sequences."""
    for path, seq in ((args.outer, F), (args.inner, G)):
        if not seq.complete:
            raise InputError(f"{path} is truncated at {seq.bound}; "
                             f"{args.command} needs a complete sequence")


def _disagreement(lhs: SymSeq, rhs: SymSeq, n: int | None) -> dict:
    """Both sides of a disagreeing entry n as one-entry sequence documents;
    nothing when n is None."""
    return {} if n is None else {"lhs": entry_json(lhs.entry(n)), "rhs": entry_json(rhs.entry(n))}


# ---------------------------------------------------------------------------
# commands


def cmd_compose(args) -> int:
    A, B = _load_pair(args)
    lhs, rhs = product_routes(A, B, args.signed, args.bound)
    window = lhs.bound if lhs.bound is not None else lhs.degree()
    diff = first_difference(lhs, rhs, window)
    for n in sorted(lhs.entries):
        print(f"entry {n}: dim {_dims_lines(lhs.entry(n).dim_poly())}")
    print(f"window 0..{window}; per-partition and plethysm routes "
          f"{'agree' if diff is None else f'DISAGREE first at entry {diff}'}")
    _emit({"result": seq_to_json(lhs), "paths_agree": diff is None,
           **_disagreement(lhs, rhs, diff)}, args.json_out)
    return 0 if diff is None else 1


def cmd_chainrule(args) -> int:
    F, G = _load_pair(args)
    base = None
    if args.base is not None or args.base_file:
        # the zero space is base 0: the same as giving no base at all
        base = _load_space(args.base_file, args.base) or None
    if base is not None and not (F.complete and G.complete):
        print("a base point mixes every arity into every lower one, so entry 0 "
              "of the shifted composite cannot be verified from truncated "
              "inputs; supply complete sequences or drop --base",
              file=sys.stderr)
        return 2
    windows = [b for b in (F.bound, G.bound) if b is not None]
    if windows and args.bound > min(windows):
        avail = min(windows)
        print(f"inputs are truncated at {avail}: entry {avail + 1} of the "
              f"composite cannot be verified; lower --bound to {avail}",
              file=sys.stderr)
        return 2
    # entry n of a composite with reduced inner sequence only involves
    # entries <= n of either factor, so a truncated input is exact here
    if not F.complete:
        F = F.truncate(args.bound)
    if not G.complete:
        G = G.truncate(args.bound)
    lhs, rhs = chain_rule_routes(F, G, args.bound, args.signed, base=base)
    entries = []
    for n in range(args.bound + 1):
        ok = lhs.entry(n) == rhs.entry(n)
        print(f"entry {n}: derivative and product characters "
              f"{'agree' if ok else 'DISAGREE'}")
        entries.append({"n": n, "agree": ok, **_disagreement(lhs, rhs, None if ok else n)})
    agree = all(e["agree"] for e in entries)
    _emit({
        "bound": args.bound,
        "base": space_to_json(base) if base is not None else None,
        "entries": entries,
        "agree": agree,
    }, args.json_out)
    return 0 if agree else 1


def cmd_derivative(args) -> int:
    F, G = _load_pair(args)
    _refuse_truncated(args, F, G)
    parts = _parse_degrees(args.partition)
    if not parts or any(p < 1 for p in parts):
        raise InputError(f"{args.partition!r} is not a partition (positive parts)")
    lam = partition(parts)
    n = sum(lam)
    lhs, rhs = summand_routes(F, G, lam, n, args.signed)
    diff = first_difference(lhs, rhs, n)
    print(f"summand of the partition {list(lam)} at arity {n}: "
          f"dim {_dims_lines(rhs.entry(n).dim_poly())}")
    print(f"induction and trace routes "
          f"{'agree' if diff is None else f'DISAGREE first at entry {diff}'}")
    _emit({"partition": list(lam), "character": seq_to_json(rhs), "routes_agree": diff is None,
           **_disagreement(lhs, rhs, diff)}, args.json_out)
    return 0 if diff is None else 1


def cmd_tower(args) -> int:
    F, G = _load_pair(args)
    _refuse_truncated(args, F, G)
    X = _load_space(args.space_file, args.space)
    n = args.stage
    if n < 1:
        raise InputError("stage must be at least 1")
    homogeneous = len(F.entries) == 1
    if not homogeneous and n > 3:
        raise InputError(f"stage {n} has no second route: the split limit needs a "
                         f"homogeneous outer functor and the stage diagram stops at stage 3")
    stage_value, layer_value = tower_values(F, G, n, X, args.signed)
    print(f"stage {n} value: {_dims_lines(stage_value)}")
    print(f"layer {n} value: {_dims_lines(layer_value)}")
    routes: dict[str, bool] = {}
    if homogeneous:
        routes["split-limit"] = pn_limit_value(F, G, n, X, args.signed) == stage_value
        routes["layer-product"] = dn_product_value(F, G, n, X, args.signed) == layer_value
    if n <= 3:
        routes["stage-diagram"] = tower_stage_square_value(F, G, n, X, args.signed) == stage_value
    for label, ok in routes.items():
        print(f"route {label}: {'agrees' if ok else 'DISAGREES'}")
    agree = all(routes.values())
    _emit({
        "stage": n,
        "stage_value": space_to_json(stage_value),
        "layer_value": space_to_json(layer_value),
        "routes": routes,
        "agree": agree,
    }, args.json_out)
    return 0 if agree else 1


def cmd_tn_oracle(args) -> int:
    cells = _load(args.cells, _cells_from_file)
    degs = _parse_degrees(args.space)
    n = args.excision_degree
    for name, value in [("excision degree", n), ("--max-iter", args.max_iter), ("--budget", args.budget)]:
        if value < 1:
            raise InputError(f"{name} must be at least 1")
    window, expected = t_n_expected(cells, n, degs, args.window)
    out = t_n_oracle(cells, n, degs, window=window, max_iter=args.max_iter, budget=args.budget)
    for i, dims in enumerate(out["history"]):
        shown = ", ".join(f"t^{d}:{v}" for d, v in sorted(dims.items())) or "0"
        print(f"iterate {i}: {shown}")
    matches = out["stable"] == expected
    if out["stable"] is None:
        print(f"no stabilization within {args.max_iter} iterates on degrees <= {window}")
    else:
        print(f"stable on degrees <= {window} after {out['iterations']} iterates; "
              f"{'matches' if matches else 'DIFFERS from'} the truncated functor")
    _emit({
        "excision_degree": n,
        "window": window,
        "history": [{str(d): v for d, v in sorted(h.items())} for h in out["history"]],
        "stable": None if out["stable"] is None else {str(d): v for d, v in sorted(out["stable"].items())},
        "expected": {str(d): v for d, v in sorted(expected.items())},
        "iterations": out["iterations"],
        "matches_truncation": matches,
    }, args.json_out)
    return 0 if matches else 1


def cmd_verify(args) -> int:
    config = RunConfig(seed=args.seed, bound=args.bound, sign_mode=args.sign_mode,
                       pairs=args.pairs, budget=args.budget, mutate=args.mutate)
    report, _times = run_battery(
        config,
        check_names=args.check or None,
        log=lambda line: print(line, file=sys.stderr),
    )
    for record in report["checks"]:
        print(f"{record['status'].upper():4s} {record['check']} "
              f"({record['instances']} instances)")
    print(f"overall: {report['status']}")
    _emit(report, args.json_out)
    return 0 if report["status"] == "pass" else 1


# ---------------------------------------------------------------------------
# parser


def _window(text: str) -> int:
    """A comparison window: a nonnegative integer (a negative one compares nothing)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"window {value} is negative and would compare no entries")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="functorcalc",
        description="exact composition calculus for derivative sequences of "
                    "polynomial functors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--signed", action="store_true",
                       help="let permutations act with Koszul signs")
        p.add_argument("--json-out", metavar="PATH", default=None,
                       help="write the JSON report to PATH ('-' for stdout)")

    p = sub.add_parser("compose", help="composition product of two sequence files")
    p.add_argument("outer")
    p.add_argument("inner")
    add_common(p)
    p.add_argument("--bound", type=_window, default=None,
                   help="window to compute (default: the full finite support)")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("chainrule", help="derivatives of a composite, two routes")
    p.add_argument("outer")
    p.add_argument("inner")
    p.add_argument("--base", default=None, metavar="DEGS",
                   help="base point as comma-separated degrees, e.g. 0,0,1")
    p.add_argument("--base-file", default=None, metavar="PATH",
                   help="base point as a graded-space JSON file")
    add_common(p)
    p.add_argument("--bound", type=_window, default=4, help="comparison window")
    p.set_defaults(fn=cmd_chainrule)

    p = sub.add_parser("derivative", help="one partition summand of a composite")
    p.add_argument("outer")
    p.add_argument("inner")
    p.add_argument("--partition", required=True, metavar="PARTS",
                   help="partition as comma-separated parts, e.g. 1,2")
    add_common(p)
    p.set_defaults(fn=cmd_derivative)

    p = sub.add_parser("tower", help="tower stage of a composite at a space")
    p.add_argument("outer")
    p.add_argument("inner")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--space", default="0", metavar="DEGS",
                   help="argument space as comma-separated degrees")
    p.add_argument("--space-file", default=None, metavar="PATH",
                   help="argument space as a graded-space JSON file")
    add_common(p)
    p.set_defaults(fn=cmd_tower)

    p = sub.add_parser("tn-oracle", help="iterate the excisive approximation "
                                         "of a cell functor")
    p.add_argument("cells", help="JSON file with a cell presentation")
    p.add_argument("--excision-degree", type=int, required=True, metavar="N")
    p.add_argument("--space", default="0", metavar="DEGS",
                   help="argument degrees, e.g. 0,0,1")
    p.add_argument("--window", type=int, default=None,
                   help="stabilization window (default: derived from the input)")
    p.add_argument("--max-iter", type=int, default=12)
    p.add_argument("--budget", type=int, default=200000,
                   help="cap on materialized basis sizes")
    p.add_argument("--json-out", metavar="PATH", default=None)
    p.set_defaults(fn=cmd_tn_oracle)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--bound", type=int, default=6)
    p.add_argument("--pairs", type=int, default=100,
                   help="instance count of the main chain-rule check")
    p.add_argument("--budget", type=int, default=200000)
    p.add_argument("--sign-mode", choices=("unsigned", "signed", "both"),
                   default="both")
    p.add_argument("--check", action="append", choices=CHECK_NAMES,
                   metavar="NAME", default=None,
                   help="run only the named check (repeatable); one of: "
                        + ", ".join(CHECK_NAMES))
    p.add_argument("--mutate", action="store_true",
                   help="harness self-test: corrupt the composition product "
                        "and expect the independent-route checks to fail")
    p.add_argument("--json-out", metavar="PATH", default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
