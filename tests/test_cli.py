"""End-to-end tests of the command-line surface and the JSON codecs.

Exit-code contract: 0 success, 1 failed comparison (including a
non-reduced inner sequence), 2 malformed input or arguments, 3 budget
exceeded.  Report files must be byte-identical across runs with the
same configuration.
"""

import ast
import hashlib
import json
import pathlib
import random
import shlex
import subprocess
import sys

import pytest

from functorcalc import cli
from functorcalc.cli import main
from functorcalc.generate import random_cells, random_space
from functorcalc.holim import Cell, cells_from_json, cells_sequence, cells_to_json
from functorcalc.partitions import partition
from functorcalc.symseq import (
    SymSeq,
    compose,
    seq_from_json,
    seq_to_json,
    space_from_json,
    space_to_json,
)
from functorcalc.verify import MUTATION_TARGETED


def write_seq(path, cells, with_cells=False):
    seq = cells_sequence(cells)
    doc = seq_to_json(seq, cells=cells if with_cells else None)
    path.write_text(json.dumps(doc))
    return seq


@pytest.fixture()
def pair(tmp_path):
    rng = random.Random(4101)
    f_cells = random_cells(rng, max_degree=3)
    g_cells = random_cells(rng, max_degree=3)
    fp, gp = tmp_path / "F.json", tmp_path / "G.json"
    F = write_seq(fp, f_cells)
    G = write_seq(gp, g_cells)
    return fp, gp, F, G


# ---------------------------------------------------------------------------
# JSON codecs


def test_seq_json_roundtrip_entries_form():
    rng = random.Random(52)
    for _ in range(20):
        seq = cells_sequence(random_cells(rng, max_degree=4))
        doc = seq_to_json(seq)
        back = seq_from_json(json.loads(json.dumps(doc)))
        assert back == seq


def test_seq_json_roundtrip_cells_form():
    rng = random.Random(53)
    for _ in range(20):
        cells = random_cells(rng, max_degree=3)
        doc = {"bound": None, "entries": [], "cells": cells_to_json(cells)}
        doc.pop("entries")
        back = seq_from_json(doc)
        assert back == cells_sequence(cells)


def test_seq_json_cells_and_entries_must_agree():
    cells = [Cell((1,)), Cell((1, 1), sign=True)]
    doc = seq_to_json(cells_sequence(cells), cells=cells)
    assert seq_from_json(doc) == cells_sequence(cells)
    doc["cells"][0]["degree"] = 7
    with pytest.raises(ValueError):
        seq_from_json(doc)


def test_cells_json_multiplicity_roundtrip():
    cells = [Cell((2, 1), degree=1), Cell((2, 1), degree=1), Cell((3,), sign=True)]
    items = cells_to_json(cells)
    mults = {tuple(item["composition"]): item["multiplicity"] for item in items}
    assert mults == {(2, 1): 2, (3,): 1}
    assert cells_from_json(items) == cells


def test_space_json_roundtrip_with_fractions():
    rng = random.Random(54)
    for _ in range(10):
        X = random_space(rng)
        assert space_from_json(json.loads(json.dumps(space_to_json(X)))) == X
    doc = {"dims": {"0": 2, "3": 1}}
    X = space_from_json(doc)
    assert X.coeff(0) == 2 and X.coeff(3) == 1
    assert all(type(v) is int for v in X.c.values())


def test_scalar_strings_survive_roundtrip():
    from fractions import Fraction

    from functorcalc.characters import GradedCharacter
    from functorcalc.exactpoly import TPoly

    chi = GradedCharacter.trivial(2).scale(TPoly.term(Fraction(1, 1), 0))
    seq = SymSeq({2: chi}, bound=2)
    text = json.dumps(seq_to_json(seq))
    assert seq_from_json(json.loads(text)) == seq


def test_seq_json_rejects_malformed():
    with pytest.raises(ValueError):
        seq_from_json([1, 2, 3])
    with pytest.raises(ValueError):
        seq_from_json({"bound": -1, "entries": []})
    with pytest.raises(ValueError):
        seq_from_json({"bound": None, "entries": [{"n": 1, "degrees": [
            {"d": 0, "character": [[[2], 1]]}]}]})  # partition of the wrong weight


def test_sequence_file_coefficients_load_as_ints(pair):
    # integral JSON scalars load as ints (the exact_div rule), not as Fractions
    fp, _, F, _ = pair
    loaded = seq_from_json(json.loads(fp.read_text()))
    assert loaded == F
    coeffs = [v for chi in loaded.entries.values() for poly in chi.values.values() for v in poly.c.values()]
    assert coeffs and all(type(v) is int for v in coeffs)


def _misspell(doc: dict, key: str, wrong: str) -> dict:
    """doc with every occurrence of key, at any depth, renamed to wrong."""
    if isinstance(doc, dict):
        return {wrong if k == key else k: _misspell(v, key, wrong) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_misspell(v, key, wrong) for v in doc]
    return doc


@pytest.mark.parametrize("key, wrong", [("character", "characters"), ("bound", "bund"), ("sign", "signed")])
def test_misspelled_keys_exit_two_naming_the_key(tmp_path, capsys, key, wrong):
    # each read before as a different input: the zero sequence, a complete
    # sequence, an unsigned cell, and the comparisons passed on it
    cells = [Cell((1,)), Cell((1, 1), sign=True, degree=1)]
    doc = seq_to_json(cells_sequence(cells), cells=cells if key == "sign" else None)
    if key == "bound":
        doc["bound"] = 3
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps(_misspell(doc, key, wrong)))
    argv = (["tn-oracle", str(typo), "--excision-degree", "1", "--space", "0"] if key == "sign"
            else ["compose", str(typo), str(typo)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {typo}: unknown key '{wrong}'")


def test_loaders_reject_unknown_keys_at_every_level():
    cells = [Cell((2, 1), degree=1)]
    seq_doc = seq_to_json(cells_sequence(cells), cells=cells)
    cases = [
        (seq_from_json, {**seq_doc, "comment": 1}, "comment"),
        (seq_from_json, {"entries": [{**seq_doc["entries"][0], "m": 3}]}, "m"),
        (seq_from_json, {"entries": [{"n": 3, "degrees": [{**seq_doc["entries"][0]["degrees"][0], "dd": 1}]}]}, "dd"),
        (space_from_json, {"dims": {"0": 1}, "dim": {}}, "dim"),
        (cells_from_json, [{"composition": [1], "multiplicty": 2}], "multiplicty"),
        (cli._cells_from_file, {"cells": seq_doc["cells"], "bounds": None}, "bounds"),
    ]
    for loader, doc, wrong in cases:
        with pytest.raises(ValueError, match=f"unknown key '{wrong}'"):
            loader(doc)
    # a sequence document with its cells is still a cells file
    assert cli._cells_from_file(seq_doc) == cells


def test_json_loaders_return_or_raise_value_error():
    """JSON-shaped documents keyed by the formats' own field names: each
    loader returns or raises ValueError, the error the CLI turns into exit 2."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    fields = ["bound", "entries", "n", "degrees", "d", "character", "cells", "dims",
              "composition", "sign", "degree", "multiplicity", "0", "1", "-1"]
    # small integers keep cell arities, and so character tables, small
    leaves = st.none() | st.booleans() | st.integers(-1, 2) | st.sampled_from(fields + ["1/2", "-3/4", "1/0", "x"])
    documents = st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(fields), kids, max_size=4),
        max_leaves=12,
    )

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(documents)
    def check(doc):
        for loader in (seq_from_json, space_from_json, cells_from_json):
            try:
                loader(doc)
            except ValueError:
                pass

    check()


# ---------------------------------------------------------------------------
# compose / chainrule / derivative / tower


def test_compose_command_agrees(pair, tmp_path, capsys):
    fp, gp, F, G = pair
    out = tmp_path / "report.json"
    assert main(["compose", str(fp), str(gp), "--json-out", str(out)]) == 0
    assert "routes agree" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["paths_agree"] is True
    assert seq_from_json(doc["result"]) == compose(F, G)


def test_compose_beyond_a_truncated_window_exits_two(pair, tmp_path, capsys):
    fp, gp, F, _ = pair
    doc = seq_to_json(F)
    doc["bound"] = 2
    doc["entries"] = [e for e in doc["entries"] if e["n"] <= 2]
    fb = tmp_path / "Fb.json"
    fb.write_text(json.dumps(doc))
    assert main(["compose", str(fb), str(gp), "--bound", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: composite bound 5 exceeds known window 2\n"


def test_compose_rejects_non_reduced_inner(pair, tmp_path, capsys):
    fp, gp, _, G = pair
    doc = seq_to_json(G)
    doc["entries"].insert(0, {"n": 0, "degrees": [{"d": 0, "character": [[[], 1]]}]})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["compose", str(fp), str(bad)]) == 1
    assert "reduced" in capsys.readouterr().err


def test_malformed_input_exits_two(pair, tmp_path, capsys):
    fp, _, _, _ = pair
    junk = tmp_path / "junk.json"
    junk.write_text("{nope")
    assert main(["compose", str(fp), str(junk)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["compose", str(fp), str(missing)]) == 2
    assert main(["compose", str(fp), "--no-such-flag"]) == 2
    capsys.readouterr()


def test_chainrule_command(pair, capsys):
    fp, gp, _, _ = pair
    assert main(["chainrule", str(fp), str(gp), "--bound", "3"]) == 0
    assert main(["chainrule", str(fp), str(gp), "--bound", "2",
                 "--base", "0,1", "--signed"]) == 0
    capsys.readouterr()


def test_negative_bound_exits_two(pair, tmp_path, capsys):
    # a negative window compares no entries, so it must not report agreement
    fp, gp, _, _ = pair
    assert main(["chainrule", str(fp), str(gp), "--bound", "-1"]) == 2
    assert main(["compose", str(fp), str(gp), "--bound", "-3"]) == 2
    captured = capsys.readouterr()
    assert "agree" not in captured.out
    assert "negative" in captured.err
    # X (x) X at a line of degree 0 or 3 sits in degree 0 or 6, and its
    # iterates climb from there: these windows hold none of it
    sq = tmp_path / "sq.json"
    sq.write_text(json.dumps([{"composition": [1, 1]}]))
    for space, window in [("0", "-1"), ("3", "1")]:
        assert main(["tn-oracle", str(sq), "--excision-degree", "1", "--space", space,
                     "--window", window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "holds no degree" in captured.err


def test_chainrule_truncated_inputs(pair, tmp_path, capsys):
    fp, gp, F, _ = pair
    doc = seq_to_json(F)
    doc["bound"] = 2
    doc["entries"] = [e for e in doc["entries"] if e["n"] <= 2]
    fb = tmp_path / "Fb.json"
    fb.write_text(json.dumps(doc))
    # within the window the truncated sequence is exact
    assert main(["chainrule", str(fb), str(gp), "--bound", "2"]) == 0
    # beyond it the first unverifiable entry is named
    assert main(["chainrule", str(fb), str(gp), "--bound", "5"]) == 2
    err = capsys.readouterr().err
    assert "entry 3" in err
    # a base point needs complete inputs
    assert main(["chainrule", str(fb), str(gp), "--bound", "1", "--base", "0"]) == 2


def test_chainrule_empty_base_is_no_base(pair, tmp_path, capsys):
    fp, gp, F, _ = pair
    doc = seq_to_json(F)
    doc["bound"] = 2
    doc["entries"] = [e for e in doc["entries"] if e["n"] <= 2]
    fb = tmp_path / "Fb.json"
    fb.write_text(json.dumps(doc))
    plain, empty = tmp_path / "plain.json", tmp_path / "empty.json"
    assert main(["chainrule", str(fb), str(gp), "--bound", "2", "--json-out", str(plain)]) == 0
    # the zero space is base 0, so truncated inputs stay acceptable
    assert main(["chainrule", str(fb), str(gp), "--bound", "2", "--base", "",
                 "--json-out", str(empty)]) == 0
    assert json.loads(empty.read_text())["base"] is None
    assert empty.read_bytes() == plain.read_bytes()
    capsys.readouterr()


def test_derivative_command(pair, tmp_path, capsys):
    fp, gp, _, _ = pair
    out = tmp_path / "d.json"
    assert main(["derivative", str(fp), str(gp), "--partition", "1,2",
                 "--json-out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["routes_agree"] is True and doc["partition"] == [1, 2]
    assert main(["derivative", str(fp), str(gp), "--partition", "0,2"]) == 2
    capsys.readouterr()


def test_tower_command(pair, tmp_path, capsys):
    fp, gp, _, _ = pair
    rng = random.Random(9)
    homog = tmp_path / "H.json"
    write_seq(homog, [Cell((2,)), Cell((1, 1), sign=True, degree=1)])
    assert main(["tower", str(homog), str(gp), "--stage", "3",
                 "--space", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "split-limit: agrees" in out and "stage-diagram: agrees" in out
    assert main(["tower", str(fp), str(gp), "--stage", "2", "--signed"]) == 0
    capsys.readouterr()


def test_tower_refuses_a_stage_without_a_second_route(tmp_path, capsys, monkeypatch):
    # an outer functor of two entries at stage 4 ran no route and still
    # reported agreement (exit 0, "routes": {})
    outer, inner = tmp_path / "F.json", tmp_path / "G.json"
    write_seq(outer, [Cell((1,)), Cell((2,))])
    write_seq(inner, [Cell((1,)), Cell((1, 1), degree=1)])

    def no_work(*args, **kwargs):
        raise AssertionError("tower values computed before the stage was checked")

    monkeypatch.setattr(cli, "tower_values", no_work)
    out = tmp_path / "t.json"
    assert main(["tower", str(outer), str(inner), "--stage", "4", "--json-out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: stage 4 has no second route")
    assert not out.exists()


def _truncated_file(path, cells, bound):
    doc = seq_to_json(cells_sequence(cells))
    doc["bound"] = bound
    doc["entries"] = [e for e in doc["entries"] if e["n"] <= bound]
    path.write_text(json.dumps(doc))


def test_tower_and_derivative_refuse_truncated_files(tmp_path, capsys, monkeypatch):
    # both commands' routes need complete sequences; a truncated file made
    # tower print its values first and then fail from deep in the library
    outer_cells = [Cell((1,)), Cell((2,))]
    inner_cells = [Cell((1,)), Cell((1, 1), degree=1)]
    outer, single, inner = tmp_path / "Ft.json", tmp_path / "F1.json", tmp_path / "G.json"
    _truncated_file(outer, outer_cells, 2)
    _truncated_file(single, outer_cells, 1)  # one entry: looks homogeneous
    write_seq(inner, inner_cells)
    truncated_inner = tmp_path / "Gt.json"
    _truncated_file(truncated_inner, inner_cells, 2)
    complete_outer = tmp_path / "F.json"
    write_seq(complete_outer, outer_cells)

    def no_work(*args, **kwargs):
        raise AssertionError("routes started on a truncated file")

    monkeypatch.setattr(cli, "tower_values", no_work)
    monkeypatch.setattr(cli, "summand_routes", no_work)
    cases = [
        (["tower", str(outer), str(inner), "--stage", "2"], outer),
        (["tower", str(single), str(inner), "--stage", "2"], single),
        (["derivative", str(outer), str(inner), "--partition", "1,2"], outer),
        (["tower", str(complete_outer), str(truncated_inner), "--stage", "2"], truncated_inner),
    ]
    for argv, named in cases:
        out = tmp_path / "out.json"
        assert main(argv + ["--json-out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named} is truncated at ")
        assert f"{argv[0]} needs a complete sequence" in captured.err
        assert not out.exists()


def _junk_summand():
    from functorcalc.characters import GradedCharacter, induce_young

    return induce_young(GradedCharacter.trivial(1), GradedCharacter.trivial(1))


def test_compose_disagreement_shows_both_entries(pair, tmp_path, capsys, monkeypatch):
    from functorcalc import verify

    fp, gp, F, G = pair
    monkeypatch.setattr(verify, "compose_plethysm",
                        lambda A, B, signed=False, bound=None: verify.corrupted_compose(A, B, signed, bound))
    out = tmp_path / "c.json"
    assert main(["compose", str(fp), str(gp), "--json-out", str(out)]) == 1
    assert "routes DISAGREE first at entry 2\n" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["paths_agree"] is False
    honest = compose(F, G).entry(2)
    assert doc["lhs"] == seq_to_json(SymSeq({2: honest}))
    assert doc["rhs"] == seq_to_json(SymSeq({2: honest + _junk_summand()}))


def test_chainrule_disagreement_shows_both_entries(pair, tmp_path, capsys, monkeypatch):
    from functorcalc import verify

    fp, gp, F, G = pair
    monkeypatch.setattr(verify, "composite_derivatives",
                        lambda F, G, bound, signed, base=None: verify.corrupted_compose(F, G, signed, bound))
    out = tmp_path / "c.json"
    assert main(["chainrule", str(fp), str(gp), "--bound", "3", "--json-out", str(out)]) == 1
    assert "entry 2: derivative and product characters DISAGREE\n" in capsys.readouterr().out
    entries = json.loads(out.read_text())["entries"]
    assert [e["agree"] for e in entries] == [True, True, False, True]
    assert all("lhs" not in e for e in entries if e["agree"])
    honest = compose(F, G).entry(2)
    assert entries[2]["lhs"] == seq_to_json(SymSeq({2: honest + _junk_summand()}))
    assert entries[2]["rhs"] == seq_to_json(SymSeq({2: honest}))


def test_derivative_disagreement_shows_both_entries(pair, tmp_path, capsys, monkeypatch):
    from functorcalc import verify

    fp, gp, F, G = pair
    honest_routes = verify.fgl_derivatives
    monkeypatch.setattr(verify, "fgl_derivatives", lambda F, G, lam, upto, signed: honest_routes(
        F, G, lam, upto, signed) + SymSeq({2: _junk_summand()}, bound=upto))
    out = tmp_path / "d.json"
    assert main(["derivative", str(fp), str(gp), "--partition", "1,1", "--json-out", str(out)]) == 1
    assert "routes DISAGREE first at entry 2\n" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["routes_agree"] is False
    summand = verify.composition_summand(F, G, partition((1, 1)))
    assert doc["rhs"] == seq_to_json(SymSeq({2: summand}))
    assert doc["lhs"] == seq_to_json(SymSeq({2: summand + _junk_summand()}))


@pytest.mark.parametrize("kind", ["outer", "base-file", "space-file", "cells"])
@pytest.mark.parametrize("content, message", [
    (None, "error: cannot read {path}"),
    ("{nope", "error: {path} is not valid JSON"),
    ("[1, 2, 3]", "error: {path}: "),  # valid JSON that no loader accepts
])
def test_every_file_kind_reports_its_load_errors(pair, tmp_path, capsys, kind, content, message):
    fp, gp, _, _ = pair
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content)
    argv = {
        "outer": ["compose", str(path), str(gp)],
        "base-file": ["chainrule", str(fp), str(gp), "--base-file", str(path)],
        "space-file": ["tower", str(fp), str(gp), "--stage", "2", "--space-file", str(path)],
        "cells": ["tn-oracle", str(path), "--excision-degree", "1"],
    }[kind]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message.format(path=path))


def test_cli_calls_no_sequence_level_route():
    # each identity is compared through its function in verify, which the
    # battery calls too; the CLI reaching a route directly would restate it
    routes = {"compose", "compose_plethysm", "compose_around", "composite_derivatives",
              "composition_summand", "fgl_derivatives", "evaluate"}
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not routes & imported


# ---------------------------------------------------------------------------
# tn-oracle


def test_tn_oracle_command(tmp_path, capsys):
    cells = tmp_path / "sq.json"
    cells.write_text(json.dumps({"cells": cells_to_json([Cell((1, 1), sign=True)])}))
    out = tmp_path / "o.json"
    assert main(["tn-oracle", str(cells), "--excision-degree", "1",
                 "--space", "0", "--json-out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # an exterior square is 1-reduced of degree 2, so its linearization vanishes
    assert doc["matches_truncation"] is True and doc["stable"] == {}
    capsys.readouterr()


def test_tn_oracle_accepts_bare_cell_list(tmp_path, capsys):
    cells = tmp_path / "line.json"
    cells.write_text(json.dumps(cells_to_json([Cell((1,))])))
    assert main(["tn-oracle", str(cells), "--excision-degree", "1",
                 "--space", "0,1"]) == 0
    capsys.readouterr()


def test_tn_oracle_default_window_reaches_the_functor(tmp_path, capsys):
    # X (x) X in internal degree 5 at a degree-0 line sits in degree 5 and its
    # truncation T_1 is zero; a default window of two past the point held
    # nothing and was refused, so the default now reaches degree 5
    cells = tmp_path / "high.json"
    cells.write_text(json.dumps([{"composition": [1, 1], "degree": 5}]))
    out = tmp_path / "o.json"
    assert main(["tn-oracle", str(cells), "--excision-degree", "1",
                 "--space", "0", "--json-out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["window"] == 5 and doc["matches_truncation"] is True
    capsys.readouterr()


def test_tn_oracle_budget_exit(tmp_path, capsys):
    cells = tmp_path / "big.json"
    cells.write_text(json.dumps({"cells": cells_to_json(
        [Cell((1, 1)), Cell((2, 1))])}))
    assert main(["tn-oracle", str(cells), "--excision-degree", "2",
                 "--space", "0,0", "--budget", "40"]) == 3
    assert "exceeds budget" in capsys.readouterr().err


def test_tn_oracle_refuses_non_positive_iterations_and_budget(tmp_path, capsys, monkeypatch):
    # these ran before: --max-iter 0 or -1 reported no stabilization (exit 1),
    # and --budget -5 was refused as exceeded (exit 3)
    cells = tmp_path / "sq.json"
    cells.write_text(json.dumps([{"composition": [1, 1]}]))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(cli, "t_n_expected", no_work)
    monkeypatch.setattr(cli, "t_n_oracle", no_work)
    for flag, value in [("--max-iter", "-1"), ("--max-iter", "0"), ("--budget", "-5"), ("--budget", "0")]:
        assert main(["tn-oracle", str(cells), "--excision-degree", "1", "--space", "0", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be at least 1\n"


def test_tn_oracle_rejects_entries_only_file(pair, capsys):
    fp, _, _, _ = pair
    assert main(["tn-oracle", str(fp), "--excision-degree", "1",
                 "--space", "0"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    args = ["verify", "--check", "set-partition-counts",
            "--check", "composition-unit-laws", "--seed", "11"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--json-out", str(first)]) == 0
    assert main(args + ["--json-out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert "overall: pass" in capsys.readouterr().out


def test_verify_unknown_check_exits_two(capsys):
    assert main(["verify", "--check", "no-such-check"]) == 2
    capsys.readouterr()


def test_verify_mutation_flips_targeted_check(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["verify", "--check", "composition-unit-laws",
                 "--mutate", "--json-out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["mutated"] is True
    assert doc["checks"][0]["status"] == "fail"
    # the same check passes without the mutation
    assert main(["verify", "--check", "composition-unit-laws"]) == 0
    # a check with no independent reference is immune to the mutation
    assert main(["verify", "--check", "composition-associativity",
                 "--mutate"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("check", sorted(MUTATION_TARGETED))
def test_repro_line_replays_its_failure(check, tmp_path, capsys):
    # a failure from a run with non-default knobs must come back, record for
    # record, from the command line it carries
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--check", check, "--mutate", "--bound", "3",
                 "--pairs", "3", "--sign-mode", "unsigned", "--budget", "5000",
                 "--json-out", str(first)]) == 1
    failures = json.loads(first.read_text())["checks"][0]["failures"]
    assert failures
    argv = shlex.split(failures[0]["repro"])
    assert argv[0] == "functorcalc"
    assert main(argv[1:] + ["--json-out", str(second)]) == 1
    assert json.loads(second.read_text())["checks"][0]["failures"] == failures
    capsys.readouterr()


def test_failure_records_carry_both_disagreeing_entries(tmp_path, capsys):
    from functorcalc.trace import composite_derivatives
    from functorcalc.verify import corrupted_compose

    out = tmp_path / "m.json"
    assert main(["verify", "--check", "chain-rule-zero-base", "--mutate", "--bound", "3",
                 "--pairs", "3", "--json-out", str(out)]) == 1
    failures = json.loads(out.read_text())["checks"][0]["failures"]
    assert failures
    for record in failures:
        # the corruption adds a two-letter summand, so the routes part at entry 2
        assert record["detail"].endswith("differ first at entry 2")
        F = cells_sequence(cells_from_json(record["outer_cells"]))
        G = cells_sequence(cells_from_json(record["inner_cells"]))
        signed = record["signed"]
        lhs = composite_derivatives(F, G, 3, signed).entry(2)
        rhs = corrupted_compose(F, G, signed=signed, bound=3).entry(2)
        assert lhs != rhs
        assert record["lhs"] == seq_to_json(SymSeq({2: lhs}))
        assert record["rhs"] == seq_to_json(SymSeq({2: rhs}))
        assert seq_from_json(record["rhs"]).entry(2) == rhs
    capsys.readouterr()


#: sha256 of the ``--pairs 5 --mutate`` report as ``verify --json-out`` writes
#: it.  The default report has no failures, so this pins the failure records.
MUTATED_REPORT_SHA256 = "6281c722525a74772310d7df43742b119c1a18319958897080f5b2183276c525"


def test_mutation_flips_exactly_the_targeted_checks():
    from functorcalc.verify import RunConfig, run_battery

    report, _ = run_battery(RunConfig(pairs=5, mutate=True))
    failing = {r["check"] for r in report["checks"] if r["status"] == "fail"}
    assert failing == MUTATION_TARGETED
    assert report["status"] == "fail"
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == MUTATED_REPORT_SHA256


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "functorcalc", "verify",
         "--check", "set-partition-counts"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout
