"""CLI commands, exit codes, and byte-level determinism."""

import functools
import importlib.metadata
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cokahler
from cokahler import cli
from cokahler.cdga import Derivation
from cokahler.cli import main
from cokahler.errors import StructureError
from cokahler.modelfile import CORPUS_MODELS, corpus_path, loads, resolve
from cokahler.report import report_notes, report_sections, run_section
from test_report_bytes import PERFBENCH, PINNED, pinned_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_torus(capsys):
    code, out, _ = run(capsys, "classify", "torus3")
    assert code == 0
    assert "coKahler: True" in out
    # the section runs only on almost-contact models, so no line says so
    assert "almost_contact" not in out


def test_classify_heisenberg_witnesses(capsys):
    code, out, _ = run(capsys, "classify", "heisenberg")
    assert code == 0
    assert "coKahler: False" in out
    assert "cosymplectic: True" in out
    assert "witness[killing_xi]: (X2,X3): value -1" in out


def test_betti(capsys):
    code, out, _ = run(capsys, "betti", "heisenberg")
    assert code == 0 and "(1, 2, 2, 1)" in out
    code, out, _ = run(capsys, "betti", "torus5")
    assert "(1, 5, 10, 10, 5, 1)" in out


def test_lefschetz_exit_codes(capsys):
    code, out, _ = run(capsys, "lefschetz", "torus3")
    assert code == 0 and "iso: True" in out
    code, out, _ = run(capsys, "lefschetz", "heisenberg")
    assert code == 1 and "note:" in out
    code, out, _ = run(capsys, "--informational", "lefschetz", "heisenberg")
    assert code == 0


def test_verbitsky_exit_codes(capsys):
    # the verdict is stated once: as a check when eta is parallel, and in
    # the hypothesis note otherwise
    code, out, _ = run(capsys, "verbitsky", "torus5")
    assert code == 0 and "check parallel_form_quism: True\n" in out
    assert "quasi-isomorphism:" not in out
    # the full complex's Betti numbers are the betti command's
    assert "ker(d_eta) betti: (1, 5, 10, 10, 5, 1)\n" in out
    assert "full betti" not in out
    code, out, _ = run(capsys, "verbitsky", "heisenberg")
    assert code == 1
    assert "kernel witness: e1^e2" in out
    assert "reported without a verdict (holds: False)\n" in out
    assert "quasi-isomorphism:" not in out and "check " not in out
    code, _, _ = run(capsys, "--informational", "verbitsky", "heisenberg")
    assert code == 0


def test_split_command(capsys):
    # dim eta ^ Omega_1 is Omega_1's one degree up, and Omega_1 = basic
    # complex and the cohomology splitting are asserted checks, so each is
    # stated once, by its check line
    code, out, _ = run(capsys, "split", "torus3")
    assert code == 0
    assert out == ("Omega_eta dims: (1, 3, 3, 1)\n"
                   "Omega_1   dims: (1, 2, 1, 0)\n"
                   "H_eta betti: (1, 3, 3, 1); H_1 betti: (1, 2, 1, 0)\n"
                   "check omega_splitting: True\n"
                   "check omega1_equals_basic: True\n"
                   "check cohomology_splitting: True\n")
    code, out, _ = run(capsys, "--informational", "split", "heisenberg")
    assert code == 0


def test_massey_command(capsys):
    code, out, _ = run(capsys, "massey", "heisenberg")
    assert code == 0
    assert "status: obstructed" in out
    code, out, _ = run(capsys, "massey", "torus3")
    assert "status: no obstruction among basis triples" in out


def test_minimal_command(capsys):
    code, out, _ = run(capsys, "minimal", "heisenberg", "--max-degree", "3")
    assert code == 0
    assert "minimal (decomposable differential): True" in out


def test_mapping_torus_command(capsys):
    code, out, _ = run(capsys, "mapping-torus", "t2-rot4-mapping-torus")
    assert code == 0
    assert "(1, 1, 1, 1)" in out
    code, out, _ = run(capsys, "mapping-torus", "t2-negid-mapping-torus")
    assert code == 0 and "automorphism order: 2\n" in out
    assert out.endswith("mapping torus betti:    (1, 1, 1, 1)\n"
                        "check mapping_torus_betti: True\n")


def test_only_the_report_makes_a_pass_over_the_basis(capsys, monkeypatch):
    # identities between operators are decided on generators, so a command
    # makes a per-monomial pass (a Leibniz verdict) only where the report
    # records the operator identities
    honest = Derivation.leibniz_failure.func
    passes = []

    def counted(der):
        passes.append(der.name)
        return honest(der)

    verdict = functools.cached_property(counted)
    verdict.__set_name__(Derivation, "leibniz_failure")
    monkeypatch.setattr(Derivation, "leibniz_failure", verdict)
    for command, model in (("split", "kx5"), ("lefschetz", "kx5"),
                           ("verbitsky", "kx5"),
                           ("mapping-torus", "t2-rot4-mapping-torus")):
        code, _, _ = run(capsys, command, model)
        assert code == 0 and passes == [], (command, passes)
    code, _, _ = run(capsys, "report", "kx5")
    assert code == 0 and passes == ["d", "iota", "nabla_X1"]


@pytest.mark.parametrize("command", ["betti", "report"])
@pytest.mark.parametrize("old, new, message", [
    ("order 4", "order 3", "automorphism matrix does not have order 3 "
     "(line 11, field 'automorphism')"),
    ("0 -1\n", "0 -0/11\n", "automorphism matrix is singular "
     "(line 12, field 'automorphism')"),
])
def test_a_bad_automorphism_block_is_refused_by_every_command(
        capsys, tmp_path, command, old, new, message):
    # the order is the file's: every command reads the block the same way,
    # so betti refuses what report refuses
    text = corpus_path("t2-rot4-mapping-torus").read_text()
    assert old in text
    path = tmp_path / "bad.model"
    path.write_text(text.replace(old, new))
    extra = ["--all"] if command == "report" else []
    code, _, err = run(capsys, command, str(path), *extra)
    assert code == 2 and message in err


@pytest.mark.parametrize("flags", [[], ["--informational"]])
def test_an_automorphism_not_commuting_with_d_is_refused_by_every_command(
        capsys, tmp_path, flags):
    # kx5 with e2 -> -e2, which reverses d e4 = e2 ^ e5: every command that
    # builds the model refuses it alike, and only canonicalize, which
    # builds none, prints the file
    path = tmp_path / "kx5-flip.model"
    path.write_text(corpus_path("kx5").read_text() + "\n[automorphism]\n"
                    "order 2\n1 0 0 0 0\n0 -1 0 0 0\n0 0 1 0 0\n"
                    "0 0 0 1 0\n0 0 0 0 1\n")
    for argv in ([name] for name in (*cli._VIEWS, "report")):
        assert run(capsys, *flags, *argv, str(path)) == (
            2, "", "error: automorphism does not commute with d\n"), argv
    assert run(capsys, *flags, "report", "--json", str(path))[0] == 2
    assert run(capsys, *flags, "canonicalize", str(path))[0] == 0


def test_a_huge_order_of_a_finite_order_block_is_read_quickly(capsys,
                                                               tmp_path):
    # 4 * 10**12 is a multiple of the quarter turn's order 4: the file loads,
    # and each degree's powers are read only up to the identity
    text = corpus_path("t2-rot4-mapping-torus").read_text()
    path = tmp_path / "huge.model"
    path.write_text(text.replace("order 4", "order 4000000000000"))
    code, out, _ = run(capsys, "mapping-torus", str(path))
    assert code == 0 and "4000000000000" in out


def test_mapping_torus_without_block(capsys):
    code, _, err = run(capsys, "mapping-torus", "torus3")
    assert code == 2 and "automorphism" in err


def test_report_exit_and_content(capsys):
    code, out, _ = run(capsys, "report", "torus3", "--all")
    assert code == 0
    assert "ok: True" in out
    assert "lefschetz" in out


def test_report_json_parses(capsys):
    code, out, _ = run(capsys, "report", "heisenberg", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["classification"]["cosymplectic"] is True
    assert data["classification"]["coKahler"] is False
    assert data["model"]["betti"] == [1, 2, 2, 1]


def test_report_deterministic_bytes(capsys):
    _, first, _ = run(capsys, "report", "torus3", "--all")
    _, second, _ = run(capsys, "report", "torus3", "--all")
    assert first.encode() == second.encode()


def test_one_parser_serves_every_call_and_keeps_no_flags(capsys):
    cli._parser.cache_clear()
    code, _, _ = run(capsys, "--informational", "lefschetz", "heisenberg")
    assert code == 0
    code, _, _ = run(capsys, "lefschetz", "heisenberg")
    assert code == 1
    _, out, _ = run(capsys, "report", "torus3", "--json")
    assert json.loads(out)["ok"] is True
    _, out, _ = run(capsys, "report", "torus3")
    assert not out.startswith("{") and "ok: True" in out
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_missing_model_is_an_input_error(capsys):
    code, _, err = run(capsys, "classify", "definitely-not-a-model")
    assert code == 2 and "error" in err


def test_ambiguous_model_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "heisenberg.model"
    path.write_text("dimension: 3\n[brackets]\n1 2 3 1\n1 2 3 1\n")
    code, out, err = run(capsys, "betti", str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    assert "repeated bracket triple 1 2 3, first on line 3 (line 4" in err


# int() and Fraction() read any Unicode decimal digit, and str.isdigit also
# holds for '²', which int() refuses
@pytest.mark.parametrize("text,where", [
    ("dimension: 3\n[xi]\nX²\n", "(line 3, field 'xi')"),
    ("dimension: 3\n[eta]\ne١\n", "(line 3, field 'eta')"),
    ("dimension: ٣\n", "(line 1, field 'dimension')"),
    ("dimension: 3\n[brackets]\n١ 2 3 1\n", "(line 3, field 'brackets')"),
    ("dimension: 3\n[brackets]\n1 2 3 ２\n", "(line 3, field 'brackets')"),
], ids=["superscript-two", "arabic-indic-one", "arabic-indic-dimension",
        "arabic-indic-bracket-index", "fullwidth-coefficient"])
def test_non_ascii_index_is_an_input_error(capsys, tmp_path, text, where):
    path = tmp_path / "bad.model"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "betti", str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    assert f"needs ASCII digits {where}" in err


def test_contactless_model_rejected_for_classify(capsys):
    code, _, err = run(capsys, "classify", "t2-rot4-mapping-torus")
    assert code == 2 and "structure" in err


NIL5 = """\
# [X1, X2] = X4 with xi = X1, eta = e1: d(omega) != 0, so not cosymplectic
name: nil5
dimension: 5

[brackets]
1 2 4 1

[metric]
identity

[xi]
X1

[eta]
e1

[J]
0 0 0 0 0
0 0 -1 0 0
0 1 0 0 0
0 0 0 0 -1
0 0 0 1 0
"""


def test_non_cosymplectic_model_is_a_hypothesis_not_an_error(capsys, tmp_path):
    path = tmp_path / "nil5.model"
    path.write_text(NIL5)
    for command in ("classify", "betti", "lefschetz", "verbitsky", "split",
                    "massey", "minimal", "canonicalize"):
        code, _, err = run(capsys, "--informational", command, str(path))
        assert code == 0, (command, err)
    code, out, _ = run(capsys, "--informational", "report", "--json",
                       str(path))
    assert code == 0
    data = json.loads(out)
    assert data["classification"]["cosymplectic"] is False
    assert data["lefschetz"]["degrees"] == []
    assert any("does not descend" in note for note in data["notes"])
    code, out, _ = run(capsys, "lefschetz", str(path))
    assert code == 1 and "note:" in out and "does not descend" in out


ETA_OFF_XI = """\
# flat 5-torus with eta = e2, so eta(xi) = 0: not almost contact
name: eta-off-xi
dimension: 5

[brackets]

[metric]
identity

[xi]
X1

[eta]
e2

[J]
0 0 0 0 0
0 0 -1 0 0
0 1 0 0 0
0 0 0 0 -1
0 0 0 1 0
"""


def test_sections_not_needing_the_structure_run_when_it_fails(capsys,
                                                              tmp_path):
    # the almost-contact identities fail, which only the sections built on
    # the classification need; the others read the model as not co-Kahler
    path = tmp_path / "eta-off-xi.model"
    path.write_text(ETA_OFF_XI)
    for command in ("betti", "verbitsky", "massey", "minimal"):
        code, _, err = run(capsys, command, str(path))
        assert (code, err) == (0, ""), command
    sec = run_section(loads(ETA_OFF_XI).to_lie_model(), "minimal_model")
    assert any(note.startswith("not co-Kahler") for note in sec.notes)
    # the sections built on the classification state the failed identities
    # as their hypothesis note: exit 1, or 0 with --informational
    note = ("note: not almost contact: {'J^2 + I - eta(x)xi': 'slot (1,1): "
            "1', 'eta(xi)': 'value 0', 'g(J.,J.) - g + eta eta': "
            "'slot (1,1): -1'}\n")
    for command in ("classify", "lefschetz"):
        assert run(capsys, command, str(path)) == (1, note, ""), command
        assert run(capsys, "--informational", command, str(path)) == \
            (0, note, ""), command
    # the report exits by its asserted verdicts, which all hold
    for flags in ((), ("--informational",)):
        code, out, err = run(capsys, *flags, "report", "--json", str(path))
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert "classification" not in data and "lefschetz" not in data
        assert data["notes"].count(note[len("note: "):-1]) == 2
        assert data["ok"] and data["asserted"]
    # eta(xi) = 0 is the splitting's own hypothesis note
    code, out, err = run(capsys, "split", str(path))
    assert (code, err) == (1, "")
    assert out == "note: eta(xi) = 0 is not 1, so no splitting is computed\n"
    assert run(capsys, "--informational", "split", str(path)) == (0, out, "")


def test_subcommands_print_their_section_notes(capsys, tmp_path):
    # notes are printed one per line and never change the exit code
    path = tmp_path / "eta-off-xi.model"
    path.write_text(ETA_OFF_XI)
    code, out, _ = run(capsys, "minimal", str(path))
    assert code == 0
    assert "note: not co-Kahler: minimal-model tensor splitting not " \
        "asserted\n" in out
    code, out, _ = run(capsys, "massey", "heisenberg")
    assert code == 0
    assert "note: nonvanishing triple Massey product: the model is not " \
        "formal" in out
    code, out, _ = run(capsys, "massey", "torus3")
    assert code == 0 and "note:" not in out


HEIS5 = """\
# 5-dim Heisenberg [X2, X3] = X1 = [X4, X5] with xi = X1, eta = e1: d(eta) != 0
name: heis5
dimension: 5

[brackets]
2 3 1 1
4 5 1 1

[metric]
identity

[xi]
X1

[eta]
e1

[J]
0 0 0 0 0
0 0 -1 0 0
0 1 0 0 0
0 0 0 0 -1
0 0 0 1 0
"""


def test_splitting_with_non_closed_eta_is_a_hypothesis(capsys, tmp_path):
    # the eta-multiples are not closed under d when d(eta) != 0, so the
    # splitting section has nothing to compute: a note, not an error
    path = tmp_path / "heis5.model"
    path.write_text(HEIS5)
    code, out, _ = run(capsys, "split", str(path))
    assert code == 1
    assert out.startswith("note: d(eta) = ") and len(out.splitlines()) == 1
    code, _, err = run(capsys, "--informational", "split", str(path))
    assert code == 0, err
    code, out, err = run(capsys, "--informational", "report", "--json",
                         str(path))
    assert code == 0, err
    data = json.loads(out)
    assert "splitting" not in data
    assert data["classification"]["cosymplectic"] is False
    assert any(note.startswith("d(eta) = ") for note in data["notes"])


def test_degree_cap_is_an_integer_of_at_least_one(capsys, monkeypatch):
    for argv in (("minimal", "torus3", "--max-degree", "0"),
                 ("minimal", "torus3", "--max-degree", "-1"),
                 ("minimal", "torus3", "--max-degree", "two"),
                 ("minimal", "torus3", "--max-degree", ""),
                 ("report", "torus3", "--max-degree", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv
        assert "--max-degree" in err
    code, out, _ = run(capsys, "minimal", "torus3", "--max-degree", "1")
    assert code == 0 and "p <= 1:" in out
    # the flag is the cap's one source: the environment sets nothing
    monkeypatch.setenv("COKAHLER_MAX_DEGREE", "2")
    code, out, _ = run(capsys, "minimal", "torus3")
    assert code == 0 and "p <= 3:" in out


# subcommand -> (the asserted checks of the report section it prints, the
# starts of the report notes that say the section's hypothesis fails, the
# starts of its other notes, which are printed but never fail the exit)
SECTION_VERDICTS = {
    "classify": ({"classification_consistency"}, (), ()),
    "betti": (set(), (), ()),
    "lefschetz": ({"lefschetz_isomorphism"},
                  ("not co-Kahler: Lefschetz", "model is not cosymplectic",
                   "not unimodular: no compact quotient, Lefschetz"),
                  ()),
    "verbitsky": ({"parallel_form_quism"}, ("eta not parallel",), ()),
    "split": ({"omega_splitting", "omega1_equals_basic",
               "cohomology_splitting"},
              ("not co-Kahler: splitting", "d(eta) = "), ()),
    "massey": ({"massey_formality_obstruction"}, (),
               ("nonvanishing triple Massey product",
                "not unimodular: no compact quotient, Massey")),
    "minimal": ({"minimal_model", "minimal_model_tensor_split"}, (),
                ("not co-Kahler: minimal-model",)),
    "mapping-torus": ({"mapping_torus_betti"}, (), ()),
}


def test_subcommands_exit_as_their_report_sections_say(capsys, tmp_path):
    nil5 = tmp_path / "nil5.model"
    nil5.write_text(NIL5)
    heis5 = tmp_path / "heis5.model"
    heis5.write_text(HEIS5)
    rxaff3 = tmp_path / "rxaff3.model"        # curved: Lefschetz is a note
    rxaff3.write_text(pinned_text("rxaff3"))
    seen_exits = set()
    for model in ("torus3", "torus5", "heisenberg", "t2-rot4-mapping-torus",
                  "t2-negid-mapping-torus", str(nil5), str(heis5),
                  str(rxaff3)):
        code, out, _ = run(capsys, "report", "--json", model)
        report = json.loads(out)
        assert code == (0 if report["ok"] else 1)
        for command, (checks, starts, others) in SECTION_VERDICTS.items():
            if "classification" not in report and \
                    command not in ("betti", "massey", "minimal",
                                    "mapping-torus"):
                continue            # needs (J, xi, eta): exit 2, tested above
            if command == "mapping-torus" and "mapping_torus" not in report:
                continue
            ok = all(r["ok"] for r in report["asserted"] if r["check"] in checks)
            hypothesis = [n for n in report["notes"] if n.startswith(starts)]
            notes = [n for n in report["notes"]
                     if n.startswith(starts + others)]
            if "classification" not in report and \
                    command in ("massey", "minimal"):
                # the report runs these two only on contact models
                key = "massey" if command == "massey" else "minimal_model"
                notes = run_section(resolve(model).to_lie_model(), key).notes
            for flags in ((), ("--informational",)):
                code, out, err = run(capsys, *flags, command, model)
                want = 0 if ok and (flags or not hypothesis) else 1
                assert code == want, (model, command, flags, err)
                printed = [line[len("note: "):] for line in out.splitlines()
                           if line.startswith("note: ")]
                assert printed == notes, (model, command)
                seen_exits.add(code)
    assert seen_exits == {0, 1}


# report section -> the subcommand that prints it alone; the operator
# identities and d_eta = L_xi have none, so their blocks hold only check and
# note lines
SECTION_COMMANDS = {
    "model": "betti", "classification": "classify",
    "operator_identities": None, "d_eta_equals_lie": None,
    "parallel_form_quism": "verbitsky", "splitting": "split",
    "lefschetz": "lefschetz", "massey": "massey",
    "minimal_model": "minimal", "mapping_torus": "mapping-torus",
}


def report_blocks(text: str):
    """A text report's lines before its first ``[<key>]`` header, each
    section's block (the lines under its header) and its last line."""
    lines = text.splitlines(keepends=True)
    head, blocks, key = [], {}, None
    for line in lines[:-1]:
        if line[1:-2] in SECTION_COMMANDS and line == f"[{line[1:-2]}]\n":
            key = line[1:-2]
            blocks[key] = ""
        elif key is None:
            head.append(line)
        else:
            blocks[key] += line
    return head, blocks, lines[-1]


def verdict_lines(sec) -> str:
    return "".join(f"check {r['check']}: {r['ok']}\n" for r in sec.asserted)


def model_arg(name: str, tmp_path) -> str:
    """A corpus name, or the path of a pinned model's file."""
    text = pinned_text(name) if name in PINNED else None
    if text is None:
        return name
    path = tmp_path / f"{name}.model"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("name", sorted({*CORPUS_MODELS, *PINNED}))
def test_each_report_section_prints_as_its_subcommand(capsys, tmp_path,
                                                      name):
    # one text form per section: each [<key>] block of the text report is,
    # byte for byte, what the section's subcommand prints, and the blocks'
    # check lines are the JSON report's asserted verdicts, in order
    model = model_arg(name, tmp_path)
    code, out, err = run(capsys, "report", model)
    report = json.loads(run(capsys, "report", "--json", model)[1])
    assert (code, err) == (0 if report["ok"] else 1, "")
    m = resolve(model).to_lie_model()
    sections = report_sections(m, 3)
    head, blocks, last = report_blocks(out)
    assert head == [f"note: {note}\n" for note in report_notes(m)]
    assert last == f"ok: {report['ok']}\n"
    assert list(blocks) == [key for key, _ in sections]
    for key, sec in sections:
        command = SECTION_COMMANDS[key]
        if command is None:
            notes = sec.notes + ([sec.hypothesis] if sec.hypothesis else [])
            want = verdict_lines(sec) + "".join(f"note: {n}\n" for n in notes)
        else:
            want = run(capsys, "--informational", command, model)[1]
        assert blocks[key] == want, key
        assert verdict_lines(sec) in blocks[key], key
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    assert checks == [f"check {r['check']}: {r['ok']}"
                      for r in report["asserted"]]


@pytest.mark.parametrize("name", ["torus3", "heisenberg", "kx5",
                                  "t2-rot4-mapping-torus"])
def test_every_subcommand_prints_one_check_line_per_verdict(capsys, name):
    # also where the report does not run the section: massey and minimal
    # on a model without (J, xi, eta)
    m = resolve(name).to_lie_model()
    for command, key in ((c, k) for k, c in SECTION_COMMANDS.items() if c):
        try:
            sec = run_section(m, key)
        except StructureError:
            assert run(capsys, command, name)[0] == 2, command
            continue
        out = run(capsys, command, name)[1]
        printed = [line + "\n" for line in out.splitlines()
                   if line.startswith("check ")]
        assert "".join(printed) == verdict_lines(sec), (command, printed)
        assert len(printed) == len(sec.asserted)


def perfbench_checks():
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", PERFBENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


@pytest.mark.parametrize("name", ["torus3", "torus5", "heisenberg",
                                  "t2-rot4-mapping-torus",
                                  "t2-negid-mapping-torus"])
def test_the_lines_the_benchmark_parses_are_unchanged(capsys, name):
    # perfbench/checks.py reads the Betti line, the mapping-torus Betti
    # line, the Lefschetz degree lines and the coKahler line
    checks = perfbench_checks()
    report = json.loads(run(capsys, "report", "--json", name)[1])
    betti = tuple(report["model"]["betti"])
    out = run(capsys, "betti", name)[1]
    assert out == f"{name}: betti {betti}\n"
    assert checks.cli_betti(name, out, betti) == []
    if "mapping_torus" in report:
        torus = tuple(report["mapping_torus"]["betti"])
        out = run(capsys, "mapping-torus", name)[1]
        assert f"\nmapping torus betti:    {torus}\n" in out
        assert checks.cli_mapping_torus(name, out, torus) == []
        return
    co_kahler = report["classification"]["coKahler"]
    out = run(capsys, "classify", name)[1]
    assert f"coKahler: {co_kahler}" in out.splitlines()
    assert checks.cli_classify(name, out, co_kahler) == []
    out = run(capsys, "lefschetz", name)[1]
    assert [line for line in out.splitlines() if line.startswith("  p=")] == [
        f"  p={d['p']}: rank {d['rank']} of {d['source_dim']}->"
        f"{d['target_dim']}, iso: {d['isomorphism']}"
        for d in report["lefschetz"]["degrees"]]
    if co_kahler:
        n = int(name[-1])
        assert checks.cli_lefschetz_torus(name, out, n) == []


def test_canonicalize_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "canonicalize", "torus3")
    assert code == 0
    rewritten = tmp_path / "torus3.model"
    rewritten.write_text(out)
    code2, out2, _ = run(capsys, "canonicalize", str(rewritten))
    assert code2 == 0 and out2 == out


def _cokahler_entry_point():
    """The declared ``cokahler`` console script and whether it is installed.

    An installed distribution's metadata wins; from an uninstalled checkout
    the declaration is read from ``[project.scripts]`` in ``pyproject.toml``.
    """
    try:
        dist = importlib.metadata.distribution("cokahler")
    except importlib.metadata.PackageNotFoundError:
        dist = None
    if dist is not None:
        found = [ep for ep in dist.entry_points
                 if ep.group == "console_scripts" and ep.name == "cokahler"]
        assert len(found) == 1, "installed cokahler declares no script"
        return found[0], True
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "cokahler" in scripts, "pyproject.toml declares no cokahler script"
    return importlib.metadata.EntryPoint(
        name="cokahler", value=scripts["cokahler"],
        group="console_scripts"), False


def _assert_runs_like_a_script(command, cwd, env):
    done = subprocess.run([*command, "betti", "torus3"], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "torus3: betti (1, 3, 3, 1)\n"
    done = subprocess.run([*command, "classify", "definitely-not-a-model"],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2 and "error" in done.stderr


def test_cli_entry_point_is_installed(tmp_path):
    entry_point, installed = _cokahler_entry_point()
    assert entry_point.value == "cokahler.cli:main"
    assert entry_point.load() is main

    # The child imports the package under test, wherever pytest was started.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cokahler.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    # What an installer's wrapper script does: call the target with no
    # arguments, so it reads sys.argv, and exit with what it returns.
    wrapper = (f"import sys; from {entry_point.module} import "
               f"{entry_point.attr}; sys.exit({entry_point.attr}())")
    _assert_runs_like_a_script([sys.executable, "-c", wrapper], tmp_path, env)

    if installed:
        script = shutil.which("cokahler")
        assert script, "cokahler is installed but its script is not on PATH"
        _assert_runs_like_a_script([script], tmp_path, env)
