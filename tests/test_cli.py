"""CLI commands, exit codes, and byte-level determinism."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cokahler
from cokahler.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_torus(capsys):
    code, out, _ = run(capsys, "classify", "torus3")
    assert code == 0
    assert "coKahler: True" in out


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
    code, out, _ = run(capsys, "verbitsky", "torus5")
    assert code == 0 and "quasi-isomorphism: True" in out
    code, out, _ = run(capsys, "verbitsky", "heisenberg")
    assert code == 1
    assert "kernel witness: e1^e2" in out
    code, _, _ = run(capsys, "--informational", "verbitsky", "heisenberg")
    assert code == 0


def test_split_command(capsys):
    code, out, _ = run(capsys, "split", "torus3")
    assert code == 0
    assert "Omega_1 = basic complex: True" in out
    code, out, _ = run(capsys, "--informational", "split", "heisenberg")
    assert code == 0


def test_massey_command(capsys):
    code, out, _ = run(capsys, "massey", "heisenberg")
    assert code == 0
    assert "status: obstructed" in out
    code, out, _ = run(capsys, "massey", "torus3")
    assert "status: consistent-with-formal" in out


def test_minimal_command(capsys):
    code, out, _ = run(capsys, "minimal", "heisenberg", "--max-degree", "3")
    assert code == 0
    assert "minimal (decomposable differential): True" in out


def test_minimal_respects_env_default(capsys, monkeypatch):
    monkeypatch.setenv("COKAHLER_MAX_DEGREE", "2")
    code, out, _ = run(capsys, "minimal", "torus3")
    assert code == 0 and "p <= 2" in out


def test_mapping_torus_command(capsys):
    code, out, _ = run(capsys, "mapping-torus", "t2-rot4-mapping-torus")
    assert code == 0
    assert "(1, 1, 1, 1)" in out
    code, out, _ = run(capsys, "mapping-torus", "t2-negid-mapping-torus",
                       "--order", "2")
    assert code == 0 and "(1, 1, 1, 1)" in out


def test_mapping_torus_wrong_order(capsys):
    code, _, err = run(capsys, "mapping-torus", "t2-rot4-mapping-torus",
                       "--order", "3")
    assert code == 2 and "order" in err


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


def test_missing_model_is_an_input_error(capsys):
    code, _, err = run(capsys, "classify", "definitely-not-a-model")
    assert code == 2 and "error" in err


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
