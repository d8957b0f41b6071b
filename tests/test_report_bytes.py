"""Report bytes against the benchmark's reference SHA-256s.

``perfbench/reference_sha256.json`` holds the SHA-256 of the
``report --all --json`` bytes of every model the benchmark runs.  A change
to the exact core must leave those bytes as they are, so a mismatch here
fails the suite instead of only printing in a benchmark run.  The file is
read, never written; ``perfbench/make_reference.py`` regenerates it.
``PINNED`` holds the SHA-256s of models the benchmark does not run, or
runs only on some seeds; their texts come from ``perfbench/models.py`` too,
or from a corpus model with its identity metric or its brackets replaced.
"""

import hashlib
import importlib.util
import json
import re
from functools import cache
from pathlib import Path

import pytest

from cokahler import build_report, load_corpus, loads, render_json
from cokahler.eta import build_d_eta, invariant_forms, kernel_subcomplex
from cokahler.modelfile import CORPUS_MODELS, corpus_path
from cokahler.report import _plain, run_section

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LABELS = ("torus3", "torus5", "heisenberg", "t2-rot4-mapping-torus",
          "t2-negid-mapping-torus", "rot5-1-2", "h3xR2", "torus7",
          "rot7-1-1-3")
# kx5 and kx7 have d != 0 on Omega_1; nil5 is not cosymplectic; torus9 is
# the frontier dimension; rot5-1-1-g and heisenberg-g carry a metric other
# than the identity; operator identities dominate rot9-1-2-3-4's report;
# rot9-1-1-1-1 runs the most kill-round solves and comparison-map products;
# heisenberg-q and kx5-q scale a corpus model's brackets to 2/3, so integer
# and fractional coefficients meet in every section (kx5-q is co-Kahler)
PINNED = {
    "kx5": "1b975619702f84da28ffd00ee0488cc0bc9eead37276a6c2436cb40a0807e594",
    "nil5": "ef26474476ead2ed550effb2f87e247a1ea5a6443de60114052e329ef9e36fc1",
    "rot7-1-1-1":
        "3fb5b839f3da0f29951078dc4a795283d1050534e800b3f69e4b23cc160c4dd5",
    "kx7": "33fd930dbb0c59fd176fb0c3229ddfeacd1730335fbaf1cc9f926666a1db4e12",
    "torus9": "d38f718215c13a7cf140e02bfa5db99b4e4e12d5c5915ba2354fe5fa0e86b402",
    "rot5-1-1-g":
        "6253e82b5b6b9f379fbdd65c8fa6a61a3073b7fe30adaf6534a5a580a0eab27d",
    "heisenberg-g":
        "7a903d54df8ce741bb487d6ceae93144b2be182a028fa5bf5bd0a13e3febd123",
    "rot9-1-2-3-4":
        "eba4e91b62f21a414808d2a8a0cd53ccc98e9a9a69a456ed42c4f3d7bc7f51f5",
    "rot9-1-1-1-1":
        "8979be19f36e8cf6ac2cfe0f520d1dc33994c96ef71741e99934f077c6a873e3",
    "heisenberg-q":
        "c06f574ef0cd52c734e56510cd9b80a1a8ed5e1ad97030b7d2db98e0e5bd9b3e",
    "kx5-q":
        "740f4a29d42f340f5209863c6dfea7739bd0ddf6ef752f43b24ab0870971e3cd",
}
# a J-invariant metric on rot5-1-1: X2 pairs with X4 and X3 with X5
ROT5_METRIC = "1 0 0 0 0\n0 2 0 1 0\n0 0 2 0 1\n0 1 0 2 0\n0 0 1 0 2"


@cache
def perfbench_models():
    spec = importlib.util.spec_from_file_location(
        "perfbench_models", PERFBENCH / "models.py")
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    return models


def model_texts() -> dict:
    """The benchmark's model texts, by label (None for a corpus model)."""
    return perfbench_models().report_models()


def rescaled(name: str, brackets: str, scaled: str) -> str:
    """A corpus model renamed ``name``-q, its bracket lines replaced."""
    text = corpus_path(name).read_text()
    assert brackets in text
    return text.replace(f"name: {name}\n", f"name: {name}-q\n").replace(
        brackets, scaled)


def pinned_text(name: str) -> str | None:
    """The text of a pinned model (None for a corpus model)."""
    models = perfbench_models()
    return {
        "kx5": None,
        "nil5": models.nil5_text(),
        "rot7-1-1-1": models.rot_text((1, 1, 1)),
        "rot9-1-2-3-4": models.rot_text((1, 2, 3, 4)),
        "rot9-1-1-1-1": models.rot_text((1, 1, 1, 1)),
        "kx7": models.model_text("kx7", 7, [(2, 4, 5, 1), (2, 5, 4, -1),
                                            (2, 6, 7, 2), (2, 7, 6, -2)]),
        "torus9": models.model_text("torus9", 9),
        "rot5-1-1-g": models.model_text(
            "rot5-1-1-g", 5, models.rotation_brackets([1, 1])).replace(
                "identity", ROT5_METRIC),
        "heisenberg-g": corpus_path("heisenberg").read_text().replace(
            "identity", "1 0 0\n0 2 0\n0 0 2"),
        "heisenberg-q": rescaled("heisenberg", "1 2 3 1\n", "1 2 3 2/3\n"),
        "kx5-q": rescaled("kx5", "2 4 5 1\n2 5 4 -1\n",
                          "2 4 5 2/3\n2 5 4 -2/3\n"),
    }[name]


@pytest.mark.parametrize("label", LABELS)
def test_report_bytes_match_the_reference(label):
    reference = json.loads((PERFBENCH / "reference_sha256.json").read_text())
    text = model_texts()[label]
    mf = load_corpus(label) if text is None else loads(text)
    data = render_json(build_report(mf)).encode()
    assert hashlib.sha256(data).hexdigest() == reference[label]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_bytes_match_the_pinned_hash(name):
    text = pinned_text(name)
    mf = load_corpus(name) if text is None else loads(text)
    data = render_json(build_report(mf)).encode()
    assert hashlib.sha256(data).hexdigest() == PINNED[name]


# rot5-1-1-g with eta = e1 + e2, off the metric dual e1 of xi: not almost
# contact, so the classification and the Lefschetz section only state that
# as their note.  The SHA-256 covers the other sections' records and notes;
# it was taken before rho_eta and iota_xi could be one shared operator.
ETA_OFF_DUAL_SECTIONS = ("model", "operator_identities", "d_eta_equals_lie",
                         "parallel_form_quism", "splitting", "massey",
                         "minimal_model")
ETA_OFF_DUAL = \
    "b83b3dd13c18b74b765bd417b518f77654999215ecf3dddc1550d6dbc41412e8"


def test_operators_stay_apart_when_eta_is_not_the_dual_of_xi():
    text = pinned_text("rot5-1-1-g").replace(
        "name: rot5-1-1-g\n", "name: rot5-1-1-g-eta\n").replace(
            "[eta]\ne1\n", "[eta]\n1 1 0 0 0\n")
    m = loads(text).to_lie_model()
    op = build_d_eta(m)
    assert op.rho is not m.iota_xi() and op.d_eta is not m.lie_xi()
    assert kernel_subcomplex(m.ce(), op.d_eta) is not invariant_forms(m)
    data = json.dumps(_plain({key: vars(run_section(m, key))
                              for key in ETA_OFF_DUAL_SECTIONS}),
                      sort_keys=True, indent=2).encode()
    assert hashlib.sha256(data).hexdigest() == ETA_OFF_DUAL


def decimals(value) -> list:
    """Every float in a report, and every string holding a decimal point
    between digits (a float printed into a witness or a cochain)."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in decimals(v)]
    if isinstance(value, list):
        return [x for v in value for x in decimals(v)]
    if isinstance(value, float) or (isinstance(value, str)
                                    and re.search(r"\d\.\d", value)):
        return [value]
    return []


@pytest.mark.parametrize("name", CORPUS_MODELS + ("heisenberg-q",))
def test_reports_hold_no_float(name):
    text = pinned_text(name) if name in PINNED else None
    report = build_report(load_corpus(name) if text is None else loads(text))
    assert decimals(report) == []
