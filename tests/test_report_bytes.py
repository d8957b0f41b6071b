"""Report bytes against the benchmark's reference SHA-256s.

``perfbench/reference_sha256.json`` holds the SHA-256 of the
``report --all --json`` bytes of every model the benchmark runs.  A change
to the exact core must leave those bytes as they are, so a mismatch here
fails the suite instead of only printing in a benchmark run.  The file is
read, never written; ``perfbench/make_reference.py`` regenerates it.
``PINNED`` holds the SHA-256s of models the benchmark does not run, or
runs only on some seeds; their texts come from ``perfbench/models.py`` too,
or from a corpus model with its identity metric or its brackets replaced.
It also holds the benchmark models whose bytes changed by design after the
reference file was last regenerated: every model with a contact structure,
since the Cartan and iota^2 invariants name xi.  They move back to
``LABELS`` when the reference file is regenerated.
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
LABELS = ("t2-rot4-mapping-torus", "t2-negid-mapping-torus")
# torus3, torus5, heisenberg, rot5-1-2, h3xR2, torus7 and rot7-1-1-3 are
# benchmark models with a stale reference entry (see above); kx5 and kx7
# have d != 0 on Omega_1; nil5 is not cosymplectic; torus9 is the frontier
# dimension; rot5-1-1-g and heisenberg-g carry a metric other than the
# identity; operator identities dominated rot9-1-2-3-4's report;
# rot9-1-1-1-1 runs the most kill-round solves and comparison-map products;
# heisenberg-q and kx5-q scale a corpus model's brackets to 2/3, so integer
# and fractional coefficients meet in every section (kx5-q is co-Kahler)
PINNED = {
    "torus3":
        "d6582709674beb79eab8785b84d044ecd5a35b8e5c87b21eb6768fd153cac2cf",
    "torus5":
        "7f493ac1fb5c575ec3082a83470f2715444d00eea7f925485bb9b9906b140210",
    "heisenberg":
        "0f7d7e2eada867c43dba384fcb04817a5ad4f2f0c8aaa3f006a59222d1dc769e",
    "rot5-1-2":
        "2aae1933c6cf5e57093e8af7d1ead59d4adc2bc80600bba09f3b25dd9ac0dca9",
    "h3xR2": "09f01f14ea65ff5d1a0540d125b4debd07b9909b445a16007d0edde3cf0b2253",
    "torus7": "5ff611b55e0872573f9476854bfa77374e60a2175ef5f49b8e84c4c1e6842b62",
    "rot7-1-1-3":
        "feeec6acdf6fc13cfffba23740a8a71f67ebd28b60ba92f2a4e82da8bca20c8e",
    "kx5": "9b513a6bbf60c01367bd896b3013fb7afb3a26b4b384052ce01e78a8af1ce028",
    "nil5": "f01f5ac66bf1bede13649f824940b8c9e0f3256b78a2eb04ef42193d9c4eb14d",
    "rot7-1-1-1":
        "2423828b9427473b72759bc7bd0dfc592c49daa734c6e1bc3d677a8f1270471c",
    "kx7": "ba30ba587636de48b4280849b478966b7dae149703b26aa3cd905a50fa8915c8",
    "torus9": "038bdf571c3cbbd82495841cba1a8e3237b274cb60f9d10aa9cca5987f720292",
    "rot5-1-1-g":
        "9748a013b8ca7a110ad4457bc9e7275bdb309a86e1d6eefd54e5edc31aed34c1",
    "heisenberg-g":
        "4ecc8e44eca917860cfb9d7e9d4187b66dc1f0ebffb24b7b3885a000c5b4357b",
    "rot9-1-2-3-4":
        "8cb92071af14433aac27b4d9a0b967f5cd1483cad6667b64d1caad82fc735f8a",
    "rot9-1-1-1-1":
        "32de280f2c2a8be6dfb6b81a84d359bc7ad52de86bc32eb7a43b0cb3d052b600",
    "heisenberg-q":
        "0c9cb3ed87cf0074776b33df44caeae874843a54f4f84392b8949a3f84e9a2a6",
    "kx5-q":
        "5d19eb13448ac9088d3f04692a982f00bb05ff987c4767b7d0479945b811af63",
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
    if name in model_texts():
        return model_texts()[name]
    models = perfbench_models()
    return {
        "kx5": None,
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
# it was first taken before rho_eta and iota_xi could be one shared
# operator, and retaken only when the Cartan and iota^2 invariants came to
# name xi.
ETA_OFF_DUAL_SECTIONS = ("model", "operator_identities", "d_eta_equals_lie",
                         "parallel_form_quism", "splitting", "massey",
                         "minimal_model")
ETA_OFF_DUAL = \
    "b482f6ddb58875de6c910247840f91f96dc76718c3a4823348a3af01b76e02a6"


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
