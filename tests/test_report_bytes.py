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
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from cokahler import build_report, load_corpus, loads, render_json
from cokahler.eta import build_d_eta, invariant_forms, kernel_subcomplex
from cokahler.modelfile import CORPUS_MODELS, corpus_path, serialize
from cokahler.report import _plain, run_section

from conjugation import conjugated, item15_basis

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LABELS = ("t2-rot4-mapping-torus", "t2-negid-mapping-torus")
# torus3, torus5, heisenberg, rot5-1-2, h3xR2, torus7 and rot7-1-1-3 are
# benchmark models with a stale reference entry (see above); kx5 and kx7
# have d != 0 on Omega_1; nil5 is not cosymplectic; torus9 is the frontier
# dimension; rot5-1-1-g and heisenberg-g carry a metric other than the
# identity; operator identities dominated rot9-1-2-3-4's report;
# rot9-1-1-1-1 runs the most kill-round solves and comparison-map products;
# heisenberg-q and kx5-q scale a corpus model's brackets to 2/3, so integer
# and fractional coefficients meet in every section (kx5-q is co-Kahler);
# kx5-eta and torus5-eta take eta off e1 with eta(xi) = 1 and d(eta) = 0, so
# the splitting is computed with Omega_2 not spanned by monomials with e1;
# kx5-p is kx5 in the basis X2' = X1 + X2 (eta = e1 + e2, a metric other
# than the identity), the one co-Kahler model whose Lefschetz map wedges
# with an eta off e1; rxkt5 (R xi x Kodaira-Thurston) is the one unimodular model
# whose Lefschetz map is not an isomorphism; rot7-1-2-3-conj is rot7-1-2-3
# in the basis of ``conjugation.item15_basis``, where xi is not a basis
# vector, so ker iota_xi is not spanned by monomials; rxaff3, rxaff5 and
# rxch2 are R x aff(R), R x aff(R)^2 and R x the solvable group of CH^2,
# the curved co-Kahler models: not unimodular, so no compact quotient, and
# their Lefschetz ranks carry a hypothesis note instead of a verdict
PINNED = {
    "torus3":
        "0688d25eb40938cba4209d7d36e0e69d19c8259f6993d5b6ec131aca8ed33299",
    "torus5":
        "3c39f540f67650a9e35bff31b2579ad96d8fa5065c71bf3acf0925aabd20b235",
    "heisenberg":
        "dfc80911a222405bf430b5d650e11d5a7273b733a5c0801b281ee2bdfe8799a5",
    "rot5-1-2":
        "b8b5c74225a6817b0181db0b523fa7c49ffba7826cafc715c417ee41e89a437a",
    "h3xR2": "642b3f17809360bd3a0f1f04ac6bbb9ce1ed76388542fd816888c4d601a76381",
    "torus7": "e051a4df6ea99b32c77993547ec4208f2d94d1c497636904bfaff519780ac0c4",
    "rot7-1-1-3":
        "48f45d972ba19346ac5bb69012bb37459d7b55118fdf4bac7a2de39ea766a52b",
    "kx5": "e6ded23fdc16bc92202abe4122cb35065cf0e38156ce1cb0e37d374a47900ef2",
    "nil5": "3db3a28dfc62cbff40547783ffbaeab29582b2b8580f60c911dfb2706406c78c",
    "rot7-1-1-1":
        "587fd38e0f1f75078e52dd630c594311e6b258fec395702f7560f48fb402dc59",
    "kx7": "cb1b3038a50ac6e468b2d41fdc437edc2df26a58c5b6489f45446349dbdc59ad",
    "torus9": "83a7bee4d61fdce6474a62479bbed61a867a6cddff69f92243e7f3b8926f2ef1",
    "rot5-1-1-g":
        "0aee408222c23a0e79a03a870f0302d17512f3a13d7314d16876246d1743dfab",
    "heisenberg-g":
        "2d2024de470c320189aaf4e0d65d89ff718fcf0d6a89bb9daf1eb6cb73e44aa9",
    "rot9-1-2-3-4":
        "587f6fb88e1c9df23ae5826ce5eb7ec3402ab62e6215807e3cecd6a845ede8ad",
    "rot9-1-1-1-1":
        "6afb0cfaf6782822e8af0650c269a57fba0e3bc946576868f4eee93d2741d34d",
    "heisenberg-q":
        "f05ac04b3d46932ddad0b942239a7d4720b806af80d83c057e47f370afc9201b",
    "kx5-q":
        "08fac4f72340b49c41d0505cb31b9eea7d38185f3cc8916d19430b6786c0f3fc",
    "kx5-eta":
        "3850c0a8beac76128df68e3ed1adf13ad818c9371e23aa9a7d8da9af1b4ca393",
    "torus5-eta":
        "654434122e22a8547d7f4872ac6d588fdf148d9db26bb7276c2db582b99c1ff5",
    "kx5-p":
        "ea648caed42c8a4a5c2547a7e46676d2cde5c2c0cd70c4c26f631335123ea0b1",
    "rxkt5":
        "7e2c8affea1fe76480dc8dbb22c47ee7b4d5a7e1eb08aeff8857fbdf9e5cbdd6",
    "rot7-1-2-3-conj":
        "174a3d48092825512dcaef0989251fce6506ab69f831b39b2a631fc43d4abee3",
    "rxaff3":
        "ed7a1933c9ffd5f75bb2e5d1b9821fb1ed146877cff50464a5c9b8dc3b3ab157",
    "rxaff5":
        "97d4ae782d1e5cf6a452146388c614729c36ed697b0c586c6d7420011ef35129",
    "rxch2":
        "2d4d2df27983d50b421a15159a425e06f82f516acf7792a3d035ab818852818c",
}
# a J-invariant metric on rot5-1-1: X2 pairs with X4 and X3 with X5
ROT5_METRIC = "1 0 0 0 0\n0 2 0 1 0\n0 0 2 0 1\n0 1 0 2 0\n0 0 1 0 2"
# kx5-p's metric, eta and first row of J, which replace kx5's identity
# metric, e1 and zero row (xi = X1 and the other rows of J stay)
KX5_P_CONTACT = ("1 1 0 0 0\n1 2 0 0 0\n0 0 1 0 0\n0 0 0 1 0\n0 0 0 0 1\n"
                 "\n[xi]\nX1\n\n[eta]\n1 1 0 0 0\n\n[J]\n0 0 1 0 0\n")
# rxkt5's and rxch2's contact data: J pairs X2 with X5 and X3 with X4
RXKT5_CONTACT = ("\n[xi]\nX1\n\n[eta]\ne1\n\n[J]\n0 0 0 0 0\n0 0 0 0 -1\n"
                 "0 0 0 -1 0\n0 0 1 0 0\n0 1 0 0 0\n")


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


def variant(name: str, suffix: str, lines: str, replaced: str) -> str:
    """A corpus model renamed ``name``-``suffix``, some lines replaced."""
    text = corpus_path(name).read_text()
    assert lines in text
    return text.replace(f"name: {name}\n", f"name: {name}-{suffix}\n"
                        ).replace(lines, replaced)


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
        "heisenberg-q": variant("heisenberg", "q", "1 2 3 1\n",
                                "1 2 3 2/3\n"),
        "kx5-q": variant("kx5", "q", "2 4 5 1\n2 5 4 -1\n",
                         "2 4 5 2/3\n2 5 4 -2/3\n"),
        "kx5-eta": variant("kx5", "eta", "[eta]\ne1\n",
                           "[eta]\n1 0 1 0 0\n"),
        "torus5-eta": variant("torus5", "eta", "[eta]\ne1\n",
                              "[eta]\n1 1 0 0 0\n"),
        "kx5-p": variant("kx5", "p", "identity\n\n[xi]\nX1\n\n[eta]\ne1\n"
                         "\n[J]\n0 0 0 0 0\n", KX5_P_CONTACT),
        "rxkt5": models.model_text("rxkt5", 5, [(2, 3, 4, 1)],
                                   contact=False) + RXKT5_CONTACT,
        "rxaff3": models.model_text("rxaff3", 3, [(2, 3, 3, 1)]),
        "rxaff5": models.model_text("rxaff5", 5, [(2, 3, 3, 1),
                                                  (4, 5, 5, 1)]),
        "rxch2": models.model_text(
            "rxch2", 5, [(2, 3, 3, Fraction(1, 2)), (2, 4, 4, Fraction(1, 2)),
                         (2, 5, 5, 1), (3, 4, 5, 1)],
            contact=False) + RXKT5_CONTACT,
        "rot7-1-2-3-conj": serialize(conjugated(
            loads(models.rot_text((1, 2, 3))), item15_basis(7))).replace(
                "name: rot7-1-2-3\n", "name: rot7-1-2-3-conj\n"),
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
