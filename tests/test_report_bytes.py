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
since the Cartan and iota^2 invariants name xi and the records that
restated a verdict or another key went.  They move back to
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

from conjugation import conjugated, item15_basis, swap_basis

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
# vector, so ker iota_xi is not spanned by monomials; rot7-1-2-3-xi4 is
# rot7-1-2-3 with X1 and X4 exchanged, so xi = X4 and the rotated plane
# (X1, X5) has one vector on each side of it: within one row of Omega_1,
# moving e4 to the front of a monomial passes one or two of e1, e2, e3,
# so Omega_eta's e4-multiples carry both signs; rxaff3, rxaff5 and
# rxch2 are R x aff(R), R x aff(R)^2 and R x the solvable group of CH^2,
# the curved co-Kahler models: not unimodular, so no compact quotient, and
# their Lefschetz ranks carry a hypothesis note instead of a verdict, their
# Massey status a plain note
PINNED = {
    "torus3":
        "84fc609b926a2e819a666ab94fd5528b6a440881bbc70028da47872054978b2b",
    "torus5":
        "a90362666b9c52605b06a60c9bcd39d6d491f41dea14ebfef84d03dec0bcb903",
    "heisenberg":
        "79f5cace244b1fcbbc960d24b4a81f88ffa4d43be19841e0d103f20476863ac4",
    "rot5-1-2":
        "1874eebbee080bb9ea4e9aea78f11d6b70057f8c6fbd46df44d5c4c984f13cf6",
    "h3xR2": "0a586406739a7c5c341f9799afbd9803f083a9756f1a2e94caebd382e3ca0936",
    "torus7": "df01426239ee3b5f1e51ce19dd3af37e370e30ddb0d97a374735cffe9ba5c1b3",
    "rot7-1-1-3":
        "31033407d6196806810e04a4e777f6d5b44bd694e19575640189d25256fbf736",
    "kx5": "bc34f893e80909102683ffa654e1685f478e18df2b1d4da288b69447f820307f",
    "nil5": "be42cc0457a9e904fb62e377a9305ba70c3bb397250a33ea018780c2dd0bde64",
    "rot7-1-1-1":
        "890a5b92bf1a08ad395bdbe648f4933b4ef6826725f90b1f749846f039c43186",
    "kx7": "152d16508cd8f63e0b838d72d134c2eef82369b89fe60f0fed3d19babd62b8a1",
    "torus9": "2fb11d591c5d921012b5c5dcd8bfa8457c12118efbf2b43d19fb24cfbcb18331",
    "rot5-1-1-g":
        "e35a1d4f506815bc472e6f29952378786167290acccb79f2c3ca3d9a3c830713",
    "heisenberg-g":
        "607913a950c4e2e4239b15dd4e2771ec5e352f88a30a0f10415c78a7d6cbdacf",
    "rot9-1-2-3-4":
        "6abd496900ac84145a5e89d70a0407aadd7d2ffe86fb96467939cf8b356180cd",
    "rot9-1-1-1-1":
        "9cfca56efd9e343fbbf517edcaa69e5e355bc0840294bc49de26ff60ec554046",
    "heisenberg-q":
        "3121c9a43d7f0f689103f967b8fad265733f5c476486cb17f8e50e276b5b171b",
    "kx5-q":
        "4ef039dae699fdb27b4ca1edb85675923a2b6b3c91e45881104f9c1e6b234705",
    "kx5-eta":
        "aad12b9f49aa71f2b45afa33945cf639378ff490a69a42895a809f3066689c9d",
    "torus5-eta":
        "4eaf49d4614c9c179ce2ae6ee58b7c84c67bf4892063c5dd270a770153f338e2",
    "kx5-p":
        "b144431921d6f1298e1e9cc68a8a4abdd84aca4c8267536b0bbc9429f8d45006",
    "rxkt5":
        "a9431ac9b8123b9199dd3ed96a3600f43ee0df248038d232d89ce9d3a21f510f",
    "rot7-1-2-3-conj":
        "c09a518d24655cdf4c022e9ebb7e731eabfd8c2e797a5bff5bf4387039cab183",
    "rot7-1-2-3-xi4":
        "481cf418e2723f1d1e11795be55323eda506cabd26f55ddb38facde0ba1892d2",
    "rxaff3":
        "1d7f5efade56b65afcb79fbb52443621509318379d71ca9ddf62c50a34544ef0",
    "rxaff5":
        "4141f7b650e423e5c2add0d747c5db3ac5297dd73dc8930a7a1d9a37290c6743",
    "rxch2":
        "576a91de5ce131400d56c089a97038a79fb6a4f89739bfd93bf6c177cb70065b",
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
        "rot7-1-2-3-xi4": serialize(conjugated(
            loads(models.rot_text((1, 2, 3))), swap_basis(7, 1, 4))).replace(
                "name: rot7-1-2-3\n", "name: rot7-1-2-3-xi4\n"),
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
# operator, and retaken when the Cartan and iota^2 invariants came to name
# xi and when the records restating a verdict or another key went.
ETA_OFF_DUAL_SECTIONS = ("model", "operator_identities", "d_eta_equals_lie",
                         "parallel_form_quism", "splitting", "massey",
                         "minimal_model")
ETA_OFF_DUAL = \
    "d43eec25aa55acc497201a848af800f03631c769a77d5cd2a86fc0ac6ea5cc3c"


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


# the record keys of each report section, and of each Lefschetz degree.
# Each is computed and stated once: no key restates an asserted verdict,
# another key or a constant of the construction.  A section's own
# hypothesis (eta_parallel, hypothesis_cokahler, the classification's
# unimodular) stays, since a subcommand prints one section alone.  The
# operator identities and d_eta = L_xi write no record: their verdicts
# are their asserted checks.
RECORD_KEYS = {
    "model": {"name", "dimension", "betti", "unimodular"},
    "classification": {"cosymplectic", "normal", "coKahler", "killing_xi",
                       "parallel_xi", "parallel_eta", "parallel_J",
                       "unimodular", "witnesses"},
    "parallel_form_quism": {"eta_parallel", "degreewise_iso", "ranks",
                            "betti_kernel", "quasi_isomorphism",
                            "kernel_witnesses"},
    "splitting": {"omega_eta_dims", "omega1_dims", "betti_eta",
                  "betti_omega1", "cohomology_split"},
    "lefschetz": {"n", "hypothesis_cokahler", "top_class_nonzero",
                  "degrees"},
    "massey": {"status", "degree_one_triples"},
    "minimal_model": {"max_degree", "generator_counts", "minimal",
                      "quasi_iso_degrees", "injective_above"},
    "mapping_torus": {"order", "betti", "fixed_betti", "fixed_convolved",
                      "circle_generator"},
}
LEFSCHETZ_DEGREE_KEYS = {"p", "rank", "source_dim", "target_dim",
                         "isomorphism", "kernel_witnesses"}


@pytest.mark.parametrize("name", sorted({*PINNED, *LABELS}))
def test_reports_hold_only_the_pinned_record_keys(name):
    # a hash above that moved names no key; this test names the one that
    # moved
    text = model_texts()[name] if name in LABELS else pinned_text(name)
    mf = load_corpus(name) if text is None else loads(text)
    report = build_report(mf)
    sections = {k: v for k, v in report.items()
                if k not in ("asserted", "notes", "ok")}
    assert set(sections) <= set(RECORD_KEYS), set(sections) - set(RECORD_KEYS)
    for key, record in sections.items():
        assert set(record) == RECORD_KEYS[key], \
            (key, set(record) ^ RECORD_KEYS[key])
    for degree in report.get("lefschetz", {}).get("degrees", []):
        assert set(degree) == LEFSCHETZ_DEGREE_KEYS, \
            set(degree) ^ LEFSCHETZ_DEGREE_KEYS
    if "classification" in report:
        m = mf.to_lie_model()
        for key in ("operator_identities", "d_eta_equals_lie"):
            assert run_section(m, key).record is None, key


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
