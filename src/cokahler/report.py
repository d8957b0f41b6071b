"""Verification reports: one record per theorem-level check per model.

Each check is one section function.  It returns the section's record, the
verdicts it asserts, its other notes, and the note that the model violates
the section's own hypothesis (Lefschetz, quasi-isomorphism, splitting).
``build_report`` runs every section that applies to a model file and
returns a JSON-safe dict (Fractions as strings, tuples as lists, keys
stable): binding verdicts land in ``asserted``, everything else in
``notes``.  The CLI prints one section through ``run_section``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import linalg
from .cdga import supercommutes_with_d
from .cohomology import kunneth_convolution
from .errors import StructureError
from .eta import (basic_complex, build_d_eta, model_tensor_split_check,
                  omega_splitting, splitting_obstruction, verify_basic_match,
                  verify_d_eta_equals_lie, verify_parallel_form_quism)
from .exterior import Element
from .geometry import LieModel, classify, validate_almost_contact
from .lefschetz import (mapping_torus_model, model_automorphism,
                        splitting_check, verify_lefschetz_iso)
from .massey import degree_one_massey_scan
from .minimal import minimal_model
from .modelfile import ModelFile
from .record import Fresh, Record


def _plain(value):
    """Recursively convert to JSON-safe data with deterministic ordering."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Element):
        return repr(value)
    if isinstance(value, dict):
        # construction order is deterministic; keep it for the text rendering
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class Section(Record):
    """One report section.  ``record`` is None when the section does not
    apply; ``hypothesis`` is the note saying that the model violates the
    section's own hypothesis, None when it holds."""
    record: dict | None
    asserted: list[dict] = Fresh(list)
    notes: list[str] = Fresh(list)
    hypothesis: str | None = None

    def check(self, name: str, ok: bool, invariant: str) -> None:
        """Record a binding verdict tied to the invariant it checks."""
        self.asserted.append({"check": name, "ok": bool(ok),
                              "invariant": invariant})


# Report sections in report order, each with the structure it needs.  The
# section function of key k is ``_k_section``, looked up when it runs.
SECTIONS = {
    "model": None,
    "classification": "contact",
    "operator_identities": "contact",
    "d_eta_equals_lie": "contact",
    "parallel_form_quism": "contact",
    "splitting": "contact",
    "lefschetz": "contact",
    "massey": None,
    "minimal_model": None,
    "mapping_torus": "automorphism",
}
# the CLI runs these on any model, the report only with a contact structure
_REPORT_NEEDS_CONTACT = ("massey", "minimal_model")


def _has_contact(model: LieModel) -> bool:
    return None not in (model.xi, model.eta, model.J)


def _missing(model: LieModel, needs: str | None) -> str | None:
    """What the model lacks of the structure ``needs``, or None."""
    if needs == "contact" and not _has_contact(model):
        return f"{model.name} carries no (J, xi, eta) structure"
    if needs == "automorphism" and model.automorphism is None:
        return f"{model.name} has no automorphism block"
    return None


def _section(key: str, model: LieModel, cap: int,
             order: int | None) -> Section:
    if key in ("classification", "lefschetz"):     # read the classification
        ac = validate_almost_contact(model)
        if not ac:
            return Section(None,
                           hypothesis=f"not almost contact: {ac.witnesses}")
    return globals()[f"_{key}_section"](model, cap, order)


def run_section(model: LieModel, key: str, max_degree: int = 3,
                order: int | None = None) -> Section:
    """One section on one model; ``order`` replaces the order of the
    model's automorphism block.  Raises StructureError when the model lacks
    the structure the section needs."""
    missing = _missing(model, SECTIONS[key])
    if missing:
        raise StructureError(missing)
    return _section(key, model, max_degree, order)


def build_report(mf: ModelFile, max_degree: int = 3) -> dict:
    model = mf.to_lie_model()
    report: dict = {}
    asserted: list[dict] = []
    notes: list[str] = []
    if not _has_contact(model):
        notes.append("no contact structure (J, xi, eta): geometric checks "
                     "skipped")
    for key, needs in SECTIONS.items():
        if _missing(model, "contact" if key in _REPORT_NEEDS_CONTACT
                    else needs):
            continue
        sec = _section(key, model, max_degree, None)
        if sec.record is not None:
            report[key] = sec.record
        asserted += sec.asserted
        notes += sec.notes + ([sec.hypothesis] if sec.hypothesis else [])
    report["asserted"] = asserted
    report["notes"] = notes
    report["ok"] = all(r["ok"] for r in asserted)
    return _plain(report)


def _co_kahler(model: LieModel) -> bool:
    return _has_contact(model) and validate_almost_contact(model).ok \
        and classify(model).coKahler


def _model_section(model: LieModel, cap, order) -> Section:
    return Section({
        "name": model.name,
        "dimension": model.dimension,
        "betti": list(model.ce().cohomology().betti()),
        "unimodular": model.is_unimodular(),
    })


def _classification_section(model: LieModel, cap, order) -> Section:
    verdict = classify(model)
    sec = Section({**vars(verdict),
                   "witnesses": dict(sorted(verdict.witnesses.items()))})
    sec.check("classification_consistency",
              verdict.coKahler == (verdict.cosymplectic and verdict.normal)
              == verdict.parallel_J,
              "co-Kahler iff cosymplectic and normal iff parallel J")
    return sec


def _operator_identities_section(model: LieModel, cap, order) -> Section:
    return operator_identity_report(model)


def operator_identity_report(m: LieModel) -> Section:
    """The derivation identities along xi, each a Leibniz verdict plus a
    check on generators, with no pass over the basis.  Cartan's {d, iota_xi}
    = L_xi holds when d, iota_xi and L_xi pass Leibniz and L_xi agrees with
    the coadjoint derivative on generators; iota_xi^2 = {iota_xi, iota_xi}/2
    is a degree -2 derivation, zero on generators, so iota_xi's verdict
    decides it.  Along other X they hold on every Lie algebra, so they test
    the construction, and tests/test_generated_models.py checks them."""
    dga = m.ce()
    d, iota, lie, op = dga.d, m.iota_xi(), m.lie_xi(), build_d_eta(m)
    leibniz = {der: der.leibniz_failure is None
               for der in (d, iota, lie, op.d_eta, op.rho)}
    coadjoint = m.lie_coadjoint(m.xi)
    out: dict = {
        "iota_squared_zero": leibniz[iota],
        "cartan_formula": leibniz[d] and leibniz[iota] and leibniz[lie]
        and all(lie(x) == coadjoint(x) for x in m.algebra().gens()),
        "d_squared_zero": supercommutes_with_d(dga, d),
        "leibniz_d": leibniz[d],
        "leibniz_operators": all(leibniz[der] for der
                                 in (iota, lie, op.d_eta, op.rho)),
        "d_eta_supercommutes_with_d": supercommutes_with_d(dga, op.d_eta)}
    sec = Section(out)
    for key, invariant in (
            ("iota_squared_zero", "iota_xi composed with itself vanishes"),
            ("cartan_formula",
             "{d, iota_xi} equals the coadjoint Lie derivative along xi"),
            ("d_squared_zero", "d is a differential"),
            ("leibniz_d", "d satisfies the graded Leibniz rule"),
            ("leibniz_operators", "iota, L and d_eta satisfy Leibniz"),
            ("d_eta_supercommutes_with_d", "{d, d_eta} = 0")):
        sec.check(key, out[key], invariant)
    return sec


def _d_eta_equals_lie_section(model: LieModel, cap, order) -> Section:
    if model.flat(model.xi) != model.eta:
        return Section(None, notes=["eta is not the metric dual of xi: "
                                    "d_eta = L_xi not applicable"])
    equal = verify_d_eta_equals_lie(model)
    sec = Section({"equal": equal,
                   "degreewise": [equal] * (model.ce().top + 1),
                   "degree0": equal, "degree1": equal})
    sec.check("d_eta_equals_lie", equal,
              "d_eta = L_xi whenever eta is the metric dual of xi")
    return sec


def _parallel_form_quism_section(model: LieModel, cap, order) -> Section:
    quism = verify_parallel_form_quism(model)
    sec = Section({
        "eta_parallel": quism.eta_parallel,
        "degreewise_iso": quism.degreewise_iso,
        "ranks": quism.ranks,
        "betti_kernel": list(quism.sub_betti),
        "betti_full": list(quism.full_betti),
        "quasi_isomorphism": quism.conclusion,
        "kernel_witnesses": quism.kernel_witnesses,
    })
    if quism.eta_parallel:
        sec.check("parallel_form_quism", quism.conclusion,
                  "ker(d_eta) includes quasi-isomorphically when eta is "
                  "parallel")
    else:
        sec.hypothesis = ("eta not parallel: quasi-isomorphism of ker(d_eta) "
                          "reported without a verdict "
                          f"(holds: {quism.conclusion})")
    return sec


def _splitting_section(model: LieModel, cap, order) -> Section:
    obstruction = splitting_obstruction(model)
    if obstruction:
        return Section(None, hypothesis=obstruction)
    split = omega_splitting(model)
    basic = verify_basic_match(model)
    coh_split = splitting_check(model)
    top = model.ce().top
    sec = Section({
        "omega_eta_dims": [split.omega_eta.dim(p) for p in range(top + 1)],
        "omega1_dims": [split.omega1.dim(p) for p in range(top + 1)],
        "omega2_dims": [split.omega2.dim(p) for p in range(top + 1)],
        "direct_sum": split.direct_sum,
        "eta_wedge_match": split.eta_wedge_match,
        "omega1_equals_basic": basic.per_degree,
        "betti_eta": list(coh_split.dims_eta),
        "betti_omega1": list(coh_split.dims_basic),
        "betti_basic": list(basic_complex(model).betti()),
        "cohomology_split": coh_split.per_degree_ok,
    })
    if _co_kahler(model):
        sec.check("omega_splitting", split.ok,
                  "Omega_eta = Omega_1 + eta^Omega_1 directly, p > 0")
        sec.check("omega1_equals_basic", basic.equal,
                  "the iota-kernel equals the basic complex of xi")
        sec.check("cohomology_splitting", coh_split.ok,
                  "H^p_eta = H^p_1 + [eta]^H^{p-1}_1")
    else:
        sec.hypothesis = ("not co-Kahler: splitting checks reported without "
                          "a verdict (splitting holds: "
                          f"{split.ok and coh_split.ok})")
    return sec


def _lefschetz_section(model: LieModel, cap, order) -> Section:
    lef = verify_lefschetz_iso(model)
    sec = Section({
        "n": lef.n,
        "hypothesis_cokahler": lef.hypothesis_cokahler,
        "top_class_nonzero": lef.top_class_nonzero,
        "degrees": [{
            "p": d.degree, "rank": d.rank, "source_dim": d.source_dim,
            "target_dim": d.target_dim, "isomorphism": d.isomorphism,
            "kernel_witnesses": d.kernel_witnesses,
            "component_split_ok": d.component_split_ok,
        } for d in lef.degrees],
    })
    if lef.hypothesis_cokahler:
        sec.check("lefschetz_isomorphism",
                  lef.all_iso and lef.top_class_nonzero,
                  "Lefschetz map is an isomorphism for 0 <= p <= n")
    else:
        sec.hypothesis = lef.note or ("not co-Kahler: Lefschetz ranks "
                                      "reported without a verdict "
                                      f"(all iso: {lef.all_iso})")
    return sec


def _massey_section(model: LieModel, cap, order) -> Section:
    ring = model.ce().cohomology()
    scan = degree_one_massey_scan(ring)
    triples = []
    for (i, j, k), t in scan.triples:
        triples.append({
            "classes": [i, j, k],
            "value_class": linalg.dense(t.value_class,
                                        ring.dim(t.value_degree)),
            "value_cochain": repr(model.ce().element(t.value_degree,
                                                     t.value_cochain)),
            "indeterminacy_dim": t.indeterminacy_dim,
            "vanishes": t.vanishes,
        })
    sec = Section({"status": scan.status, "degree_one_triples": triples})
    if _co_kahler(model):
        sec.check("massey_formality_obstruction", not scan.obstructed,
                  "degree-1 triple Massey products vanish on formal models")
    elif scan.obstructed:
        sec.notes.append("nonvanishing triple Massey product: the model is "
                         "not formal (no verdict asserted; model is not "
                         "co-Kahler)")
    return sec


def _minimal_model_section(model: LieModel, cap: int, order) -> Section:
    mm = minimal_model(model.ce(), cap)
    sec = Section({
        "max_degree": cap,
        "generator_counts": dict(sorted(mm.generator_counts().items())),
        "minimal": mm.minimal,
        "quasi_iso_degrees": mm.iso_degrees,
        "injective_above": mm.injective_above,
    })
    sec.check("minimal_model", mm.minimal and mm.quasi_iso,
              "the model is minimal and exact through the degree cap")
    if _co_kahler(model):
        tensor = model_tensor_split_check(model, cap)
        sec.record["tensor_split"] = {
            "counts_invariant": dict(sorted(tensor.counts_eta.items())),
            "counts_basic": dict(sorted(tensor.counts_basic.items())),
            "counts_match": tensor.counts_match,
            "betti_invariant_model": list(tensor.betti_eta),
            "betti_tensor_model": list(tensor.betti_tensor),
            "betti_match": tensor.betti_match,
            "cochain_split_ok": tensor.cochain_split_ok,
        }
        sec.check("minimal_model_tensor_split", tensor.ok,
                  "the invariant-forms model splits off a circle factor")
    else:
        sec.notes.append("not co-Kahler: minimal-model tensor splitting not "
                         "asserted")
    return sec


def _mapping_torus_section(model: LieModel, cap,
                           order: int | None) -> Section:
    phi, file_order = model_automorphism(model)
    order = file_order if order is None else order
    torus = mapping_torus_model(model.ce(), phi, order)
    convolved = kunneth_convolution(torus.fiber_fixed_betti, (1, 1))
    sec = Section({
        "order": order,
        "betti": list(torus.betti),
        "fixed_betti": list(torus.fiber_fixed_betti),
        "fixed_convolved": list(convolved),
        "circle_generator": torus.circle_generator,
    })
    sec.check("mapping_torus_betti", convolved == torus.betti,
              "mapping-torus Betti equals fixed Betti convolved with (1,1)")
    return sec


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: dict) -> str:
    lines: list[str] = []
    _render(report, lines, 0)
    return "\n".join(lines) + "\n"


def _render(value, lines: list[str], depth: int, label: str | None = None):
    pad = "  " * depth
    if isinstance(value, dict):
        if label is not None:
            lines.append(f"{pad}{label}:")
        for k in value:
            _render(value[k], lines, depth + (label is not None), k)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        lines.append(f"{pad}{label}:")
        for item in value:
            _render(item, lines, depth + 1, "-")
    else:
        if isinstance(value, list):
            value = "[" + ", ".join(str(v) for v in value) + "]"
        lines.append(f"{pad}{label}: {value}")
