"""Verification reports: one record per theorem-level check per model.

``build_report`` runs everything applicable to a model file and returns a
JSON-safe dict (Fractions as strings, tuples as lists, keys stable).
Binding verdicts land in ``asserted``; checks whose hypotheses the model
violates are reported informationally in ``notes`` instead.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cdga import check_d_squared, check_leibniz, supercommutes_with_d
from .cohomology import kunneth_convolution
from .eta import (basic_complex, build_d_eta, omega_splitting,
                  verify_basic_match, verify_d_eta_equals_lie,
                  verify_parallel_form_quism)
from .exterior import Element
from .geometry import LieModel, classify
from .lefschetz import (mapping_torus_model, model_automorphism,
                        splitting_check, verify_lefschetz_iso)
from .massey import degree_one_massey_scan
from .minimal import minimal_model, model_tensor_split_check
from .modelfile import ModelFile


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


class _Asserted:
    """Collects binding verdicts, each tied to the invariant it checks."""

    def __init__(self):
        self.records: list[dict] = []

    def add(self, check: str, ok: bool, invariant: str):
        self.records.append({"check": check, "ok": bool(ok),
                             "invariant": invariant})

    @property
    def all_ok(self) -> bool:
        return all(r["ok"] for r in self.records)


def operator_identity_report(m: LieModel, asserted: _Asserted) -> dict:
    """iota^2 = 0, Cartan via the coadjoint construction, Leibniz for the
    working derivations, and {d, d_eta} = 0, all as exact identities."""
    dga = m.ce()
    alg = m.algebra()
    out: dict = {}
    iota_sq = True
    cartan = True
    for i in range(m.dimension):
        basis_vec = [Fraction(int(t == i)) for t in range(m.dimension)]
        iota = m.iota(basis_vec)
        for p in range(alg.top + 1):
            for key in alg.basis(p):
                mono = Element(alg, p, {key: Fraction(1)})
                if not iota.apply(iota.apply(mono)).is_zero():
                    iota_sq = False
        lie = m.lie(basis_vec)
        coad = m.lie_coadjoint(basis_vec)
        for p in range(alg.top + 1):
            for key in alg.basis(p):
                mono = Element(alg, p, {key: Fraction(1)})
                if lie.apply(mono) != coad.apply(mono):
                    cartan = False
    out["iota_squared_zero"] = iota_sq
    out["cartan_formula"] = cartan
    out["d_squared_zero"] = check_d_squared(dga)
    out["leibniz_d"] = check_leibniz(dga.d)
    leibniz_ops = True
    super_ok = True
    if m.xi is not None:
        leibniz_ops &= check_leibniz(m.iota_xi())
        leibniz_ops &= check_leibniz(m.lie_xi())
    if m.eta is not None and m.xi is not None:
        op = build_d_eta(m)
        leibniz_ops &= check_leibniz(op.d_eta)
        leibniz_ops &= check_leibniz(op.rho)
        super_ok = supercommutes_with_d(dga, op.d_eta)
    out["leibniz_operators"] = leibniz_ops
    out["d_eta_supercommutes_with_d"] = super_ok
    for key, invariant in (
            ("iota_squared_zero", "iota_X composed with itself vanishes"),
            ("cartan_formula", "{d, iota_X} equals the coadjoint Lie derivative"),
            ("d_squared_zero", "d is a differential"),
            ("leibniz_d", "d satisfies the graded Leibniz rule"),
            ("leibniz_operators", "iota, L and d_eta satisfy Leibniz"),
            ("d_eta_supercommutes_with_d", "{d, d_eta} = 0")):
        asserted.add(key, out[key], invariant)
    return out


def build_report(mf: ModelFile, max_degree: int = 3) -> dict:
    model = mf.to_lie_model()
    asserted = _Asserted()
    notes: list[str] = []
    report: dict = {
        "model": {
            "name": model.name,
            "dimension": model.dimension,
            "betti": list(model.ce().cohomology().betti()),
            "unimodular": model.is_unimodular(),
        },
    }
    if mf.has_contact_structure():
        _contact_sections(model, report, asserted, notes, max_degree)
    else:
        notes.append("no contact structure (J, xi, eta): geometric checks "
                     "skipped")
    if mf.automorphism is not None:
        report["mapping_torus"] = _mapping_torus_section(model, asserted)
    report["asserted"] = asserted.records
    report["notes"] = notes
    report["ok"] = asserted.all_ok
    return _plain(report)


def _contact_sections(model: LieModel, report, asserted: _Asserted,
                      notes, max_degree: int):
    verdict = classify(model)
    report["classification"] = {
        "almost_contact": verdict.almost_contact,
        "cosymplectic": verdict.cosymplectic,
        "normal": verdict.normal,
        "coKahler": verdict.coKahler,
        "killing_xi": verdict.killing_xi,
        "parallel_xi": verdict.parallel_xi,
        "parallel_eta": verdict.parallel_eta,
        "parallel_J": verdict.parallel_J,
        "unimodular": verdict.unimodular,
        "witnesses": dict(sorted(verdict.witnesses.items())),
    }
    asserted.add("classification_consistency",
                 verdict.coKahler == (verdict.cosymplectic and verdict.normal)
                 == verdict.parallel_J,
                 "co-Kahler iff cosymplectic and normal iff parallel J")
    report["operator_identities"] = operator_identity_report(model, asserted)

    # d_eta versus the Lie derivative
    if model.flat(model.xi) == model.eta:
        comparison = verify_d_eta_equals_lie(model)
        report["d_eta_equals_lie"] = {
            "equal": comparison.equal, "degreewise": comparison.degreewise,
            "degree0": comparison.degree0, "degree1": comparison.degree1}
        asserted.add("d_eta_equals_lie", comparison.equal,
                     "d_eta = L_xi whenever eta is the metric dual of xi")
    else:
        notes.append("eta is not the metric dual of xi: d_eta = L_xi not "
                     "applicable")

    quism = verify_parallel_form_quism(model)
    report["parallel_form_quism"] = {
        "eta_parallel": quism.eta_parallel,
        "degreewise_iso": quism.degreewise_iso,
        "ranks": quism.ranks,
        "betti_kernel": list(quism.sub_betti),
        "betti_full": list(quism.full_betti),
        "quasi_isomorphism": quism.conclusion,
        "kernel_witnesses": {str(k): v for k, v in quism.kernel_witnesses.items()},
    }
    if quism.eta_parallel:
        asserted.add("parallel_form_quism", quism.conclusion,
                     "ker(d_eta) includes quasi-isomorphically when eta is "
                     "parallel")
    else:
        notes.append("eta not parallel: quasi-isomorphism of ker(d_eta) "
                     "reported without a verdict "
                     f"(holds: {quism.conclusion})")

    split = omega_splitting(model)
    basic = verify_basic_match(model)
    coh_split = splitting_check(model)
    report["splitting"] = {
        "omega_eta_dims": [split.omega_eta.dim(p)
                           for p in range(model.ce().top + 1)],
        "omega1_dims": [split.omega1.dim(p) for p in range(model.ce().top + 1)],
        "omega2_dims": [split.omega2.dim(p) for p in range(model.ce().top + 1)],
        "direct_sum": split.direct_sum,
        "eta_wedge_match": split.eta_wedge_match,
        "omega1_equals_basic": basic.per_degree,
        "betti_eta": list(coh_split.dims_eta),
        "betti_omega1": list(coh_split.dims_basic),
        "betti_basic": list(basic_complex(model).betti()),
        "cohomology_split": coh_split.per_degree_ok,
    }
    if verdict.coKahler:
        asserted.add("omega_splitting", split.ok,
                     "Omega_eta = Omega_1 + eta^Omega_1 directly, p > 0")
        asserted.add("omega1_equals_basic", basic.equal,
                     "the iota-kernel equals the basic complex of xi")
        asserted.add("cohomology_splitting", coh_split.ok,
                     "H^p_eta = H^p_1 + [eta]^H^{p-1}_1")
    else:
        notes.append("not co-Kahler: splitting checks reported without a "
                     f"verdict (splitting holds: {split.ok and coh_split.ok})")

    lef = verify_lefschetz_iso(model)
    report["lefschetz"] = {
        "n": lef.n,
        "hypothesis_cokahler": lef.hypothesis_cokahler,
        "top_class_nonzero": lef.top_class_nonzero,
        "degrees": [{
            "p": d.degree, "rank": d.rank, "source_dim": d.source_dim,
            "target_dim": d.target_dim, "isomorphism": d.isomorphism,
            "kernel_witnesses": d.kernel_witnesses,
            "component_split_ok": d.component_split_ok,
        } for d in lef.degrees],
    }
    if verdict.coKahler:
        asserted.add("lefschetz_isomorphism", lef.all_iso and
                     lef.top_class_nonzero,
                     "Lefschetz map is an isomorphism for 0 <= p <= n")
    elif lef.note:
        notes.append(lef.note)
    else:
        notes.append("not co-Kahler: Lefschetz ranks reported without a "
                     f"verdict (all iso: {lef.all_iso})")

    scan = degree_one_massey_scan(model.ce().cohomology())
    report["massey"] = _massey_section(model, scan)
    if verdict.coKahler:
        asserted.add("massey_formality_obstruction", not scan.obstructed,
                     "degree-1 triple Massey products vanish on formal models")
    elif scan.obstructed:
        notes.append("nonvanishing triple Massey product: the model is not "
                     "formal (no verdict asserted; model is not co-Kahler)")

    report["minimal_model"] = _minimal_section(model, verdict.coKahler,
                                               asserted, notes, max_degree)


def _massey_section(model: LieModel, scan) -> dict:
    triples = []
    for (i, j, k), t in scan.triples:
        triples.append({
            "classes": [i, j, k],
            "value_class": t.value_class,
            "value_cochain": repr(model.ce().element(t.value_degree,
                                                     t.value_cochain)),
            "indeterminacy_dim": t.indeterminacy_dim,
            "vanishes": t.vanishes,
        })
    return {"status": scan.status, "degree_one_triples": triples}


def _minimal_section(model: LieModel, co_kahler: bool, asserted: _Asserted,
                     notes, max_degree: int) -> dict:
    mm = minimal_model(model.ce(), max_degree)
    out = {
        "max_degree": max_degree,
        "generator_counts": {str(k): v for k, v in
                             sorted(mm.generator_counts().items())},
        "minimal": mm.minimal,
        "quasi_iso_degrees": mm.iso_degrees,
        "injective_above": mm.injective_above,
    }
    asserted.add("minimal_model", mm.minimal and mm.quasi_iso,
                 "the model is minimal and exact through the degree cap")
    if co_kahler:
        tensor = model_tensor_split_check(model, max_degree)
        out["tensor_split"] = {
            "counts_invariant": {str(k): v for k, v in
                                 sorted(tensor.counts_eta.items())},
            "counts_basic": {str(k): v for k, v in
                             sorted(tensor.counts_basic.items())},
            "counts_match": tensor.counts_match,
            "betti_invariant_model": list(tensor.betti_eta),
            "betti_tensor_model": list(tensor.betti_tensor),
            "betti_match": tensor.betti_match,
            "cochain_split_ok": tensor.cochain_split_ok,
        }
        asserted.add("minimal_model_tensor_split", tensor.ok,
                     "the invariant-forms model splits off a circle factor")
    else:
        notes.append("not co-Kahler: minimal-model tensor splitting not "
                     "asserted")
    return out


def _mapping_torus_section(model: LieModel, asserted: _Asserted) -> dict:
    phi, order = model_automorphism(model)
    torus = mapping_torus_model(model.ce(), phi, order)
    convolved = kunneth_convolution(torus.fiber_fixed_betti, (1, 1))
    asserted.add("mapping_torus_betti", convolved == torus.betti,
                 "mapping-torus Betti equals fixed Betti convolved with (1,1)")
    return {
        "order": order,
        "betti": list(torus.betti),
        "fixed_betti": list(torus.fiber_fixed_betti),
        "fixed_convolved": list(convolved),
        "circle_generator": torus.circle_generator,
    }


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
