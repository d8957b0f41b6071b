"""Command-line interface.

Models are files in the documented format or names of bundled corpus models
(torus3, torus5, heisenberg, t2-rot4-mapping-torus, t2-negid-mapping-torus).

Exit codes: 0 when every asserted verdict passes, 1 on a failed verdict or a
violated hypothesis (the latter suppressed by --informational), 2 on bad
input.  COKAHLER_MAX_DEGREE sets the default minimal-model degree cap.
"""

from __future__ import annotations

import argparse
import os
import sys

from .cohomology import kunneth_convolution
from .errors import ModelParseError, StructureError
from .eta import omega_splitting, verify_basic_match, verify_parallel_form_quism
from .geometry import classify
from .lefschetz import (mapping_torus_model, model_automorphism,
                        splitting_check, verify_lefschetz_iso)
from .massey import degree_one_massey_scan
from .minimal import minimal_model, model_tensor_split_check
from .modelfile import resolve, serialize
from .report import build_report, render_json, render_text

_OK, _FAIL, _ERROR = 0, 1, 2


def _default_cap() -> int:
    try:
        return max(1, int(os.environ.get("COKAHLER_MAX_DEGREE", "3")))
    except ValueError:
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cokahler",
        description="Exact verification of cosymplectic / co-Kahler "
                    "Lie-algebra models.")
    parser.add_argument("--informational", action="store_true",
                        help="do not fail the exit code on violated "
                             "hypotheses (failed asserted verdicts still fail)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **extra):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("model", help="model file path or corpus name")
        for flag, kwargs in extra.items():
            cmd.add_argument(flag, **kwargs)
        return cmd

    add("classify", "almost-contact / cosymplectic / normal / co-Kahler verdict")
    add("betti", "Betti numbers of the Chevalley-Eilenberg complex")
    add("lefschetz", "Lefschetz isomorphism report (co-Kahler hypothesis)")
    add("verbitsky", "quasi-isomorphism of ker(d_eta) (parallel-form "
                     "hypothesis)")
    add("split", "invariant-form and cohomology splitting checks")
    add("massey", "degree-1 triple Massey products (formality obstructions)")
    add("minimal", "bounded-degree Sullivan minimal model",
        **{"--max-degree": dict(type=int, default=None, metavar="N",
                                help="degree cap (default: "
                                     "$COKAHLER_MAX_DEGREE or 3)")})
    add("mapping-torus", "mapping-torus model from the automorphism block",
        **{"--order": dict(type=int, default=None, metavar="M",
                           help="expected automorphism order (default: from "
                                "the model file)")})
    report_cmd = add("report", "run every applicable check",
                     **{"--json": dict(action="store_true",
                                       help="machine-readable output"),
                        "--max-degree": dict(type=int, default=None,
                                             metavar="N")})
    report_cmd.add_argument("--all", action="store_true",
                            help="run all checks (the default; kept for "
                                 "scripting clarity)")
    canon = sub.add_parser("canonicalize",
                           help="print the canonical form of a model file")
    canon.add_argument("model")

    args = parser.parse_args(argv)
    try:
        mf = resolve(args.model)
    except (ModelParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _ERROR
    try:
        return _dispatch(args, mf)
    except (StructureError, ModelParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _ERROR


def _hypothesis_exit(args, message: str) -> int:
    print(f"note: {message}")
    return _OK if args.informational else _FAIL


def _dispatch(args, mf) -> int:
    if args.command == "canonicalize":
        sys.stdout.write(serialize(mf))
        return _OK
    if args.command == "betti":
        model = mf.to_lie_model()
        print(f"{model.name}: betti {_fmt(model.ce().cohomology().betti())}")
        return _OK
    if args.command == "mapping-torus":
        return _cmd_mapping_torus(args, mf)
    if args.command == "report":
        cap = args.max_degree if args.max_degree else _default_cap()
        report = build_report(mf, max_degree=cap)
        sys.stdout.write(render_json(report) if args.json
                         else render_text(report))
        return _OK if report["ok"] else _FAIL

    model = mf.to_lie_model()
    if args.command == "massey":
        return _cmd_massey(args, model)
    if args.command == "minimal":
        return _cmd_minimal(args, model)
    if not mf.has_contact_structure():
        print(f"error: {model.name} carries no (J, xi, eta) structure",
              file=sys.stderr)
        return _ERROR
    if args.command == "classify":
        return _cmd_classify(model)
    if args.command == "lefschetz":
        return _cmd_lefschetz(args, model)
    if args.command == "verbitsky":
        return _cmd_verbitsky(args, model)
    if args.command == "split":
        return _cmd_split(args, model)
    raise AssertionError(f"unhandled command {args.command}")


def _fmt(seq) -> str:
    return "(" + ", ".join(str(v) for v in seq) + ")"


def _cmd_classify(model) -> int:
    verdict = classify(model)
    for key in ("almost_contact", "cosymplectic", "normal", "coKahler",
                "killing_xi", "parallel_xi", "parallel_eta", "parallel_J",
                "unimodular"):
        print(f"{key}: {getattr(verdict, key)}")
    for name, witness in sorted(verdict.witnesses.items()):
        print(f"witness[{name}]: {witness}")
    return _OK


def _cmd_lefschetz(args, model) -> int:
    rep = verify_lefschetz_iso(model)
    print(f"n = {rep.n}; co-Kahler hypothesis: {rep.hypothesis_cokahler}")
    if rep.note:
        return _hypothesis_exit(args, rep.note)
    for d in rep.degrees:
        print(f"  p={d.degree}: rank {d.rank} "
              f"of {d.source_dim}->{d.target_dim}, iso: {d.isomorphism}")
        for w in d.kernel_witnesses:
            print(f"    kernel witness: {w}")
    print(f"top class omega^n ^ eta nonzero: {rep.top_class_nonzero}")
    if not rep.hypothesis_cokahler:
        return _hypothesis_exit(args, "model is not co-Kahler; ranks are "
                                      "informational")
    return _OK if rep.ok else _FAIL


def _cmd_verbitsky(args, model) -> int:
    rep = verify_parallel_form_quism(model)
    print(f"eta parallel: {rep.eta_parallel}")
    print(f"ker(d_eta) betti: {_fmt(rep.sub_betti)}; "
          f"full betti: {_fmt(rep.full_betti)}")
    print(f"degreewise isomorphism: {rep.degreewise_iso}")
    for p, witnesses in sorted(rep.kernel_witnesses.items()):
        for w in witnesses:
            print(f"  H^{p} kernel witness: {w}")
    print(f"quasi-isomorphism: {rep.conclusion}")
    if not rep.eta_parallel:
        return _hypothesis_exit(args, "eta is not parallel; the verdict is "
                                      "informational")
    return _OK if rep.conclusion else _FAIL


def _cmd_split(args, model) -> int:
    verdict = classify(model)
    split = omega_splitting(model)
    basic = verify_basic_match(model)
    coh = splitting_check(model)
    top = model.ce().top
    print(f"Omega_eta dims: {_fmt([split.omega_eta.dim(p) for p in range(top + 1)])}")
    print(f"Omega_1   dims: {_fmt([split.omega1.dim(p) for p in range(top + 1)])}")
    print(f"Omega_2   dims: {_fmt([split.omega2.dim(p) for p in range(top + 1)])}")
    print(f"direct sum (p>0): {all(split.direct_sum)}")
    print(f"Omega_2 = eta ^ Omega_1: {all(split.eta_wedge_match)}")
    print(f"Omega_1 = basic complex: {basic.equal}")
    print(f"H_eta betti: {_fmt(coh.dims_eta)}; H_1 betti: {_fmt(coh.dims_basic)}")
    print(f"H^p_eta = H^p_1 + [eta]^H^(p-1)_1: {coh.ok}")
    ok = split.ok and basic.equal and coh.ok
    if not verdict.coKahler:
        return _hypothesis_exit(args, "model is not co-Kahler; splitting "
                                      "reported informationally")
    return _OK if ok else _FAIL


def _cmd_massey(args, model) -> int:
    scan = degree_one_massey_scan(model.ce().cohomology())
    print(f"degree-1 triple products defined: {len(scan.triples)}")
    for (i, j, k), t in scan.triples:
        value = model.ce().element(t.value_degree, t.value_cochain)
        print(f"  <h{i + 1}, h{j + 1}, h{k + 1}>: value {value!r}, "
              f"indeterminacy dim {t.indeterminacy_dim}, vanishes: {t.vanishes}")
    print(f"status: {scan.status}")
    return _OK


def _cmd_minimal(args, model) -> int:
    cap = args.max_degree if args.max_degree else _default_cap()
    mm = minimal_model(model.ce(), cap)
    counts = mm.generator_counts()
    print(f"generators by degree: "
          f"{ {k: counts[k] for k in sorted(counts)} }")
    print(f"minimal (decomposable differential): {mm.minimal}")
    print(f"H^p isomorphism for p <= {cap}: {mm.iso_degrees}")
    print(f"injective in degree {cap + 1}: {mm.injective_above}")
    ok = mm.minimal and mm.quasi_iso
    if model.xi is not None and model.eta is not None and model.J is not None \
            and classify(model).coKahler:
        tensor = model_tensor_split_check(model, cap)
        print(f"tensor split (counts and Betti): {tensor.ok}")
        ok = ok and tensor.ok
    return _OK if ok else _FAIL


def _cmd_mapping_torus(args, mf) -> int:
    model = mf.to_lie_model()
    if model.automorphism is None:
        print(f"error: {model.name} has no automorphism block",
              file=sys.stderr)
        return _ERROR
    phi, file_order = model_automorphism(model)
    order = args.order if args.order is not None else file_order
    torus = mapping_torus_model(model.ce(), phi, order)
    convolved = kunneth_convolution(torus.fiber_fixed_betti, (1, 1))
    print(f"automorphism order: {order}")
    print(f"fixed subcomplex betti: {_fmt(torus.fiber_fixed_betti)}")
    print(f"mapping torus betti:    {_fmt(torus.betti)}")
    print(f"fixed betti * (1,1) == mapping torus betti: "
          f"{convolved == torus.betti}")
    return _OK if convolved == torus.betti else _FAIL


if __name__ == "__main__":
    sys.exit(main())
