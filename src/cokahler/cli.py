"""Command-line interface.

Models are files in the documented format or names of bundled corpus models
(torus3, torus5, heisenberg, kx5, t2-rot4-mapping-torus,
t2-negid-mapping-torus).

Each subcommand prints one report section and exits by that section's
verdicts: 0 when every asserted verdict passes, 1 on a failed verdict or a
violated hypothesis (the latter suppressed by --informational), 2 on bad
input or a model without the structure the section needs.  `report` runs
every section and exits by all of its asserted verdicts.
COKAHLER_MAX_DEGREE sets the default minimal-model degree cap.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import ModelParseError, StructureError
from .modelfile import resolve, serialize
from .report import build_report, render_json, render_text, run_section

_OK, _FAIL, _ERROR = 0, 1, 2


def _degree_cap(flag: str | None) -> int:
    """--max-degree, else $COKAHLER_MAX_DEGREE, else 3, as given; anything
    but an integer >= 1 is an input error."""
    source, text = ("--max-degree", flag) if flag is not None else \
        ("COKAHLER_MAX_DEGREE", os.environ.get("COKAHLER_MAX_DEGREE", "3"))
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {text!r}")
    return cap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call of
    ``main`` in the process (parsing leaves it unchanged)."""
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

    cap_flag = dict(default=None, metavar="N",
                    help="degree cap (default: $COKAHLER_MAX_DEGREE or 3)")
    add("classify", "almost-contact / cosymplectic / normal / co-Kahler verdict")
    add("betti", "Betti numbers of the Chevalley-Eilenberg complex")
    add("lefschetz", "Lefschetz isomorphism report (co-Kahler hypothesis)")
    add("verbitsky", "quasi-isomorphism of ker(d_eta) (parallel-form "
                     "hypothesis)")
    add("split", "invariant-form and cohomology splitting checks")
    add("massey", "degree-1 triple Massey products (formality obstructions)")
    add("minimal", "bounded-degree Sullivan minimal model",
        **{"--max-degree": cap_flag})
    add("mapping-torus", "mapping-torus model from the automorphism block",
        **{"--order": dict(type=int, default=None, metavar="M",
                           help="expected automorphism order (default: from "
                                "the model file)")})
    report_cmd = add("report", "run every applicable check",
                     **{"--json": dict(action="store_true",
                                       help="machine-readable output"),
                        "--max-degree": cap_flag})
    report_cmd.add_argument("--all", action="store_true",
                            help="run all checks (the default; kept for "
                                 "scripting clarity)")
    canon = sub.add_parser("canonicalize",
                           help="print the canonical form of a model file")
    canon.add_argument("model")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        mf = resolve(args.model)
        cap = _degree_cap(args.max_degree) if "max_degree" in args else 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _ERROR
    try:
        return _dispatch(args, mf, cap)
    except (StructureError, ModelParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _ERROR


def _dispatch(args, mf, cap: int) -> int:
    if args.command == "canonicalize":
        sys.stdout.write(serialize(mf))
        return _OK
    if args.command == "report":
        report = build_report(mf, max_degree=cap)
        sys.stdout.write(render_json(report) if args.json
                         else render_text(report))
        asserted, hypothesis = report["asserted"], None
    else:
        key, show = _VIEWS[args.command]
        sec = run_section(mf.to_lie_model(), key, max_degree=cap,
                          order=getattr(args, "order", None))
        if sec.record is not None:
            show(sec)
        for note in sec.notes + ([sec.hypothesis] if sec.hypothesis else []):
            print(f"note: {note}")
        asserted, hypothesis = sec.asserted, sec.hypothesis
    if not all(r["ok"] for r in asserted) or \
            (hypothesis and not args.informational):
        return _FAIL
    return _OK


def _fmt(seq) -> str:
    return "(" + ", ".join(str(v) for v in seq) + ")"


def _show_classification(sec) -> None:
    for key, value in sec.record.items():
        if key != "witnesses":
            print(f"{key}: {value}")
    for name, witness in sec.record["witnesses"].items():
        print(f"witness[{name}]: {witness}")


def _show_betti(sec) -> None:
    print(f"{sec.record['name']}: betti {_fmt(sec.record['betti'])}")


def _show_lefschetz(sec) -> None:
    rec = sec.record
    print(f"n = {rec['n']}; co-Kahler hypothesis: "
          f"{rec['hypothesis_cokahler']}")
    for d in rec["degrees"]:
        print(f"  p={d['p']}: rank {d['rank']} "
              f"of {d['source_dim']}->{d['target_dim']}, "
              f"iso: {d['isomorphism']}")
        for w in d["kernel_witnesses"]:
            print(f"    kernel witness: {w}")
    if rec["top_class_nonzero"] is not None:
        print(f"top class omega^n ^ eta nonzero: {rec['top_class_nonzero']}")


def _show_quism(sec) -> None:
    rec = sec.record
    print(f"eta parallel: {rec['eta_parallel']}")
    print(f"ker(d_eta) betti: {_fmt(rec['betti_kernel'])}")
    print(f"degreewise isomorphism: {rec['degreewise_iso']}")
    for p, witnesses in rec["kernel_witnesses"].items():
        for w in witnesses:
            print(f"  H^{p} kernel witness: {w}")
    print(f"quasi-isomorphism: {rec['quasi_isomorphism']}")


def _show_splitting(sec) -> None:
    rec = sec.record
    print(f"Omega_eta dims: {_fmt(rec['omega_eta_dims'])}")
    print(f"Omega_1   dims: {_fmt(rec['omega1_dims'])}")
    print(f"H_eta betti: {_fmt(rec['betti_eta'])}; "
          f"H_1 betti: {_fmt(rec['betti_omega1'])}")
    print(f"H^p_eta = H^p_1 + [eta]^H^(p-1)_1: "
          f"{all(rec['cohomology_split'])}")


def _show_massey(sec) -> None:
    triples = sec.record["degree_one_triples"]
    print(f"degree-1 triple products defined: {len(triples)}")
    for t in triples:
        i, j, k = t["classes"]
        print(f"  <h{i + 1}, h{j + 1}, h{k + 1}>: value {t['value_cochain']}, "
              f"indeterminacy dim {t['indeterminacy_dim']}, "
              f"vanishes: {t['vanishes']}")
    print(f"status: {sec.record['status']}")


def _show_minimal(sec) -> None:
    rec = sec.record
    cap = rec["max_degree"]
    print(f"generators by degree: {rec['generator_counts']}")
    print(f"minimal (decomposable differential): {rec['minimal']}")
    print(f"H^p isomorphism for p <= {cap}: {rec['quasi_iso_degrees']}")
    print(f"injective in degree {cap + 1}: {rec['injective_above']}")
    for r in sec.asserted:
        if r["check"] == "minimal_model_tensor_split":
            print(f"tensor split (Omega_1 model minimal and exact): "
                  f"{r['ok']}")


def _show_mapping_torus(sec) -> None:
    rec = sec.record
    print(f"automorphism order: {rec['order']}")
    print(f"fixed subcomplex betti: {_fmt(rec['fixed_betti'])}")
    print(f"mapping torus betti:    {_fmt(rec['betti'])}")
    print(f"fixed betti * (1,1) == mapping torus betti: "
          f"{rec['fixed_convolved'] == rec['betti']}")


# subcommand -> (the report section it prints, its formatter)
_VIEWS = {
    "classify": ("classification", _show_classification),
    "betti": ("model", _show_betti),
    "lefschetz": ("lefschetz", _show_lefschetz),
    "verbitsky": ("parallel_form_quism", _show_quism),
    "split": ("splitting", _show_splitting),
    "massey": ("massey", _show_massey),
    "minimal": ("minimal_model", _show_minimal),
    "mapping-torus": ("mapping_torus", _show_mapping_torus),
}


if __name__ == "__main__":
    sys.exit(main())
