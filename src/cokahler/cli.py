"""Command-line interface.

Models are files in the documented format or names of bundled corpus models
(torus3, torus5, heisenberg, kx5, t2-rot4-mapping-torus,
t2-negid-mapping-torus).

A section's one text form is its view: its formatter's lines, a ``check
<name>: <ok>`` line per asserted verdict and a ``note:`` line per note.  A
subcommand prints one section's view and exits 0 when every asserted
verdict passes, 1 on a failed verdict or a violated hypothesis (the latter
suppressed by --informational), 2 on bad input or a model without the
structure the section needs.  `report` prints each section it runs under a
``[<key>]`` header and exits by all of its asserted verdicts; `report
--json` prints the full record.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ModelParseError, StructureError
from .modelfile import resolve, serialize
from .report import (build_report, render_json, report_notes,
                     report_sections, run_section)

_OK, _FAIL, _ERROR = 0, 1, 2


def _degree_cap(text: str) -> int:
    """--max-degree; anything but an integer >= 1 is an input error."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"--max-degree must be an integer >= 1, got {text!r}")
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
    commands = {name: help_text for name, (_, _, help_text) in _VIEWS.items()}
    commands["report"] = "run every applicable check"
    commands["canonicalize"] = "print the canonical form of a model file"
    for name, help_text in commands.items():
        sub.add_parser(name, help=help_text).add_argument(
            "model", help="model file path or corpus name")
    for name in ("minimal", "report"):
        sub.choices[name].add_argument("--max-degree", default="3",
                                       metavar="N",
                                       help="degree cap (default: 3)")
    sub.choices["report"].add_argument("--json", action="store_true",
                                       help="the full record as JSON")
    sub.choices["report"].add_argument(
        "--all", action="store_true",
        help="run all checks (the default; kept for scripting clarity)")
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
    if args.command == "report" and args.json:
        report = build_report(mf, max_degree=cap)
        sys.stdout.write(render_json(report))
        return _OK if report["ok"] else _FAIL
    model, text_report = mf.to_lie_model(), args.command == "report"
    if text_report:
        for note in report_notes(model):
            print(f"note: {note}")
        sections = report_sections(model, cap)
    else:
        key = _VIEWS[args.command][0]
        sections = [(key, run_section(model, key, max_degree=cap))]
    for key, sec in sections:
        if text_report:
            print(f"[{key}]")
        if sec.record is not None and key in _SHOW:
            _SHOW[key](sec)
        for r in sec.asserted:
            print(f"check {r['check']}: {r['ok']}")
        for note in sec.notes + ([sec.hypothesis] if sec.hypothesis else []):
            print(f"note: {note}")
    ok = all(r["ok"] for _, sec in sections for r in sec.asserted)
    if text_report:
        print(f"ok: {ok}")
    elif sections[0][1].hypothesis and not args.informational:
        ok = False
    return _OK if ok else _FAIL


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


def _show_splitting(sec) -> None:
    rec = sec.record
    print(f"Omega_eta dims: {_fmt(rec['omega_eta_dims'])}")
    print(f"Omega_1   dims: {_fmt(rec['omega1_dims'])}")
    print(f"H_eta betti: {_fmt(rec['betti_eta'])}; "
          f"H_1 betti: {_fmt(rec['betti_omega1'])}")


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


def _show_mapping_torus(sec) -> None:
    rec = sec.record
    print(f"automorphism order: {rec['order']}")
    print(f"fixed subcomplex betti: {_fmt(rec['fixed_betti'])}")
    print(f"mapping torus betti:    {_fmt(rec['betti'])}")


# subcommand -> (the report section it prints, its formatter, its help)
_VIEWS = {
    "classify": ("classification", _show_classification,
                 "almost-contact / cosymplectic / normal / co-Kahler verdict"),
    "betti": ("model", _show_betti,
              "Betti numbers of the Chevalley-Eilenberg complex"),
    "lefschetz": ("lefschetz", _show_lefschetz,
                  "Lefschetz isomorphism report (co-Kahler hypothesis)"),
    "verbitsky": ("parallel_form_quism", _show_quism,
                  "quasi-isomorphism of ker(d_eta) (parallel-form "
                  "hypothesis)"),
    "split": ("splitting", _show_splitting,
              "invariant-form and cohomology splitting checks"),
    "massey": ("massey", _show_massey,
               "degree-1 triple Massey products (formality obstructions)"),
    "minimal": ("minimal_model", _show_minimal,
                "bounded-degree Sullivan minimal model"),
    "mapping-torus": ("mapping_torus", _show_mapping_torus,
                      "mapping-torus model from the automorphism block"),
}
# report section -> its formatter; the sections without a subcommand print
# only their check and note lines
_SHOW = {key: show for key, show, _ in _VIEWS.values()}

if __name__ == "__main__":
    sys.exit(main())
