"""Regenerate reference_sha256.json: the SHA-256 of ``report --all --json``
bytes for every model any workload can run (a few minutes).

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose report bytes are the reference.
A model whose report raises gets no entry.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import models  # noqa: E402
from cokahler import build_report, load_corpus, loads, render_json  # noqa: E402
from cokahler.errors import ModelParseError, StructureError  # noqa: E402


def main() -> int:
    reference = {}
    for label, text in models.report_models().items():
        mf = load_corpus(label) if text is None else loads(text)
        try:
            data = render_json(build_report(mf)).encode()
        except (StructureError, ModelParseError) as exc:
            print(f"{label}: no entry ({exc})", file=sys.stderr)
            continue
        reference[label] = hashlib.sha256(data).hexdigest()
        print(f"{label}: {reference[label]}", file=sys.stderr)
    path = HERE / "reference_sha256.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
