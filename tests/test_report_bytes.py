"""Report bytes against the benchmark's reference SHA-256s.

``perfbench/reference_sha256.json`` holds the SHA-256 of the
``report --all --json`` bytes of every model the benchmark runs.  A change
to the exact core must leave those bytes as they are, so a mismatch here
fails the suite instead of only printing in a benchmark run.  The file is
read, never written; ``perfbench/make_reference.py`` regenerates it.
``PINNED`` holds the SHA-256s of models the benchmark does not run.
"""

import hashlib
import importlib.util
import json
from functools import cache
from pathlib import Path

import pytest

from cokahler import build_report, load_corpus, loads, render_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LABELS = ("torus3", "torus5", "heisenberg", "t2-rot4-mapping-torus",
          "t2-negid-mapping-torus", "rot5-1-2", "h3xR2", "torus7",
          "rot7-1-1-3")
# kx5 is the one model with d != 0 on Omega_1
PINNED = {
    "kx5": "1b975619702f84da28ffd00ee0488cc0bc9eead37276a6c2436cb40a0807e594",
}


@cache
def model_texts() -> dict:
    """The benchmark's model texts, by label (None for a corpus model)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_models", PERFBENCH / "models.py")
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    return models.report_models()


@pytest.mark.parametrize("label", LABELS)
def test_report_bytes_match_the_reference(label):
    reference = json.loads((PERFBENCH / "reference_sha256.json").read_text())
    text = model_texts()[label]
    mf = load_corpus(label) if text is None else loads(text)
    data = render_json(build_report(mf)).encode()
    assert hashlib.sha256(data).hexdigest() == reference[label]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_bytes_match_the_pinned_hash(name):
    data = render_json(build_report(load_corpus(name))).encode()
    assert hashlib.sha256(data).hexdigest() == PINNED[name]
