"""Tests of the benchmark itself: the oracle, the checks and the tracer.

    python3 -m pytest perfbench -q

Every check is fed a right answer (no problems) and a wrong one (at least
one problem), so a check that cannot fail shows up here.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import models  # noqa: E402
import oracle  # noqa: E402
import cokahler  # noqa: E402
import cokahler.cli  # noqa: E402,F401
import cokahler.report  # noqa: E402
from cokahler import build_report, load_corpus, loads  # noqa: E402


def _report(label: str) -> dict:
    return build_report(load_corpus(label))


@pytest.fixture(scope="module")
def torus3_report():
    return _report("torus3")


@pytest.fixture(scope="module")
def rot5_report():
    return build_report(loads(models.rot_text((1, 2))))


# -- oracle -------------------------------------------------------------------

def test_oracle_betti_matches_closed_forms():
    assert oracle.betti(models.torus7_text()) == oracle.torus_betti(7)
    assert oracle.torus_betti(7) == (1, 7, 21, 35, 35, 21, 7, 1)
    heis = cokahler.modelfile.corpus_path("heisenberg").read_text()
    assert oracle.betti(heis) == (1, 2, 2, 1)
    assert oracle.betti(models.h3r2_text()) == (1, 4, 7, 7, 4, 1)
    assert oracle.betti(models.rot_text((1, 1, 1))) == (1, 1, 9, 9, 9, 9, 1, 1)


def test_rot7_classes():
    assert {sum(oracle.betti(models.rot_text(w)))
            for w in models.ROT7_REPEATED} == {24}
    assert {sum(oracle.betti(models.rot_text(w)))
            for w in models.ROT7_DISTINCT} == {16, 20}
    assert len(models.ROT7_DISTINCT) == 4 and len(models.ROT7_REPEATED) == 10


def test_oracle_agrees_with_the_program_on_rotation_models():
    for weights in ((1, 2), (1, 3), (2, 4)):
        text = models.rot_text(weights)
        program = loads(text).to_lie_model().ce().cohomology().betti()
        assert oracle.betti(text) == program


def test_oracle_rejects_a_differential_without_d_squared_zero():
    # [X1, X2] = X3, [X1, X3] = X1 violates Jacobi, so d^2 != 0
    text = models.model_text("bad", 3, [(1, 2, 3, 1), (1, 3, 1, 1)],
                             contact=False)
    with pytest.raises(ValueError, match="d\\^2"):
        oracle.betti(text)


def test_oracle_unimodular_and_mapping_torus():
    assert oracle.unimodular(models.rot_text((1, 2, 3)))
    assert not oracle.unimodular(models.model_text("ax+b", 2, [(1, 2, 2, 1)],
                                                   contact=False))
    for name in models.MAPPING_TORI:
        text = cokahler.modelfile.corpus_path(name).read_text()
        assert oracle.abelian_mapping_torus_betti(text) == (1, 1, 1, 1)
    identity = ("name: id\ndimension: 2\n[brackets]\n[automorphism]\n"
                "order 1\n1 0\n0 1\n")
    assert oracle.abelian_mapping_torus_betti(identity) == (1, 3, 3, 1)


# -- checks: right answers pass, wrong answers fail ---------------------------

def test_betti_check_fails_off_by_one():
    assert checks.betti("m", (1, 3, 3, 1), (1, 3, 3, 1)) == []
    assert checks.betti("m", (1, 3, 4, 1), (1, 3, 3, 1))
    assert checks.betti("m", (1, 3, 3), (1, 3, 3, 1))


def test_poincare_and_eta_splitting_checks():
    assert checks.poincare_duality("m", (1, 2, 2, 1)) == []
    assert checks.poincare_duality("m", (1, 2, 3, 1))
    assert checks.eta_splitting("m", [1, 5, 10, 10, 5, 1],
                                [1, 4, 6, 4, 1, 0]) == []
    assert checks.eta_splitting("m", [1, 5, 10, 11, 5, 1], [1, 4, 6, 4, 1, 0])


def test_report_check_accepts_true_reports(torus3_report, rot5_report):
    assert checks.report("torus3", torus3_report, (1, 3, 3, 1), True,
                         True) == []
    assert checks.flat_torus_report("torus3", torus3_report, 3) == []
    assert checks.report("rot5", rot5_report,
                         oracle.betti(models.rot_text((1, 2))), True,
                         True) == []


@pytest.mark.parametrize("mutate", [
    lambda r: r["model"]["betti"].__setitem__(1, 4),
    lambda r: r.__setitem__("ok", False),
    lambda r: r["asserted"][0].__setitem__("ok", False),
    lambda r: r["model"].__setitem__("unimodular", False),
    lambda r: r["classification"].__setitem__("coKahler", False),
    lambda r: r["splitting"]["betti_eta"].__setitem__(1, 7),
], ids=["betti", "ok", "asserted", "unimodular", "coKahler", "betti_eta"])
def test_report_check_rejects_wrong_reports(rot5_report, mutate):
    wrong = copy.deepcopy(rot5_report)
    mutate(wrong)
    assert checks.report("rot5", wrong, oracle.betti(models.rot_text((1, 2))),
                         True, True)


@pytest.mark.parametrize("mutate", [
    lambda r: r["lefschetz"]["degrees"][1].__setitem__("rank", 2),
    lambda r: r["splitting"]["betti_omega1"].__setitem__(1, 3),
    lambda r: r["minimal_model"].__setitem__("generator_counts", {"1": 2}),
], ids=["lefschetz", "omega1", "minimal"])
def test_flat_torus_check_rejects_wrong_reports(torus3_report, mutate):
    wrong = copy.deepcopy(torus3_report)
    mutate(wrong)
    assert checks.flat_torus_report("torus3", wrong, 3)


def test_cli_text_checks():
    assert checks.cli_betti("m", "torus3: betti (1, 3, 3, 1)\n",
                            (1, 3, 3, 1)) == []
    assert checks.cli_betti("m", "torus3: betti (1, 3, 2, 1)\n", (1, 3, 3, 1))
    assert checks.cli_betti("m", "nothing\n", (1, 3, 3, 1))
    text = "mapping torus betti:    (1, 1, 1, 1)\n"
    assert checks.cli_mapping_torus("m", text, (1, 1, 1, 1)) == []
    assert checks.cli_mapping_torus("m", text, (1, 2, 2, 1))
    lef = "  p=0: rank 1 of 1->1, iso: True\n  p=1: rank 3 of 3->3, iso: True\n"
    assert checks.cli_lefschetz_torus("m", lef, 3) == []
    assert checks.cli_lefschetz_torus("m", lef.replace("rank 3", "rank 2"), 3)
    assert checks.cli_lefschetz_torus("m", lef.replace("iso: True", "iso: False"), 3)
    assert checks.cli_classify("m", "coKahler: True\n", True) == []
    assert checks.cli_classify("m", "coKahler: False\n", True)
    assert checks.exit_code("m", 0) == [] and checks.exit_code("m", 1)
    assert checks.idempotent("m", "a", "a") == [] and checks.idempotent("m", "a", "b")


# -- models -------------------------------------------------------------------

def test_models_depend_only_on_the_seed():
    assert models.workload_models("rot7", 5) == models.workload_models("rot7", 5)
    seen = {tuple(models.rot7_weights(s)[0]) for s in range(40)}
    assert len(seen) > 1
    for seed in range(40):
        distinct, repeated = models.rot7_weights(seed)
        assert len(set(distinct)) == 3 and len(set(repeated)) == 2
        assert len(models.workload_models("sweep", seed)) == 8


# -- tracer -------------------------------------------------------------------

def _traced(fn):
    tracer = layers.Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        fn()
    finally:
        tracer.uninstall()
    return tracer, tracer.summary(mark)


def test_tracer_wraps_every_binding_site_and_restores_them():
    before = {name: dict(vars(ns)) for name, ns in
              ((getattr(ns, "__name__", ""), ns)
               for ns in layers._package_namespaces())}
    report = cokahler.report
    tracer, summary = _traced(
        lambda: report.render_json(report.build_report(load_corpus("torus3"))))
    # geometry, eta and the package bind supercommutator by name too
    assert tracer.sites["cdga.supercommutator"] >= 3
    assert summary["cdga.supercommutator"]["calls"] > 0
    assert summary["exterior.wedge"]["calls"] > 0
    assert summary["report.section.lefschetz"]["calls"] == 1
    assert summary["report.render"]["calls"] == 1
    after = {name: dict(vars(ns)) for name, ns in
             ((getattr(ns, "__name__", ""), ns)
              for ns in layers._package_namespaces())}
    assert after == before


def test_traced_counts_repeat_exactly():
    def run():
        cokahler.report.build_report(load_corpus("torus3"))

    first = _traced(run)[1]
    second = _traced(run)[1]
    assert {k: v["calls"] for k, v in first.items()} == \
        {k: v["calls"] for k, v in second.items()}


def test_self_time_excludes_children():
    tracer, summary = _traced(
        lambda: cokahler.report.build_report(load_corpus("torus3")))
    entry = summary["report.build_report"]
    assert 0 <= entry["self_s"] < entry["s"]


# -- the command --------------------------------------------------------------

def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_file_is_valid_json():
    reference = json.loads((HERE / "reference_sha256.json").read_text())
    assert "torus7" in reference and all(len(v) == 64 for v in reference.values())


def test_printed_metrics_match_benchmark_json():
    import run
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = run.layer_metrics([{}], [1.0], [1.0], [1.0], {})
    assert list(layer) == [m["name"] for m in bench["per_layer"]]
    assert all(layer[m["name"]]["unit"] == m["unit"] for m in bench["per_layer"])
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)


def test_speed_meter_counts_program_time_in_kernel_runs():
    import signal
    import speed
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedMeter() as meter:
        result, seconds, runs = meter.measure(lambda: sum(range(3 * 10 ** 6)))
    assert signal.getsignal(signal.SIGALRM) == before
    assert result == sum(range(3 * 10 ** 6))
    assert len(meter.samples) > 2           # the alarm sampled inside too
    ratio = runs * speed.kernel_seconds(15) / seconds
    assert 0.5 < ratio < 2
