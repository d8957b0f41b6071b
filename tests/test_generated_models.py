"""Generated Lie algebras and co-Kahler models, checked against identities
that hold on every model and against the benchmark's sympy oracle.

Cartan's {d, iota_X} = L_X and iota_X^2 = 0 hold on the CE algebra of every
Lie algebra, so they test the construction, not a model: they are checked
here for every basis vector of generated algebras (Jacobi holds by
construction), through ``word_disagreements``, while the report decides
them along xi only.
The transverse-rotation family R^2 x R^{2k} (xi = X1 and X2 rotate the
J-planes, X3 is central; kx5 and kx7 are members) gives co-Kahler models
with d != 0 on Omega_1.
"""

import contextlib
import importlib.util
import io
import tempfile
from functools import cache
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from cokahler import build_report, loads
from cokahler.cdga import word_disagreements
from cokahler.cli import main
from cokahler.eta import omega_splitting
from cokahler.geometry import LieModel
from test_cdga import faulty

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WEIGHTS = st.integers(-2, 2)
CONTACT_COMMANDS = ("classify", "betti", "lefschetz", "verbitsky", "split",
                    "massey", "minimal", "report", "canonicalize")


@cache
def perfbench_module(name):
    """``perfbench/<name>.py``, loaded read-only."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@st.composite
def semidirect(draw):
    """R x_D R^m: [X1, X_j] = sum_k D_kj X_k on the abelian ideal R^m."""
    m = draw(st.integers(1, 4))
    cols = draw(st.lists(st.lists(WEIGHTS, min_size=m, max_size=m),
                         min_size=m, max_size=m))
    return LieModel(m + 1, {(0, j + 1): {k + 1: c for k, c in enumerate(col)}
                            for j, col in enumerate(cols)}, name="semidirect")


@st.composite
def two_step(draw):
    """[X_i, X_j] = sum_k c_ijk Z_k among a first basis vectors, into b
    central ones."""
    a, b = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    return LieModel(a + b, {(i, j): {a + k: draw(WEIGHTS) for k in range(b)}
                            for i in range(a) for j in range(i + 1, a)},
                    name="two-step")


LIE_ALGEBRAS = st.one_of(semidirect(), two_step())


@settings(derandomize=True, max_examples=30, deadline=None)
@given(LIE_ALGEBRAS)
def test_cartan_and_iota_squared_hold_for_every_basis_vector(m):
    dga, alg = m.ce(), m.algebra()
    for i in range(m.dimension):
        iota = m.iota({i: 1})
        assert word_disagreements(alg, [
            ([(iota, iota)], ()),
            ([(dga.d, iota), (iota, dga.d)],
             [(m.lie_coadjoint({i: 1}),)])]) == [None, None]


@settings(derandomize=True, max_examples=10, deadline=None)
@given(LIE_ALGEBRAS, st.data())
def test_an_iota_squared_fault_in_degree_two_is_found(m, data):
    # iota_i also sends e^i ^ e^j to e^i, so iota_i^2 (e^i ^ e^j) = 1
    alg = m.algebra()
    i = data.draw(st.integers(0, m.dimension - 1))
    j = data.draw(st.integers(0, m.dimension - 1).filter(lambda j: j != i))
    mono = alg.monomial(min(i, j), max(i, j))
    bad = faulty(m.iota({i: 1}), mono, alg.gen(i))
    assert word_disagreements(alg, [([(bad, bad)], ())]) == [mono]


def family_text(xi_weights, x2_weights) -> str:
    """R^2 x R^{2k}: xi = X1 and X2 rotate the J-plane (X_{2t+4}, X_{2t+5})
    with weights xi_weights[t] and x2_weights[t]; X3 is central."""
    brackets = []
    for t, weights in enumerate(zip(xi_weights, x2_weights)):
        a = 4 + 2 * t
        for x, w in zip((1, 2), weights):
            if w:
                brackets += [(x, a, a + 1, w), (x, a + 1, a, -w)]
    dimension = 3 + 2 * len(xi_weights)
    return perfbench_module("models").model_text(
        f"rotations{dimension}", dimension, brackets)


@st.composite
def transverse_weights(draw):
    """Weights of one to three planes.  xi leaves the first plane fixed and
    X2 turns it, so e4 lies in Omega_1 with d e4 = -w e2 ^ e5 != 0."""
    k = draw(st.integers(1, 3))
    xi = [0] + draw(st.lists(WEIGHTS, min_size=k - 1, max_size=k - 1))
    x2 = [draw(st.sampled_from((-2, -1, 1, 2)))] + draw(
        st.lists(WEIGHTS, min_size=k - 1, max_size=k - 1))
    return xi, x2


@settings(derandomize=True, max_examples=8, deadline=None)
@given(transverse_weights())
@example(([0], [1]))                        # kx5
@example(([0, 0], [1, 2]))                  # kx7
def test_transverse_rotation_family_is_co_kahler(weights):
    text = family_text(*weights)
    report = build_report(loads(text))
    assert report["ok"], report["asserted"]
    betti = report["model"]["betti"]
    assert betti == list(perfbench_module("oracle").betti(text))
    assert betti[1] % 2 == 1
    h1 = report["splitting"]["betti_omega1"]
    assert betti == [h1[p] + (h1[p - 1] if p else 0)
                     for p in range(len(betti))]
    assert "lefschetz" in report and "tensor_split" in report["minimal_model"]
    # d != 0 on Omega_1
    m = loads(text).to_lie_model()
    omega1, d = omega_splitting(m).omega1, m.ce().d
    assert any(not d.apply(form).is_zero() for p in range(m.dimension + 1)
               for form in omega1.basis_elements(p))
    # the mapping-torus command needs an automorphism block, which these
    # models do not carry; every other subcommand exits 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_text(text)
        for command in CONTACT_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["--informational", command, str(path)]) == 0
