"""Generated Lie algebras and co-Kahler models, checked against identities
that hold on every model and against the benchmark's sympy oracle.

Cartan's {d, iota_X} = L_X and iota_X^2 = 0 hold on the CE algebra of every
Lie algebra, so they test the construction, not a model: they are checked
here for every basis vector of generated algebras (Jacobi holds by
construction), through ``word_disagreements``, while the report decides
them along xi only.
The report builds ℳ(Omega) of a co-Kahler model as ℳ(Omega_1) (x)
Λ(eta); here ℳ(Omega) is built directly and compared with the report's
record.
Mapping tori of generated signed-permutation automorphisms of T^2 .. T^4
are checked against the oracle's Betti numbers.
Structured models, 2-step nilpotent and R x_D R^k with rational brackets and
a random rational metric, are fed to the CLI's report, which may find them
not co-Kahler but never refuses them as input.
The curved family R x aff(R)^a x (solvable CH^2)^b is co-Kahler and not
unimodular: no compact quotient, so its Lefschetz ranks carry a note.
The transverse-rotation family R^2 x R^{2k} (xi = X1 and X2 rotate the
J-planes, X3 is central; kx5 and kx7 are members) gives co-Kahler models
with d != 0 on Omega_1.  On it, and on pinned models with other metrics and
fractional brackets, the Levi-Civita operators on forms are compared with
dense matrix formulas for nabla xi, nabla eta and nabla J.
"""

import contextlib
import importlib.util
import io
import math
import tempfile
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cokahler import build_report, load_corpus, loads
from cokahler.cli import main
from cokahler.eta import omega_splitting
from cokahler.geometry import (LieModel, classify, is_parallel_form,
                               omega_element)
from cokahler.minimal import minimal_model
from cokahler.modelfile import CORPUS_MODELS
from cokahler.report import _co_kahler, _plain
from conjugation import bases, basis_free, conjugated
from operator_words import word_disagreements
from test_cdga import faulty
from test_report_bytes import PINNED, pinned_text

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


def assert_compact_quotient_betti(betti, unimodular):
    """Poincare duality, b_1 odd and b_0 <= b_1 <= ... <= b_n: theorems on
    compact co-Kahler manifolds (Chinea-de Leon-Marrero), so checked only
    where a lattice can exist, on unimodular models.  R x aff(R), with no
    compact quotient, has b_1 = 2."""
    if unimodular:
        n = (len(betti) - 2) // 2
        assert betti == betti[::-1]
        assert betti[1] % 2 == 1
        assert betti[:n + 1] == sorted(betti[:n + 1])


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
    assert report["model"]["unimodular"]
    assert_compact_quotient_betti(betti, True)
    h1 = report["splitting"]["betti_omega1"]
    assert betti == [h1[p] + (h1[p - 1] if p else 0)
                     for p in range(len(betti))]
    assert "lefschetz" in report and "minimal_model_tensor_split" in {
        r["check"] for r in report["asserted"]}
    # d != 0 on Omega_1
    m = loads(text).to_lie_model()
    omega1, d = omega_splitting(m), m.ce().d
    assert any(not d.apply(omega1.element(p, {j: 1})).is_zero()
               for p in range(m.dimension + 1) for j in range(omega1.dim(p)))
    # the mapping-torus command needs an automorphism block, which these
    # models do not carry; every other subcommand exits 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_text(text)
        for command in CONTACT_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["--informational", command, str(path)]) == 0


def curved_text(a: int, b: int) -> str:
    """R x aff(R)^a x (the solvable group of CH^2)^b, the product metric,
    xi = X1 and eta = e1.  J rotates each aff(R) plane (X_o, X_{o+1}), where
    [X_o, X_{o+1}] = X_{o+1}, as on rxaff5, and pairs X_o with X_{o+3} and
    X_{o+1} with X_{o+2} on each CH^2 block, as on rxch2."""
    n = 1 + 2 * a + 4 * b
    brackets, J = [], [[0] * n for _ in range(n)]
    pairs = []
    for t in range(a):
        o = 2 + 2 * t
        brackets.append((o, o + 1, o + 1, 1))
        pairs.append((o, o + 1))
    for t in range(b):
        o = 2 + 2 * a + 4 * t
        half = Fraction(1, 2)
        brackets += [(o, o + 1, o + 1, half), (o, o + 2, o + 2, half),
                     (o, o + 3, o + 3, 1), (o + 1, o + 2, o + 3, 1)]
        pairs += [(o, o + 3), (o + 1, o + 2)]
    for x, y in pairs:
        J[x - 1][y - 1], J[y - 1][x - 1] = -1, 1
    return perfbench_module("models").model_text(
        f"curved{n}-{a}-{b}", n, brackets, contact=False) + (
        "\n[xi]\nX1\n\n[eta]\ne1\n\n[J]\n"
        + "".join(" ".join(map(str, row)) + "\n" for row in J))


def test_the_curved_family_holds_the_curved_pins():
    for (a, b), name in (((1, 0), "rxaff3"), ((2, 0), "rxaff5"),
                         ((0, 1), "rxch2")):
        n = 1 + 2 * a + 4 * b
        assert curved_text(a, b).replace(f"curved{n}-{a}-{b}", name) == \
            pinned_text(name)


CURVED_SHAPES = st.tuples(st.integers(0, 3), st.integers(0, 1)).filter(
    lambda ab: sum(ab) and 1 + 2 * ab[0] + 4 * ab[1] <= 7)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(CURVED_SHAPES)
def test_curved_family_is_co_kahler_without_a_compact_quotient(shape):
    # Kahler factors of negative curvature: co-Kahler, not unimodular, so
    # no lattice and no compact quotient; Lefschetz ranks and the Massey
    # status carry a note instead of a verdict, and every other verdict holds
    text = curved_text(*shape)
    m = loads(text).to_lie_model()
    verdict = classify(m)
    assert verdict.coKahler and not verdict.unimodular
    report = build_report(loads(text))
    betti = report["model"]["betti"]
    assert betti == list(perfbench_module("oracle").betti(text))
    assert_compact_quotient_betti(betti, report["model"]["unimodular"])
    checks = {r["check"] for r in report["asserted"]}
    assert report["ok"], report["asserted"]
    assert {"lefschetz_isomorphism",
            "massey_formality_obstruction"}.isdisjoint(checks)
    assert [note.split(",")[1].split()[0] for note in report["notes"]
            if note.startswith("not unimodular: no compact quotient")] == [
                "Lefschetz", "Massey"]
    assert report["lefschetz"]["degrees"]
    # the splitting is computed, with d != 0 on Omega_1
    assert {"omega_splitting", "cohomology_splitting"} <= checks
    omega1, d = omega_splitting(m), m.ce().d
    assert any(not d.apply(omega1.element(p, {j: 1})).is_zero()
               for p in range(m.dimension + 1) for j in range(omega1.dim(p)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--informational", "report", str(path)]) == 0
            assert main(["lefschetz", str(path)]) == 1
            assert main(["--informational", "lefschetz", str(path)]) == 0
            assert main(["massey", str(path)]) == 0


def assert_invariant_model_matches_the_report(mf, cap=3):
    """ℳ(Omega), built directly on the full complex, has the generator
    counts and verdicts of the report's record, which a co-Kahler report
    reads off ℳ(Omega_1) (x) Λ(eta): minimal models are unique."""
    record = build_report(mf, max_degree=cap)["minimal_model"]
    mm = minimal_model(mf.to_lie_model().ce(), cap)
    assert mm.minimal and mm.quasi_iso
    assert _plain({
        "generator_counts": dict(sorted(mm.generator_counts().items())),
        "minimal": mm.minimal,
        "quasi_iso_degrees": mm.iso_degrees,
        "injective_above": mm.injective_above,
    }) == {key: record[key] for key in ("generator_counts", "minimal",
                                        "quasi_iso_degrees",
                                        "injective_above")}


# the co-Kahler pinned models, the curved rxaff3, rxaff5 and rxch2 among them
COKAHLER_PINNED = ("kx5", "kx5-p", "kx5-q", "kx7", "rot5-1-1-g", "rot5-1-2",
                   "rot7-1-1-1", "rot7-1-1-3", "rot7-1-2-3-conj",
                   "rot7-1-2-3-xi4", "rot9-1-1-1-1", "rot9-1-2-3-4",
                   "rxaff3", "rxaff5", "rxch2", "torus3", "torus5", "torus7",
                   "torus9")


def pinned_or_corpus(name):
    text = pinned_text(name) if name in PINNED else None
    return load_corpus(name) if text is None else loads(text)


def test_cokahler_pinned_lists_every_cokahler_pinned_model():
    assert tuple(name for name in sorted({*CORPUS_MODELS, *PINNED})
                 if _co_kahler(pinned_or_corpus(name).to_lie_model())) \
        == COKAHLER_PINNED


@pytest.mark.parametrize("label", sorted({*COKAHLER_PINNED, "rot7-1-3-4",
                                          "rot7-3-3-4"}))
def test_invariant_forms_model_is_the_one_the_report_reads(label):
    if label not in PINNED:
        weights = tuple(int(w) for w in label.split("-")[1:])
        mf = loads(perfbench_module("models").rot_text(weights))
    else:
        mf = pinned_or_corpus(label)
    assert_invariant_model_matches_the_report(mf)


@settings(derandomize=True, max_examples=4, deadline=None)
@given(transverse_weights())
def test_invariant_forms_model_is_the_one_the_report_reads_on_the_family(
        weights):
    assert_invariant_model_matches_the_report(loads(family_text(*weights)))


def one_form(alg, coords):
    return alg.element(1, {a: c for a, c in enumerate(coords) if c})


def two_form(alg, mat):
    """The 2-form with coefficient mat[a][b] on e^a ^ e^b, a < b."""
    form = alg.zero(2)
    for a, row in enumerate(mat):
        for b in range(a + 1, len(row)):
            if row[b]:
                form = form + alg.monomial(a, b, coeff=row[b])
    return form


def mul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)]
            for row in x]


def dense_nabla_images(m, alg):
    """nabla_{X_i} of xi-flat, eta and omega for each i, from dense matrices:
    G with column j = nabla_{X_i} X_j (the Koszul Gamma), (nabla xi)-flat =
    g G xi, (nabla eta)(X_j) = -eta(G X_j), and nabla omega = g((G J - J G).,
    .), as nabla g = 0."""
    n = m.dimension
    g = [[m.metric[a].get(b, 0) for b in range(n)] for a in range(n)]
    J = [[m.J[a].get(b, 0) for b in range(n)] for a in range(n)]
    xi = [[m.xi.get(a, 0)] for a in range(n)]
    eta = [[m.eta.get(a, 0) for a in range(n)]]
    images = {"xi": [], "eta": [], "J": []}
    for gamma in m.levi_civita():
        G = [[gamma[j].get(k, 0) for j in range(n)] for k in range(n)]
        images["xi"].append(one_form(alg, [c for (c,) in mul(g, mul(G, xi))]))
        images["eta"].append(one_form(alg, [-c for c in mul(eta, G)[0]]))
        nabla_j = [[a - b for a, b in zip(r, s)]
                   for r, s in zip(mul(G, J), mul(J, G))]
        images["J"].append(two_form(alg, mul(list(zip(*nabla_j)), g)))
    return images


@settings(derandomize=True, max_examples=6, deadline=None)
@given(transverse_weights().map(lambda weights: family_text(*weights)))
@example(pinned_text("rot5-1-1-g"))         # J-invariant non-identity metric
@example(pinned_text("heisenberg-g"))       # xi not parallel, metric 1, 2, 2
@example(pinned_text("heisenberg-q"))       # Gamma entries of 1/3
def test_parallel_forms_match_the_dense_connection(text):
    m = loads(text).to_lie_model()
    alg = m.algebra()
    forms = {"xi": alg.element(1, m.flat(m.xi)), "eta": m.eta_element(),
             "J": omega_element(m)}
    images = dense_nabla_images(m, alg)
    parallel = {}
    for key, form in forms.items():
        assert [nabla.apply(form) for nabla in m.nabla()] == images[key]
        bad = [i for i, image in enumerate(images[key]) if not image.is_zero()]
        parallel[key] = not bad
        assert is_parallel_form(m, form) == ((True, None) if not bad else (
            False, f"nabla_X{bad[0] + 1}: {images[key][bad[0]]!r}"))
    verdict = classify(m)
    assert (verdict.parallel_xi, verdict.parallel_eta, verdict.parallel_J) \
        == (parallel["xi"], parallel["eta"], parallel["J"])


@st.composite
def signed_permutation_text(draw):
    """Model text of T^n, n = 2..4, with an ``[automorphism]`` block e_i ->
    s_i e_sigma(i) and its exact order: the lcm over the cycles of sigma of
    the length, doubled where the product of the cycle's signs is -1."""
    n = draw(st.integers(2, 4))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    order, seen = 1, set()
    for start in range(n):
        if start in seen:
            continue
        length, sign, i = 0, 1, start
        while i not in seen:
            seen.add(i)
            length, sign, i = length + 1, sign * signs[i], perm[i]
        order = math.lcm(order, length * (1 if sign == 1 else 2))
    rows = [[signs[i] if perm[i] == j else 0 for i in range(n)]
            for j in range(n)]
    return (f"name: auto\ndimension: {n}\n\n[automorphism]\norder {order}\n"
            + "".join(" ".join(map(str, row)) + "\n" for row in rows))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(signed_permutation_text())
def test_mapping_torus_matches_the_oracle_on_signed_permutations(text):
    section = build_report(loads(text))["mapping_torus"]
    betti = perfbench_module("oracle").abelian_mapping_torus_betti(text)
    fixed = [betti[0]]              # b_p = f_p + f_{p-1}
    for b in betti[1:-1]:
        fixed.append(b - fixed[-1])
    assert section["betti"] == list(betti)
    assert section["fixed_betti"] == fixed


RATIONALS = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
POSITIVE = st.builds(Fraction, st.integers(1, 3), st.integers(1, 2))


@st.composite
def structured_brackets(draw):
    """(dimension, brackets (i, j, k, c), 1-based, meaning [X_i, X_j] =
    c X_k): a 2-step nilpotent algebra, or R x_D R^k for k = 2, 4 with
    [X1, X_{j+1}] = sum_i D_ij X_{i+1}.  Jacobi holds by construction."""
    if draw(st.booleans()):
        a, b = draw(st.integers(2, 4)), draw(st.integers(1, 2))
        return a + b, [(i + 1, j + 1, a + k + 1, draw(RATIONALS))
                       for i in range(a) for j in range(i + 1, a)
                       for k in range(b)]
    k = draw(st.sampled_from((2, 4)))
    return k + 1, [(1, j + 2, i + 2, draw(RATIONALS))
                   for j in range(k) for i in range(k)]


@st.composite
def ldl_metric(draw, n):
    """A rational positive-definite metric L D L^T, with L unit lower
    triangular and D a positive diagonal."""
    lower = [[1 if i == j else draw(RATIONALS) if j < i else 0
              for j in range(n)] for i in range(n)]
    diag = [draw(POSITIVE) for _ in range(n)]
    return [[sum(lower[i][t] * diag[t] * lower[j][t] for t in range(n))
             for j in range(n)] for i in range(n)]


@st.composite
def structured_model_text(draw):
    """Model text of a structured algebra with an LDL^T metric, xi = X1,
    eta = e1 and J rotating the planes (X2, X3), (X4, X5), ..."""
    n, brackets = draw(structured_brackets())
    metric = draw(ldl_metric(n))
    text = perfbench_module("models").model_text(
        "structured", n, [b for b in brackets if b[3]])
    return text.replace("identity", "\n".join(
        " ".join(map(str, row)) for row in metric))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(structured_model_text())
def test_a_structured_model_is_never_an_input_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["--informational", "report", str(path)])
    assert code in (0, 1), err.getvalue()


@cache
def basis_free_report(name):
    """A corpus or pinned model file and its report without what names a
    basis (``conjugation.basis_free``)."""
    mf = pinned_or_corpus(name)
    return mf, basis_free(_plain(build_report(mf)))


@pytest.mark.parametrize("unimodular", [True, False],
                         ids=["unimodular", "rational"])
@pytest.mark.parametrize("name", sorted({*CORPUS_MODELS, *PINNED}))
@settings(derandomize=True, max_examples=2, deadline=None)
@given(data=st.data())
def test_a_report_does_not_depend_on_the_basis(name, unimodular, data):
    # the paper's statements are basis-free: brackets, metric, xi, eta, J
    # and the mapping tori's automorphism conjugated by a seeded rational P
    # leave every report field as it was, witnesses and the degree-one
    # Massey scan aside (conjugation.basis_free)
    mf, expected = basis_free_report(name)
    P = data.draw(bases(mf.dimension, unimodular))
    conjugate = conjugated(mf, P)
    assert basis_free(_plain(build_report(conjugate))) == expected
