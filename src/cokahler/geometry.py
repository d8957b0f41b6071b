"""Left-invariant metric geometry on Lie-algebra models.

A LieModel is a Lie algebra with structure constants over the rationals, an
inner product, and an optional almost-contact structure (J, xi, eta).  All
geometry is evaluated on left-invariant data, so every check is a finite
exact computation: the Koszul formula gives the Levi-Civita connection,
Killing/parallel conditions are matrix identities, and the induced
Chevalley-Eilenberg complex carries the differential calculus.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .cdga import DGA, Derivation, check_d_squared, supercommutator
from .errors import StructureError
from .exterior import Element, Generator, GradedAlgebra

Vector = list[Fraction]
Matrix = list[Vector]


def _frac_vector(seq) -> Vector:
    return [Fraction(v) for v in seq]


def _frac_matrix(rows) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


# Dense helpers for the n x n tangent-space matrices (metric, J, ad, Gamma).

def _mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((x * y for x, y in zip(row, v) if x and y), Fraction(0))
            for row in a]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = _transpose(b)
    return [_mat_vec(cols, row) for row in a]


def _transpose(mat: Matrix) -> Matrix:
    return [list(col) for col in zip(*mat)]


def _identity(n: int) -> Matrix:
    return [_unit_vector(n, i) for i in range(n)]


def _unit_vector(n: int, j: int) -> Vector:
    vec = [Fraction(0)] * n
    vec[j] = Fraction(1)
    return vec


def _inverse(mat: Matrix) -> Matrix:
    """Inverse of a square rational matrix; raises ValueError if singular."""
    n = len(mat)
    aug = [linalg.sparse(row + unit) for row, unit in zip(mat, _identity(n))]
    rows, pivots = linalg.rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [linalg.dense(row, 2 * n)[n:] for row in rows]


def once_per_model(build):
    """Memoize ``build(m)`` on the model instance, so each derived object is
    built, and self-checked, once per model and then shared.  A build that
    raises stores nothing.  The memo lives on the instance, not in a global
    cache, so it dies with the model."""
    key = build.__qualname__

    @functools.wraps(build)
    def memoized(m):
        memo = m._derived
        if key not in memo:
            memo[key] = build(m)
        return memo[key]
    return memoized


class LieModel:
    """Lie algebra with inner product and optional (J, xi, eta) tensors.

    ``brackets`` maps (i, j) with i < j (0-based) to {k: c} meaning
    [X_i, X_j] = sum_k c^k_ij X_k; antisymmetry is completed internally.
    The Jacobi identity is enforced at construction via d squared = 0 on the
    induced Chevalley-Eilenberg complex.
    """

    def __init__(self, dimension: int, brackets: dict, name: str = "model",
                 metric: Matrix | None = None, xi=None, eta=None, J=None,
                 omega_terms=None, automorphism=None):
        self.name = name
        self.dimension = dimension
        self.brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < dimension and 0 <= j < dimension):
                raise StructureError(f"bracket index ({i},{j}) out of range")
            if i == j:
                raise StructureError(f"bracket ({i},{i}) must vanish")
            if i > j:
                i, j, comps = j, i, {k: -c for k, c in comps.items()}
            clean = {}
            for k, c in comps.items():
                if not 0 <= k < dimension:
                    raise StructureError(f"bracket target index {k} out of range")
                c = Fraction(c)
                if c:
                    clean[k] = c
            if clean:
                self.brackets[(i, j)] = clean
        self.metric = _frac_matrix(metric) if metric is not None \
            else _identity(dimension)
        _check_metric(self.metric, dimension)
        self.xi = _frac_vector(xi) if xi is not None else None
        self.eta = _frac_vector(eta) if eta is not None else None
        self.J = _frac_matrix(J) if J is not None else None
        for label, data, is_mat in (("xi", self.xi, False), ("eta", self.eta, False),
                                    ("J", self.J, True)):
            if data is None:
                continue
            rows = data if is_mat else [data]
            if len(rows) != (dimension if is_mat else 1) or \
                    any(len(r) != dimension for r in rows):
                raise StructureError(f"{label} has the wrong shape")
        self.omega_terms = [(int(i), int(j), Fraction(c))
                            for i, j, c in (omega_terms or [])]
        self.automorphism = None
        if automorphism is not None:
            mat, order = automorphism
            self.automorphism = (_frac_matrix(mat), int(order))
        self._derived: dict = {}    # see once_per_model
        if not check_d_squared(self.ce()):
            raise StructureError(
                f"structure constants of {name!r} violate the Jacobi identity")

    # -- brackets ------------------------------------------------------------

    def bracket(self, i: int, j: int) -> Vector:
        out = [Fraction(0)] * self.dimension
        if i == j:
            return out
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for k, c in self.brackets.get((i, j), {}).items():
            out[k] = sign * c
        return out

    def ad(self, vector) -> Matrix:
        """Matrix of ad_X: column j is [X, X_j], in one pass over the
        brackets [X_i, X_j] = c^k_ij X_k with i < j."""
        vec = _frac_vector(vector)
        n = self.dimension
        out = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), comps in self.brackets.items():
            for k, c in comps.items():
                if vec[i]:
                    out[k][j] += vec[i] * c
                if vec[j]:
                    out[k][i] -= vec[j] * c
        return out

    def bracket_vectors(self, x: Vector, y: Vector) -> Vector:
        return _mat_vec(self.ad(x), y)

    def is_unimodular(self) -> bool:
        n = self.dimension
        return all(sum(self.ad(_unit_vector(n, i))[k][k]
                       for k in range(n)) == 0 for i in range(n))

    # -- the Chevalley-Eilenberg complex --------------------------------------

    @once_per_model
    def algebra(self) -> GradedAlgebra:
        return GradedAlgebra([Generator(f"e{i + 1}", 1)
                              for i in range(self.dimension)])

    @once_per_model
    def ce(self) -> DGA:
        """CE complex: d e^k = -sum_{i<j} c^k_ij e^i e^j."""
        alg = self.algebra()
        images: dict[int, Element] = {}
        for (i, j), comps in self.brackets.items():
            for k, c in comps.items():
                term = alg.monomial(i, j, coeff=-c)
                images[k] = images.get(k, alg.zero(2)) + term
        return DGA(alg, Derivation(alg, 1, images, name="d"))

    def eta_element(self) -> Element:
        if self.eta is None:
            raise StructureError(f"model {self.name!r} has no eta")
        return self.algebra().element(1, linalg.sparse(self.eta))

    # -- metric moves ----------------------------------------------------------

    @once_per_model
    def metric_inverse(self) -> Matrix:
        return _inverse(self.metric)

    def sharp(self, covector) -> Vector:
        """Metric isomorphism T*->T (inverse metric applied to components)."""
        return _mat_vec(self.metric_inverse(), _frac_vector(covector))

    def flat(self, vector) -> Vector:
        return _mat_vec(self.metric, _frac_vector(vector))

    def inner(self, x: Vector, y: Vector) -> Fraction:
        gx = _mat_vec(self.metric, list(x))
        return sum((gx[i] * y[i] for i in range(self.dimension)), Fraction(0))

    # -- contraction and Lie derivative -----------------------------------------

    def iota(self, vector) -> Derivation:
        """Interior product with a vector, as a degree -1 derivation."""
        vec = _frac_vector(vector)
        alg = self.algebra()
        images = {i: alg.scalar(vec[i]) for i in range(self.dimension) if vec[i]}
        return Derivation(alg, -1, images, name="iota")

    def contract(self, vector, elem: Element) -> Element:
        return self.iota(vector).apply(elem)

    def lie(self, vector) -> Derivation:
        """Lie derivative {d, iota_X} (Cartan)."""
        return supercommutator(self.ce().d, self.iota(vector))

    def lie_coadjoint(self, vector) -> Derivation:
        """Lie derivative built without d or iota: on invariant 1-forms,
        (L_X e^k)(Y) = -e^k([X, Y])."""
        alg = self.algebra()
        images = {}
        for k, row in enumerate(self.ad(vector)):
            img = alg.element(1, linalg.sparse([-c for c in row]))
            if not img.is_zero():
                images[k] = img
        return Derivation(alg, 0, images, name="L_coadjoint")

    def iota_xi(self) -> Derivation:
        if self.xi is None:
            raise StructureError(f"model {self.name!r} has no xi")
        return self.iota(self.xi)

    @once_per_model
    def lie_xi(self) -> Derivation:
        return self.lie(self._require("xi"))

    def _require(self, field_name: str):
        value = getattr(self, field_name)
        if value is None:
            raise StructureError(f"model {self.name!r} has no {field_name}")
        return value

    # -- Levi-Civita connection --------------------------------------------------

    @once_per_model
    def levi_civita(self):
        """Connection coefficients Gamma[i][j] = components of nabla_{X_i} X_j,
        from the Koszul formula for left-invariant metrics."""
        n = self.dimension
        ginv = self.metric_inverse()
        # low[a][b][c] = g([X_a, X_b], X_c)
        low = [[self.flat(self.bracket(a, b)) for b in range(n)] for a in range(n)]
        gamma = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                rhs = [(low[i][j][k] - low[j][k][i] + low[k][i][j]) / 2
                       for k in range(n)]
                gamma[i][j] = _mat_vec(ginv, rhs)
        _check_connection(self, gamma)
        return gamma

    def nabla(self, i: int, vector) -> Vector:
        """nabla_{X_i} of a vector field with constant components."""
        gamma = self.levi_civita()
        vec = _frac_vector(vector)
        out = [Fraction(0)] * self.dimension
        for j, c in enumerate(vec):
            if c:
                out = [out[k] + c * gamma[i][j][k] for k in range(self.dimension)]
        return out


def _check_metric(g: Matrix, n: int):
    if len(g) != n or any(len(row) != n for row in g):
        raise StructureError("metric has the wrong shape")
    for i in range(n):
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise StructureError(f"metric is not symmetric at ({i},{j})")
    # elimination without row exchanges: while the leading minors are
    # positive, the k-th pivot is minor_k / minor_{k-1} (Sylvester), so the
    # first pivot <= 0 names the first leading minor <= 0
    rows = [list(row) for row in g]
    for k in range(n):
        if rows[k][k] <= 0:
            raise StructureError("metric is not positive definite "
                                 f"(leading {k + 1}x{k + 1} minor)")
        for row in rows[k + 1:]:
            fac = row[k] / rows[k][k]
            if fac:
                row[k:] = [a - fac * b for a, b in zip(row[k:], rows[k][k:])]


def _check_connection(m: LieModel, gamma):
    n = m.dimension
    for i in range(n):
        for j in range(n):
            br = m.bracket(i, j)
            for k in range(n):
                if gamma[i][j][k] - gamma[j][i][k] != br[k]:
                    raise StructureError("Koszul connection is not torsion-free")
    # low[i][j][k] = g(nabla_{X_i} X_j, X_k); g is symmetric (_check_metric)
    low = [[m.flat(gamma[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if low[i][j][k] + low[i][k][j] != 0:
                    raise StructureError("Koszul connection is not metric")


# -- structure validation ---------------------------------------------------------


@dataclass
class AlmostContactVerdict:
    ok: bool
    witnesses: dict[str, str] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def validate_almost_contact(m: LieModel) -> AlmostContactVerdict:
    """Exact check of J^2 = -I + eta (x) xi, eta(xi) = 1, and the metric
    compatibility g(JX, JY) = g(X, Y) - eta(X) eta(Y)."""
    for name in ("J", "xi", "eta"):
        m._require(name)
    n = m.dimension
    J, xi, eta, g = m.J, m.xi, m.eta, m.metric
    witnesses: dict[str, str] = {}
    jj = _mat_mul(J, J)
    for i in range(n):
        for j in range(n):
            want = -Fraction(int(i == j)) + xi[i] * eta[j]
            if jj[i][j] != want:
                witnesses["J^2 + I - eta(x)xi"] = \
                    f"slot ({i + 1},{j + 1}): {jj[i][j] - want}"
                break
        if witnesses:
            break
    pairing = sum((eta[i] * xi[i] for i in range(n)), Fraction(0))
    if pairing != 1:
        witnesses["eta(xi)"] = f"value {pairing}"
    jt = _transpose(J)
    lhs = _mat_mul(jt, _mat_mul(g, J))
    for i in range(n):
        for j in range(n):
            want = g[i][j] - eta[i] * eta[j]
            if lhs[i][j] != want:
                witnesses["g(J.,J.) - g + eta eta"] = \
                    f"slot ({i + 1},{j + 1}): {lhs[i][j] - want}"
                break
        else:
            continue
        break
    return AlmostContactVerdict(not witnesses, witnesses)


def fundamental_form(m: LieModel) -> Element:
    """omega(X,Y) = g(JX, Y) as a CE 2-form; checks iota_xi omega = 0."""
    verdict = validate_almost_contact(m)
    if not verdict:
        raise StructureError(
            f"almost-contact identities fail: {verdict.witnesses}")
    n = m.dimension
    jt_g = _mat_mul(_transpose(m.J), m.metric)
    alg = m.algebra()
    omega = alg.zero(2)
    for i in range(n):
        for j in range(i + 1, n):
            if jt_g[i][j] != -jt_g[j][i]:
                raise StructureError("fundamental form is not antisymmetric")
            if jt_g[i][j]:
                omega = omega + alg.monomial(i, j, coeff=jt_g[i][j])
    if not m.contract(m.xi, omega).is_zero():
        raise StructureError("iota_xi omega != 0")
    return omega


@once_per_model
def omega_element(m: LieModel) -> Element:
    """The working 2-form: fundamental form, cross-checked against any
    user-supplied override."""
    override = None
    if m.omega_terms:
        alg = m.algebra()
        override = alg.zero(2)
        for i, j, c in m.omega_terms:
            override = override + alg.monomial(i, j, coeff=c)
    if m.J is not None:
        omega = fundamental_form(m)
        if override is not None and override != omega:
            raise StructureError(
                "omega override disagrees with the fundamental form")
        return omega
    if override is None:
        raise StructureError(f"model {m.name!r} has neither J nor an omega")
    return override


def is_killing(m: LieModel, vector) -> tuple[bool, str | None]:
    """Whether L_X g = 0; witness value is (L_X g)(X_i, X_j) at the first
    failing slot."""
    g_ad = _mat_mul(m.metric, m.ad(vector))
    n = m.dimension
    for i in range(n):
        for j in range(i, n):
            # g([X, X_i], X_j) + g(X_i, [X, X_j]); g is symmetric
            val = -(g_ad[j][i] + g_ad[i][j])
            if val:
                return False, f"(X{i + 1},X{j + 1}): value {val}"
    return True, None


def is_parallel_vector(m: LieModel, vector) -> tuple[bool, str | None]:
    vec = _frac_vector(vector)
    for i in range(m.dimension):
        nab = m.nabla(i, vec)
        if any(nab):
            return False, f"nabla_X{i + 1}: {_fmt_vector(nab)}"
    return True, None


def is_parallel_covector(m: LieModel, covector) -> tuple[bool, str | None]:
    cov = _frac_vector(covector)
    gamma = m.levi_civita()
    n = m.dimension
    for i in range(n):
        for j in range(n):
            val = -sum((gamma[i][j][k] * cov[k] for k in range(n)), Fraction(0))
            if val:
                return False, f"(nabla_X{i + 1} form)(X{j + 1}) = {val}"
    return True, None


def is_parallel_tensor(m: LieModel, matrix) -> tuple[bool, str | None]:
    """(nabla_X T)Y = nabla_X(TY) - T(nabla_X Y) on basis pairs."""
    t = _frac_matrix(matrix)
    n = m.dimension
    for i in range(n):
        for j in range(n):
            ty = [t[k][j] for k in range(n)]
            first = m.nabla(i, ty)
            second = _mat_vec(t, m.nabla(i, _unit_vector(n, j)))
            diff = [first[k] - second[k] for k in range(n)]
            if any(diff):
                return False, f"(nabla_X{i + 1} T)(X{j + 1}) = {_fmt_vector(diff)}"
    return True, None


def nijenhuis_normality(m: LieModel) -> tuple[bool, str | None]:
    """Whether [J,J] + 2 d(eta) (x) xi vanishes on all basis pairs."""
    verdict = validate_almost_contact(m)
    if not verdict:
        raise StructureError(
            f"almost-contact identities fail: {verdict.witnesses}")
    J, xi, eta = m.J, m.xi, m.eta
    n = m.dimension
    jj = _mat_mul(J, J)
    cols = _transpose(J)
    for i in range(n):
        for j in range(i + 1, n):
            xi_v, xj_v = _unit_vector(n, i), _unit_vector(n, j)
            jx, jy = cols[i], cols[j]
            br = m.bracket(i, j)
            jjb = _mat_vec(jj, br)
            bjj = m.bracket_vectors(jx, jy)
            jb1 = _mat_vec(J, m.bracket_vectors(jx, xj_v))
            jb2 = _mat_vec(J, m.bracket_vectors(xi_v, jy))
            d_eta = -sum((eta[k] * br[k] for k in range(n)), Fraction(0))
            term = [jjb[k] + bjj[k] - jb1[k] - jb2[k] + 2 * d_eta * xi[k]
                    for k in range(n)]
            if any(term):
                return False, f"[J,J]+2deta(x)xi at (X{i + 1},X{j + 1}) = " \
                              f"{_fmt_vector(term)}"
    return True, None


def _fmt_vector(vec: Vector) -> str:
    bits = [f"{c}*X{k + 1}" for k, c in enumerate(vec) if c]
    return " + ".join(bits).replace("1*", "") if bits else "0"


@dataclass
class StructureVerdict:
    """Classification of an almost-contact metric Lie model."""
    almost_contact: bool
    cosymplectic: bool
    normal: bool
    coKahler: bool
    killing_xi: bool
    parallel_xi: bool
    parallel_eta: bool
    parallel_J: bool
    unimodular: bool
    witnesses: dict[str, str] = field(default_factory=dict)


@once_per_model
def classify(m: LieModel) -> StructureVerdict:
    """Full structure verdict.  The three characterizations of co-Kahler
    (cosymplectic and normal; parallel J) are computed independently and
    must agree; disagreement signals corrupt input and raises."""
    ac = validate_almost_contact(m)
    if not ac:
        raise StructureError(f"not almost contact: {ac.witnesses}")
    witnesses: dict[str, str] = {}
    omega = omega_element(m)
    d = m.ce().d
    d_omega = d.apply(omega)
    d_eta = d.apply(m.eta_element())
    cosymplectic = d_omega.is_zero() and d_eta.is_zero()
    if not d_omega.is_zero():
        witnesses["d(omega)"] = repr(d_omega)
    if not d_eta.is_zero():
        witnesses["d(eta)"] = repr(d_eta)
    normal, nwit = nijenhuis_normality(m)
    if nwit:
        witnesses["normality"] = nwit
    co_kahler = cosymplectic and normal
    killing, kwit = is_killing(m, m.xi)
    if kwit:
        witnesses["killing_xi"] = kwit
    par_xi, pxwit = is_parallel_vector(m, m.xi)
    if pxwit:
        witnesses["parallel_xi"] = pxwit
    par_eta, pewit = is_parallel_covector(m, m.eta)
    if pewit:
        witnesses["parallel_eta"] = pewit
    par_j, pjwit = is_parallel_tensor(m, m.J)
    if pjwit:
        witnesses["parallel_J"] = pjwit
    if co_kahler != par_j:
        raise StructureError(
            "classification inconsistency: cosymplectic+normal disagrees "
            "with parallel J")
    if co_kahler and not (killing and par_xi and par_eta):
        raise StructureError(
            "classification inconsistency: co-Kahler model with non-parallel "
            "or non-Killing Reeb data")
    return StructureVerdict(
        almost_contact=True, cosymplectic=cosymplectic, normal=normal,
        coKahler=co_kahler, killing_xi=killing, parallel_xi=par_xi,
        parallel_eta=par_eta, parallel_J=par_j,
        unimodular=m.is_unimodular(), witnesses=witnesses)
