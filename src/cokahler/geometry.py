"""Left-invariant metric geometry on Lie-algebra models.

A LieModel is a Lie algebra with structure constants over the rationals, an
inner product, and an optional almost-contact structure (J, xi, eta).  All
geometry is evaluated on left-invariant data, so every check is a finite
exact computation: the Koszul formula gives the Levi-Civita connection,
Killing/parallel conditions are matrix identities, and the induced
Chevalley-Eilenberg complex carries the differential calculus.

Tangent vectors, covectors and n x n matrices (metric, J, ad, Gamma) are
``linalg`` sparse vectors and matrices, and all arithmetic on them goes
through ``linalg``.  ``LieModel.__init__`` is the one place where dense
input rows, as a model file gives them, become sparse.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import linalg
from .cdga import DGA, Derivation, derivation, supercommutator
from .errors import StructureError
from .exterior import Element, Generator, GradedAlgebra
from .linalg import Matrix, Vector
from .record import Fresh, Record


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
    The Jacobi identity is enforced at construction as d(d e^k) = 0 on the
    induced Chevalley-Eilenberg complex (d's degree-2 images only; the
    report records d's Leibniz verdict).  ``metric``, ``xi``, ``eta``, ``J``
    and the automorphism matrix are given as dense rows, checked for shape,
    and stored sparse.
    """

    def __init__(self, dimension: int, brackets: dict, name: str = "model",
                 metric=None, xi=None, eta=None, J=None, automorphism=None):
        self.name = name
        self.dimension = dimension
        self.brackets: dict[tuple[int, int], Vector] = {}
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
                c = linalg.exact(c)
                if c:
                    clean[k] = c
            if clean:
                self.brackets[(i, j)] = clean
        if metric is None:
            self.metric = linalg.identity(dimension)
        else:
            self.metric = _sparse_rows("metric", metric, dimension, dimension)
            _check_metric(metric, dimension)
        self.xi = _sparse_rows("xi", [xi], 1, dimension)[0] \
            if xi is not None else None
        self.eta = _sparse_rows("eta", [eta], 1, dimension)[0] \
            if eta is not None else None
        self.J = _sparse_rows("J", J, dimension, dimension) \
            if J is not None else None
        self.automorphism = None
        if automorphism is not None:
            mat, order = automorphism
            self.automorphism = ([linalg.sparse(row) for row in mat],
                                 int(order))
        self._derived: dict = {}    # see once_per_model
        d = self.ce().d
        if not all(d.apply(img).is_zero() for img in d.images.values()):
            raise StructureError(
                f"structure constants of {name!r} violate the Jacobi identity")

    # -- brackets ------------------------------------------------------------

    def bracket(self, i: int, j: int) -> Vector:
        if i > j:
            return {k: -c for k, c in self.bracket(j, i).items()}
        return dict(self.brackets.get((i, j), {}))

    def ad(self, vector: Vector) -> Matrix:
        """Matrix of ad_X: column j is [X, X_j], in one pass over the
        brackets [X_i, X_j] = c^k_ij X_k with i < j."""
        out: Matrix = [{} for _ in range(self.dimension)]
        for (i, j), comps in self.brackets.items():
            for k, c in comps.items():
                if i in vector:
                    out[k][j] = out[k].get(j, 0) + vector[i] * c
                if j in vector:
                    out[k][i] = out[k].get(i, 0) - vector[j] * c
        return [{j: v for j, v in row.items() if v} for row in out]

    def is_unimodular(self) -> bool:
        return all(sum(row.get(k, 0) for k, row in enumerate(self.ad({i: 1})))
                   == 0 for i in range(self.dimension))

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
        return self.algebra().element(1, self.eta)

    # -- metric moves ----------------------------------------------------------

    @once_per_model
    def metric_inverse(self) -> Matrix:
        """g^-1, from ``linalg.factor``'s transform of [g | I], whose columns
        are the rows of g^-1 as g is symmetric (and invertible, as it is
        positive definite)."""
        return linalg.factor(self.metric, self.dimension)[1]

    def sharp(self, covector: Vector) -> Vector:
        """Metric isomorphism T*->T (inverse metric applied to components)."""
        return linalg.mat_vec(self.metric_inverse(), covector)

    def flat(self, vector: Vector) -> Vector:
        return linalg.mat_vec(self.metric, vector)

    # -- contraction and Lie derivative -----------------------------------------

    def iota(self, vector: Vector) -> Derivation:
        """Interior product with a vector, as a shared degree -1 derivation."""
        alg = self.algebra()
        images = {i: alg.scalar(c) for i, c in vector.items()}
        return derivation(alg, -1, images, name="iota")

    def lie(self, vector: Vector) -> Derivation:
        """Lie derivative {d, iota_X} (Cartan)."""
        return supercommutator(self.ce().d, self.iota(vector))

    def lie_coadjoint(self, vector: Vector) -> Derivation:
        """Lie derivative built without d or iota: on invariant 1-forms,
        (L_X e^k)(Y) = -e^k([X, Y])."""
        alg = self.algebra()
        images = {k: alg.element(1, {j: -c for j, c in row.items()})
                  for k, row in enumerate(self.ad(vector)) if row}
        return derivation(alg, 0, images, name="L_coadjoint")

    @once_per_model
    def iota_xi(self) -> Derivation:
        return self.iota(self._require("xi"))

    @once_per_model
    def lie_xi(self) -> Derivation:
        return supercommutator(self.ce().d, self.iota_xi())

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
                rhs = {}
                for k in range(n):
                    v = low[i][j].get(k, 0) - low[j][k].get(i, 0) \
                        + low[k][i].get(j, 0)
                    if v:
                        rhs[k] = Fraction(v, 2)
                gamma[i][j] = {k: linalg.exact(c) for k, c
                               in linalg.mat_vec(ginv, rhs).items()}
        _check_connection(self, gamma)
        return gamma


def _sparse_rows(label: str, rows, count: int, n: int) -> Matrix:
    """The sparse form of ``count`` dense input rows of length n."""
    if len(rows) != count or any(len(row) != n for row in rows):
        raise StructureError(f"{label} has the wrong shape")
    return [linalg.sparse(row) for row in rows]


def _check_metric(g, n: int):
    """Symmetry and positive definiteness of the n dense metric rows."""
    for i in range(n):
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise StructureError(f"metric is not symmetric at ({i},{j})")
    # elimination without row exchanges: while the leading minors are
    # positive, the k-th pivot is minor_k / minor_{k-1} (Sylvester), so the
    # first pivot <= 0 names the first leading minor <= 0
    rows = [[Fraction(v) for v in row] for row in g]
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
            if linalg.combine({0: 1, 1: -1}, [gamma[i][j], gamma[j][i]]) \
                    != m.bracket(i, j):
                raise StructureError("Koszul connection is not torsion-free")
    # low[i][j][k] = g(nabla_{X_i} X_j, X_k); g is symmetric (_check_metric)
    low = [[m.flat(gamma[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if low[i][j].get(k, 0) + low[i][k].get(j, 0) != 0:
                    raise StructureError("Koszul connection is not metric")


# -- structure validation ---------------------------------------------------------


class AlmostContactVerdict(Record):
    ok: bool
    witnesses: dict[str, str] = Fresh(dict)

    def __bool__(self) -> bool:
        return self.ok


@once_per_model
def validate_almost_contact(m: LieModel) -> AlmostContactVerdict:
    """Exact check of J^2 = -I + eta (x) xi, eta(xi) = 1, and the metric
    compatibility g(JX, JY) = g(X, Y) - eta(X) eta(Y), once per model."""
    for name in ("J", "xi", "eta"):
        m._require(name)
    n = m.dimension
    J, xi, eta, g = m.J, m.xi, m.eta, m.metric
    witnesses: dict[str, str] = {}
    slot = _first_slot(linalg.mat_sub(
        linalg.mat_mul(J, J),
        linalg.mat_sub(_outer(xi, eta, n), linalg.identity(n))))
    if slot:
        witnesses["J^2 + I - eta(x)xi"] = slot
    pairing = linalg.mat_vec([eta], xi).get(0, 0)
    if pairing != 1:
        witnesses["eta(xi)"] = f"value {pairing}"
    slot = _first_slot(linalg.mat_sub(
        linalg.mat_mul(linalg.transpose(J, n), linalg.mat_mul(g, J)),
        linalg.mat_sub(g, _outer(eta, eta, n))))
    if slot:
        witnesses["g(J.,J.) - g + eta eta"] = slot
    return AlmostContactVerdict(not witnesses, witnesses)


def _outer(u: Vector, v: Vector, n: int) -> Matrix:
    """The n x n matrix u (x) v, with entry (i, j) = u_i v_j."""
    return [{j: u[i] * b for j, b in v.items()} if i in u else {}
            for i in range(n)]


def _first_slot(mat: Matrix) -> str | None:
    """The first nonzero entry of mat in row-major order, as a witness."""
    for i, row in enumerate(mat):
        if row:
            j = min(row)
            return f"slot ({i + 1},{j + 1}): {row[j]}"
    return None


@once_per_model
def omega_element(m: LieModel) -> Element:
    """The fundamental form omega(X,Y) = g(JX, Y) as a CE 2-form, built once
    per model; checks iota_xi omega = 0."""
    verdict = validate_almost_contact(m)
    if not verdict:
        raise StructureError(
            f"almost-contact identities fail: {verdict.witnesses}")
    n = m.dimension
    jt_g = linalg.mat_mul(linalg.transpose(m.J, n), m.metric)
    alg = m.algebra()
    omega = alg.zero(2)
    for i in range(n):
        for j in range(i + 1, n):
            c = jt_g[i].get(j, 0)
            if c != -jt_g[j].get(i, 0):
                raise StructureError("fundamental form is not antisymmetric")
            if c:
                omega = omega + alg.monomial(i, j, coeff=c)
    if not m.iota_xi().apply(omega).is_zero():
        raise StructureError("iota_xi omega != 0")
    return omega


def is_killing(m: LieModel, vector: Vector) -> tuple[bool, str | None]:
    """Whether L_X g = 0; witness value is (L_X g)(X_i, X_j) at the first
    failing slot."""
    g_ad = linalg.mat_mul(m.metric, m.ad(vector))
    n = m.dimension
    for i in range(n):
        for j in range(i, n):
            # g([X, X_i], X_j) + g(X_i, [X, X_j]); g is symmetric
            val = -(g_ad[j].get(i, 0) + g_ad[i].get(j, 0))
            if val:
                return False, f"(X{i + 1},X{j + 1}): value {val}"
    return True, None


def is_parallel_vector(m: LieModel, vector: Vector) -> tuple[bool, str | None]:
    for i in range(m.dimension):
        nab = linalg.combine(vector, m.levi_civita()[i])    # nabla_{X_i}
        if nab:
            return False, f"nabla_X{i + 1}: {_fmt_vector(nab)}"
    return True, None


def is_parallel_covector(m: LieModel,
                         covector: Vector) -> tuple[bool, str | None]:
    """(nabla_X alpha)(X_j) = -alpha(nabla_X X_j) on basis pairs."""
    gamma = m.levi_civita()
    for i in range(m.dimension):
        vals = linalg.mat_vec(gamma[i], covector)
        if vals:
            j = min(vals)
            return False, f"(nabla_X{i + 1} form)(X{j + 1}) = {-vals[j]}"
    return True, None


def is_parallel_tensor(m: LieModel, matrix: Matrix) -> tuple[bool, str | None]:
    """(nabla_X T)Y = nabla_X(TY) - T(nabla_X Y) on basis pairs.

    Row j of gamma[i] is nabla_{X_i} X_j, so gamma[i] is the transpose G^t
    of nabla_{X_i} as a matrix G, and the rows of T^t G^t - G^t T^t are the
    columns (nabla_{X_i} T)(X_j) of G T - T G."""
    n = m.dimension
    tt = linalg.transpose(matrix, n)
    for i, gam in enumerate(m.levi_civita()):
        cols = linalg.mat_sub(linalg.mat_mul(tt, gam), linalg.mat_mul(gam, tt))
        for j, col in enumerate(cols):
            if col:
                return False, \
                    f"(nabla_X{i + 1} T)(X{j + 1}) = {_fmt_vector(col)}"
    return True, None


def nijenhuis_normality(m: LieModel) -> tuple[bool, str | None]:
    """Whether [J,J] + 2 d(eta) (x) xi vanishes on all basis pairs."""
    verdict = validate_almost_contact(m)
    if not verdict:
        raise StructureError(
            f"almost-contact identities fail: {verdict.witnesses}")
    J, xi, eta = m.J, m.xi, m.eta
    n = m.dimension
    jj = linalg.mat_mul(J, J)
    cols = linalg.transpose(J, n)       # cols[i] = J X_i
    ad_x = [m.ad({i: 1}) for i in range(n)]
    ad_jx = [m.ad(col) for col in cols]
    for i in range(n):
        for j in range(i + 1, n):
            br = m.bracket(i, j)
            # J[JX_i, X_j] + J[X_i, JX_j]
            jb = linalg.mat_vec(J, linalg.combine({0: 1, 1: 1}, [
                linalg.mat_vec(ad_jx[i], {j: 1}),
                linalg.mat_vec(ad_x[i], cols[j])]))
            d_eta = -linalg.mat_vec([eta], br).get(0, 0)
            term = linalg.combine({0: 1, 1: 1, 2: -1, 3: 2 * d_eta}, [
                linalg.mat_vec(jj, br), linalg.mat_vec(ad_jx[i], cols[j]),
                jb, xi])
            if term:
                return False, f"[J,J]+2deta(x)xi at (X{i + 1},X{j + 1}) = " \
                              f"{_fmt_vector(term)}"
    return True, None


_SIGNS = {1: "", -1: "-"}


def _fmt_vector(vec: Vector) -> str:
    """A nonzero vector as its terms c*X_k; c = 1 and c = -1 print as a
    bare sign."""
    return " + ".join(f"{_SIGNS.get(c, f'{c}*')}X{k + 1}"
                      for k, c in sorted(vec.items()))


class StructureVerdict(Record):
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
    witnesses: dict[str, str] = Fresh(dict)


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
    checks = {"normality": nijenhuis_normality(m),
              "killing_xi": is_killing(m, m.xi),
              "parallel_xi": is_parallel_vector(m, m.xi),
              "parallel_eta": is_parallel_covector(m, m.eta),
              "parallel_J": is_parallel_tensor(m, m.J)}
    witnesses.update((k, wit) for k, (_, wit) in checks.items() if wit)
    normal, killing, par_xi, par_eta, par_j = (ok for ok, _ in checks.values())
    co_kahler = cosymplectic and normal
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
