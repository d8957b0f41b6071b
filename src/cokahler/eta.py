"""The eta-operator calculus on Chevalley-Eilenberg models.

From a k-form eta on a metric model one gets a linear map on 1-forms,
nu -> contraction of eta with the metric dual of nu, its Leibniz extension
rho_eta, and the derivation d_eta = {d, rho_eta} of degree k-1.  For a
degree-1 eta dual to xi this recovers the Lie derivative along xi.  There
rho_eta is iota_xi, d_eta is L_xi and ker(d_eta) is the invariant forms, as
objects: operators and kernels are shared.  When L_xi is zero in every
degree (xi central, as on tori and K x S^1), ker(d_eta) is the full complex
itself, with one cohomology and an identity inclusion.  The invariant forms
split as Omega_1 + eta ^ Omega_1, Omega_1 the basic complex of the
foliation spanned by xi, and the fibre, the monomials without e^k when xi
is a multiple of X_k, is the unit of work: Omega_1 is L_xi's kernel there,
and Omega_eta, when L_xi e^k = 0, Omega_1 + e^k ^ Omega_1 with no
elimination.  Off the fibre they are kernels on Omega and inside Omega_eta
(``Subcomplex.kernel_of``).  The eta-multiples are Omega_1 shifted up one
degree, so they are counted, not built.  Each complex has one name, read
wherever it is used: ``invariant_forms`` is Omega_eta and
``basic_complex`` Omega_1, which ``omega_splitting`` returns once the sum
is checked.  On co-Kahler models the minimal model of Omega
is built as ℳ(Omega_1) (x) Λ(eta): ℳ(Omega_1) once, extended by a closed
t -> eta and checked as the minimal model of Omega itself, so ℳ(Omega_eta)
≅ ℳ(Omega_1) (x) Λ(eta) holds by construction and one Sullivan model is
built per report.  ``QuasiIsoReport`` is its report record, field by field.
"""

from __future__ import annotations

from . import linalg
from .cdga import (CochainComplex, Derivation, Subcomplex, derivation,
                   supercommutator, supercommutes_with_d)
from .cohomology import inclusion_induced_map, kernel_witnesses
from .errors import StructureError
from .exterior import Element
from .geometry import LieModel, classify, is_parallel_form, once_per_model
from .minimal import SullivanModel, circle_extension
from .record import Record


class EtaOperator(Record):
    """The operator package of a homogeneous form eta of degree k."""
    eta: Element
    rho: Derivation     # Leibniz extension of nu -> iota_{nu-sharp} eta
    d_eta: Derivation   # {d, rho}, degree k-1


def eta_operator(m: LieModel, eta: Element) -> EtaOperator:
    """Build rho_eta and d_eta = {d, rho_eta} for a homogeneous form eta."""
    if not isinstance(eta, Element) or eta.algebra is not m.algebra():
        raise StructureError("eta must be a form on the model's CE algebra")
    k = eta.degree
    if k < 1 and not eta.is_zero():
        raise StructureError("eta must be homogeneous of degree >= 1")
    dga = m.ce()
    images = {i: m.iota(m.sharp({i: 1})).apply(eta)
              for i in range(m.dimension)}
    rho = derivation(m.algebra(), k - 2, images, name="rho_eta")
    d_eta = supercommutator(dga.d, rho)
    if not supercommutes_with_d(dga, d_eta):
        raise StructureError("d_eta does not supercommute with d")
    return EtaOperator(eta, rho, d_eta)


@once_per_model
def build_d_eta(m: LieModel) -> EtaOperator:
    """The eta-operator package of the model's own 1-form eta."""
    return eta_operator(m, m.eta_element())


def verify_d_eta_equals_lie(m: LieModel) -> bool:
    """d_eta = L_xi in every degree, decided where d_eta is built.

    Requires eta to be the metric dual of xi, the only input the identity
    uses: it is algebraic, needing neither parallelism nor a compact
    quotient.  Then rho_eta sends e^i to eta(sharp e^i) = xi_i, iota_xi's
    generator images, so ``derivation`` hands out iota_xi as rho_eta and
    L_xi as d_eta = {d, rho_eta}: the two are one operator.  Distinct
    operators mean a corrupt construction and raise, as ``classify`` does
    on an inconsistency.
    """
    if m.flat(m._require("xi")) != m._require("eta"):
        raise StructureError("eta is not the metric dual of xi")
    if build_d_eta(m).d_eta is not m.lie_xi():
        raise StructureError(
            "construction inconsistency: eta is the dual of xi, but d_eta "
            "and L_xi are distinct operators")
    return True


def _vanishes(dga, op: Derivation) -> bool:
    """Whether op's table is zero on every basis monomial of ``dga``
    (generator images fix the table only as their Leibniz extension)."""
    return op.algebra is dga.algebra and not any(
        op.image(key) for p in range(dga.top + 1)
        for key in dga.algebra.basis(p))


def kernel_subcomplex(dga, op: Derivation) -> CochainComplex:
    """Degreewise kernel of a derivation supercommuting with d
    (``Subcomplex.kernel_of``), built on each call: Omega_eta is built once
    per model by ``invariant_forms``.  When op's table is zero on every
    basis monomial the kernel is ``dga`` itself, closed under any d."""
    if _vanishes(dga, op):
        return dga
    if not supercommutes_with_d(dga, op):
        raise StructureError(
            f"operator {op.name or op!r} does not supercommute with d; "
            "its kernel need not be a subcomplex")
    return Subcomplex.kernel_of(dga, op.columns, op.degree)


def _xi_axis(m: LieModel) -> int | None:
    """k when xi is a multiple of X_k, else None."""
    xi = m._require("xi")
    return next(iter(xi)) if len(xi) == 1 else None


@once_per_model
def invariant_forms(m: LieModel) -> CochainComplex:
    """Omega_eta: the forms annihilated by the Lie derivative along xi:
    Omega when L_xi is zero, else ``_fibre_sum`` when xi is a multiple of
    X_k and L_xi e^k = 0, else L_xi's kernel on Omega."""
    dga, lie, k = m.ce(), m.lie_xi(), _xi_axis(m)
    if k is None or lie.image(1 << k) or _vanishes(dga, lie):
        return kernel_subcomplex(dga, lie)
    return _fibre_sum(m, k)


def _fibre_sum(m: LieModel, k: int) -> Subcomplex:
    """ker L_xi = Omega_1 + e^k ^ Omega_1 for xi a multiple of X_k with
    L_xi e^k = 0: L_xi(alpha + e^k ^ beta) = L_xi alpha + e^k ^ L_xi beta
    on the fibre.  e^k ^ maps the fibre onto the other monomials in order,
    with signs, so Omega_1's rows and their e^k-multiples, each leading
    with 1, sorted, are ker L_xi's reduced rows.  An e^k-multiple that L_xi
    does not kill is a corrupt construction, and raises."""
    dga, lie, omega1, bit = m.ce(), m.lie_xi(), basic_complex(m), 1 << k
    alg, spans = dga.algebra, {}
    for p in range(dga.top + 1):
        source, index = alg.basis(p - 1), alg.basis_index(p)
        shifted = []
        for row in omega1.basis_vectors(p - 1):
            # e^k ^ e^I = (-1)^popcount(I & (bit - 1)) e^(I + k), relative
            # to the sign at the row's leading monomial
            lead = (source[min(row)] & (bit - 1)).bit_count()
            wedge = {index[source[j] | bit]:
                     -v if ((source[j] & (bit - 1)).bit_count() - lead) & 1
                     else v for j, v in row.items()}
            if not lie.apply(alg.element(p, wedge)).is_zero():
                raise StructureError(
                    "construction inconsistency: L_xi does not vanish on "
                    f"e{k + 1} ^ Omega_1 in degree {p}")
            shifted.append(wedge)
        spans[p] = sorted(omega1.basis_vectors(p) + shifted, key=min)
    return Subcomplex(dga, spans)


def splitting_obstruction(m: LieModel) -> str | None:
    """Why no splitting is computed, or None: eta(xi) != 1 breaks alpha =
    alpha1 + eta ^ iota_xi alpha; d(eta) != 0 leaves eta-multiples unclosed."""
    pairing = linalg.mat_vec([m._require("eta")], m._require("xi")).get(0, 0)
    if pairing != 1:
        return f"eta(xi) = {pairing} is not 1, so no splitting is computed"
    d_eta = m.ce().d.apply(m.eta_element())
    if d_eta.is_zero():
        return None
    return (f"d(eta) = {d_eta!r} is not zero: the eta-multiples are not "
            "closed under d, so no splitting is computed")


@once_per_model
def omega_splitting(m: LieModel) -> Subcomplex:
    """Omega_1, the basic complex, once the L_xi-invariant forms are checked
    to split as Omega_1 + eta ^ Omega_1.  Raises the ``splitting_obstruction``
    note when there is one, and when the sum is not all of Omega_eta.

    With eta(xi) = 1 and d(eta) = 0, L_xi eta = 0, so L_xi commutes with
    iota_xi and with eta ^: Omega_1, the part of ker iota_xi in Omega_eta,
    and eta ^ Omega_1 lie in Omega_eta, and d(eta ^ alpha) = -eta ^ d alpha
    keeps eta ^ Omega_1 a subcomplex.  iota_xi(eta ^ alpha) = alpha on
    Omega_1, so eta ^ is injective there and the sum is direct; it is all
    of Omega_eta exactly when iota_xi maps Omega_eta^p onto Omega_1^{p-1},
    that is when dim Omega_eta^p = dim Omega_1^p + dim Omega_1^{p-1}: by
    construction where ``_fibre_sum`` stacks Omega_eta from Omega_1."""
    obstruction = splitting_obstruction(m)
    if obstruction:
        raise StructureError(obstruction)
    sub, omega1 = invariant_forms(m), basic_complex(m)
    top = m.ce().top
    sums = [omega1.dim(p) + omega1.dim(p - 1) for p in range(top + 1)]
    failing = [f"{p} (dim Omega_eta {sub.dim(p)}, dim Omega_1 + "
               f"eta ^ Omega_1 {sums[p]})"
               for p in range(top + 1) if sub.dim(p) != sums[p]]
    if failing:
        raise StructureError(
            "Omega_1 + eta ^ Omega_1 is not the invariant forms; failing "
            f"degrees {', '.join(failing)}")
    return omega1


@once_per_model
def basic_complex(m: LieModel) -> Subcomplex:
    """Basic forms of the rank-1 foliation spanned by xi, Omega_1:
    iota_xi alpha = 0 and L_xi alpha = 0, a subcomplex of Omega_eta and of
    Omega.  For xi a multiple of X_k, ker iota_xi is the fibre, which L_xi
    preserves ([L_xi, iota_xi] = 0), so Omega_1 is L_xi's kernel on the
    fibre, whose reduced rows stay reduced in the parent's order; else
    iota_xi's kernel on Omega_eta's basis."""
    k = _xi_axis(m)
    if k is None:
        return Subcomplex.kernel_of(invariant_forms(m), m.iota_xi().columns,
                                    -1)
    dga, image, bit = m.ce(), m.lie_xi().image, 1 << k
    spans = {}
    for p in range(dga.top + 1):
        keys = dga.algebra.basis(p)
        fibre = [j for j, key in enumerate(keys) if not key & bit]
        local = {keys[j]: i for i, j in enumerate(fibre)}
        columns = [{local[key]: c for key, c in image(keys[j]).items()}
                   for j in fibre]
        kernel = linalg.kernel_span(linalg.transpose(columns, len(fibre)),
                                    len(fibre))
        spans[p] = [{fibre[i]: v for i, v in row.items()}
                    for row in kernel.rows]
    return Subcomplex(dga, spans)


def verify_basic_match(m: LieModel) -> bool:
    """Omega_1 is the basic complex of xi, decided where Omega_1 is built:
    ``omega_splitting`` returns ``basic_complex``'s object.  Distinct
    objects mean a corrupt construction and raise, as
    ``verify_d_eta_equals_lie`` does."""
    if omega_splitting(m) is not basic_complex(m):
        raise StructureError(
            "construction inconsistency: Omega_1 and the basic complex of "
            "xi are distinct subcomplexes")
    return True


class QuasiIsoReport(Record):
    """Verdict for the inclusion ker(d_eta) into the full complex."""
    eta_parallel: bool
    degreewise_iso: list[bool]
    ranks: list[int]
    betti_kernel: list[int]
    quasi_isomorphism: bool       # the inclusion is one
    kernel_witnesses: dict[int, list[str]]


@once_per_model
def verify_parallel_form_quism(m: LieModel) -> QuasiIsoReport:
    """ker(d_eta) includes quasi-isomorphically into the full complex, a
    theorem when eta is parallel: nabla_{X_i} eta = 0 for every i
    (``is_parallel_form``).  Algebraic: it needs no compact quotient."""
    parallel, _ = is_parallel_form(m, m.eta_element())
    dga, d_eta = m.ce(), build_d_eta(m).d_eta
    sub = invariant_forms(m) if d_eta is m.lie_xi() else \
        kernel_subcomplex(dga, d_eta)
    iso, ranks, kernel = [], [], {}
    for p in range(dga.top + 1):
        ind = inclusion_induced_map(sub, p)
        iso.append(ind.isomorphism)
        ranks.append(ind.rank)
        if not ind.injective:
            kernel[p] = kernel_witnesses(sub, ind)
    return QuasiIsoReport(
        eta_parallel=parallel, degreewise_iso=iso, quasi_isomorphism=all(iso),
        ranks=ranks, betti_kernel=list(sub.betti()), kernel_witnesses=kernel)


def model_tensor_split_check(m: LieModel,
                             basic: SullivanModel) -> SullivanModel:
    """ℳ(Omega), built from ``basic`` = ℳ(Omega_1) as ℳ(Omega_1) (x) Λ(t)
    with t -> eta (``circle_extension``) and checked as the minimal model of
    Omega itself.  Once the splitting holds, a (x) 1 -> a, a (x) t ->
    a ^ eta is a DGA isomorphism Omega_1 (x) Λ(t) -> Omega_eta, so with
    minimal models unique up to isomorphism the split ℳ(Omega_eta) ≅
    ℳ(Omega_1) (x) Λ(eta) rests on ℳ(Omega_1)'s own verdict."""
    if not classify(m).coKahler:
        raise StructureError(
            f"model {m.name!r} is not co-Kahler; the tensor splitting of the "
            "minimal model is only claimed under that hypothesis")
    if basic.comparison.target is not basic_complex(m):
        raise StructureError(
            "basic must be the minimal model of the basic complex Omega_1")
    return circle_extension(basic, m.ce().coords(1, m.eta_element()))
