"""The eta-operator calculus on Chevalley-Eilenberg models.

From a k-form eta on a metric model one gets a linear map on 1-forms,
nu -> contraction of eta with the metric dual of nu, its Leibniz extension
rho_eta, and the derivation d_eta = {d, rho_eta} of degree k-1.  For a
degree-1 eta dual to xi this recovers the Lie derivative along xi.  There
rho_eta is iota_xi, d_eta is L_xi and ker(d_eta) is the invariant forms, as
objects: operators and kernels are shared.  When L_xi is zero in every
degree (xi central, as on tori and K x S^1), ker(d_eta) is the full complex
itself, with one cohomology and an identity inclusion.  The invariant forms
split as Omega_1 + eta ^ Omega_1: Omega_1, the basic complex of the
foliation spanned by xi, is iota_xi's kernel inside Omega_eta (every
kernel subcomplex is ``Subcomplex.kernel_of``), and the eta-multiples are
Omega_1 shifted up one degree, so they are counted, not built.  Each
complex has one name, read wherever it is used: ``invariant_forms`` is
Omega_eta and ``basic_complex`` Omega_1, which ``omega_splitting`` returns
once the sum is checked.  On co-Kahler models the minimal model of Omega
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


def kernel_subcomplex(dga, op: Derivation) -> CochainComplex:
    """Degreewise kernel of a derivation supercommuting with d
    (``Subcomplex.kernel_of``), built on each call: Omega_eta is built once
    per model by ``invariant_forms``.  When op's table is zero on every
    basis monomial the kernel is ``dga`` itself, closed under any d.  The
    test reads the table: generator images fix it only as their Leibniz
    extension."""
    if op.algebra is dga.algebra and not any(
            op.image(key) for p in range(dga.top + 1)
            for key in dga.algebra.basis(p)):
        return dga
    if not supercommutes_with_d(dga, op):
        raise StructureError(
            f"operator {op.name or op!r} does not supercommute with d; "
            "its kernel need not be a subcomplex")
    return Subcomplex.kernel_of(dga, op.columns, op.degree)


@once_per_model
def invariant_forms(m: LieModel) -> CochainComplex:
    """Omega_eta: the forms annihilated by the Lie derivative along xi."""
    return kernel_subcomplex(m.ce(), m.lie_xi())


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
    that is when dim Omega_eta^p = dim Omega_1^p + dim Omega_1^{p-1}."""
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
    iota_xi alpha = 0 and L_xi alpha = 0, so iota_xi's kernel on Omega_eta,
    a subcomplex of Omega_eta and of Omega."""
    return Subcomplex.kernel_of(invariant_forms(m), m.iota_xi().columns, -1)


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
