"""The eta-operator calculus on Chevalley-Eilenberg models.

From a k-form eta on a metric model one gets a linear map on 1-forms,
nu -> contraction of eta with the metric dual of nu, its Leibniz extension
rho_eta, and the derivation d_eta = {d, rho_eta} of degree k-1.  For a
degree-1 eta dual to xi this recovers the Lie derivative along xi, whose
kernel subcomplex splits into the forms annihilated by iota_xi and their
eta-multiples; the former coincide with the basic forms of the foliation
spanned by xi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cdga import (Derivation, Subcomplex, supercommutator,
                   supercommutes_with_d)
from .cohomology import inclusion_induced_map
from .errors import StructureError
from .exterior import Element
from .geometry import LieModel, classify, is_parallel_covector, once_per_model


@dataclass
class EtaOperator:
    """The operator package of a homogeneous form eta of degree k."""
    eta: Element
    rho: Derivation     # Leibniz extension of nu -> iota_{nu-sharp} eta
    d_eta: Derivation   # {d, rho}, degree k-1

    @property
    def form_degree(self) -> int:
        return self.eta.degree

    def eta_bar(self, one_form: Element) -> Element:
        """The underlying degree k-2 map on 1-forms (rho restricted)."""
        if one_form.degree != 1 and not one_form.is_zero():
            raise StructureError("eta_bar acts on 1-forms")
        return self.rho.apply(one_form)


def eta_operator(m: LieModel, eta: Element) -> EtaOperator:
    """Build rho_eta and d_eta = {d, rho_eta} for a homogeneous form eta."""
    if not isinstance(eta, Element) or eta.algebra is not m.algebra():
        raise StructureError("eta must be a form on the model's CE algebra")
    k = eta.degree
    if k < 1 and not eta.is_zero():
        raise StructureError("eta must be homogeneous of degree >= 1")
    dga = m.ce()
    images = {}
    for i in range(m.dimension):
        nu_sharp = m.sharp(linalg.unit_vector(m.dimension, i))
        img = m.iota(nu_sharp).apply(eta)
        if not img.is_zero():
            images[i] = img
    rho = Derivation(m.algebra(), k - 2, images, name="rho_eta")
    d_eta = supercommutator(dga.d, rho)
    d_eta.name = "d_eta"
    if d_eta.degree != k - 1:
        raise StructureError("degree bookkeeping failure: |d_eta| != k-1")
    if not supercommutes_with_d(dga, d_eta):
        raise StructureError("d_eta does not supercommute with d")
    return EtaOperator(eta, rho, d_eta)


@once_per_model
def build_d_eta(m: LieModel) -> EtaOperator:
    """The eta-operator package of the model's own 1-form eta."""
    return eta_operator(m, m.eta_element())


@dataclass
class DEtaLieReport:
    """Degreewise comparison of d_eta with the Lie derivative along xi."""
    equal: bool
    degreewise: list[bool]
    degree0: bool
    degree1: bool


def verify_d_eta_equals_lie(m: LieModel) -> DEtaLieReport:
    """Check d_eta = L_xi degree by degree.

    Requires eta to be the metric dual of xi, which is the only input the
    identity uses; parallelism is not needed.
    """
    if m.flat(m._require("xi")) != m._require("eta"):
        raise StructureError("eta is not the metric dual of xi")
    d_eta = build_d_eta(m).d_eta
    lie = m.lie_xi()
    alg = m.algebra()
    degreewise = []
    for p in range(alg.top + 1):
        ok = all(
            d_eta.apply(Element(alg, p, {key: Fraction(1)}))
            == lie.apply(Element(alg, p, {key: Fraction(1)}))
            for key in alg.basis(p))
        degreewise.append(ok)
    return DEtaLieReport(all(degreewise), degreewise,
                         degreewise[0], degreewise[1] if len(degreewise) > 1 else True)


def kernel_subcomplex(dga, op: Derivation) -> Subcomplex:
    """Degreewise kernel of a derivation supercommuting with d."""
    if op.algebra is not dga.algebra:
        raise StructureError("operator acts on a different algebra")
    if not supercommutes_with_d(dga, op):
        raise StructureError(
            f"operator {op.name or op!r} does not supercommute with d; "
            "its kernel need not be a subcomplex")
    spans = {p: linalg.kernel_basis(op.matrix(p), dga.dim(p))
             for p in range(dga.top + 1)}
    return Subcomplex(dga, spans, check_closed=True)


@once_per_model
def invariant_forms(m: LieModel) -> Subcomplex:
    """Omega_eta: the forms annihilated by the Lie derivative along xi."""
    return kernel_subcomplex(m.ce(), m.lie_xi())


@dataclass
class SplitPair:
    """alpha = alpha1 + alpha2 with iota_xi alpha1 = 0 and eta ^ alpha2 = 0."""
    alpha1: Element
    alpha2: Element

    @property
    def total(self) -> Element:
        return self.alpha1 + self.alpha2


def split_form(m: LieModel, alpha: Element) -> SplitPair:
    """alpha1 = alpha - eta ^ iota_xi alpha, alpha2 = eta ^ iota_xi alpha."""
    eta = m.eta_element()
    alpha2 = eta.wedge(m.contract(m._require("xi"), alpha))
    alpha1 = alpha - alpha2
    if not m.contract(m.xi, alpha1).is_zero():
        raise StructureError("split failure: iota_xi alpha1 != 0")
    if not eta.wedge(alpha2).is_zero():
        raise StructureError("split failure: eta ^ alpha2 != 0")
    return SplitPair(alpha1, alpha2)


def _restricted_kernel(m: LieModel, sub: Subcomplex, p: int,
                       operator_columns) -> list[list[Fraction]]:
    """Kernel, inside a subcomplex degree, of a linear map given by its
    action on the subcomplex basis (parent coordinates); returns parent
    coordinate vectors."""
    cols = [operator_columns(vec) for vec in sub.basis_vectors(p)]
    if not cols:
        return []
    rows = len(cols[0])
    mat = [[col[i] for col in cols] for i in range(rows)]
    kern = linalg.kernel_basis(mat, sub.dim(p))
    return [sub.parent_coords(p, v) for v in kern]


@dataclass
class OmegaSplitting:
    """Omega_eta = Omega_1 + eta ^ Omega_1 (directly, in positive degrees)."""
    omega_eta: Subcomplex
    omega1: Subcomplex
    omega2: Subcomplex
    direct_sum: list[bool]        # index p, asserted for p > 0
    eta_wedge_match: list[bool]   # Omega_2^p = eta ^ Omega_1^{p-1}
    ok: bool


@once_per_model
def omega_splitting(m: LieModel) -> OmegaSplitting:
    """Split the L_xi-invariant forms into the iota_xi kernel and its
    eta-multiples, verifying directness and the eta-wedge description."""
    sub = invariant_forms(m)
    dga = m.ce()
    iota = m.iota_xi()
    eta = m.eta_element()
    top = dga.top
    spans1: dict[int, list] = {}
    spans2: dict[int, list] = {}
    for p in range(top + 1):
        spans1[p] = _restricted_kernel(
            m, sub, p,
            lambda vec, p=p: dga.coords(p - 1, iota.apply(dga.element(p, vec))))
        if p == 0:
            # the unit is an eta-multiple only trivially; keep degree 0 in
            # the iota-kernel summand and start Omega_2 at degree 1
            spans2[0] = []
            continue
        spans2[p] = _restricted_kernel(
            m, sub, p,
            lambda vec, p=p: dga.coords(p + 1, eta.wedge(dga.element(p, vec))))
    omega1 = Subcomplex(dga, spans1, check_closed=True)
    omega2 = Subcomplex(dga, spans2, check_closed=True)
    direct = [True]
    eta_match = [True]
    for p in range(1, top + 1):
        dims_add = omega1.dim(p) + omega2.dim(p) == sub.dim(p)
        stacked = [list(r) for r in omega1.basis_vectors(p)] + \
                  [list(r) for r in omega2.basis_vectors(p)]
        independent = linalg.rank(stacked) == len(stacked) if stacked else True
        direct.append(dims_add and independent)
        wedge_span = [dga.coords(p, eta.wedge(dga.element(p - 1, row)))
                      for row in omega1.basis_vectors(p - 1)]
        eta_match.append(linalg.same_span(wedge_span, omega2.basis_vectors(p)))
    ok = all(direct) and all(eta_match)
    if not all(direct):
        raise StructureError(
            "Omega_1 + Omega_2 is not a direct sum of the invariant forms; "
            f"failing degrees {[p for p, v in enumerate(direct) if not v]}")
    return OmegaSplitting(sub, omega1, omega2, direct, eta_match, ok)


@once_per_model
def basic_complex(m: LieModel) -> Subcomplex:
    """Basic forms of the rank-1 foliation spanned by xi:
    iota_xi alpha = 0 and iota_xi d alpha = 0."""
    dga = m.ce()
    iota = m.iota_xi()
    spans = {}
    for p in range(dga.top + 1):
        n = dga.dim(p)
        rows = [list(r) for r in iota.matrix(p)]
        if dga.dim(p + 1) > 0:
            d_then_iota = linalg.mat_mul(iota.matrix(p + 1), dga.d_matrix(p))
            rows += [list(r) for r in d_then_iota]
        spans[p] = linalg.kernel_basis(rows, n)
    return Subcomplex(dga, spans, check_closed=True)


@dataclass
class BasicMatchReport:
    """Degreewise comparison of Omega_1 with the basic complex of xi."""
    per_degree: list[bool]
    equal: bool
    asserted: bool    # contract applies only under the co-Kahler hypothesis


def verify_basic_match(m: LieModel) -> BasicMatchReport:
    split = omega_splitting(m)
    basic = basic_complex(m)
    per_degree = [linalg.same_span(
        [list(r) for r in split.omega1.basis_vectors(p)],
        [list(r) for r in basic.basis_vectors(p)])
        for p in range(m.ce().top + 1)]
    return BasicMatchReport(per_degree, all(per_degree), classify(m).coKahler)


@dataclass
class QuasiIsoReport:
    """Verdict for the inclusion ker(d_eta) into the full complex."""
    eta_parallel: bool
    degreewise_iso: list[bool]
    ranks: list[int]
    sub_betti: tuple[int, ...]
    full_betti: tuple[int, ...]
    conclusion: bool              # inclusion is a quasi-isomorphism
    kernel_witnesses: dict[int, list[str]]

    @property
    def asserted(self) -> bool:
        """Whether the parallel-form hypothesis makes the verdict binding."""
        return self.eta_parallel

    @property
    def ok(self) -> bool:
        return self.conclusion if self.eta_parallel else True


def verify_parallel_form_quism(m: LieModel) -> QuasiIsoReport:
    """Check that ker(d_eta) includes quasi-isomorphically into the full
    complex; binding when eta is parallel, informational otherwise."""
    parallel, _ = is_parallel_covector(m, m._require("eta"))
    dga = m.ce()
    sub = kernel_subcomplex(dga, build_d_eta(m).d_eta)
    iso, ranks, witnesses = [], [], {}
    for p in range(dga.top + 1):
        ind = inclusion_induced_map(sub, p)
        iso.append(ind.isomorphism)
        ranks.append(ind.rank)
        if not ind.injective:
            ring = sub.cohomology()
            witnesses[p] = [
                repr(sub.element(p, ring.representative_of(p, kv)))
                for kv in ind.kernel_classes]
    return QuasiIsoReport(parallel, iso, ranks, sub.betti(),
                          dga.cohomology().betti(), all(iso), witnesses)
