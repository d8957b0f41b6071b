"""Lefschetz maps, cohomology splitting, and mapping-torus models.

On a (2n+1)-dimensional model the degree-p Lefschetz map is

    alpha -> omega^{n-p+1} ^ iota_xi(alpha) + omega^{n-p} ^ eta ^ alpha.

It only sends closed forms to closed forms after restricting to the
L_xi-invariant forms, where it descends to cohomology; on co-Kahler models
the induced map in degrees 0..n must be an isomorphism onto the
complementary degrees.

With alpha_2 = eta ^ iota_xi(alpha) and alpha_1 = alpha - alpha_2, the
eta-term is L(alpha_1) and the iota-term L(alpha_2) (``_terms``).  The
invariant forms split as complexes, Omega_eta = Omega_1 + eta ^ Omega_1
(``omega_splitting``), so H_eta = H_1 + [eta] ^ H_1 is a Betti identity,
and each term falls in its block, the iota-term in Omega_1 (checked).
Each degree is the ``induced_map`` of L on Omega_eta, one class per column.
The splitting and mapping-torus results are their report records as they are.
"""

from __future__ import annotations

from . import linalg
from .cdga import DGA, AlgebraMap, invariant_subalgebra
from .cohomology import InducedMap, induced_map, kernel_witnesses, \
    kunneth_convolution
from .errors import StructureError
from .exterior import Element, Generator
from .eta import basic_complex, invariant_forms, omega_splitting
from .geometry import LieModel, classify, omega_element, once_per_model
from .record import Record


def _contact_rank(m: LieModel) -> int:
    if m.dimension % 2 == 0:
        raise StructureError(
            f"model {m.name!r} has even dimension {m.dimension}; "
            "the Lefschetz calculus needs dimension 2n+1")
    return (m.dimension - 1) // 2


@once_per_model
def _omega_powers(m: LieModel) -> list[Element]:
    """omega^0, ..., omega^{n+1}, each wedged once per model."""
    powers = [m.algebra().unit()]
    for _ in range(_contact_rank(m) + 1):
        powers.append(powers[-1].wedge(omega_element(m)))
    return powers


def _terms(m: LieModel, alpha: Element) -> tuple[Element, Element]:
    """The two terms of the Lefschetz map on alpha of degree p <= n:
    (omega^{n-p} ^ eta ^ alpha, omega^{n-p+1} ^ iota_xi alpha)."""
    powers = _omega_powers(m)
    k = _contact_rank(m) - alpha.degree
    return (powers[k].wedge(m.eta_element()).wedge(alpha),
            powers[k + 1].wedge(m.iota_xi().apply(alpha)))


def lefschetz_map(m: LieModel, alpha: Element) -> Element:
    """Apply the Lefschetz map to alpha in Omega^p_eta, 0 <= p <= n.

    Inputs outside the invariant forms are refused: there the map does not
    send closed forms to closed forms and cannot descend to cohomology.
    """
    n = _contact_rank(m)
    p = alpha.degree
    if not 0 <= p <= n:
        raise StructureError(f"Lefschetz map needs 0 <= degree <= {n}, got {p}")
    if not m.lie_xi().apply(alpha).is_zero():
        raise StructureError(
            "alpha is not L_xi-invariant: on such forms the Lefschetz map "
            "does not descend to cohomology; pass an element of Omega_eta")
    eta_term, iota_term = _terms(m, alpha)
    out = iota_term + eta_term
    if not m.lie_xi().apply(out).is_zero():
        raise StructureError("Lefschetz image left the invariant forms")
    if m.ce().d.apply(alpha).is_zero() and not m.ce().d.apply(out).is_zero():
        raise StructureError("Lefschetz image of a closed form is not closed")
    return out


class LefschetzDegree(InducedMap):
    """The induced map H^p_eta -> H^{2n+1-p}_eta."""
    kernel_witnesses: list[str]


class LefschetzReport(Record):
    n: int
    hypothesis_cokahler: bool
    degrees: list[LefschetzDegree]
    # omega^n ^ eta represents a nonzero top class; None when not computed
    top_class_nonzero: bool | None
    # set when the map does not descend to cohomology and nothing was computed
    note: str | None

    @property
    def all_iso(self) -> bool:
        return all(d.isomorphism for d in self.degrees)


def verify_lefschetz_iso(m: LieModel) -> LefschetzReport:
    """Induced Lefschetz maps on the invariant cohomology for p <= n, each
    ``induced_map`` of L on Omega_eta (``_component_split_ok``).
    That each is an isomorphism needs a compact quotient, so that verdict
    binds only on unimodular models.  Off cosymplectic models the map does
    not descend to cohomology: a note and no degrees."""
    n = _contact_rank(m)
    verdict = classify(m)
    if not verdict.cosymplectic:
        return LefschetzReport(
            n, verdict.coKahler, [], None,
            "model is not cosymplectic: the Lefschetz map does not descend "
            "to cohomology; no ranks computed")
    sub = invariant_forms(m)
    degrees = []
    for p in range(n + 1):
        q = 2 * n + 1 - p
        ind = induced_map(sub, p, sub, q, lambda rep: _component_split_ok(
            m, sub.element(p, rep), q))
        degrees.append(LefschetzDegree(
            **vars(ind), kernel_witnesses=kernel_witnesses(sub, ind)))
    top = sub.coords(2 * n + 1, _omega_powers(m)[n].wedge(m.eta_element()))
    top_nonzero = bool(sub.cohomology().class_of(2 * n + 1, top))
    return LefschetzReport(n, verdict.coKahler, degrees, top_nonzero, None)


def _component_split_ok(m, elem, q) -> linalg.Vector:
    """L(elem)'s coordinates on Omega_eta^q.  omega is basic and Omega_1 a
    subalgebra, so L's iota-term lies in Omega_1^q and the eta-term in
    eta ^ Omega_1: each falls in its block of H_eta = H_1 + [eta] ^ H_1.
    An iota-term outside Omega_1 is a corrupt construction and raises, as
    ``verify_basic_match`` does."""
    eta_term, iota_term = _terms(m, elem)
    omega1 = basic_complex(m)
    if omega1.parent.coords(q, iota_term) not in omega1.span(q):
        raise StructureError(
            "construction inconsistency: the iota-term of the Lefschetz map "
            f"leaves Omega_1 in degree {q}")
    return invariant_forms(m).coords(q, eta_term + iota_term)


class SplittingReport(Record):
    """dim H^p_eta = dim H^p_1 + dim H^{p-1}_1, the Betti numbers of H_1 (x)
    Lambda(eta): Omega_eta = Omega_1 + eta ^ Omega_1 as complexes
    (``omega_splitting``), so this is H_eta = H_1 + [eta] ^ H_1, read on two
    cohomologies computed apart."""
    betti_eta: list[int]
    betti_omega1: list[int]
    cohomology_split: list[bool]

    @property
    def ok(self) -> bool:
        return all(self.cohomology_split)


def splitting_check(m: LieModel) -> SplittingReport:
    h1 = list(omega_splitting(m).betti())
    h_eta = list(invariant_forms(m).betti())
    want = kunneth_convolution(h1, (1, 1))
    return SplittingReport(
        betti_eta=h_eta, betti_omega1=h1,
        cohomology_split=[b == w for b, w in zip(h_eta, want)])


class MappingTorus(Record):
    """Mapping-torus model: the phi-invariant forms of K extended by a
    closed circle generator t, phi extended by t -> t; ``fixed_convolved``
    is the Betti vector of K's phi-invariant forms convolved with (1, 1)."""
    order: int
    betti: list[int]
    fixed_betti: list[int]
    fixed_convolved: list[int]
    circle_generator: str


def mapping_torus_model(k_dga: DGA, phi: AlgebraMap,
                        order: int) -> MappingTorus:
    """Model of the mapping torus of a finite-order automorphism: K
    extended by t with dt = 0 (``DGA.extend``, which keeps K's truncation
    degree), and phi's images lifted there (``GradedAlgebra.lift``).  Its
    Betti verdict is algebraic: it needs no compact quotient."""
    used = {g.name for g in k_dga.algebra.generators}
    # t0, t1, ... after the four short names: one of len(used) + 1 is free
    name = next(c for c in ("t", "s", "u", "z",
                            *(f"t{i}" for i in range(len(used) + 1)))
                if c not in used)
    fixed = list(invariant_subalgebra(k_dga, phi, order).betti())
    total = k_dga.extend([Generator(name, 1)], {})
    alg = total.algebra
    phi_hat = AlgebraMap(alg, dict(enumerate([*map(alg.lift, phi.images),
                                              alg.gen(name)])),
                         name=f"{phi.name or 'phi'}^")
    betti = list(invariant_subalgebra(total, phi_hat, order).betti())
    return MappingTorus(
        order=order, betti=betti, fixed_betti=fixed, circle_generator=name,
        fixed_convolved=list(kunneth_convolution(fixed, (1, 1))))
