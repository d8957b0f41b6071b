"""Exact operator calculus for co-Kahler and cosymplectic Lie-algebra models.

The package builds free graded-commutative algebras and Chevalley-Eilenberg
complexes over the rationals, classifies almost-contact metric structures,
and verifies the operator identities, splittings, Lefschetz isomorphisms and
formality obstructions those structures carry.  Everything is exact: Betti
numbers, ranks and tensor identities are computed over Q with fraction-free
elimination, so verdicts carry no tolerances.
"""

from .cdga import (AlgebraMap, DGA, Derivation, Subcomplex,
                   invariant_subalgebra, supercommutator, supercommutes_with_d)
from .cohomology import CohomologyRing, inclusion_induced_map, \
    kunneth_convolution
from .errors import ModelParseError, StructureError
from .eta import (EtaOperator, basic_complex, build_d_eta, eta_operator,
                  invariant_forms, kernel_subcomplex,
                  model_tensor_split_check, omega_splitting, verify_basic_match,
                  verify_d_eta_equals_lie, verify_parallel_form_quism)
from .exterior import Element, Generator, GradedAlgebra
from .geometry import (LieModel, StructureVerdict, classify, is_killing,
                       is_parallel_form, nijenhuis_normality, omega_element,
                       validate_almost_contact)
from .lefschetz import (LefschetzReport, lefschetz_map, mapping_torus_model,
                        splitting_check, verify_lefschetz_iso)
from .linalg import Span
from .massey import MasseyTriple, degree_one_massey_scan, triple_massey
from .minimal import SullivanModel, minimal_model
from .modelfile import ModelFile, load, load_corpus, loads, resolve, serialize
from .report import build_report, render_json

__version__ = "0.1.0"

__all__ = [
    "AlgebraMap", "CohomologyRing", "DGA", "Derivation", "Element",
    "EtaOperator", "Generator", "GradedAlgebra", "LefschetzReport", "LieModel",
    "MasseyTriple", "ModelFile", "ModelParseError", "Span", "StructureError",
    "StructureVerdict", "Subcomplex", "SullivanModel",
    "basic_complex", "build_d_eta", "build_report", "classify",
    "degree_one_massey_scan", "eta_operator", "inclusion_induced_map",
    "invariant_forms", "invariant_subalgebra", "is_killing",
    "is_parallel_form", "kernel_subcomplex",
    "kunneth_convolution", "lefschetz_map", "load", "load_corpus", "loads",
    "mapping_torus_model", "minimal_model",
    "model_tensor_split_check", "nijenhuis_normality", "omega_element",
    "omega_splitting", "render_json", "resolve", "serialize",
    "splitting_check", "supercommutator", "supercommutes_with_d",
    "triple_massey", "validate_almost_contact",
    "verify_basic_match", "verify_d_eta_equals_lie", "verify_lefschetz_iso",
    "verify_parallel_form_quism",
]
