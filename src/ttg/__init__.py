"""Thick-submodule spaces over finite tensor triangulated models."""

from .presentation import (CategoryPresentation, ModulePresentation,
                           ResourceError, StructuralError, chain_model,
                           self_module, summands, support_model, validate)
from .thick import (GenerationCertificate, add, all_submodules, bar, delta,
                    generate, is_thick, principal, witnesses)
from .operators import (FamilySpec, OperatorSpec, c_infinity, classify,
                        division, from_family, identity_operator, radical,
                        table_operator, validate_family)
from .space import (SModSpace, basis_properties, enumerate_smod, fixed_points,
                    spectral_report, ultrafilter_check)
from .monoid import identity_element, monoid_op, monoid_report

__all__ = [
    "CategoryPresentation", "ModulePresentation", "ResourceError",
    "StructuralError", "chain_model", "self_module", "summands",
    "support_model", "validate",
    "GenerationCertificate", "add", "all_submodules", "bar", "delta",
    "generate", "is_thick", "principal", "witnesses",
    "FamilySpec", "OperatorSpec", "c_infinity", "classify", "division",
    "from_family", "identity_operator", "radical", "table_operator",
    "validate_family",
    "SModSpace", "basis_properties", "enumerate_smod", "fixed_points",
    "spectral_report", "ultrafilter_check",
    "identity_element", "monoid_op", "monoid_report",
]

__version__ = "0.1.0"
