"""Thick-submodule spaces over finite tensor triangulated models.

Importing ``ttg`` loads none of its submodules.  Each public name and
each submodule is imported from its home module on first use (PEP 562),
so ``from ttg import docio`` loads only what ``docio`` needs.
"""

from importlib import import_module

_EXPORTS = {
    "presentation": ("CategoryPresentation", "ModulePresentation",
                     "ResourceError", "StructuralError", "chain_model",
                     "self_module", "support_model", "validate"),
    "thick": ("GenerationCertificate", "all_submodules", "generate",
              "is_thick", "witnesses"),
    "operators": ("OperatorSpec", "classify", "division", "from_family",
                  "identity_operator", "radical", "table_operator",
                  "validate_family"),
    "space": ("SModSpace", "basis_properties", "enumerate_smod", "fixed_points",
              "fixed_space", "spectral_report", "ultrafilter_check"),
    "monoid": ("monoid_report",),
    "docio": (),
    "cli": (),
}

# The home module of each public name, and of each submodule by its own name.
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module,) + names}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name)) from None
    module = import_module("." + home, __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
