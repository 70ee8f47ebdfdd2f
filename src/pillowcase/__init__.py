"""SU(2) representation varieties of knot exteriors on the pillowcase.

The package computes pillowcase images of knot-exterior character
varieties, searches for non-abelian representations of spliced manifolds,
and carries out the supporting exact integer homology calculus.

Every public name resolves on first use (PEP 562): ``import pillowcase``
loads no submodule, and ``pillowcase.glue_homology`` loads only the
layers that ``homology`` imports, not the sweep, search or render layers.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_ORIGIN = {name: module for module, names in {
    "geometry": ("LineForm", "PillowcasePoint", "PillowcasePolyline",
                 "canonicalize", "essential_class", "induced_boundary_transform",
                 "pillowcase_distance", "polyline", "polyline_intersections",
                 "sigma", "sigma_p", "tau", "P_POINT", "Q_POINT"),
    "presentations": ("GluingMatrix", "GroupPresentation", "KnotExteriorModel"),
    "su2": ("Representation", "UnitQuaternion", "boundary_angles",
            "evaluate_word", "irreducibility_gap", "relator_residual"),
    "homology": ("AbelianGroup", "abelianization", "classify_gluing",
                 "enumerate_standard_tuples", "filling_homology",
                 "glue_homology", "rational_longitude", "seifert_h1",
                 "smith_normal_form", "standard_form_reduce"),
    "families": ("builtin_model", "klein_bottle_model", "klein_filling_analysis",
                 "klein_rep", "torus_knot_model", "unknot_model"),
    "solver": ("PillowcaseImage", "SolverConfig", "extract_essential_curve",
               "find_surgery_representation", "lift_to_cut_open",
               "sample_pillowcase_image"),
    "gluer": ("SplicedManifold", "p_avoiding_certificate",
              "search_nonabelian_rep", "slope_line_certificates", "splice"),
}.items() for name in names}

_SUBMODULES = ("cli", "families", "geometry", "gluer", "homology",
               "presentations", "render", "solver", "su2")

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
