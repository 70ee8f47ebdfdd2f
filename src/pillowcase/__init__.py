"""SU(2) representation varieties of knot exteriors on the pillowcase.

The package computes pillowcase images of knot-exterior character
varieties, searches for non-abelian representations of spliced manifolds,
and carries out the supporting exact integer homology calculus.
"""

from .geometry import (GluingMatrix, LineForm, PillowcasePoint, PillowcasePolyline,
                       canonicalize, essential_class, induced_boundary_transform,
                       pillowcase_distance, polyline, polyline_intersections,
                       sigma, sigma_p, tau, P_POINT, Q_POINT)
from .presentations import GroupPresentation, KnotExteriorModel
from .su2 import (Representation, UnitQuaternion, boundary_angles,
                  evaluate_word, irreducibility_gap, relator_residual)
from .homology import (AbelianGroup, abelianization, classify_gluing,
                       enumerate_standard_tuples, filling_homology,
                       glue_homology, rational_longitude, seifert_h1,
                       smith_normal_form, standard_form_reduce)
from .families import (builtin_model, klein_bottle_model,
                       klein_filling_analysis, klein_rep, torus_knot_model,
                       unknot_model)
from .solver import (PillowcaseImage, SolverConfig, extract_essential_curve,
                     find_surgery_representation, lift_to_cut_open,
                     sample_pillowcase_image, solve_at_meridian_angle)
from .gluer import (SplicedManifold, p_avoiding_certificate,
                    search_nonabelian_rep, slope_line_certificates, splice)

__version__ = "0.1.0"
