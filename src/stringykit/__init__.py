"""Exact toolkit for dual reflexive Gorenstein cones.

Builds the combinatorial and homological objects attached to a pair of
dual reflexive Gorenstein cones (face lattices, Jacobian-type rings,
double Koszul complexes, intersection cohomology sheaves on fans, GKZ
connection matrices) and verifies the structural theorems about them on
desk-scale examples, entirely in rational arithmetic.
"""

from .gkz import connection_on_hb, curvature_report
from .gpoly import g_polynomial
from .jacobian import (CoefficientFunction, Context, coefficient_function,
                       log_derivative_elements, random_coefficients)
from .koszul import (cohomology_d, cohomology_dhat, decomposition_dims,
                     hb_assemble, v_basis)
from .lattice import (Cone, Face, FacePoset, GorensteinPair, cone_from_rays,
                      cone_over_polytope, dual_cone, dual_face,
                      make_gorenstein_pair, points_at_degree)
from .sheaves import FanSpace

__version__ = "0.1.0"

__all__ = [
    "CoefficientFunction", "Cone", "Context", "Face", "FacePoset", "FanSpace",
    "GorensteinPair", "coefficient_function", "cohomology_d",
    "cohomology_dhat", "cone_from_rays", "cone_over_polytope",
    "connection_on_hb", "curvature_report", "decomposition_dims",
    "dual_cone", "dual_face", "g_polynomial", "hb_assemble",
    "log_derivative_elements", "make_gorenstein_pair", "points_at_degree",
    "random_coefficients", "v_basis",
]
