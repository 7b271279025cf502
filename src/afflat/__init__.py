"""afflat: exact invariants and orbit decisions for the integer affine
group acting on rational affine spaces, segments, angles, triangles,
ellipses and polyhedra."""

from .affine import (AffineInvariant, AffineSpace, affine_equivalence,
                     affine_invariant, affine_span, c_invariant, extend_frame,
                     min_den_point, regular_frame)
from .angles import (Angle, AngleInvariant, HalfLine, TriangleInvariant,
                     angle, angle_equivalence, angle_invariant,
                     max_regular_point, min_den_completion, triangle,
                     triangle_equivalence, triangle_invariant)
from .complexes import Triangulation, blow_up
from .cones import cone, desingularize, fan_rays
from .conics import (ELLIPSE, ELLIPSE_NO_POINT, NOT_ELLIPSE, Conic,
                     RationalEllipse, center, classify, conic,
                     conjugate_diameter, ellipse, ellipse_equivalence,
                     ellipse_from_semidiameters, ellipse_invariant,
                     legendre_solve, min_index_pairs, rational_points)
from .core import (UniAffMap, apply, complete_to_lattice_basis, den,
                   extends_to_basis, farey_mediant, is_regular, lift, simplex,
                   simplex_map, unlift)
from .errors import (AfflatError, InputError, InternalCheckError, NotInClass,
                     SearchBudgetExceeded)
from .polyhedra import (Hull, convex_hull, poly_set_equal, polyhedron,
                        polyhedron_equivalence, regular_simplex_in,
                        triangulate)
from .segments import (SideInvariant, hj_chain, lambda1, lambda1_via,
                       segment_equivalence, side_invariant)

__version__ = "0.1.0"
