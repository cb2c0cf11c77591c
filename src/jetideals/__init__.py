"""Exact jet-ring algebra, ideal operations, allowed/forbidden direction
computation on the sphere, and certificate verification for implication
between polynomial identities at small scales."""

from .errors import (DegreeOverflowError, DimensionMismatchError, DomainError,
                     JetIdealsError, ParseError, SignatureMismatchError)
from .jetring import (MORE_THAN_M, DiffeoJet, Jet, RingSignature, format_jet,
                      jet_compose, jet_parse)
from .ideal import JetIdeal
from .geometry import (Annulus, Cone, Direction, direction_of,
                       dome_membership, estimate_tangent_directions,
                       read_point_cloud, sphere_cover)
from .directions import (DirectionSet, ForbiddenCertificate, allow_overapprox,
                         exact_zero_residual, forbidden_certificate_search,
                         verify_forbidden_certificate)
from .interval import Interval
from .symfun import (Cutoff, CutoffSpec, DEFAULT_CUTOFF, Gauge,
                     RegularizedGauge, ScalarExpr, expr_derive, expr_eval,
                     expr_parse, expr_str, gauge_regularize)
from .verifier import (ImplicationCertificate, NegligibilityCertificate,
                       check_annulus_condition, check_flat,
                       check_negligible, check_strong_directional,
                       check_strong_global, check_tame, meet)

__version__ = "0.1.0"
