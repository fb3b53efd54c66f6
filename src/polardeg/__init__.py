"""Exact-arithmetic degrees of polar maps and logarithmic-foliation Gauss maps."""

from .errors import (DegenerateInputError, FieldMismatchError, GenericityError,
                     ParseError, PolardegError, ResourceLimitError)
from .fields import DEFAULT_PRIME, GF, QQ, PrimeField, RationalField
from .foliations import (LogFoliation, associated_foliation, e_degree,
                         foliation_from_form, gauss_map, integrability_defect,
                         logarithmic_form, restrict_to_generic_subspace,
                         singular_scheme_degree_p2)
from .groebner import (GroebnerBasis, groebner, ideal_dimension, is_reduced_zero_dim,
                       is_zero_dimensional, quotient_dimension)
from .parse import parse_poly, parse_weights
from .poly import MultiPoly, euler_contraction, gcd_multivariate, gradient, poly_str
from .polar import (DegreeReport, RationalMapRep, TrialOutcome,
                    WeightedFunction, map_degree, polar_map,
                    polar_degrees_profile, weighted_polar_map)
from .rand import SeedStream, random_scalar
from .verify import (SUITES, VerificationOutcome, run_dolgachev_suite,
                     run_resonance_example, verify_corollary_deg,
                     verify_gauss_theorem, verify_invariance,
                     verify_polar_relation, verify_product_bound)

__version__ = "0.1.0"
