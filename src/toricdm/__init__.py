"""Exact computations with toric Deligne-Mumford stacks given combinatorially.

The combinatorial datum is a simplicial fan with a chosen lattice point on
each ray, a list of positive root orders, and an integer twist matrix.  The
package computes the quotient-group presentation, isotropy groups, Picard
groups, banded-gerbe classification and homogeneous-polynomial morphism
verdicts, all in exact integer and rational arithmetic.
"""

from .errors import (ConeNotInFanError, DocumentError,
                     MismatchedSourceTargetError, MismatchedUnderlyingDataError,
                     NonSpanningRaysError, NotHomogeneousError,
                     NotInChainFormError, SourceNotCompleteError,
                     SourceNotRigidError, TargetRaysNotSpanningError,
                     TooLargeError, ToricError, ValidationReport, Value,
                     Violation, ZeroPolynomialError)
from .fans import (SimplicialFan, ZeroPattern, is_admissible_zero_pattern, is_complete,
                   rays_span, validate_fan)
from .gerbes import (PicardPresentation, PicClass, canonicalize, gerbe_class,
                     is_isomorphic_banded, picard_group)
from .lattice import (FgAbelianGroup, IntegerMatrix, SnfDecomposition,
                      cokernel, cokernel_with_projection, cyclic_chain,
                      smith_normal_form)
from .morphisms import (ConditionBVerdict, MorphismData, SparsePolynomial,
                        TwoIsoVerdict, check_condition_a, check_condition_b,
                        check_two_isomorphic, degree, validate_morphism_data)
from .oracle import (FiniteGroupTable, det_cofactor, oracle_banded_isomorphic,
                     oracle_cones_meet_along_common_face, oracle_divisibility,
                     oracle_element_order_census, oracle_is_group_isomorphism,
                     oracle_quotient_enumerate, oracle_stabilizer_order,
                     oracle_verify_snf)
from .stacky import (QuotientGroupDesc, StackyData, StackyFan, build_matrices,
                     dm_torus, generic_stabilizer, point_stabilizer, psi_exponents,
                     quotient_group, rigidify, split_nonspanning, stacky_fan,
                     validate_data)

__version__ = "0.1.0"
