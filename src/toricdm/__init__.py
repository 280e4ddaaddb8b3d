"""Exact computations with toric Deligne-Mumford stacks given combinatorially.

The combinatorial datum is a simplicial fan with a chosen lattice point on
each ray, a list of positive root orders, and an integer twist matrix.  The
package computes the quotient-group presentation, isotropy groups, Picard
groups, banded-gerbe classification and homogeneous-polynomial morphism
verdicts, all in exact integer and rational arithmetic.

Each public name below is imported from its module on first access (PEP
562), so that a command loads only the modules it runs.
"""

import sys

_EXPORTS = {
    "errors": """ConeNotInFanError DocumentError MismatchedSourceTargetError
        MismatchedUnderlyingDataError NonSpanningRaysError NotHomogeneousError
        NotInChainFormError SourceNotCompleteError SourceNotRigidError
        TargetRaysNotSpanningError TooLargeError ToricError ValidationReport Value
        Violation ZeroPolynomialError""",
    "fans": """SimplicialFan ZeroPattern is_admissible_zero_pattern is_complete rays_span
        validate_fan""",
    "gerbes": """PicardPresentation PicClass canonicalize gerbe_class is_isomorphic_banded
        picard_group""",
    "lattice": """FgAbelianGroup IntegerMatrix SnfDecomposition cokernel
        cokernel_with_projection cyclic_chain smith_normal_form""",
    "morphisms": """ConditionBVerdict MorphismData SparsePolynomial TwoIsoVerdict
        check_condition_a check_condition_b check_two_isomorphic degree
        validate_morphism_data""",
    "oracle": """FiniteGroupTable det_cofactor oracle_banded_isomorphic
        oracle_cones_meet_along_common_face oracle_divisibility
        oracle_element_order_census oracle_is_group_isomorphism oracle_quotient_enumerate
        oracle_stabilizer_order oracle_verify_snf""",
    "stacky": """QuotientGroupDesc StackyData StackyFan build_matrices dm_torus
        generic_stabilizer point_stabilizer psi_exponents quotient_group rigidify
        split_nonspanning stacky_fan validate_data""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def _module(name):
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    """A public name, or one of the modules above, imported on first use."""
    if name in _EXPORTS:
        return _module(name)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_module(_MODULE_OF[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
