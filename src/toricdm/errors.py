"""Exception hierarchy and validation-report containers shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class ToricError(Exception):
    """Base class for every error this package raises deliberately.

    ``location`` is a JSON-pointer-like path into the offending document,
    empty when the error has none.
    """

    code = "error"

    def __init__(self, message: str, location: str = ""):
        super().__init__(message)
        self.location = location


class NonSpanningRaysError(ToricError):
    """The operation requires the ray vectors to span the ambient lattice."""

    code = "non_spanning_rays"


class ConeNotInFanError(ToricError):
    """A cone was requested that is not part of the fan."""

    code = "cone_not_in_fan"


class MismatchedUnderlyingDataError(ToricError):
    """Two data sets do not share the same lattice, fan and ray vectors."""

    code = "mismatched_underlying_data"


class NotInChainFormError(ToricError):
    """The root orders are not in divisor-chain form; canonicalize first."""

    code = "not_in_chain_form"


class NotHomogeneousError(ToricError):
    """A polynomial mixes terms of different degree classes."""

    code = "not_homogeneous"


class ZeroPolynomialError(ToricError):
    """The zero polynomial has no well-defined degree."""

    code = "zero_polynomial"


class MismatchedSourceTargetError(ToricError):
    """Two morphism data sets do not share source, target and twist classes."""

    code = "mismatched_source_target"


class SourceNotCompleteError(ToricError):
    """Morphism checks require the source fan to be complete."""

    code = "source_not_complete"


class TargetRaysNotSpanningError(ToricError):
    """Morphism checks require the target rays to span the target lattice."""

    code = "target_rays_not_spanning"


class SourceNotRigidError(ToricError):
    """Morphism sources must carry no root data (R = 0)."""

    code = "source_not_rigid"


class TooLargeError(ToricError):
    """An input or a computation exceeded one of its hard size bounds."""

    code = "too_large"


class DocumentError(ToricError):
    """A JSON document failed to parse or violated its schema."""

    code = "document_error"


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with a machine-usable witness when available."""

    code: str
    message: str
    witness: object = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.violations

    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None
