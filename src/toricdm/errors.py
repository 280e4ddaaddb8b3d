"""Exception hierarchy, validation-report containers, the base class of
the immutable value types and the decimal form of an integer of any length,
shared across the package."""

from __future__ import annotations


def decimal_str(value: int) -> str:
    """The decimal digits of ``value``.  ``str`` refuses integers longer than
    the interpreter's digit limit (4,300 digits by default, 640 at the
    least), so a long one is split at a power of ten near half its length
    and the halves are written one by one."""
    if value < 0:
        return "-" + decimal_str(-value)
    if value.bit_length() <= 2000:  # at most 603 digits
        return str(value)
    half = value.bit_length() * 3 // 20  # log10(2) / 2 is about 3 / 20
    high, low = divmod(value, 10 ** half)
    return decimal_str(high) + decimal_str(low).zfill(half)


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


class Value:
    """Base of the package's immutable value types.

    A subclass names its fields in order in ``_fields`` and stores them in
    its own ``__init__`` through ``self.__dict__``.  Two values are equal
    when they are of the same class and their field tuples are equal; a
    value hashes as its field tuple, its repr lists the fields, and it
    rejects assignment and deletion.  That is what ``@dataclass(frozen=True)``
    generates, without importing ``dataclasses`` (and ``inspect``) and
    compiling the methods at start-up, which cost every command-line run
    about 35 ms.
    """

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Tuple comparison treats identical items as equal, so ``self is
        # other`` gives the dataclass answer without building the tuples.
        return self is other or self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(Value):
    """One failed invariant, with a machine-usable witness when available."""

    _fields = ("code", "message", "witness")

    def __init__(self, code: str, message: str, witness: object = None):
        self.__dict__.update(code=code, message=message, witness=witness)


class ValidationReport(Value):
    _fields = ("violations",)

    def __init__(self, violations: tuple[Violation, ...] = ()):
        self.__dict__.update(violations=violations)

    @property
    def valid(self) -> bool:
        return not self.violations

    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None
