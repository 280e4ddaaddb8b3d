"""JSON document formats: decoding, serialization, hashing.

Two document kinds exist, one for combinatorial stack data and one for
morphism candidates, documented by the schema files under ``toricdm/schemas``.
The decoder is the one structural check: in a single pass it builds the
values and rejects whatever those schemas reject, with a :class:`DocumentError`
located by a JSON pointer (``/`` is the whole document).  Integers beyond the
53-bit range safe for double-based JSON readers are written as decimal
strings, of any length; both forms are read up to ``MAX_INTEGER_DIGITS``
digits.  A cone list may name any cones that generate the fan, the maximal
ones alone or with faces and repeats; the fan keeps the maximal ones.  The
whole document is decoded before any size bound is reported, so
``too_large`` always means a well-formed document beyond a bound.
"""

from __future__ import annotations

import json
import re
from math import lcm

try:  # the bare SHA-256 extension module; ``hashlib`` loads the OpenSSL binding
    from _sha256 import sha256
except ImportError:  # Python 3.12 on
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import DocumentError, TooLargeError
from .fans import SimplicialFan
from .gerbes import PicClass, picard_group
from .lattice import IntegerMatrix
from .morphisms import MorphismData, SparsePolynomial
from .stacky import StackyData

SCHEMA_VERSION = "1"
# Largest total degree of a polynomial term.  A sample of condition B raises
# coordinates to this power, so the bound keeps one sample cheap; the chart
# check and the sampler as a whole stop at ``morphisms.CHART_WORK_LIMIT``.
MAX_TERM_DEGREE = 1000
# Largest lattice rank.  Smith forms of matrices with this many rows or
# columns cost about rank^3 big-integer steps, so the bound keeps the linear
# algebra of one document in the tens of milliseconds.
MAX_LATTICE_RANK = 128
# Most digits of an integer read from a document.  By divide and conquer,
# 20,000 digits are read in about 3 ms (10^5 in 41 ms, 10^6 in 0.8 s).
MAX_INTEGER_DIGITS = 20_000
_JSON_SAFE_MAX = 2 ** 53 - 1
_INTEGER = re.compile(r"-?[0-9]+")
_COEFFICIENT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def encode_int(value: int):
    value = int(value)
    return value if abs(value) <= _JSON_SAFE_MAX else _decimal(value)


def encode_fraction(value) -> str:
    """A rational number (a ``Fraction`` or an int) as ``p`` or ``p/q``."""
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _decimal(value: int) -> str:
    """The decimal digits of ``value``.  ``str`` refuses integers longer than
    the interpreter's digit limit (4,300 digits by default, 640 at the
    least), so a long one is split at a power of ten near half its length
    and the halves are written one by one."""
    if value < 0:
        return "-" + _decimal(-value)
    if value.bit_length() <= 2000:  # at most 603 digits
        return str(value)
    half = value.bit_length() * 3 // 20  # log10(2) / 2 is about 3 / 20
    high, low = divmod(value, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def _parse_decimal(text: str) -> int:
    """``int(text)`` for ``[0-9]+`` of any length, split as :func:`_decimal` joins."""
    if len(text) <= 600:
        return int(text)
    half = len(text) // 2
    return _parse_decimal(text[:-half]) * 10 ** half + _parse_decimal(text[-half:])


def decode_int(value, where: str = "") -> int:
    """A JSON integer, or a string matching ``-?[0-9]+`` (ASCII digits) of at
    most ``MAX_INTEGER_DIGITS`` digits; a longer one is ``too_large``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, str):
        raise DocumentError(f"expected an integer, got {type(value).__name__}", where)
    if not _INTEGER.fullmatch(value):
        raise DocumentError(f"not an integer literal: {value!r}", where)
    digits = value.lstrip("-")
    if len(digits) > MAX_INTEGER_DIGITS:
        raise TooLargeError(f"an integer of {len(digits)} digits exceeds {MAX_INTEGER_DIGITS}",
                            where)
    return -_parse_decimal(digits) if value[0] == "-" else _parse_decimal(digits)


class _BareInteger(str):
    """A bare integer literal ``int`` may refuse, kept as its digits: it reads
    and hashes as the quoted form does, but is no JSON string."""


def _decode_each(items) -> list:
    """``decode(value, where)`` of each item; a ``too_large`` integer is raised
    last, so that a structural error anywhere wins over it."""
    decoded, too_large = [], []
    for decode, value, where in items:
        try:
            decoded.append(decode(value, where))
        except TooLargeError as exc:
            too_large.append(exc)
    if too_large:
        raise too_large[0]
    return decoded


def _list_of(decode_item):
    """Decoder of a JSON list whose items ``decode_item`` decodes."""
    def decode(values, where: str) -> list:
        if not isinstance(values, list):
            raise DocumentError(f"expected a list, got {type(values).__name__}", where)
        return _decode_each((decode_item, v, f"{where}/{i}") for i, v in enumerate(values))
    return decode


_decode_int_list = _list_of(decode_int)
_decode_int_grid = _list_of(_decode_int_list)


def _decode_version(value, where: str) -> str:
    if type(value) is not str:
        raise DocumentError("schema_version must be a string", where)
    return value


def _decode_object(value, fields: dict, where: str) -> list:
    """The values of a JSON object with exactly the keys of ``fields``, each
    decoded by its field's decoder; a missing or unknown key is located here."""
    if not isinstance(value, dict):
        raise DocumentError(f"expected an object, got {type(value).__name__}", where or "/")
    for key in fields:
        if key not in value:
            raise DocumentError(f"missing required key {key!r}", where or "/")
    for key in value:
        if key not in fields:
            raise DocumentError(f"unknown key {key!r}", where or "/")
    return _decode_each((decode, value[key], f"{where}/{key}") for key, decode in fields.items())


def encode_grid(matrix: IntegerMatrix) -> list[list[Any]]:
    return [[encode_int(x) for x in row] for row in matrix.entries]


def document_hash(document: Any) -> str:
    """SHA-256 of the canonical JSON form, insensitive to key order."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Stack data documents
# ---------------------------------------------------------------------------

def _decode_stacky(document: Any, where: str) -> list:
    """The decoded fields of a stack data object, structure checked only."""
    return _decode_object(document, {
        "schema_version": _decode_version, "lattice_rank": decode_int,
        "rays": _decode_int_grid, "cones": _decode_int_grid,
        "r": _decode_int_list, "b": _decode_int_grid}, where)


def parse_stacky_document(document: Any, where: str = "") -> StackyData:
    """Build a :class:`StackyData` from a parsed JSON object, the one at JSON
    pointer ``where`` of an enclosing document.

    Structural problems raise :class:`DocumentError` with a location; the
    semantic invariants are left to :func:`toricdm.stacky.validate_data`.
    """
    return _stacky_data(_decode_stacky(document, where), where)


def _stacky_data(fields: list, where: str) -> StackyData:
    """:class:`StackyData` from decoded fields: the rank bound, then the
    shape checks the schema cannot state."""
    _, rank, rays, cones, r, b = fields
    if rank < 0:
        raise DocumentError("lattice_rank must be nonnegative", f"{where}/lattice_rank")
    if rank > MAX_LATTICE_RANK:
        raise TooLargeError(f"lattice_rank {rank} exceeds {MAX_LATTICE_RANK}",
                            f"{where}/lattice_rank")
    for i, row in enumerate(b):
        if len(row) != len(rays):
            raise DocumentError(
                f"b row {i} has {len(row)} entries for {len(rays)} rays", f"{where}/b/{i}")
    if len(b) != len(r):
        raise DocumentError(f"{len(b)} b rows for {len(r)} root orders", f"{where}/b")
    for i, idx_list in enumerate(cones):
        for idx in idx_list:
            if not 0 <= idx < len(rays):
                raise DocumentError(f"cone uses unknown ray index {idx}", f"{where}/cones/{i}")
    fan = SimplicialFan(rank, rays, cones)
    return StackyData(fan=fan, r=r, b=IntegerMatrix.from_rows(b, len(rays)))


def serialize_stacky_data(data: StackyData) -> dict:
    """Document form with only the maximal cones listed."""
    return {
        "schema_version": SCHEMA_VERSION,
        "lattice_rank": encode_int(data.lattice_rank),
        "rays": [[encode_int(x) for x in ray] for ray in data.fan.rays],
        "cones": [sorted(cone) for cone in data.fan.cones],
        "r": [encode_int(x) for x in data.r],
        "b": encode_grid(data.b),
    }


# ---------------------------------------------------------------------------
# Morphism documents
# ---------------------------------------------------------------------------

def _parse_fraction(text, where: str) -> tuple[int, int]:
    """A ``p`` or ``p/q`` coefficient string as the pair (p, q), q > 0."""
    if type(text) is not str or not _COEFFICIENT.fullmatch(text):
        raise DocumentError(f"coefficients must be p or p/q strings, got {text!r}", where)
    numerator, _, denominator = text.partition("/")
    numerator, denominator = decode_int(numerator, where), decode_int(denominator or "1", where)
    if not denominator:
        raise DocumentError(f"bad coefficient {text!r}: zero denominator", where)
    return numerator, denominator


def _decode_term(term, where: str) -> list:
    return _decode_object(term, {"coefficient": _parse_fraction,
                                 "exponents": _decode_int_list}, where)


def parse_morphism_document(document: Any) -> MorphismData:
    """Build a :class:`MorphismData` from a parsed JSON object, decoding the
    source and target in the same pass; their problems are located under
    ``/source`` and ``/target``.  Size bounds are checked only once the
    whole document has decoded, and the rank bound before any Picard
    presentation is built."""
    _, source, target, polynomials, chi_rows = _decode_object(document, {
        "schema_version": _decode_version, "source": _decode_stacky,
        "target": _decode_stacky, "polynomials": _list_of(_list_of(_decode_term)),
        "chi": _decode_int_grid}, "")
    source = _stacky_data(source, "/source")
    target = _stacky_data(target, "/target")
    n_source = source.ray_count

    polys = []
    for p_idx, terms in enumerate(polynomials):
        common = lcm(*(q for (_, q), _ in terms))
        try:  # exponent vectors of the wrong length or with a negative entry
            poly = SparsePolynomial(n_source, [(p * (common // q), exponents)
                                               for (p, q), exponents in terms], common)
        except ValueError as exc:
            raise DocumentError(f"{exc}; the source has {n_source} rays",
                                f"/polynomials/{p_idx}") from None
        for _, exponents in poly.terms:
            if sum(exponents) > MAX_TERM_DEGREE:
                raise TooLargeError(
                    f"a term of total degree {sum(exponents)} exceeds {MAX_TERM_DEGREE}",
                    f"/polynomials/{p_idx}")
        polys.append(poly)

    if chi_rows:
        if not source.is_rigid:
            raise DocumentError("chi classes require a rigid source", "/chi")
        if any(len(ray) != source.lattice_rank for ray in source.fan.rays):
            raise DocumentError("chi needs source rays of lattice_rank entries", "/source/rays")
        presentation = picard_group(source)
    chi = []
    for c_idx, values in enumerate(chi_rows):
        if len(values) != n_source:
            raise DocumentError(
                f"chi vector has {len(values)} entries for {n_source} source rays",
                f"/chi/{c_idx}")
        chi.append(PicClass(tuple(values), presentation))

    return MorphismData(source=source, target=target,
                        polys=tuple(polys), chi=tuple(chi))


# ---------------------------------------------------------------------------
# File access
# ---------------------------------------------------------------------------

def read_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_int=lambda text: int(text) if len(text) <= 600
                             else _BareInteger(text))
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}", f"line {exc.lineno}") from None
    except ValueError as exc:  # bytes that are not UTF-8
        raise DocumentError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise DocumentError(f"invalid JSON in {path}: nested too deeply") from None

