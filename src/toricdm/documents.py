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

This module is the package's one reader and writer of JSON text.  It calls
the C scanner and encoder of ``_json`` directly, because ``json`` compiles
six regular expressions at import; ``json`` itself is imported only to word
a rejected text and to write a value the fast writers do not know, and each
of these answers is exactly the one ``json`` gives.
"""

from __future__ import annotations

from math import lcm

try:  # the bare SHA-256 extension module; ``hashlib`` loads the OpenSSL binding
    from _sha256 import sha256
except ImportError:  # Python 3.12 on
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

try:  # the accelerator ``json`` itself runs on
    from _json import encode_basestring_ascii, make_encoder, make_scanner
except ImportError:  # an interpreter without it: ``json`` serves every call
    from json.encoder import encode_basestring_ascii
    make_encoder = make_scanner = None

from .errors import DocumentError, ToricError, TooLargeError, decimal_str
from .fans import SimplicialFan
from .lattice import IntegerMatrix
from .stacky import StackyData

SCHEMA_VERSION = "1"
# Largest total degree of a polynomial term.  A sample of condition B raises
# coordinates to this power, so the bound keeps one sample cheap; the chart
# check and the sampler as a whole stop at ``morphisms.CHART_WORK_LIMIT``.
MAX_TERM_DEGREE = 1000
# Evaluations the search for a rational witness of a refuted condition B may
# spend, unless a request names another budget.
DEFAULT_SAMPLE_BUDGET = 2000
# Largest lattice rank.  Smith forms of matrices with this many rows or
# columns cost about rank^3 big-integer steps, so the bound keeps the linear
# algebra of one document in the tens of milliseconds.
MAX_LATTICE_RANK = 128
# Most digits of an integer read from a document.  By divide and conquer,
# 20,000 digits are read in about 3 ms (10^5 in 41 ms, 10^6 in 0.8 s).
MAX_INTEGER_DIGITS = 20_000
_JSON_SAFE_MAX = 2 ** 53 - 1


# ---------------------------------------------------------------------------
# JSON text
# ---------------------------------------------------------------------------

def _reference():
    """``json``, whose answers the readers and writers here reproduce."""
    import json
    return json


class _BareInteger(str):
    """A bare integer literal ``int`` may refuse, kept as its digits: it reads
    and hashes as the quoted form does, but is no JSON string."""


def _parse_int(text: str):
    """A bare integer of more than 600 characters stays a :class:`_BareInteger`."""
    return int(text) if len(text) <= 600 else _BareInteger(text)


class _Reading:
    """The settings of ``json.loads`` as the scanner reads them, with integers
    read by ``int`` itself, which the scanner does without a call back."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"NaN": float("nan"), "Infinity": float("inf"),
                      "-Infinity": float("-inf")}.__getitem__


class _ReadingLong(_Reading):
    parse_int = staticmethod(_parse_int)


_WHITESPACE = " \t\n\r"
# A text with no run of 600 digits has no integer of more than 600 characters.
_DIGITS_TO_ZERO = str.maketrans("123456789", "000000000")
_scans = (make_scanner(_Reading), make_scanner(_ReadingLong)) if make_scanner else None


def loads(text: str):
    """``json.loads(text, parse_int=_parse_int)``.

    The scanner is called as ``json`` calls it, between whitespace.  Where it
    fails, ``json`` reads the text again and raises its own
    ``JSONDecodeError``: the scanner looks that class up among the loaded
    modules and, with ``json`` not loaded, raises a bare ``SystemError``.
    Only ``RecursionError`` passes straight through, as ``json`` gives the
    same."""
    if _scans is not None:
        scan = _scans["0" * 600 in text.translate(_DIGITS_TO_ZERO)]
        try:
            value, end = scan(text, len(text) - len(text.lstrip(_WHITESPACE)))
        except (StopIteration, ValueError, SystemError):
            pass
        else:
            if len(text.rstrip(_WHITESPACE)) <= end:
                return value
    return _reference().loads(text, parse_int=_parse_int)


def _not_serializable(value):
    raise TypeError(type(value).__name__)


def _writer(separators: tuple[str, str], sort_keys: bool):
    """``json.dumps`` with these separators and key order, as a function of
    the value: one C call, with ``json`` writing whatever the encoder refuses
    (unknown types and keys, cycles), so that its error is the one raised."""
    def reference(value) -> str:
        return _reference().dumps(value, separators=separators, sort_keys=sort_keys)

    if make_encoder is None:
        return reference
    encode = make_encoder(None, _not_serializable, encode_basestring_ascii, None,
                          separators[1], separators[0], sort_keys, False, True)

    def dumps(value) -> str:
        try:
            return "".join(encode(value, 0))
        except (TypeError, ValueError, RecursionError):
            return reference(value)
    return dumps


_canonical = _writer((",", ":"), True)
_line = _writer((", ", ": "), False)


def dumps(value) -> str:
    """``json.dumps(value)``: one line, keys in their order."""
    return _line(value)


def dumps_indented(value) -> str:
    """``json.dumps(value, indent=2)``.  Dicts with string keys, lists,
    strings, ints, booleans and None are written here; anything else, a
    subclass or a float included, hands the whole value to ``json``."""
    chunks: list[str] = []
    try:
        _indented(value, "\n", chunks)
    except TypeError:
        return _reference().dumps(value, indent=2)
    return "".join(chunks)


def _indented(value, newline: str, out: list) -> None:
    """Append the chunks of ``value`` at the indentation ``newline`` ends with."""
    kind = type(value)
    inner = newline + "  "  # the indentation of the items of a list or dict
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    elif kind is list:
        if not value:
            out.append("[]")
        elif all(type(item) is int for item in value):  # a row of a grid, in one join
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value))
                       + newline + "]")
        else:
            separator = "[" + inner
            for item in value:
                out.append(separator)
                _indented(item, inner, out)
                separator = "," + inner
            out.append(newline + "]")
    elif kind is dict:
        separator = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(type(key).__name__)
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _indented(item, inner, out)
            separator = "," + inner
        out.append(newline + "}" if value else "{}")
    else:
        raise TypeError(kind.__name__)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

def encode_int(value: int):
    value = int(value)
    return value if abs(value) <= _JSON_SAFE_MAX else decimal_str(value)


def encode_fraction(value) -> str:
    """A rational number (a ``Fraction`` or an int) as ``p`` or ``p/q``."""
    if value.denominator == 1:
        return decimal_str(value.numerator)
    return f"{decimal_str(value.numerator)}/{decimal_str(value.denominator)}"


def _parse_decimal(text: str) -> int:
    """``int(text)`` for ``[0-9]+`` of any length, split as ``decimal_str`` joins."""
    if len(text) <= 600:
        return int(text)
    half = len(text) // 2
    return _parse_decimal(text[:-half]) * 10 ** half + _parse_decimal(text[-half:])


def _is_digits(text: str) -> bool:
    """Is ``text`` in ``[0-9]+``?  ``isdigit`` alone also takes other scripts' digits."""
    return text.isascii() and text.isdigit()


def decode_int(value, where: str = "") -> int:
    """A JSON integer, or a string matching ``-?[0-9]+`` (ASCII digits) of at
    most ``MAX_INTEGER_DIGITS`` digits; a longer one is ``too_large``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, str):
        raise DocumentError(f"expected an integer, got {type(value).__name__}", where)
    digits = value.removeprefix("-")
    if not _is_digits(digits):
        raise DocumentError(f"not an integer literal: {value!r}", where)
    if len(digits) > MAX_INTEGER_DIGITS:
        raise TooLargeError(f"an integer of {len(digits)} digits exceeds {MAX_INTEGER_DIGITS}",
                            where)
    return -_parse_decimal(digits) if value[0] == "-" else _parse_decimal(digits)


def _decode_each(items) -> list:
    """``decode(value, where)`` of each item; a ``too_large`` integer is raised
    last, so that a structural error anywhere wins over it.  The decoders
    below call this only once a first pass, which locates nothing, has
    failed: a location is built for each item of a document that fails."""
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
        try:
            return [decode_item(v, where) for v in values]
        except ToricError:
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
    try:
        return [decode(value[key], where) for key, decode in fields.items()]
    except ToricError:
        return _decode_each((decode, value[key], f"{where}/{key}")
                            for key, decode in fields.items())


def encode_grid(matrix: IntegerMatrix) -> list[list[Any]]:
    return [[encode_int(x) for x in row] for row in matrix.entries]


def document_hash(document: Any) -> str:
    """SHA-256 of the canonical JSON form, ``json.dumps(document,
    sort_keys=True, separators=(",", ":"))``, insensitive to key order."""
    return sha256(_canonical(document).encode()).hexdigest()


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
        raise TooLargeError(f"lattice_rank {decimal_str(rank)} exceeds {MAX_LATTICE_RANK}",
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
                raise DocumentError(f"cone uses unknown ray index {decimal_str(idx)}",
                                    f"{where}/cones/{i}")
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

def _is_coefficient(text: str) -> bool:
    """Is ``text`` in ``-?[0-9]+(/[0-9]+)?``?"""
    numerator, slash, denominator = text.partition("/")
    return _is_digits(numerator.removeprefix("-")) and (not slash or _is_digits(denominator))


def _parse_fraction(text, where: str) -> tuple[int, int]:
    """A ``p`` or ``p/q`` coefficient string as the pair (p, q), q > 0."""
    if type(text) is not str or not _is_coefficient(text):
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
    from . import gerbes, morphisms

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
            poly = morphisms.SparsePolynomial(
                n_source, [(p * (common // q), exponents) for (p, q), exponents in terms], common)
        except ValueError as exc:
            raise DocumentError(f"{exc}; the source has {n_source} rays",
                                f"/polynomials/{p_idx}") from None
        for _, exponents in poly.terms:
            if sum(exponents) > MAX_TERM_DEGREE:
                raise TooLargeError(
                    f"a term of total degree {decimal_str(sum(exponents))} exceeds "
                    f"{MAX_TERM_DEGREE}",
                    f"/polynomials/{p_idx}")
        polys.append(poly)

    if chi_rows:
        if not source.is_rigid:
            raise DocumentError("chi classes require a rigid source", "/chi")
        if any(len(ray) != source.lattice_rank for ray in source.fan.rays):
            raise DocumentError("chi needs source rays of lattice_rank entries", "/source/rays")
        presentation = gerbes.picard_group(source)
    chi = []
    for c_idx, values in enumerate(chi_rows):
        if len(values) != n_source:
            raise DocumentError(
                f"chi vector has {len(values)} entries for {n_source} source rays",
                f"/chi/{c_idx}")
        chi.append(gerbes.PicClass(tuple(values), presentation))

    return morphisms.MorphismData(source=source, target=target,
                                  polys=tuple(polys), chi=tuple(chi))


# ---------------------------------------------------------------------------
# File access
# ---------------------------------------------------------------------------

def read_json(path) -> Any:
    """The JSON document in the file at ``path``, as :func:`loads` reads it;
    an unreadable file or text is a :class:`DocumentError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return loads(handle.read())
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}") from None
    except RecursionError:
        raise DocumentError(f"invalid JSON in {path}: nested too deeply") from None
    except ValueError as exc:  # ``json``'s error has a line; bytes that are not UTF-8 none
        line = getattr(exc, "lineno", None)
        raise DocumentError(f"invalid JSON in {path}: {exc}",
                            f"line {line}" if line else "") from None
