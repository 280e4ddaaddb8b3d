"""The document decoder is the only structural check: it must reject every
document the shipped schemas reject, with a located :class:`DocumentError`
and never another exception.  ``jsonschema`` is the oracle."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricdm
from toricdm import cli, documents
from toricdm.errors import DocumentError, TooLargeError

from conftest import schema_errors

P1 = {"schema_version": "1", "lattice_rank": 1,
      "rays": [[-1], [1]], "cones": [[0], [1]], "r": [], "b": []}
STACKY_DOCS = [
    P1,
    {"schema_version": "1", "lattice_rank": 1,
     "rays": [[-3], [2]], "cones": [[0], [1]], "r": [2], "b": [[0, 1]]},
    {"schema_version": "1", "lattice_rank": 2,
     "rays": [["1", 0], [0, 1], [-1, "-1"]], "cones": [[0, 1], [1, 2], [0, 2]],
     "r": [2, "6"], "b": [[0, 1, 1], [1, "0", 5]]},
    {"schema_version": "1", "lattice_rank": 2,
     "rays": [[str(2 ** 70), 4]], "cones": [[0]], "r": [], "b": []},
]
MORPHISM_DOCS = [
    {"schema_version": "1", "source": P1, "target": P1,
     "polynomials": [[{"coefficient": "1", "exponents": [3, 0]}],
                     [{"coefficient": "-1/2", "exponents": [0, "3"]}]],
     "chi": []},
    {"schema_version": "1", "source": P1, "target": STACKY_DOCS[1],
     "polynomials": [[{"coefficient": "1", "exponents": [2, 0]},
                      {"coefficient": "3", "exponents": [0, 2]}],
                     []],
     "chi": [[0, 1]]},
]
KEYS = ["schema_version", "lattice_rank", "rays", "cones", "r", "b", "source", "target",
        "polynomials", "chi", "coefficient", "exponents"]

# Strings int(s, 10) or Fraction(s) accept but the schema patterns do not,
# and a few the patterns accept, the last beyond the digit limit.
STRING_FORMS = [" 7", "7 ", "+7", "1_000", "٣", "７", "1.5", "1e3", " 2", "2/",
                "/2", "1/2/3", "1//2", "-1/-2", "", "-", "0x10", "seven",
                "7", "-7", "007", "1/2", "-3/4", "1/0",
                "9" * (documents.MAX_INTEGER_DIGITS + 1)]

scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
                    st.floats(), st.sampled_from(STRING_FORMS), st.text(max_size=3))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.sampled_from(KEYS), st.text(max_size=3)), inner,
                        max_size=3)),
    max_leaves=6)


def _copy(document):
    """A deep copy that shares no object between source and target."""
    return json.loads(json.dumps(document))


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _paths(sub, prefix + (key,))
    elif isinstance(value, list):
        for index, sub in enumerate(value):
            yield from _paths(sub, prefix + (index,))


def _at(document, path):
    for step in path:
        document = document[step]
    return document


@st.composite
def mutated(draw, bases):
    """A valid document with one to three edits: any value replaced, a scalar
    replaced, any value replaced by one of the string forms, a key deleted
    from an object, an item dropped from a list, or a key added to an object."""
    document = _copy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(("replace", "scalar", "string", "delete", "drop", "add")))
        paths = list(_paths(document))
        if how == "scalar":
            paths = [p for p in paths if not isinstance(_at(document, p), (dict, list))]
        elif how in ("delete", "drop"):
            container = dict if how == "delete" else list
            paths = [p for p in paths[1:] if isinstance(_at(document, p[:-1]), container)]
        elif how == "add":
            paths = [p for p in paths if isinstance(_at(document, p), dict)]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        if how in ("delete", "drop"):
            del _at(document, path[:-1])[path[-1]]
        elif how == "add":
            key = draw(st.one_of(st.sampled_from(KEYS), st.text(max_size=3)))
            _at(document, path)[key] = draw(values)
        else:
            new = draw({"replace": values, "scalar": scalars,
                        "string": st.sampled_from(STRING_FORMS)}[how])
            if path:
                _at(document, path[:-1])[path[-1]] = new
            else:
                document = new
    return document


def _replaced(document, path, new):
    """A copy of ``document`` with the value at ``path`` replaced by ``new``."""
    if not path:
        return new
    document = _copy(document)
    _at(document, path[:-1])[path[-1]] = new
    return document


def _single_edits(document):
    """Every document one edit away: each string form at each position, each
    key deleted from its object, and an unknown key added to each object."""
    for path in _paths(document):
        value = _at(document, path)
        for text in STRING_FORMS:
            yield _replaced(document, path, text)
        if isinstance(value, dict):
            yield _replaced(document, path, dict(value, extra=0))
            for key in value:
                yield _replaced(document, path, {k: v for k, v in value.items() if k != key})


def _assert_decoder_covers_schema(document, parse, schema_name):
    problems = schema_errors(document, schema_name)
    try:
        parse(document)
    except DocumentError:
        return
    except TooLargeError:  # a conforming term, rank or integer beyond the documents' bounds
        pass
    assert problems == [], f"accepted a document the schema rejects: {problems[0]}"


class TestDecoderAgainstSchema:
    @settings(max_examples=300, deadline=None)
    @given(mutated(STACKY_DOCS))
    def test_stacky_violations_raise_document_error(self, document):
        _assert_decoder_covers_schema(document, documents.parse_stacky_document,
                                      "stacky_data.schema.json")

    @settings(max_examples=300, deadline=None)
    @given(mutated(MORPHISM_DOCS))
    def test_morphism_violations_raise_document_error(self, document):
        _assert_decoder_covers_schema(document, documents.parse_morphism_document,
                                      "morphism.schema.json")

    @pytest.mark.parametrize("bases, parse, schema_name", [
        (STACKY_DOCS, documents.parse_stacky_document, "stacky_data.schema.json"),
        (MORPHISM_DOCS, documents.parse_morphism_document, "morphism.schema.json")])
    def test_every_single_edit(self, bases, parse, schema_name):
        for document in bases:
            for edited in _single_edits(document):
                _assert_decoder_covers_schema(edited, parse, schema_name)

    def test_base_documents_conform(self):
        for doc in STACKY_DOCS:
            assert schema_errors(doc, "stacky_data.schema.json") == []
            documents.parse_stacky_document(doc)
        for doc in MORPHISM_DOCS:
            assert schema_errors(doc, "morphism.schema.json") == []
            documents.parse_morphism_document(doc)


class TestStructureBeforeSize:
    # a source beyond the rank bound next to a target that is not an object:
    # the structural error wins, so too_large always means well-formed
    MALFORMED = {"schema_version": "1",
                 "source": {"schema_version": "1", "lattice_rank": 129,
                            "rays": [[-1], [1]], "cones": [[0], [1]], "r": [], "b": []},
                 "target": None,
                 "polynomials": [[{"coefficient": "1", "exponents": [3, 0]}],
                                 [{"coefficient": "-1/2", "exponents": [0, "3"]}]],
                 "chi": []}

    def test_malformed_target_beats_the_source_rank_bound(self):
        with pytest.raises(DocumentError) as info:
            documents.parse_morphism_document(self.MALFORMED)
        assert info.value.location == "/target"
        _assert_decoder_covers_schema(self.MALFORMED, documents.parse_morphism_document,
                                      "morphism.schema.json")

    def test_malformed_term_beats_the_rank_bound(self):
        doc = _copy(self.MALFORMED)
        doc["target"] = P1
        doc["polynomials"][0][0]["coefficient"] = 1
        with pytest.raises(DocumentError) as info:
            documents.parse_morphism_document(doc)
        assert info.value.location == "/polynomials/0/0/coefficient"


def _reference_hash(document):
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class TestDocumentHash:
    def test_fixtures_hash_as_hashlib_does(self):
        for document in STACKY_DOCS + MORPHISM_DOCS:
            assert documents.document_hash(document) == _reference_hash(document)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(mutated(STACKY_DOCS), mutated(MORPHISM_DOCS), values))
    def test_drawn_documents_hash_as_hashlib_does(self, document):
        assert documents.document_hash(document) == _reference_hash(document)


class TestDecoderErrors:
    @pytest.mark.parametrize("text", [" 7", "+7", "1_000", "٣", "７", "7\n"])
    def test_integer_strings_outside_the_pattern(self, text):
        doc = dict(P1, rays=[[text], [1]])
        with pytest.raises(DocumentError) as info:
            documents.parse_stacky_document(doc)
        assert info.value.location == "/rays/0/0"

    def test_integer_string_beyond_the_digit_limit(self):
        limit = documents.MAX_INTEGER_DIGITS
        for digits in (5000, limit):
            data = documents.parse_stacky_document(dict(P1, r=["-" + "9" * digits], b=[[0, 0]]))
            assert data.r == (1 - 10 ** digits,)
        with pytest.raises(TooLargeError) as info:
            documents.parse_stacky_document(dict(P1, r=["9" * (limit + 1)], b=[[0, 0]]))
        assert info.value.location == "/r/0"
        # a structural error anywhere wins over the digit limit
        with pytest.raises(DocumentError) as info:
            documents.parse_stacky_document(dict(P1, r=["9" * (limit + 1)], b=[[0, 0]], cones=7))
        assert info.value.location == "/cones"

    @pytest.mark.parametrize("text", ["1.5", "1e3", " 2", "+1", "1/+2"])
    def test_coefficients_outside_the_pattern(self, text):
        doc = _copy(MORPHISM_DOCS[0])
        doc["polynomials"][0][0]["coefficient"] = text
        with pytest.raises(DocumentError) as info:
            documents.parse_morphism_document(doc)
        assert info.value.location == "/polynomials/0/0/coefficient"

    @pytest.mark.parametrize("key", ["rays", "r"])
    def test_digit_strings_are_not_lists(self, key):
        with pytest.raises(DocumentError) as info:
            documents.parse_stacky_document(dict(P1, **{key: "12"}))
        assert info.value.location == f"/{key}"

    @pytest.mark.parametrize("document", [[], "P1", 7, None])
    def test_document_that_is_not_an_object(self, document):
        for parse in (documents.parse_stacky_document, documents.parse_morphism_document):
            with pytest.raises(DocumentError) as info:
                parse(document)
            assert info.value.location == "/"

    def test_missing_and_unknown_keys_are_located_at_their_object(self):
        missing = {k: v for k, v in P1.items() if k != "cones"}
        unknown = dict(P1, extra=1)
        for doc, location in ((missing, "/"), (unknown, "/")):
            with pytest.raises(DocumentError) as info:
                documents.parse_stacky_document(doc)
            assert info.value.location == location
        term = _copy(MORPHISM_DOCS[0])
        del term["polynomials"][1][0]["exponents"]
        with pytest.raises(DocumentError) as info:
            documents.parse_morphism_document(term)
        assert info.value.location == "/polynomials/1/0"

    def test_source_and_target_problems_are_prefixed(self):
        for side in ("source", "target"):
            doc = _copy(MORPHISM_DOCS[0])
            doc[side]["rays"][1] = ["+1"]
            with pytest.raises(DocumentError) as info:
                documents.parse_morphism_document(doc)
            assert info.value.location == f"/{side}/rays/1/0"
            doc = _copy(MORPHISM_DOCS[0])
            del doc[side]["b"]
            with pytest.raises(DocumentError) as info:
                documents.parse_morphism_document(doc)
            assert info.value.location == f"/{side}"

    def test_schema_version_must_be_a_string(self):
        with pytest.raises(DocumentError) as info:
            documents.parse_stacky_document(dict(P1, schema_version=1))
        assert info.value.location == "/schema_version"

    def test_chi_over_short_source_rays(self):
        doc = _copy(MORPHISM_DOCS[1])
        doc["source"]["lattice_rank"] = 2
        with pytest.raises(DocumentError) as info:
            documents.parse_morphism_document(doc)
        assert info.value.location == "/source/rays"

    def test_term_degree_is_bounded(self):
        doc = _copy(MORPHISM_DOCS[0])
        doc["polynomials"][1][0]["exponents"] = [documents.MAX_TERM_DEGREE, 0]
        documents.parse_morphism_document(doc)
        doc["polynomials"][1][0]["exponents"] = [documents.MAX_TERM_DEGREE, 1]
        with pytest.raises(TooLargeError) as info:
            documents.parse_morphism_document(doc)
        assert info.value.location == "/polynomials/1"

    def test_lattice_rank_is_bounded(self):
        rank = documents.MAX_LATTICE_RANK
        assert documents.parse_stacky_document(dict(P1, lattice_rank=rank)).lattice_rank == rank
        doc = _copy(MORPHISM_DOCS[0])
        doc["target"]["lattice_rank"] = rank + 1
        with pytest.raises(TooLargeError) as info:
            documents.parse_morphism_document(doc)
        assert info.value.location == "/target/lattice_rank"


# ---------------------------------------------------------------------------
# JSON text: the reader and the writers against ``json``
# ---------------------------------------------------------------------------

def _parse_int(text):
    return int(text) if len(text) <= 600 else documents._BareInteger(text)


def _typed(value):
    """``value`` with every type spelled out, so that 1, 1.0, True, a string
    and a :class:`_BareInteger` of the same digits all differ, and NaN
    equals NaN."""
    if isinstance(value, dict):
        return "dict", [(_typed(k), _typed(v)) for k, v in value.items()]
    if isinstance(value, list):
        return "list", [_typed(v) for v in value]
    return type(value).__name__, repr(value)


def _outcome(call, *args, **kwargs):
    """("ok", the result) or ("error", its exception's type and message)."""
    try:
        return "ok", call(*args, **kwargs)
    except (ValueError, TypeError, RecursionError) as exc:
        return "error", (type(exc), str(exc))


long_integers = st.integers(10 ** 600, 10 ** 700).map(lambda n: n * (1 if n % 2 else -1))
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), long_integers,
                         st.floats(), st.text(), st.sampled_from(STRING_FORMS[:-1]),
                         st.from_regex(r"-?[0-9]{1,700}", fullmatch=True).map(
                             documents._BareInteger))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=2).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)
# what a mutation inserts: structure, literals' first letters, escapes, a BOM
MUTATION_TEXT = st.sampled_from(list('[]{}",:. -+0123456789eEtfnNI\\u')
                                + ["\ufeff", "\x00", "\n", "é", "\ud800"])


@st.composite
def json_texts(draw):
    """The text of a drawn value in one of ``json``'s layouts, with up to three
    characters inserted, deleted or replaced, or cut short."""
    value = draw(json_values.filter(lambda v: not isinstance(v, documents._BareInteger)))
    text = json.dumps(value, indent=draw(st.sampled_from((None, 0, 2, "\t"))),
                      ensure_ascii=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(("insert", "delete", "replace", "cut")))
        if how == "cut":
            text = text[:at]
        else:
            new = draw(MUTATION_TEXT) if how != "delete" else ""
            text = text[:at] + new + text[at + (how != "insert"):]
    return text


class TestJsonReference:
    @settings(max_examples=500, deadline=None)
    @given(json_texts())
    def test_reader_reads_as_json_does(self, text):
        ours = _outcome(documents.loads, text)
        reference = _outcome(json.loads, text, parse_int=_parse_int)
        if ours[0] == "ok" and reference[0] == "ok":
            assert _typed(ours[1]) == _typed(reference[1])
        else:
            assert ours == reference

    @pytest.mark.parametrize("text", ["", " ", "\ufeff[]", "[] x", "[1,]", "NaN", "-Infinity",
                                      " [1] \n", "[" * 5000 + "]" * 5000, "9" * 5000,
                                      '"\\ud800"', '{"a": 1, "a": 2}', "[1e999, -0.0]"],
                             ids=lambda text: repr(text[:12]))
    def test_edge_texts(self, text):
        ours = _outcome(documents.loads, text)
        reference = _outcome(json.loads, text, parse_int=_parse_int)
        if ours[0] == "ok" and reference[0] == "ok":
            assert _typed(ours[1]) == _typed(reference[1])
        else:
            assert ours == reference

    @settings(max_examples=500, deadline=None)
    @given(json_values)
    def test_writers_write_as_json_does(self, value):
        assert _outcome(documents.dumps_indented, value) == _outcome(json.dumps, value, indent=2)
        assert _outcome(documents.dumps, value) == _outcome(json.dumps, value)
        assert _outcome(documents._canonical, value) == _outcome(
            json.dumps, value, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("value", [{1: 2, "1": 3}, {(1,): 2}, {1: [], None: {}}, [set()],
                                       [float("nan"), float("-inf")], [10 ** 5000],
                                       {"b": 1, "a": {"d": [], "c": "é"}}])
    def test_values_the_fast_writers_refuse(self, value):
        assert _outcome(documents.dumps_indented, value) == _outcome(json.dumps, value, indent=2)
        assert _outcome(documents.dumps, value) == _outcome(json.dumps, value)


# Texts the reader rejects, or accepts and the decoder then rejects.  The
# scanner of ``_json`` finds ``json``'s error class only once ``json`` is
# loaded, so each runs in a fresh interpreter, with and without ``site``.
P1_TEXT = json.dumps(P1)
MORPHISM_TEXT = json.dumps(MORPHISM_DOCS[0], indent=2)
FIVE_THOUSAND_DIGITS = "9" * 5000
MALFORMED_TEXTS = {
    "truncated": (P1_TEXT[:-7], MORPHISM_TEXT[:-30]),
    "bom": ("\ufeff" + P1_TEXT, "\ufeff" + MORPHISM_TEXT),
    "trailing": (P1_TEXT + " x", MORPHISM_TEXT + "\n\n{}"),
    "nan": (P1_TEXT.replace('"lattice_rank": 1', '"lattice_rank": NaN'),
            MORPHISM_TEXT.replace('"chi": []', '"chi": [], "x": NaN')),
    "infinity": (P1_TEXT.replace("[-1]", "[-Infinity]"),
                 MORPHISM_TEXT.replace('"chi": []', '"chi": [[Infinity, 0]]')),
    "bare digits": (P1_TEXT.replace('"r": []', f'"r": [{FIVE_THOUSAND_DIGITS}]'),
                    MORPHISM_TEXT.replace('"chi": []', f'"chi": [[{FIVE_THOUSAND_DIGITS}]]')),
    "bare rank": (P1_TEXT.replace('"lattice_rank": 1', f'"lattice_rank": {FIVE_THOUSAND_DIGITS}'),
                  MORPHISM_TEXT.replace('"3"', FIVE_THOUSAND_DIGITS)),
    "deep": ("[" * 100_000 + "]" * 100_000,) * 2,
    "not utf-8": (b'{"schema_version": "\xff\xfe"}',) * 2,
}


class TestMalformedTextInAFreshInterpreter:
    @pytest.fixture(scope="class")
    def cases(self, tmp_path_factory):
        """(argv, the report ``cli.run`` gives in this process) for each text
        through ``build`` and ``morphism check``."""
        folder = tmp_path_factory.mktemp("malformed")
        out = []
        for name, texts in MALFORMED_TEXTS.items():
            for command, text in zip((["build"], ["morphism", "check"]), texts):
                path = folder / f"{name.replace(' ', '-')}-{command[0]}.json"
                if isinstance(text, bytes):
                    path.write_bytes(text)
                else:
                    path.write_text(text, encoding="utf-8")
                argv = ["--json", *command, str(path)]
                code, report = cli.run(argv)
                assert code == 1 and "error" in report, (name, command, report)
                out.append((argv, report))
        return out

    def test_json_errors_are_worded_by_json(self, cases):
        for argv, report in cases:
            path = Path(argv[-1])
            try:
                document = json.loads(path.read_text(encoding="utf-8"), parse_int=_parse_int)
            except json.JSONDecodeError as exc:
                assert report["error"] == {"code": "document_error",
                                           "message": f"invalid JSON in {path}: {exc}",
                                           "location": f"line {exc.lineno}"}
            except (UnicodeDecodeError, RecursionError):
                assert report["error"]["message"].startswith(f"invalid JSON in {path}: ")
                assert "location" not in report["error"]
            else:
                assert report["inputs"][0]["hash"] == _reference_hash(document)

    @pytest.mark.parametrize("site", [True, False], ids=["site", "no-site"])
    def test_reports_match_in_process_and_no_traceback(self, cases, site):
        src = str(Path(toricdm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        entry = "import sys; from toricdm.cli import main; main(sys.argv[1:])"
        for argv, report in cases:
            done = subprocess.run([sys.executable, *([] if site else ["-S"]), "-c", entry, *argv],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert (done.returncode, done.stderr) == (1, ""), argv
            assert done.stdout == json.dumps(report, indent=2) + "\n", argv
