"""Output checker: every report against the report schema and its reference.

The schema check is a small stdlib validator for the JSON-Schema keywords
the shipped schemas use; a keyword it does not know is an error, so a schema
change can never pass unchecked.
"""

from __future__ import annotations

import json
import re

_ANNOTATIONS = {"$schema", "$id", "title", "description", "$defs"}
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


class SchemaValidator:
    def __init__(self, schema: dict):
        self.root = schema

    def errors(self, value) -> list:
        out = []
        self._check(value, self.root, "", out)
        return out

    def _resolve(self, ref: str) -> dict:
        if not ref.startswith("#/"):
            raise ValueError(f"unsupported $ref {ref!r}")
        node = self.root
        for part in ref[2:].split("/"):
            node = node[part]
        return node

    def _check(self, value, schema, where, out):
        for key, arg in schema.items():
            if key in _ANNOTATIONS:
                continue
            if key == "$ref":
                self._check(value, self._resolve(arg), where, out)
            elif key == "type":
                types = arg if isinstance(arg, list) else [arg]
                if not any(_TYPES[t](value) for t in types):
                    out.append(f"{where}: not of type {arg}")
            elif key == "enum":
                if value not in arg:
                    out.append(f"{where}: {value!r} not in enum")
            elif key == "required":
                if isinstance(value, dict):
                    out.extend(f"{where}: missing {k}" for k in arg if k not in value)
            elif key == "properties":
                if isinstance(value, dict):
                    for k, sub in arg.items():
                        if k in value:
                            self._check(value[k], sub, f"{where}/{k}", out)
            elif key == "additionalProperties":
                if isinstance(value, dict):
                    extra = [k for k in value if k not in schema.get("properties", {})]
                    if arg is False:
                        out.extend(f"{where}: unexpected {k}" for k in extra)
                    elif isinstance(arg, dict):
                        for k in extra:
                            self._check(value[k], arg, f"{where}/{k}", out)
            elif key == "items":
                if isinstance(value, list):
                    for i, item in enumerate(value):
                        self._check(item, arg, f"{where}/{i}", out)
            elif key == "anyOf":
                if all(self._sub_errors(value, sub, where) for sub in arg):
                    out.append(f"{where}: anyOf not satisfied")
            elif key == "pattern":
                if isinstance(value, str) and not re.search(arg, value):
                    out.append(f"{where}: {value!r} does not match {arg}")
            else:
                raise ValueError(f"schema keyword {key!r} is not supported by the checker")

    def _sub_errors(self, value, schema, where):
        out = []
        self._check(value, schema, where, out)
        return out


def decode(value):
    """Integers may arrive as decimal strings; everything else unchanged."""
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    if isinstance(value, list):
        return [decode(v) for v in value]
    return value


def pointer(report, path: str):
    node = report
    for part in path.strip("/").split("/"):
        if isinstance(node, list):
            node = node[int(part)]
        else:
            node = node[part]
    return node


def max_digits(value) -> int:
    """Most decimal digits of any integer (or integer string) in a report."""
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return len(str(abs(value)))
    if isinstance(value, str):
        return len(value.lstrip("-")) if re.fullmatch(r"-?[0-9]+", value) else 0
    if isinstance(value, dict):
        return max((max_digits(v) for v in value.values()), default=0)
    if isinstance(value, list):
        return max((max_digits(v) for v in value), default=0)
    return 0


def _verify_failure(report):
    block = report.get("verify")
    if block is None:
        if report.get("command") == "classify":
            for result in report.get("results", []):
                if any(a is False for a in result.get("oracle_agrees", [])):
                    return "oracle disagrees"
            return None
        return "no verify block"
    if "skipped" in block:
        return None
    if block.get("all_agree") is False or block.get("agrees") is False:
        return "oracle disagrees"
    return None


def verify_skips(report) -> int:
    """How many oracle checks in the report were skipped as too large."""
    if report is None:
        return 0
    block = report.get("verify") or {}
    skipped = 1 if "skipped" in block else 0
    skipped += sum(1 for c in block.get("stabilizer_orders", []) if "skipped" in c)
    for result in report.get("results", []):
        skipped += sum(1 for a in result.get("oracle_agrees", []) if a is None)
    return skipped


class Outcome:
    """The checked result of one request.

    ``wrong`` marks a failure that makes the run incorrect.  Two kinds of
    failure are not wrong: an invalid input that is still rejected (exit code
    not 0 and no ``valid: true``) but not in the contract's way, and a valid
    input whose reference names a known defect of the program.  A crash, a
    timeout or an accepted invalid input is always wrong.
    """

    __slots__ = ("failure", "report", "unknown", "verdict", "wrong")

    def __init__(self, failure, report, unknown=False, verdict=False, wrong=None):
        self.failure = failure
        self.report = report
        self.unknown = unknown
        self.verdict = verdict
        self.wrong = failure is not None if wrong is None else wrong


def timed_out() -> Outcome:
    return Outcome("timeout", None, wrong=True)


def check(request, code: int, report, stderr: str, validator: SchemaValidator) -> Outcome:
    """Compare one response with the request's reference answer.

    ``report`` is the parsed JSON report, or None when the program printed
    none.  ``failure`` is None when everything matches, else a short reason.
    """
    expect = request.expect
    verdict, unknown = _verdict_state(request.command, report)
    accepted = code == 0 or (report is not None and report.get("valid") is True)
    excused = not accepted if expect.get("invalid") else bool(expect.get("known_defect"))

    def fail(reason):
        return Outcome(reason, report, unknown, verdict, wrong=not excused)

    if "Traceback" in stderr:
        return Outcome("traceback", report, unknown, verdict, wrong=True)
    if expect.get("invalid") and accepted:
        return fail(f"invalid input accepted (exit {code})")
    if report is None:
        return fail(f"no report (exit {code})")
    problems = validator.errors(report)
    if problems:
        return fail("schema: " + problems[0])
    allowed = expect["exit"] if isinstance(expect["exit"], list) else [expect["exit"]]
    if code not in allowed:
        return fail(f"exit {code}, expected {allowed}")
    if report.get("command") != request.command:
        return fail(f"command {report.get('command')!r}")
    if expect.get("invalid"):
        if request.command == "validate":
            pass
        elif "error" not in report:
            return fail("invalid input answered without an error report")
        elif expect.get("error") and expect["error"] not in (
                report["error"]["code"], report["error"].get("location")):
            return fail(f"error {report['error']!r} does not name {expect['error']!r}")
    for op, path, want in expect.get("checks", ()):
        try:
            got = decode(pointer(report, path))
        except (KeyError, IndexError, TypeError, ValueError):
            return fail(f"missing {path}")
        if op == "eq" and got != want:
            return fail(f"{path} = {got!r}, expected {want!r}")
        if op == "in" and got not in want:
            return fail(f"{path} = {got!r}, expected one of {want!r}")
        if op == "len" and len(got) != want:
            return fail(f"{path} has {len(got)} entries, expected {want}")
        if op == "prod":
            total = 1
            for x in got:
                total *= x
            if total != want:
                return fail(f"product of {path} = {total}, expected {want}")
    if expect.get("verify"):
        reason = _verify_failure(report)
        if reason:
            return fail(reason)
    return Outcome(None, report, unknown, verdict)


def _verdict_state(command, report):
    """(verdict-bearing, unknown) for the reports that carry a verdict."""
    if report is None or "error" in report:
        return False, False
    if command == "validate":
        return True, False
    if command == "classify":
        return True, False
    if command == "morphism":
        status = (report.get("condition_b") or report.get("iso") or {}).get("status")
        return True, status == "unknown"
    return False, False


def parse_report(stdout: str):
    """The JSON report printed with --json, or None."""
    text = stdout.strip()
    if not text:
        return None
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return None
    return report if isinstance(report, dict) else None
