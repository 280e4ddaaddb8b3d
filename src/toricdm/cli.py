"""Command-line interface.

Subcommands mirror the library: ``validate``, ``build``, ``pic``,
``stabilizer``, ``rigidify``, ``split``, ``classify``, ``canonicalize`` and
``morphism``.  Reports go to stdout as text or, with ``--json``, as a JSON
object that validates against the shipped report schema.  Exit codes: 0 for
success or a true verdict, 1 for invalid input or invalid arguments, 2 for a
false verdict, 3 for an unknown verdict.  Invalid arguments to a known
subcommand also get that command's error report, with code ``usage``.
:func:`main` ends the process once the report is written; :func:`run` is
the in-process API.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

from . import documents
from .errors import (DocumentError, TooLargeError, ToricError)
from .fans import maximal_cones, rays_span
from .gerbes import canonicalize, picard_group, twist_divisibility
from .lattice import cokernel
from .morphisms import (DEFAULT_SAMPLE_BUDGET, check_condition_a,
                        check_condition_b, check_two_isomorphic)
from .oracle import oracle_divisibility, oracle_stabilizer_order
from .stacky import (build_matrices, dm_torus, point_stabilizer, rigidify,
                     split_nonspanning, stacky_fan, validate_data)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FALSE = 2
EXIT_UNKNOWN = 3


def _report(command, inputs, **payload):
    report = {"schema_version": documents.SCHEMA_VERSION, "command": command,
              "inputs": [{"path": path, "hash": digest} for path, digest in inputs]}
    report.update(payload)
    return report


def _error_report(command, inputs, exc: ToricError):
    error = {"code": exc.code, "message": str(exc)}
    if exc.location:
        error["location"] = exc.location
    return _report(command, inputs, error=error)


def _violations_payload(report):
    return [{"code": v.code, "message": v.message,
             "witness": _jsonable(v.witness)} for v in report.violations]


def _jsonable(value):
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def _group_payload(group):
    return [documents.encode_int(f) for f in group.invariant_factors]


def _require_valid(data):
    """Raise a located document error at the first violation of ``data``."""
    report = validate_data(data)
    if not report.valid:
        first = report.first()
        raise DocumentError(f"invalid data: {first.message}", first.code)


def _read(path, inputs):
    """The JSON document at ``path``, recorded in ``inputs`` before it is
    parsed, so that an error report names the document it locates."""
    document = documents.read_json(path)
    inputs.append((str(path), documents.document_hash(document)))
    return document


def _load_valid(path, inputs):
    """Load and semantically validate one stack-data file."""
    data = documents.parse_stacky_document(_read(path, inputs))
    _require_valid(data)
    return data


def _load_valid_morphism(path, inputs):
    """Load one morphism file and validate its source and target data."""
    md = documents.parse_morphism_document(_read(path, inputs))
    _require_valid(md.source)
    _require_valid(md.target)
    return md


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit_code, report dict) and records the
# documents it reads in ``inputs``
# ---------------------------------------------------------------------------

def _cmd_validate(args, inputs):
    data = documents.parse_stacky_document(_read(args.path, inputs))
    result = validate_data(data)
    code = EXIT_OK if result.valid else EXIT_INVALID
    return code, _report("validate", inputs, valid=result.valid,
                         violations=_violations_payload(result))


def _cmd_build(args, inputs):
    data = _load_valid(args.path, inputs)
    b_matrix, q_matrix = build_matrices(data)
    bq = b_matrix.hstack(q_matrix)
    group = cokernel(bq.transpose())
    dim, band = dm_torus(data)
    payload = {
        "matrices": {"b": documents.encode_grid(b_matrix),
                     "q": documents.encode_grid(q_matrix),
                     "bq": documents.encode_grid(bq)},
        "quotient_group": {"torus_rank": documents.encode_int(group.free_rank),
                           "invariant_factors": _group_payload(group)},
        "generic_stabilizer": _group_payload(band),
        "dm_torus": {"dimension": documents.encode_int(dim),
                     "band": _group_payload(band)},
    }
    spans, _ = rays_span(data.fan)
    payload["rays_span"] = spans
    if spans:
        sf = stacky_fan(data)
        payload["stacky_fan"] = {
            "extended_group": {
                "free_rank": documents.encode_int(sf.extended_group.free_rank),
                "invariant_factors": _group_payload(sf.extended_group)},
            "lifted_rays": [[documents.encode_int(x) for x in ray]
                            for ray in sf.lifted_rays]}
    else:
        split_data, torus_factor = split_nonspanning(data)
        payload["split"] = {"torus_factor_rank": documents.encode_int(torus_factor),
                            "data": documents.serialize_stacky_data(split_data)}
    if args.verify:
        payload["verify"] = _verify_build(data)
    return EXIT_OK, _report("build", inputs, **payload)


def _verify_build(data):
    checks = []
    for cone in maximal_cones(data.fan):
        if len(cone) != data.lattice_rank:
            continue
        main_order = point_stabilizer(data, cone).order()
        try:
            oracle_order = oracle_stabilizer_order(data, cone)
        except TooLargeError:
            checks.append({"cone": sorted(cone), "skipped": "too large"})
            continue
        checks.append({"cone": sorted(cone),
                       "order": documents.encode_int(main_order),
                       "agrees": main_order == oracle_order})
    return {"stabilizer_orders": checks,
            "all_agree": all(c.get("agrees", True) for c in checks)}


def _cmd_pic(args, inputs):
    data = _load_valid(args.path, inputs)
    presentation = picard_group(rigidify(data))
    payload = {
        "picard": {
            "free_rank": documents.encode_int(presentation.group.free_rank),
            "invariant_factors": _group_payload(presentation.group),
            "relation_matrix": documents.encode_grid(presentation.relation_matrix)},
        "gerbe_classes": documents.encode_grid(data.b),
    }
    return EXIT_OK, _report("pic", inputs, **payload)


def _parse_cone(text):
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise DocumentError(f"bad cone argument {text!r}; expected i,j,k") from None


def _cmd_stabilizer(args, inputs):
    data = _load_valid(args.path, inputs)
    cone = _parse_cone(args.cone)
    group = point_stabilizer(data, cone)
    payload = {
        "cone": sorted(cone),
        "stabilizer": {"invariant_factors": _group_payload(group),
                       "order": documents.encode_int(group.order())},
    }
    if args.verify:
        try:
            oracle_order = oracle_stabilizer_order(data, cone)
            payload["verify"] = {"oracle_order": documents.encode_int(oracle_order),
                                 "agrees": oracle_order == group.order()}
        except TooLargeError as exc:
            payload["verify"] = {"skipped": str(exc)}
    return EXIT_OK, _report("stabilizer", inputs, **payload)


def _cmd_rigidify(args, inputs):
    data = _load_valid(args.path, inputs)
    return EXIT_OK, _report("rigidify", inputs,
                            data=documents.serialize_stacky_data(rigidify(data)))


def _cmd_split(args, inputs):
    data = _load_valid(args.path, inputs)
    split_data, torus_factor = split_nonspanning(data)
    return EXIT_OK, _report(
        "split", inputs,
        torus_factor_rank=documents.encode_int(torus_factor),
        data=documents.serialize_stacky_data(split_data))


def _cmd_canonicalize(args, inputs):
    data = _load_valid(args.path, inputs)
    canonical, certificate = canonicalize(data)
    return EXIT_OK, _report(
        "canonicalize", inputs,
        data=documents.serialize_stacky_data(canonical),
        certificate=documents.encode_grid(certificate),
        chain=[documents.encode_int(x) for x in canonical.r])


def _classify_pair(base, base_canonical, other, verify):
    other_canonical, _ = canonicalize(other)
    result = {"chains": [[documents.encode_int(x) for x in base_canonical.r],
                         [documents.encode_int(x) for x in other_canonical.r]]}
    rows = twist_divisibility(base_canonical, other_canonical)
    result["isomorphic"] = rows is not None and all(divisible for _, divisible in rows)
    if rows is not None:
        result["divisibility"] = [divisible for _, divisible in rows]
        if verify:
            relation = picard_group(rigidify(base)).relation_matrix
            agreement = []
            for (diff, divisible), r in zip(rows, base_canonical.r):
                try:
                    agreement.append(oracle_divisibility(diff, r, relation) == divisible)
                except TooLargeError:
                    agreement.append(None)
            result["oracle_agrees"] = agreement
    return result


def _cmd_classify(args, inputs):
    base = _load_valid(args.paths[0], inputs)
    others = [_load_valid(path, inputs) for path in args.paths[1:]]
    for other in others:
        if other.fan != base.fan:
            raise DocumentError("data sets do not share the same fan and rays",
                                "mismatched_underlying_data")
    base_canonical, _ = canonicalize(base)
    results = [_classify_pair(base, base_canonical, other, args.verify) for other in others]
    everything = all(r["isomorphic"] for r in results)
    code = EXIT_OK if everything else EXIT_FALSE
    return code, _report("classify", inputs, results=results, isomorphic=everything)


def _cmd_morphism(args, inputs):
    md = _load_valid_morphism(args.paths[0], inputs)
    if args.mode == "check":
        condition_a = check_condition_a(md)
        verdict = check_condition_b(md, sample_budget=args.sample_budget, seed=args.seed)
        payload = {"mode": "check", "condition_a": condition_a,
                   "condition_b": _condition_b_payload(verdict)}
        if not condition_a or verdict.is_refuted:
            code = EXIT_FALSE
        elif verdict.status == "unknown":
            code = EXIT_UNKNOWN
        else:
            code = EXIT_OK
        return code, _report("morphism", inputs, **payload)

    md2 = _load_valid_morphism(args.paths[1], inputs)
    verdict = check_two_isomorphic(md, md2)
    payload = {"mode": "iso", "iso": {"status": verdict.status}}
    if verdict.ratios is not None:
        payload["iso"]["ratios"] = [documents.encode_fraction(x) for x in verdict.ratios]
    code = {"yes": EXIT_OK, "no": EXIT_FALSE, "unknown": EXIT_UNKNOWN}[verdict.status]
    return code, _report("morphism", inputs, **payload)


def _condition_b_payload(verdict):
    payload = {"status": verdict.status}
    if verdict.witness_pattern is not None:
        payload["witness_pattern"] = sorted(verdict.witness_pattern)
    if verdict.witness_point is not None:
        payload["witness_point"] = [documents.encode_fraction(x) for x in verdict.witness_point]
    return payload


# ---------------------------------------------------------------------------
# Rendering and entry point
# ---------------------------------------------------------------------------

def _render_text(report):
    lines = [f"command: {report['command']}"]
    for entry in report.get("inputs", []):
        lines.append(f"input: {entry['path']} ({entry['hash'][:12]})")

    def _is_flat(value):
        if isinstance(value, list):
            return all(not isinstance(v, (dict, list)) for v in value)
        return not isinstance(value, dict)

    def walk(value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            for key, sub in value.items():
                if _is_flat(sub) or not sub:
                    lines.append(f"{pad}{key}: {json.dumps(sub)}")
                else:
                    lines.append(f"{pad}{key}:")
                    walk(sub, indent + 1)
        elif isinstance(value, list):
            for sub in value:
                if _is_flat(sub):
                    lines.append(f"{pad}- {json.dumps(sub)}")
                else:
                    lines.append(f"{pad}-")
                    walk(sub, indent + 1)

    body = {k: v for k, v in report.items()
            if k not in ("schema_version", "command", "inputs")}
    walk(body, 0)
    return "\n".join(lines)


_HANDLERS = {
    "validate": _cmd_validate,
    "build": _cmd_build,
    "pic": _cmd_pic,
    "stabilizer": _cmd_stabilizer,
    "rigidify": _cmd_rigidify,
    "split": _cmd_split,
    "classify": _cmd_classify,
    "canonicalize": _cmd_canonicalize,
    "morphism": _cmd_morphism,
}


class _UsageError(ToricError):
    code = "usage"


class _ArgumentParser(argparse.ArgumentParser):
    """Prints argparse's usage message and raises :class:`_UsageError` where
    argparse would exit 2, the false-verdict code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="toricdm",
        description="Exact computations with toric stack data given as JSON documents.")
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument("--sample-budget", type=_nonnegative_int, default=DEFAULT_SAMPLE_BUDGET,
                        metavar="N", help="evaluation budget of the search for a rational witness")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="seed of the search for a rational witness")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check results with the brute-force verifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("validate", "build", "pic", "rigidify", "split", "canonicalize"):
        p = sub.add_parser(name)
        p.add_argument("path")
    p = sub.add_parser("stabilizer")
    p.add_argument("path")
    p.add_argument("--cone", default="", metavar="i,j,k",
                   help="ray indices of the cone (empty for the zero cone)")
    p = sub.add_parser("classify")
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help="two or more documents; the first is compared to the rest")
    p = sub.add_parser("morphism")
    p.add_argument("mode", choices=("check", "iso"))
    p.add_argument("paths", nargs="+", metavar="PATH")
    return parser


def _execute(argv) -> tuple[argparse.Namespace, int, dict]:
    """Parse the arguments and run the command: (arguments, exit code,
    report).  A usage error exits 1 with no report unless the subcommand is
    known: argparse names it before it parses the subcommand's arguments."""
    args = argparse.Namespace()
    inputs = []
    try:
        build_parser().parse_args(argv, args)
        if args.command == "classify" and len(args.paths) < 2:
            raise DocumentError("classify needs at least two documents")
        if args.command == "morphism":
            expected = 1 if args.mode == "check" else 2
            if len(args.paths) != expected:
                raise DocumentError(f"morphism {args.mode} needs exactly {expected} document(s)")
        return (args, *_HANDLERS[args.command](args, inputs))
    except ToricError as exc:
        if args.command is None:
            sys.exit(EXIT_INVALID)
        return args, EXIT_INVALID, _error_report(args.command, inputs, exc)


def run(argv=None) -> tuple[int, dict]:
    """Parse arguments, run the command, return (exit code, report)."""
    _, code, report = _execute(argv)
    return code, report


def main(argv=None) -> NoReturn:
    """Run the command, print its report and end the process with the
    command's exit code.

    The process ends through :func:`os._exit` once stdout and stderr are
    flushed, so it skips interpreter teardown and ``atexit`` handlers
    (``toricdm`` registers none): on small inputs teardown costs more than
    the command.  In-process callers use :func:`run`.
    """
    try:
        args, code, report = _execute(argv)
    except SystemExit as exc:  # argparse's --help, or a usage error of no known command
        _flush_and_exit(exc.code)
    _flush_and_exit(code, json.dumps(report, indent=2) if args.json else _render_text(report))


def _flush_and_exit(code: int, text: str | None = None) -> NoReturn:
    """Print ``text``, flush stdout and stderr and end the process with
    ``code``, or with 1 once the reader has closed stdout.

    ``print`` writes the line end apart from the text, so a closed pipe
    raises even on an unbuffered stdout, whose write cut short raises
    nothing."""
    try:
        if text is not None:
            print(text)
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except BrokenPipeError:
        code = EXIT_INVALID
    os._exit(code)


if __name__ == "__main__":
    main()
