"""Command-line interface: ``toricdm [global options] SUBCOMMAND ARGS``.

The global options (``--json``, ``--verify``, ``--sample-budget N``, ``--seed
S``) come before the subcommand; a long option may be shortened to a unique
prefix and given its value as ``--name=value``.  Subcommands mirror the
library: ``validate``, ``build``, ``pic``, ``stabilizer``, ``rigidify``,
``split``, ``classify``, ``canonicalize`` and ``morphism``.  Reports go to
stdout as text or, with ``--json``, as a JSON object that validates against
the shipped report schema.  Exit codes: 0 for success or a true verdict, 1
for invalid input or invalid arguments, 2 for a false verdict, 3 for an
unknown verdict.  Invalid arguments get the usage on stderr; to a known
subcommand they also get its error report, with code ``usage``, and to an
unknown one none, as a report's ``command`` names one of the nine.
:func:`main` ends the process once the report is written; :func:`run` is
the in-process API.
"""

from __future__ import annotations

import os
import sys

from . import documents
from .errors import DocumentError, TooLargeError, ToricError
from .fans import rays_span
from .stacky import (build_matrices, dm_torus, point_stabilizer, quotient_group, rigidify,
                     split_nonspanning, stacky_fan, validate_data)

# ``gerbes`` and ``morphisms`` are imported by the handlers that use them, and
# ``oracle`` only under ``--verify``, so that a request loads what it runs.

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
    data = documents.parse_stacky_document(_read(args.paths[0], inputs))
    result = validate_data(data)
    code = EXIT_OK if result.valid else EXIT_INVALID
    return code, _report("validate", inputs, valid=result.valid,
                         violations=_violations_payload(result))


def _cmd_build(args, inputs):
    from . import gerbes

    data = _load_valid(args.paths[0], inputs)
    canonical, _ = gerbes.canonicalize(data)
    b_matrix, q_matrix = build_matrices(data)
    bq = b_matrix.hstack(q_matrix)
    group = quotient_group(canonical)
    dim, band = dm_torus(canonical)
    payload = {
        "matrices": {"b": documents.encode_grid(b_matrix),
                     "q": documents.encode_grid(q_matrix),
                     "bq": documents.encode_grid(bq)},
        "quotient_group": {"torus_rank": documents.encode_int(group.torus_rank),
                           "invariant_factors": _group_payload(group.finite_part)},
        "generic_stabilizer": _group_payload(band),
        "dm_torus": {"dimension": documents.encode_int(dim),
                     "band": _group_payload(band)},
    }
    payload["rays_span"] = spans = rays_span(data.fan)
    if spans:
        sf = stacky_fan(canonical)
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
        payload["verify"] = _verify_build(data, canonical)
    return EXIT_OK, _report("build", inputs, **payload)


def _verify_build(data, canonical):
    # the oracle reads the document's own presentation, independent of canonicalize
    from . import oracle

    checks = []
    for cone in data.fan.cones:
        main_order = point_stabilizer(canonical, cone).order()
        checks.append({"cone": sorted(cone),
                       "order": documents.encode_int(main_order),
                       "agrees": main_order == oracle.oracle_stabilizer_order(data, cone)})
    return {"stabilizer_orders": checks,
            "all_agree": all(check["agrees"] for check in checks)}


def _cmd_pic(args, inputs):
    from . import gerbes

    data = _load_valid(args.paths[0], inputs)
    presentation = gerbes.picard_group(rigidify(data))
    payload = {
        "picard": {
            "free_rank": documents.encode_int(presentation.group.free_rank),
            "invariant_factors": _group_payload(presentation.group),
            "relation_matrix": documents.encode_grid(presentation.relation_matrix)},
        "gerbe_classes": documents.encode_grid(data.b),
    }
    return EXIT_OK, _report("pic", inputs, **payload)


def _cmd_stabilizer(args, inputs):
    from . import gerbes

    data = _load_valid(args.paths[0], inputs)
    group = point_stabilizer(gerbes.canonicalize(data)[0], args.cone)
    payload = {
        "cone": sorted(args.cone),
        "stabilizer": {"invariant_factors": _group_payload(group),
                       "order": documents.encode_int(group.order())},
    }
    if args.verify:
        from . import oracle

        oracle_order = oracle.oracle_stabilizer_order(data, args.cone)
        payload["verify"] = {"oracle_order": documents.encode_int(oracle_order),
                             "agrees": oracle_order == group.order()}
    return EXIT_OK, _report("stabilizer", inputs, **payload)


def _cmd_rigidify(args, inputs):
    data = _load_valid(args.paths[0], inputs)
    return EXIT_OK, _report("rigidify", inputs,
                            data=documents.serialize_stacky_data(rigidify(data)))


def _cmd_split(args, inputs):
    data = _load_valid(args.paths[0], inputs)
    split_data, torus_factor = split_nonspanning(data)
    return EXIT_OK, _report(
        "split", inputs,
        torus_factor_rank=documents.encode_int(torus_factor),
        data=documents.serialize_stacky_data(split_data))


def _cmd_canonicalize(args, inputs):
    from . import gerbes

    data = _load_valid(args.paths[0], inputs)
    canonical, certificate = gerbes.canonicalize(data)
    return EXIT_OK, _report(
        "canonicalize", inputs,
        data=documents.serialize_stacky_data(canonical),
        certificate=documents.encode_grid(certificate),
        chain=[documents.encode_int(x) for x in canonical.r])


def _classify_pair(base, base_canonical, other, verify):
    from . import gerbes

    other_canonical, _ = gerbes.canonicalize(other)
    result = {"chains": [[documents.encode_int(x) for x in base_canonical.r],
                         [documents.encode_int(x) for x in other_canonical.r]]}
    rows = gerbes.twist_divisibility(base_canonical, other_canonical)
    result["isomorphic"] = rows is not None and all(divisible for _, divisible in rows)
    if rows is not None:
        result["divisibility"] = [divisible for _, divisible in rows]
        if verify:
            from . import oracle

            relation = gerbes.picard_group(rigidify(base)).relation_matrix
            agreement = []
            for (diff, divisible), r in zip(rows, base_canonical.r):
                try:
                    agreement.append(oracle.oracle_divisibility(diff, r, relation) == divisible)
                except TooLargeError:
                    agreement.append(None)
            result["oracle_agrees"] = agreement
    return result


def _cmd_classify(args, inputs):
    from . import gerbes

    base = _load_valid(args.paths[0], inputs)
    others = [_load_valid(path, inputs) for path in args.paths[1:]]
    for other in others:
        if other.fan != base.fan:
            raise DocumentError("data sets do not share the same fan and rays",
                                "mismatched_underlying_data")
    base_canonical, _ = gerbes.canonicalize(base)
    results = [_classify_pair(base, base_canonical, other, args.verify) for other in others]
    everything = all(r["isomorphic"] for r in results)
    code = EXIT_OK if everything else EXIT_FALSE
    return code, _report("classify", inputs, results=results, isomorphic=everything)


def _cmd_morphism(args, inputs):
    from . import morphisms

    md = _load_valid_morphism(args.paths[0], inputs)
    if args.mode == "check":
        condition_a = morphisms.check_condition_a(md)
        verdict = morphisms.check_condition_b(md, sample_budget=args.sample_budget,
                                              seed=args.seed)
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
    verdict = morphisms.check_two_isomorphic(md, md2)
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
                    lines.append(f"{pad}{key}: {documents.dumps(sub)}")
                else:
                    lines.append(f"{pad}{key}:")
                    walk(sub, indent + 1)
        elif isinstance(value, list):
            for sub in value:
                if _is_flat(sub):
                    lines.append(f"{pad}- {documents.dumps(sub)}")
                else:
                    lines.append(f"{pad}-")
                    walk(sub, indent + 1)

    body = {k: v for k, v in report.items()
            if k not in ("schema_version", "command", "inputs")}
    walk(body, 0)
    return "\n".join(lines)


class _UsageError(ToricError):
    code = "usage"


def _nonnegative_int(text):
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def _cone(text):
    return frozenset(int(part) for part in text.split(",")) if text.strip() else frozenset()


# The grammar, read by parsing, usage and help alike.  An option maps to
# (destination, metavar or None for a flag, default, conversion, help).  A
# subcommand maps to (handler, usage of its operands, the fewest and most
# documents by mode, options); the mode None stands for no mode operand.
_HELP = dict.fromkeys(("-h", "--help"), ("help", None, False, None, ""))
_GLOBAL_OPTIONS = {
    "--json": ("json", None, False, None, "emit the report as JSON"),
    "--sample-budget": ("sample_budget", "N", documents.DEFAULT_SAMPLE_BUDGET, _nonnegative_int,
                        "evaluation budget of the search for a rational witness"),
    "--seed": ("seed", "S", 0, int, "seed of the search for a rational witness"),
    "--verify": ("verify", None, False, None, "cross-check results with the oracles")}
_ONE = {None: (1, 1)}
_COMMANDS = {
    "validate": (_cmd_validate, "PATH", _ONE, {}),
    "build": (_cmd_build, "PATH", _ONE, {}),
    "pic": (_cmd_pic, "PATH", _ONE, {}),
    "stabilizer": (_cmd_stabilizer, "PATH", _ONE, {
        "--cone": ("cone", "i,j,k", "", _cone, "ray indices of the cone (none: the zero cone)")}),
    "rigidify": (_cmd_rigidify, "PATH", _ONE, {}),
    "split": (_cmd_split, "PATH", _ONE, {}),
    "classify": (_cmd_classify, "PATH PATH [PATH ...]", {None: (2, sys.maxsize)}, {}),
    "canonicalize": (_cmd_canonicalize, "PATH", _ONE, {}),
    "morphism": (_cmd_morphism, "{check PATH | iso PATH PATH}",
                 {"check": (1, 1), "iso": (2, 2)}, {})}


def _usage(command, full=False):
    """The usage line of ``command``, None for the program, and with ``full``
    a line for each option."""
    _, operands, _, options = _COMMANDS[command] if command else (
        0, "{%s} ..." % ",".join(_COMMANDS), 0, _GLOBAL_OPTIONS)
    named = {f"{name} {spec[1] or ''}".strip(): spec[4] for name, spec in options.items()}
    return "\n".join([f"usage: toricdm{' ' + command if command else ''} [-h]"
                      + "".join(f" [{name}]" for name in named) + f" {operands}"]
                     + [f"  {name:<18} {text}" for name, text in named.items() if full])


def _fail(command, message) -> NoReturn:
    sys.stderr.write(f"{_usage(command)}\ntoricdm: error: {message}\n")
    raise _UsageError(message)


def _option(arg, options, command):
    """How argparse read ``arg`` among ``options``, none of which begins another:
    None for an operand, else (the option, None if unknown, the value given)."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    if eq and name in options:
        return name, value
    found = ([(o, value if eq else None) for o in options if o.startswith(name)]
             if arg[1] == "-" else [(o, arg[2:] or None) for o in options if o == arg[:2]])
    if len(found) > 1:
        _fail(command, f"ambiguous option: {arg} could match {', '.join(o for o, _ in found)}")
    if found:
        return found[0]
    if " " in arg:
        return None
    import re

    return None if re.match(r"-\d+$|-\d*\.\d+$", arg) else (None, None)


def _walk(argv, options, choices, args, command):
    """Read one level of ``argv`` as argparse did: set its options and their
    defaults on ``args``; return the first run of operands, which begins with
    one of ``choices`` unless that is None, and the arguments not recognized.
    Options are read up to the first "--".  The run takes the rest at the top
    level (no ``command``), else it ends at the next option, without that "--"."""
    vars(args).update({spec[0]: spec[2] for spec in options.values()})
    options = {**_HELP, **options}
    cut = argv.index("--") if "--" in argv else len(argv)
    read = [_option(arg, options, command) for arg in argv[:cut]] + [None] * (len(argv) - cut)
    run, extras, i = None, [], 0
    while i < len(argv):
        if not read[i]:
            end = len(argv) if not command else next(
                (j for j in range(i, len(argv)) if read[j]), len(argv))
            if run is not None:
                extras += argv[i:end]
            else:
                run = [arg for j, arg in enumerate(argv[i:end], i) if j != cut or not command]
                if choices and run and run[0] not in choices:
                    _fail(command, f"invalid choice: {run[0]!r} "
                                   f"(choose from {', '.join(choices)})")
            i = end
            continue
        (name, value), i = read[i], i + 1
        if name is None:
            extras.append(argv[i - 1])
            continue
        dest, metavar, _, convert, _ = options[name]
        if metavar is None and value is not None and (name != "-h" or value.strip("h")
                                                      or not value):  # "-hh" is help
            _fail(command, f"argument {name}: ignored explicit argument {value!r}")
        if dest == "help":
            print(_usage(command, full=True))
            raise SystemExit(0)
        if value is None and metavar is not None:
            if i == cut or read[i]:
                _fail(command, f"argument {name}: expected one argument")
            value, i = argv[i], i + 1
        try:  # a subcommand's option is converted once its last value is known
            setattr(args, dest, True if metavar is None else value if command else convert(value))
        except ValueError:
            _fail(command, f"argument {name}: invalid value {value!r}")
    return run or [], extras


def _parse(argv, args):
    """Fill ``args`` from ``argv`` as argparse did, then check the document count
    and ``--cone``; set ``args.command`` once the subcommand is known.  Raise
    :class:`_UsageError` with the usage on stderr, or SystemExit(0) after help."""
    args.command = args.mode = None
    rest, extras = _walk(argv, _GLOBAL_OPTIONS, _COMMANDS, args, None)
    if not rest:
        _fail(None, "the following arguments are required: command")
    args.command = command = rest[0]
    _, _, counts, options = _COMMANDS[command]
    args.paths, more = _walk(rest[1:], options, None if None in counts else counts, args, command)
    if None not in counts:
        args.mode = args.paths.pop(0) if args.paths else _fail(
            command, f"expected one of {', '.join(counts)}")
    fewest, most = counts[args.mode]
    if not fewest <= len(args.paths) <= most:
        _fail(command, f"expected {fewest}{' or more' if most > fewest else ''} documents")
    for name, (dest, _, _, convert, _) in options.items():
        try:
            setattr(args, dest, convert(getattr(args, dest)))
        except ValueError:
            _fail(command, f"argument {name}: invalid value {getattr(args, dest)!r}")
    if extras + more:
        _fail(None, f"unrecognized arguments: {' '.join(extras + more)}")


class _Arguments:
    """The parsed arguments, as attributes (``types.SimpleNamespace`` costs
    an import)."""


def _execute(argv) -> tuple[_Arguments, int, dict]:
    """Parse the arguments and run the command: (arguments, exit code,
    report).  A usage error exits 1 with no report unless the subcommand is
    known."""
    args, inputs = _Arguments(), []
    try:
        _parse(sys.argv[1:] if argv is None else list(argv), args)
        return (args, *_COMMANDS[args.command][0](args, inputs))
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
    except SystemExit as exc:  # help, or a usage error of no known command
        _flush_and_exit(exc.code)
    _flush_and_exit(code, documents.dumps_indented(report) if args.json else _render_text(report))


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
