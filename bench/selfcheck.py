"""The benchmark's own checks.  Run from the repository root:

    python3 bench/selfcheck.py

Checks that the generator is deterministic, that warm-up inputs never repeat
a timed input, the percentile arithmetic, and that the output checker flags
a wrong verdict, a report that breaks the schema and an accepted invalid
input.  Exits 1 on a failure.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 3


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def snapshot(workload, seed, directory: Path) -> dict:
    """Every byte the program would see for the first rounds of a seed."""
    gen = workloads.rounds(workload, seed)
    for index in range(ROUNDS):
        requests = next(gen)
        argvs = run.write_requests(requests, directory / f"round{index}")
        (directory / f"round{index}" / "requests.json").write_text(json.dumps(
            [[argv, req.docs, req.expect] for req, argv in zip(requests, argvs)], default=str))
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def check_determinism(base: Path):
    for workload in workloads.WORKLOADS:
        first = snapshot(workload, 7, base / workload / "a")
        second = snapshot(workload, 7, base / workload / "b")
        other = snapshot(workload, 8, base / workload / "c")
        strip = lambda snap, d: {k: v.replace(str(base / workload / d).encode(), b"")
                                 for k, v in snap.items()}
        expect(strip(first, "a") == strip(second, "b"), f"{workload}: seed 7 not reproducible")
        expect(strip(first, "a") != strip(other, "c"), f"{workload}: seeds 7 and 8 agree")
    print("ok  generator: the same seed gives byte-identical inputs")


def check_warmup_disjoint():
    for workload in workloads.WORKLOADS:
        gen = workloads.rounds(workload, 7)
        timed = {text for _ in range(8) for req in next(gen) for text in req.files.values()}
        for rep in range(run.SETUP_REPEATS):
            for req in workloads.warmup(workload, 7, rep):
                for text in req.files.values():
                    expect(text not in timed, f"{workload}: warm-up input is a timed input")
    print("ok  warm-up inputs are disjoint from timed inputs")


def check_percentiles():
    samples = list(range(1, 101))
    cases = [(samples, 0.5, 50.5), (samples, 0.9, 90.1), ([3.0], 0.9, 3.0),
             ([2.0, 1.0], 0.5, 1.5), ([5, 1, 4, 2, 3], 0.5, 3)]
    for values, q, want in cases:
        got = run.percentile(values, q)
        expect(abs(got - want) < 1e-9, f"percentile({q}) of {len(values)} samples is {got}")
    scaled = run.calibrate([0.2, 0.4], [(0, 0.2), (1, 0.2)])
    expect(all(abs(a - b) < 1e-12 for a, b in zip(scaled, [0.1, 0.2])),
           f"calibrated times {scaled}, expected [0.1, 0.2]")
    print("ok  percentiles and calibration arithmetic")


def check_checker():
    schema = json.loads((run.SRC / "toricdm" / "schemas" / "report.schema.json").read_text())
    validator = checker.SchemaValidator(schema)
    req = workloads.Request("classify:test", ["classify", "@a", "@b"], {}, 2, {
        "command": "classify", "exit": 0, "checks": [("eq", "/isomorphic", True)]})
    good = {"schema_version": "1", "command": "classify",
            "inputs": [{"path": "a", "hash": "00"}, {"path": "b", "hash": "11"}],
            "results": [{"isomorphic": True}], "isomorphic": True}

    def failure(code, report, stderr=""):
        return checker.check(req, code, report, stderr, validator).failure or ""

    expect(failure(0, good) == "", "a correct report was flagged")
    wrong = dict(good, results=[{"isomorphic": False}], isomorphic=False)
    expect(failure(0, wrong).startswith("/isomorphic"), "a wrong verdict passed")
    expect(failure(2, good).startswith("exit 2"), "a wrong exit code passed")
    expect(failure(0, dict(good, surprise=1)).startswith("schema"),
           "a report with an unknown field passed")
    expect(failure(0, dict(good, results=[{"isomorphic": "yes"}])).startswith("schema"),
           "a report with a mistyped field passed")
    expect(failure(0, good, "Traceback (most recent call last)") == "traceback",
           "a traceback passed")
    expect(checker.check(req, 0, wrong, "", validator).wrong, "a wrong verdict is not wrong")
    defect = workloads.Request("classify:test", req.argv, {}, 2,
                               dict(req.expect, known_defect="documented"))
    outcome = checker.check(defect, 0, wrong, "", validator)
    expect(outcome.failure and not outcome.wrong,
           "a known defect's miss is not counted as failed-but-correct")
    expect(checker.check(defect, 0, good, "Traceback (most recent", validator).wrong,
           "a traceback on a known-defect request is not wrong")

    # An invalid fan: the contract answer is exit 1 with valid: false.
    invalid = workloads.Request("validate:invalid", ["validate", "@doc"], {}, 1, {
        "command": "validate", "exit": 1, "invalid": True,
        "checks": [("eq", "/valid", False)]})
    base = {"schema_version": "1", "command": "validate",
            "inputs": [{"path": "doc", "hash": "00"}]}
    rejected = dict(base, valid=False, violations=[{"code": "bad_intersection",
                                                    "message": "cones overlap"}])
    accepted = dict(base, valid=True, violations=[])
    expect(checker.check(invalid, 1, rejected, "", validator).failure is None,
           "a correctly rejected invalid fan was flagged")
    for code, report in ((0, accepted), (1, accepted), (0, rejected), (0, None)):
        outcome = checker.check(invalid, code, report, "", validator)
        expect(outcome.failure and outcome.wrong,
               f"an invalid fan accepted with exit {code} is not wrong")
    outcome = checker.check(invalid, 2, None, "usage: toricdm", validator)
    expect(outcome.failure and not outcome.wrong,
           "an invalid input rejected with exit 2 is not failed-but-correct")
    tally = run.Tally()
    tally.add(invalid, checker.check(invalid, 2, None, "", validator))
    expect(tally.correct and tally.failed == 1, "a rejected invalid input made the run wrong")
    tally.add(invalid, checker.check(invalid, 0, accepted, "", validator))
    expect(not tally.correct, "a run that accepted an invalid fan is correct")

    expect(checker.max_digits({"a": [["-123456", 7]], "b": "1/3"}) == 6,
           "digit count of integer strings")
    try:
        checker.SchemaValidator({"type": "object", "propertyNames": {}}).errors({})
    except ValueError:
        pass
    else:
        raise CheckFailed("an unsupported schema keyword passed")
    print("ok  checker: flags a wrong verdict, a wrong exit code, a schema-invalid "
          "report, a traceback and an accepted invalid fan; a rejected invalid input and "
          "a known defect fail without making the run wrong")


def main():
    base = run.ROOT / ".bench_runs" / "selfcheck"
    shutil.rmtree(base, ignore_errors=True)
    try:
        check_determinism(base)
        check_warmup_disjoint()
        check_percentiles()
        check_checker()
    except CheckFailed as exc:
        print(f"FAIL {exc}")
        sys.exit(1)
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    main()
