"""toricdm benchmark: CLI time-to-verdict, plus a traced per-layer replay.

Usage (from the repository root):

    python3 bench/run.py --workload fan-scale --seed 1 --seconds 15 --trace 0

With ``--trace 0`` every request is one ``toricdm --json ...`` subprocess,
timed from spawn to exit, one at a time (a closed loop with one client).
With ``--trace 1`` the same requests are replayed in one process through
``toricdm.cli.run`` with every cross-module call wrapped in a span.  Every
response is checked against its reference answer outside the timed span.
The last line of standard output is a JSON summary; see USAGE.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import checker  # noqa: E402
import workloads  # noqa: E402

MIN_REQUESTS = 100        # p90 then has at least ten samples beyond it
SETUP_REPEATS = 2         # set-up is timed this often; the median is reported
IMPORT_PROBES = 7         # interpreter start-ups per side for cli.import_s
REQUEST_TIMEOUT_S = 20.0
BYTECODE_POLICY = ("PYTHONPYCACHEPREFIX in a fresh per-run directory, filled by the "
                   "untimed set-up; PYTHONDONTWRITEBYTECODE unset; PYTHONHASHSEED=0")
CLI_ENTRY = "from toricdm.cli import main; main()"

# Machine-speed calibration.  The shared machines this runs on change speed
# by up to 40% within minutes, for the reference process as much as for the
# program.  A fixed stdlib-only process (interpreter start, stdlib imports the
# program also makes, so set-up has already cached their bytecode, and a short
# loop) runs after every CAL_EVERY-th request; each request time is
# scaled by CAL_NOMINAL_S over the median of the CAL_WINDOW nearest reference
# times, which gives seconds on a machine where the reference takes
# CAL_NOMINAL_S.  Raw times are kept in the run record.
CAL_CODE = ("import argparse, concurrent.futures, dataclasses, fractions, hashlib, json, random"
            "\nx = 0\nfor i in range(60000):\n    x += i * i")
CAL_EVERY = 5
CAL_WINDOW = 7
CAL_NOMINAL_S = 0.1


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Run directories, environment and subprocesses
# ---------------------------------------------------------------------------

def fresh_dir(base: Path, name: str) -> Path:
    path = base / name
    for sub in ("home", "tmp", "cache", "pycache", "io"):
        (path / sub).mkdir(parents=True)
    return path


def request_env(run_dir: Path, pycache: Path | None = None) -> dict:
    """The environment of every request: no inherited PYTHON* settings, a
    fresh home, cache and temp directory, and a bytecode cache that is the
    run directory's own unless ``pycache`` names one to reuse."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(pycache or run_dir / "pycache"),
               HOME=str(run_dir / "home"), XDG_CACHE_HOME=str(run_dir / "cache"),
               TMPDIR=str(run_dir / "tmp"))
    return env


class Spawned:
    __slots__ = ("seconds", "code", "maxrss_kb", "stdout", "stderr", "timed_out")


def spawn(argv, env, run_dir: Path) -> Spawned:
    """Run one subprocess to completion; time it from spawn to exit."""
    out_path, err_path = run_dir / "io" / "stdout", run_dir / "io" / "stderr"
    result = Spawned()
    result.timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=run_dir, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            usage = _wait(proc, result)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        result.seconds = time.perf_counter() - start
    result.code = proc.returncode
    result.maxrss_kb = usage.ru_maxrss
    result.stdout = out_path.read_text(errors="replace")
    result.stderr = err_path.read_text(errors="replace")
    return result


def _wait(proc, result):
    """Block until the child exits, killing it after REQUEST_TIMEOUT_S;
    return its resource usage.

    ``os.wait4`` gives the child's own rusage; a timer signal bounds the wait
    without the polling that ``Popen.wait(timeout=...)`` would add."""

    def on_alarm(signum, frame):
        result.timed_out = True
        os.kill(proc.pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def write_requests(requests, directory: Path) -> list:
    """Write each request's documents; return its resolved argument list."""
    directory.mkdir(parents=True)
    resolved = []
    for n, req in enumerate(requests):
        paths = {}
        for name, text in req.files.items():
            path = directory / f"{n:02d}-{name}.json"
            path.write_text(text)
            paths[name] = str(path)
        args = [paths[a[1:]] if a.startswith("@") else a for a in req.argv]
        resolved.append(["--json"] + req.flags + args)
    return resolved


def reference_time(env, run_dir: Path) -> float:
    """Wall time of the calibration process; it does not see the program."""
    plain = {k: v for k, v in env.items() if k != "PYTHONPATH"}
    return spawn([sys.executable, "-c", CAL_CODE], plain, run_dir).seconds


def calibrate(times, references):
    """Scale each time by CAL_NOMINAL_S over its nearest reference times.

    ``references`` holds (request index, reference seconds) pairs."""
    scaled = []
    for i, seconds in enumerate(times):
        nearest = sorted(references, key=lambda ref: abs(ref[0] - i))[:CAL_WINDOW]
        scaled.append(seconds * CAL_NOMINAL_S / statistics.median(r for _, r in nearest))
    return scaled


def set_up(workload: str, seed: int, base: Path, rep: int):
    """A fresh run directory and one warm-up request per subcommand; the first
    is a fresh interpreter importing toricdm.cli with an empty bytecode cache.
    Returns (seconds, env, run_dir)."""
    run_dir = fresh_dir(base, f"setup{rep}")
    env = request_env(run_dir)
    warm = workloads.warmup(workload, seed, rep)
    argvs = write_requests(warm, run_dir / "warmup")
    total = 0.0
    for argv in argvs:
        done = spawn([sys.executable, "-c", CLI_ENTRY] + argv, env, run_dir)
        if done.timed_out:
            sys.exit(f"error: warm-up request {argv} timed out")
        total += done.seconds
    return total, env, run_dir


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

class Tally:
    """Checked outcomes of a run, with the failure reasons by request kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.verdicts = 0
        self.unknown = 0
        self.docs_ok = 0
        self.digits = []
        self.skipped = 0
        self.reasons = {}

    def add(self, req, outcome):
        self.attempted += 1
        self.verdicts += outcome.verdict
        self.unknown += outcome.unknown
        if outcome.report is not None:
            self.digits.append(checker.max_digits(outcome.report))
            self.skipped += checker.verify_skips(outcome.report)
        if outcome.failure is None:
            self.docs_ok += req.docs
            return
        self.failed += 1
        self.wrong += outcome.wrong
        key = f"{req.kind}: {outcome.failure}"
        self.reasons[key] = self.reasons.get(key, 0) + 1

    @property
    def correct(self) -> bool:
        """No failure that :class:`checker.Outcome` calls wrong: every failure,
        if any, is an invalid input that was still rejected, or a known defect
        named in the request's reference."""
        return self.wrong == 0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_record(args, extra) -> dict:
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "executable": sys.executable, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "source_sha256": source_digest(), "bytecode_policy": BYTECODE_POLICY,
        "loop": "closed, one client, one request in flight",
    }
    record.update(extra)
    return record


def emit(metrics: dict, tally: Tally, record: dict, args, notes=None):
    notes = notes or {}
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:28s} {value:.6g} {unit}{'  ' + note if note else ''}")
    for reason, count in sorted(tally.reasons.items()):
        print(f"failure x{count}: {reason}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


# ---------------------------------------------------------------------------
# --trace 0: subprocess requests
# ---------------------------------------------------------------------------

def run_end_to_end(args, base: Path, validator):
    load_start = os.getloadavg()
    setups = [set_up(args.workload, args.seed, base, rep) for rep in range(SETUP_REPEATS)]
    setup_raw = statistics.median(s[0] for s in setups)
    # Timed requests get a fresh home, cache and temp directory; only the
    # bytecode cache the last set-up filled carries over.
    run_dir = fresh_dir(base, "timed")
    env = request_env(run_dir, pycache=Path(setups[-1][1]["PYTHONPYCACHEPREFIX"]))

    tally = Tally()
    raw, rss, references = [], [], []
    start = time.perf_counter()
    rounds = 0

    def finished():
        return time.perf_counter() - start >= args.seconds and len(raw) >= MIN_REQUESTS

    for index, requests in enumerate(workloads.rounds(args.workload, args.seed)):
        if finished():
            break
        argvs = write_requests(requests, run_dir / f"round{index:03d}")
        for req, argv in zip(requests, argvs):
            if finished():
                break
            done = spawn([sys.executable, "-c", CLI_ENTRY] + argv, env, run_dir)
            raw.append(done.seconds)
            rss.append(done.maxrss_kb)
            if done.timed_out:
                outcome = checker.timed_out()
            else:
                report = checker.parse_report(done.stdout)
                outcome = checker.check(req, done.code, report, done.stderr, validator)
            tally.add(req, outcome)
            if len(raw) % CAL_EVERY == 1:
                references.append((len(raw) - 1, reference_time(env, run_dir)))
        rounds += 1

    n = len(raw)
    times = calibrate(raw, references)
    reference = statistics.median(r for _, r in references)
    metrics = {
        "request_s.p50": (percentile(times, 0.5), "s"),
        "request_s.p90": (percentile(times, 0.9), "s"),
        "docs_per_s": (tally.docs_ok / sum(times), "docs/s"),
        "ok_ratio": ((n - tally.failed) / n, "ratio"),
        "decided_ratio": (1 - tally.unknown / tally.verdicts if tally.verdicts else 1.0, "ratio"),
        "report_digits_max": (statistics.geometric_mean([max(d, 1) for d in tally.digits]
                                                        or [1]), "digits"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
        "setup_s": (setup_raw * CAL_NOMINAL_S / reference, "s"),
    }
    extras = {
        "failed_ratio": (tally.failed / n, "ratio"),
        "unknown_ratio": (tally.unknown / tally.verdicts if tally.verdicts else 0.0, "ratio"),
        "raw.request_s.p50": (percentile(raw, 0.5), "s"),
        "raw.request_s.p90": (percentile(raw, 0.9), "s"),
        "raw.docs_per_s": (tally.docs_ok / sum(raw), "docs/s"),
        "raw.setup_s": (setup_raw, "s"),
        "reference_s": (reference, "s"),
    }
    record = run_record(args, {
        "requests": n, "rounds": rounds, "percentiles": ["p50", "p90"],
        "samples_beyond_p90": sum(1 for t in times if t > metrics["request_s.p90"][0]),
        "calibration": {"code": CAL_CODE, "every": CAL_EVERY, "window": CAL_WINDOW,
                        "nominal_s": CAL_NOMINAL_S, "runs": len(references)},
        "setup_runs_s": [s[0] for s in setups],
        "verdict_requests": tally.verdicts, "oracle_skipped": tally.skipped,
        "run_digits_max": max(tally.digits, default=0),
        "load_average": {"start": load_start, "end": os.getloadavg()},
        "extra_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
    })
    for name, (value, unit) in extras.items():
        print(f"{name:28s} {value:.6g} {unit}")
    emit(metrics, tally, record, args,
         notes={"request_s.p50": f"(n={n})", "request_s.p90": f"(n={n})"})


# ---------------------------------------------------------------------------
# --trace 1: in-process replay with layer spans
# ---------------------------------------------------------------------------

def run_inprocess(run, argv):
    """(seconds, exit code, report, stderr text) of one in-process request."""
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code, report = run(argv)
    except SystemExit as exc:
        code, report = exc.code, None
    except Exception:  # a crash is a checked failure, not a harness error
        code, report = None, None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if report is not None:
        report = json.loads(json.dumps(report))
    return seconds, code, report, err.getvalue()


def import_cost(env, run_dir) -> float:
    """Fresh interpreter importing toricdm.cli, minus a bare interpreter."""
    spawn([sys.executable, "-c", "import toricdm.cli"], env, run_dir)
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(spawn([sys.executable, "-c", "pass"], env, run_dir).seconds)
        full.append(spawn([sys.executable, "-c", "import toricdm.cli"], env, run_dir).seconds)
    return statistics.median(full) - statistics.median(bare)


def replay_rounds(workload: str, seed: int) -> list:
    """The seed's first whole rounds holding at least MIN_REQUESTS requests:
    the requests every ``--trace 0`` run of the seed starts with."""
    out, count = [], 0
    for requests in workloads.rounds(workload, seed):
        if count >= MIN_REQUESTS:
            break
        out.append(requests)
        count += len(requests)
    return out


def run_traced(args, base: Path, validator):
    import tracer as tracing

    load_start = os.getloadavg()
    run_dir = fresh_dir(base, "traced")
    env = request_env(run_dir)
    import_s = import_cost(env, run_dir)
    os.environ.update(HOME=env["HOME"], XDG_CACHE_HOME=env["XDG_CACHE_HOME"],
                      TMPDIR=env["TMPDIR"])
    sys.path.insert(0, str(SRC))
    cli = __import__("toricdm.cli", fromlist=["run"])
    for argv in write_requests(workloads.warmup(args.workload, args.seed, 0), run_dir / "warmup"):
        run_inprocess(cli.run, argv)

    # A fixed request set, independent of how fast the program is, so that
    # counts and self times compare between commits.  Each request runs
    # twice, untraced and traced, in alternating order, so that neither side
    # profits from caches the other one warmed.
    tally = Tally()
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    requests_run = 0
    kinds = []
    replayed = replay_rounds(args.workload, args.seed)
    for index, requests in enumerate(replayed):
        argvs = write_requests(requests, run_dir / "timed" / f"round{index:03d}")
        for req, argv in zip(requests, argvs):
            for traced_side in ((False, True) if requests_run % 2 else (True, False)):
                if traced_side:
                    tracer.request_id = requests_run
                    tracer.install()
                    try:
                        seconds, code, report, err = run_inprocess(tracer.run, argv)
                    finally:
                        tracer.uninstall()
                    traced += seconds
                else:
                    seconds, code, report, err = run_inprocess(cli.run, argv)
                    untraced += seconds
                tally.add(req, checker.check(req, code, report, err, validator))
            kinds.append(req.kind)
            requests_run += 1

    unwrapped = {k: sorted(v) for k, v in sorted(tracer.unwrapped.items())}
    metrics = {"cli.import_s": (import_s, "s")}
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write_spans(spans_path, kinds)
    record = run_record(args, {
        "requests": requests_run, "rounds": len(replayed), "replays": 2,
        "untraced_s": untraced, "traced_s": traced,
        "spans_file": str(spans_path.relative_to(ROOT)), "spans_recorded": len(tracer.spans),
        "spans_dropped": tracer.dropped, "condition_b": tracer.condition_b,
        "unwrapped_cross_layer": unwrapped,
        "load_average": {"start": load_start, "end": os.getloadavg()},
    })
    print("unwrapped cross-layer calls (their time counts in the calling layer): "
          + "; ".join(f"{k} in {', '.join(v)}" for k, v in unwrapped.items()))
    emit(metrics, tally, record, args)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    schema_path = SRC / "toricdm" / "schemas" / "report.schema.json"
    if not (SRC / "toricdm" / "cli.py").is_file() or not schema_path.is_file():
        print(f"error: no toricdm sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    validator = checker.SchemaValidator(json.loads(schema_path.read_text()))

    # A terminated run still removes its scratch files and its child process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    try:
        if args.trace:
            run_traced(args, base, validator)
        else:
            run_end_to_end(args, base, validator)
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    main()
