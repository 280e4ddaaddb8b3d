import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricdm import cli, documents, lattice, morphisms
from toricdm.errors import DocumentError

from conftest import (EXPLODING_CONES, EXPLODING_RAYS, reference_parse, schema_errors,
                      serialize_morphism_data, spy)

WPS_ROOT = {
    "schema_version": "1", "lattice_rank": 1,
    "rays": [[-3], [2]], "cones": [[0], [1]], "r": [2], "b": [[0, 1]],
}
A1_MU3 = {
    "schema_version": "1", "lattice_rank": 1,
    "rays": [[3]], "cones": [[0]], "r": [], "b": [],
}
NONSPAN = {
    "schema_version": "1", "lattice_rank": 2,
    "rays": [[2, 4]], "cones": [[0]], "r": [], "b": [],
}
P1_DOC = {
    "schema_version": "1", "lattice_rank": 1,
    "rays": [[-1], [1]], "cones": [[0], [1]], "r": [], "b": [],
}


def p1_root_doc(k):
    return {"schema_version": "1", "lattice_rank": 1,
            "rays": [[-1], [1]], "cones": [[0], [1]], "r": [2], "b": [[0, k]]}


def duple_doc(d, sign=1):
    coeff = str(sign)
    return {"schema_version": "1", "source": P1_DOC, "target": P1_DOC,
            "polynomials": [[{"coefficient": coeff, "exponents": [d, 0]}],
                            [{"coefficient": coeff, "exponents": [0, d]}]],
            "chi": []}


def binomial_doc(d):
    """(x-^d + x+^d, x+^d) on the projective line: a morphism the charts
    prove, with no monomial shortcut and no rational zero to sample."""
    return {"schema_version": "1", "source": P1_DOC, "target": P1_DOC,
            "polynomials": [
                [{"coefficient": "1", "exponents": [d, 0]},
                 {"coefficient": "1", "exponents": [0, d]}],
                [{"coefficient": "1", "exponents": [0, d]}]],
            "chi": []}


@pytest.fixture(autouse=True)
def exit_raises(monkeypatch):
    """``cli.main`` ends its process with ``os._exit``; in these in-process
    tests that exit raises ``SystemExit`` with its code instead."""
    def raise_exit(code):
        raise SystemExit(code)
    monkeypatch.setattr(os, "_exit", raise_exit)


def binary_forms_doc(last_term):
    """A self-map of the projective line by two binary forms of degree
    1,000; ``last_term`` is the (coefficient, exponent of x-) of the second
    form's last term, whose x- exponent the first form's last term shares."""
    coefficient, exponent = last_term
    forms = [[("1", 1000), ("2", 582), ("1", 867), ("3", 821), ("3", exponent)],
             [("1", 1000), ("3", 667), ("1", 388), ("3", 807), (coefficient, exponent)]]
    return {"schema_version": "1", "source": P1_DOC, "target": P1_DOC, "chi": [],
            "polynomials": [[{"coefficient": c, "exponents": [e, 1000 - e]} for c, e in form]
                            for form in forms]}


# (10^4000 + 1)(10^4000 + 3), beyond the interpreter's 4,300-digit limit on str
HUGE_PRODUCT = "1" + "0" * 3999 + "4" + "0" * 3999 + "3"


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_checked(argv):
    """Run a CLI invocation and validate the report against the schema."""
    code, report = cli.run(argv)
    assert schema_errors(report, "report.schema.json") == []
    return code, report


class TestDocuments:
    def test_round_trip(self):
        for doc in (WPS_ROOT, A1_MU3, NONSPAN, p1_root_doc(5)):
            data = documents.parse_stacky_document(doc)
            again = documents.parse_stacky_document(documents.serialize_stacky_data(data))
            assert data == again

    def test_morphism_round_trip(self):
        md = documents.parse_morphism_document(duple_doc(3))
        again = documents.parse_morphism_document(serialize_morphism_data(md))
        assert md == again

    def test_faces_are_closed_by_loader(self):
        doc = {"schema_version": "1", "lattice_rank": 2,
               "rays": [[1, 0], [0, 1]], "cones": [[0, 1]], "r": [], "b": []}
        data = documents.parse_stacky_document(doc)
        assert frozenset() in data.fan.cones
        assert frozenset({0}) in data.fan.cones

    def test_big_integers_round_trip(self):
        big = 2 ** 70
        doc = {"schema_version": "1", "lattice_rank": 1,
               "rays": [[str(big)]], "cones": [[0]], "r": [], "b": []}
        data = documents.parse_stacky_document(doc)
        assert data.fan.rays == ((big,),)
        out = documents.serialize_stacky_data(data)
        assert out["rays"] == [[str(big)]]
        assert schema_errors(out, "stacky_data.schema.json") == []

    def test_hash_is_key_order_insensitive(self):
        reordered = dict(reversed(list(WPS_ROOT.items())))
        assert documents.document_hash(WPS_ROOT) == documents.document_hash(reordered)

    def test_schema_violation_is_located(self):
        bad = dict(WPS_ROOT)
        bad["rays"] = [["x"]]
        with pytest.raises(DocumentError):
            documents.parse_stacky_document(bad)

    def test_b_shape_checked(self):
        bad = dict(WPS_ROOT)
        bad["b"] = [[0]]
        with pytest.raises(DocumentError):
            documents.parse_stacky_document(bad)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        code, _ = run_checked(["validate", write(tmp_path, "a.json", WPS_ROOT)])
        assert code == 0

    def test_invalid_input_is_one(self, tmp_path):
        bad = dict(WPS_ROOT)
        bad["r"] = [0]
        code, report = run_checked(["validate", write(tmp_path, "bad.json", bad)])
        assert code == 1
        assert report["violations"][0]["code"] == "nonpositive_root_order"

    def test_false_verdict_is_two(self, tmp_path):
        a = write(tmp_path, "k1.json", p1_root_doc(1))
        b = write(tmp_path, "k0.json", p1_root_doc(0))
        code, report = run_checked(["classify", a, b])
        assert code == 2
        assert report["isomorphic"] is False

    def test_unknown_verdict_is_three(self, tmp_path, monkeypatch):
        # charts allowed no work are undecided, and no sample refutes
        monkeypatch.setattr(morphisms, "CHART_WORK_LIMIT", 0)
        code, report = run_checked(
            ["morphism", "check", write(tmp_path, "m.json", binomial_doc(2))])
        assert code == 3
        assert report["condition_b"]["status"] == "unknown"

    def test_missing_file_is_one(self):
        code, report = run_checked(["validate", "/nonexistent/nowhere.json"])
        assert code == 1
        assert report["error"]["code"] == "document_error"

    def test_integer_literal_beyond_digit_limit_is_one(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"lattice_rank": ' + "9" * 5000 + "}")
        code, report = run_checked(["validate", str(path)])
        assert code == 1
        assert report["error"]["code"] == "document_error"

    @pytest.mark.parametrize("argv", [["frobnicate", "x.json"], ["stabilizer"]])
    def test_usage_error_is_one(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert "usage: toricdm" in err and "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, command", [
        (["stabilizer"], "stabilizer"), (["build", "@doc", "--cone"], "build"),
        (["morphism", "check"], "morphism"), (["classify"], "classify"),
        (["classify", "@doc"], "classify"), (["morphism", "check", "@doc", "@doc"], "morphism"),
        (["morphism", "iso", "@doc"], "morphism"), (["stabilizer", "@doc", "--cone", "x"],
                                                     "stabilizer")])
    def test_usage_error_of_a_known_command_is_reported(self, tmp_path, capsys, argv, command):
        path = write(tmp_path, "a.json", P1_DOC)
        argv = [path if arg == "@doc" else arg for arg in argv]
        with pytest.raises(SystemExit) as info:
            cli.main(["--json"] + argv)
        assert info.value.code == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert schema_errors(report, "report.schema.json") == []
        assert report["command"] == command
        assert report["error"]["code"] == "usage"
        assert "usage: toricdm" in captured.err and "Traceback" not in captured.err
        assert cli.run(argv) == (1, report)

    @pytest.mark.parametrize("argv", [["frobnicate", "x.json"], [], ["--seed", "x", "build"]])
    def test_usage_error_without_a_known_command_has_no_report(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--json"] + argv)
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: toricdm" in captured.err and "Traceback" not in captured.err

    def test_negative_sample_budget_is_one(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", binomial_doc(2))
        with pytest.raises(SystemExit) as info:
            cli.main(["--json", "--sample-budget", "-5", "morphism", "check", path])
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--sample-budget" in captured.err and "Traceback" not in captured.err

    def test_zero_sample_budget_is_unknown(self, tmp_path, monkeypatch):
        # the sample budget bounds only the witness search: the charts still
        # prove, and only with the chart work budget spent too is it unknown
        path = write(tmp_path, "m.json", binomial_doc(2))
        code, report = run_checked(["--sample-budget", "0", "morphism", "check", path])
        assert code == 0
        assert report["condition_b"]["status"] == "proven"
        monkeypatch.setattr(morphisms, "CHART_WORK_LIMIT", 0)
        code, report = run_checked(["--sample-budget", "0", "morphism", "check", path])
        assert code == 3
        assert report["condition_b"]["status"] == "unknown"

    def test_high_degree_term_is_too_large(self, tmp_path, capsys):
        doc = binomial_doc(1)
        doc["polynomials"][1][0]["exponents"] = [0, 3_000_000]
        path = write(tmp_path, "m.json", doc)
        assert os.path.getsize(path) < 500
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            cli.main(["--json", "morphism", "check", path])
        assert time.perf_counter() - start < 0.5
        assert info.value.code == 1
        report = json.loads(capsys.readouterr().out)
        assert schema_errors(report, "report.schema.json") == []
        assert report["error"]["code"] == "too_large"
        assert report["error"]["location"] == "/polynomials/1"

    def test_high_lattice_rank_is_too_large(self, tmp_path, capsys):
        # unbounded, the Picard presentation of this source takes seconds
        source = {"schema_version": "1", "lattice_rank": 2000, "rays": [], "cones": [],
                  "r": [], "b": []}
        doc = {"schema_version": "1", "source": source, "target": P1_DOC,
               "polynomials": [], "chi": [[]]}
        path = write(tmp_path, "m.json", doc)
        assert os.path.getsize(path) < 300
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            cli.main(["--json", "morphism", "check", path])
        assert time.perf_counter() - start < 0.5
        assert info.value.code == 1
        report = json.loads(capsys.readouterr().out)
        assert schema_errors(report, "report.schema.json") == []
        assert report["error"]["code"] == "too_large"
        assert report["error"]["location"] == "/source/lattice_rank"

    @pytest.mark.parametrize("last_term, code, status", [
        (("3", 1), 2, "refuted"),    # both forms vanish at x- = 0: a sample refutes
        (("-3", 0), 3, "unknown"),   # coprime forms: the charts' proof runs out of work
    ])
    def test_high_degree_forms_are_bounded(self, tmp_path, capsys, last_term, code, status):
        # unbounded, the chart check of these two binary forms of degree
        # 1,000 runs about 1,000 S-pairs with growing coefficients: seconds
        path = write(tmp_path, "m.json", binary_forms_doc(last_term))
        assert os.path.getsize(path) < 1000
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            cli.main(["--json", "morphism", "check", path])
        assert time.perf_counter() - start < 0.5
        assert info.value.code == code
        report = json.loads(capsys.readouterr().out)
        assert schema_errors(report, "report.schema.json") == []
        assert report["condition_b"]["status"] == status

    def test_exploding_fan_gets_a_verdict(self, tmp_path, capsys):
        doc = {"schema_version": "1", "lattice_rank": 4, "rays": EXPLODING_RAYS,
               "cones": EXPLODING_CONES, "r": [], "b": []}
        path = write(tmp_path, "big.json", doc)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            cli.main(["--json", "validate", path])
        assert time.perf_counter() - start < 0.1
        assert info.value.code == 1
        report = json.loads(capsys.readouterr().out)
        assert schema_errors(report, "report.schema.json") == []
        assert report["valid"] is False
        assert report["violations"][0]["code"] == "bad_intersection"
        assert report["violations"][0]["witness"] == [[1, 2, 3, 4], [2, 3, 4, 5], 1]


def package_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_leaves_jsonschema_unloaded():
    probe = "import sys, toricdm.cli; print('jsonschema' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=package_env(), capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


CLI_ENTRY = "from toricdm.cli import main; main()"


def run_process(argv, **options):
    """``toricdm`` with ``argv`` as its own process: (exit code, stdout, stderr)."""
    done = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=package_env(),
                          capture_output=True, text=True, timeout=60, **options)
    return done.returncode, done.stdout, done.stderr


def many_roots_doc(count):
    """The projective line with ``count`` square roots: a report of about
    30 bytes per root."""
    return {"schema_version": "1", "lattice_rank": 1, "rays": [[-1], [1]],
            "cones": [[0], [1]], "r": [2] * count, "b": [[0, 1]] * count}


SUBCOMMANDS = ("validate", "build", "pic", "stabilizer", "rigidify", "split", "classify",
               "canonicalize", "morphism")
GLOBAL_OPTIONS = ("--json", "--verify", "--sample-budget", "--seed")


class TestProcess:
    """``main`` ends its process with ``os._exit``: the report, the exit code
    and the usage text still arrive whole."""

    def test_large_report_arrives_whole(self, tmp_path):
        argv = ["--json", "pic", write(tmp_path, "many.json", many_roots_doc(5000))]
        code, out, err = run_process(argv)
        assert code == 0 and err == ""
        assert len(out) > 64 * 1024
        assert out == json.dumps(cli.run(argv)[1], indent=2) + "\n"

    def test_exit_codes(self, tmp_path):
        unknown = binary_forms_doc(("-3", 0))
        cases = [
            (0, ["validate", write(tmp_path, "ok.json", WPS_ROOT)]),
            (1, ["validate", write(tmp_path, "bad.json", dict(WPS_ROOT, r=[0]))]),
            (2, ["classify", write(tmp_path, "k1.json", p1_root_doc(1)),
                 write(tmp_path, "k0.json", p1_root_doc(0))]),
            (3, ["morphism", "check", write(tmp_path, "unknown.json", unknown)]),
        ]
        for expected, argv in cases:
            for flags in (["--json"], []):
                code, out, err = run_process(flags + argv)
                assert (code, err) == (expected, "")
                report = cli.run(argv)[1]
                text = json.dumps(report, indent=2) if flags else cli._render_text(report)
                assert out == text + "\n"

    def test_help(self):
        for argv in (["--help"], ["-h"], *([name, "-h"] for name in SUBCOMMANDS)):
            code, out, err = run_process(argv)
            assert (code, err) == (0, "")
            assert out.startswith("usage: toricdm")
            if len(argv) == 1:
                assert all(name in out for name in SUBCOMMANDS + GLOBAL_OPTIONS)

    def test_unknown_subcommand(self):
        code, out, err = run_process(["--json", "frobnicate", "x.json"])
        assert (code, out) == (1, "")
        assert "usage: toricdm" in err and "invalid choice: 'frobnicate'" in err
        assert "Traceback" not in err

    def test_no_stdout(self, tmp_path):
        # started with descriptor 1 closed, the interpreter has no sys.stdout
        argv = ["--json", "validate", write(tmp_path, "ok.json", WPS_ROOT)]
        assert run_process(argv, preexec_fn=lambda: os.close(1)) == (0, "", "")

    def test_closed_stdout_exits_one_quietly(self, tmp_path):
        # a reader that takes 10 bytes of a 150 KB report and closes the pipe
        path = write(tmp_path, "many.json", many_roots_doc(5000))
        with subprocess.Popen([sys.executable, "-c", CLI_ENTRY, "--json", "pic", path],
                              env=package_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b'{\n  "schem'
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert code == 1
        assert err == b""


class TestCommands:
    def test_build_report(self, tmp_path):
        code, report = run_checked(["build", write(tmp_path, "a.json", WPS_ROOT)])
        assert code == 0
        assert report["matrices"]["b"] == [[-3, 2], [0, 1]]
        assert report["matrices"]["q"] == [[0], [2]]
        assert report["matrices"]["bq"] == [[-3, 2, 0], [0, 1, 2]]
        assert report["quotient_group"] == {"torus_rank": 1, "invariant_factors": []}
        assert report["generic_stabilizer"] == [2]
        assert report["stacky_fan"]["lifted_rays"] == [[-3, 0], [2, 1]]

    def test_build_runs_one_smith_form_of_the_rays(self, tmp_path, snf_calls):
        code, report = run_checked(["build", write(tmp_path, "a.json", WPS_ROOT)])
        assert code == 0 and report["rays_span"] is True
        # the 3 x 2 relation matrix of the quotient group, then the 1 x 2 ray
        # matrix once: rays_span answers both the span and the stacky fan
        assert snf_calls == [(3, 2), (1, 2)]
        snf_calls.clear()
        code, report = run_checked(["build", write(tmp_path, "n.json", NONSPAN)])
        assert code == 0 and report["rays_span"] is False
        # only data whose rays do not span is split, with a Smith form of its own
        assert snf_calls == [(1, 2), (2, 1), (2, 1)]

    def test_build_affine_quotient(self, tmp_path):
        code, report = run_checked(["build", write(tmp_path, "a.json", A1_MU3)])
        assert code == 0
        assert report["quotient_group"]["invariant_factors"] == [3]

    def test_build_nonspanning_reports_split(self, tmp_path):
        code, report = run_checked(["build", write(tmp_path, "n.json", NONSPAN)])
        assert code == 0
        assert report["rays_span"] is False
        assert report["split"]["torus_factor_rank"] == 1
        nested = documents.parse_stacky_document(report["split"]["data"])
        assert nested.fan.lattice_rank == 1

    def test_build_verify(self, tmp_path):
        code, report = run_checked(
            ["--verify", "build", write(tmp_path, "a.json", WPS_ROOT)])
        assert code == 0
        assert report["verify"]["all_agree"] is True

    def test_pic(self, tmp_path):
        code, report = run_checked(["pic", write(tmp_path, "a.json", WPS_ROOT)])
        assert code == 0
        assert report["picard"]["free_rank"] == 1
        assert report["picard"]["relation_matrix"] == [[-3], [2]]
        assert report["gerbe_classes"] == [[0, 1]]

    def test_stabilizer(self, tmp_path):
        path = write(tmp_path, "a.json", WPS_ROOT)
        for cone, order in (("0", 6), ("1", 4), ("", 2)):
            code, report = run_checked(
                ["--verify", "stabilizer", path, "--cone", cone])
            assert code == 0
            assert report["stabilizer"]["order"] == order
            assert report["verify"]["agrees"] is True

    def test_stabilizer_unknown_cone(self, tmp_path):
        code, report = run_checked(
            ["stabilizer", write(tmp_path, "a.json", WPS_ROOT), "--cone", "0,1"])
        assert code == 1
        assert report["error"]["code"] == "cone_not_in_fan"

    def test_rigidify_output_parses(self, tmp_path):
        code, report = run_checked(["rigidify", write(tmp_path, "a.json", WPS_ROOT)])
        assert code == 0
        data = documents.parse_stacky_document(report["data"])
        assert data.is_rigid

    def test_split_idempotent_through_documents(self, tmp_path):
        code, report = run_checked(["split", write(tmp_path, "n.json", NONSPAN)])
        assert code == 0
        inner = write(tmp_path, "inner.json", report["data"])
        code2, report2 = run_checked(["split", inner])
        assert code2 == 0
        assert report2["torus_factor_rank"] == 0
        assert report2["data"] == report["data"]

    def test_classify_isomorphic(self, tmp_path):
        a = write(tmp_path, "k2.json", p1_root_doc(2))
        b = write(tmp_path, "k0.json", p1_root_doc(0))
        code, report = run_checked(["--verify", "classify", a, b])
        assert code == 0
        assert report["isomorphic"] is True
        assert report["results"][0]["divisibility"] == [True]
        assert report["results"][0]["oracle_agrees"] == [True]

    def test_classify_same_file(self, tmp_path):
        a = write(tmp_path, "k3.json", p1_root_doc(3))
        code, report = run_checked(["classify", a, a])
        assert code == 0 and report["isomorphic"] is True

    def test_classify_mismatched_underlying(self, tmp_path):
        a = write(tmp_path, "a.json", p1_root_doc(0))
        b = write(tmp_path, "b.json", WPS_ROOT)
        code, report = run_checked(["classify", a, b])
        assert code == 1
        assert "error" in report

    def test_error_reports_name_the_rejected_document(self, tmp_path):
        base = write(tmp_path, "base.json", p1_root_doc(0))
        good = write(tmp_path, "good.json", p1_root_doc(1))
        overlapping = dict(P1_DOC, rays=[[1], [2]])
        bad = write(tmp_path, "bad.json", overlapping)
        code, report = run_checked(["classify", base, good, bad])
        assert code == 1
        assert report["error"]["location"] == "duplicate_ray_direction"
        assert [entry["path"] for entry in report["inputs"]] == [base, good, bad]
        assert report["inputs"][-1]["hash"] == documents.document_hash(overlapping)

        rejected = duple_doc(2)
        rejected["polynomials"][0][0]["exponents"] = [2]
        a = write(tmp_path, "a.json", duple_doc(2))
        b = write(tmp_path, "b.json", rejected)
        code, report = run_checked(["morphism", "iso", a, b])
        assert code == 1
        assert report["error"]["location"] == "/polynomials/0"
        assert [entry["path"] for entry in report["inputs"]] == [a, b]
        assert report["inputs"][-1]["hash"] == documents.document_hash(rejected)

    def test_classify_batch(self, tmp_path):
        base = write(tmp_path, "base.json", p1_root_doc(0))
        others = [write(tmp_path, f"k{k}.json", p1_root_doc(k)) for k in (2, 4, 3)]
        code, report = run_checked(["classify", base, *others])
        assert code == 2
        assert [r["isomorphic"] for r in report["results"]] == [True, True, False]

    def test_classify_split_pair(self, tmp_path):
        # the sixth root of a line bundle is the fibre product of its square
        # and cube roots: (6; beta) and (2, 3; beta, beta) are isomorphic
        six = dict(P1_DOC, r=[6], b=[[1, 0]])
        split = dict(P1_DOC, r=[2, 3], b=[[1, 0], [1, 0]])
        code, report = run_checked(["--verify", "classify", write(tmp_path, "six.json", six),
                                    write(tmp_path, "split.json", split)])
        assert code == 0
        assert report["results"][0] == {"chains": [[6], [6]], "isomorphic": True,
                                        "divisibility": [True], "oracle_agrees": [True]}

    def test_integers_beyond_the_digit_limit_are_written(self, tmp_path):
        # two coprime root orders of 4,001 digits: the chain factor, the
        # group orders and the certificate have about 8,000 digits
        big1, big2 = 10 ** 4000 + 1, 10 ** 4000 + 3
        doc = dict(P1_DOC, r=[str(big1), str(big2)], b=[[1, 0], [0, 1]])
        path = write(tmp_path, "huge.json", doc)
        assert os.path.getsize(path) < 8200
        code, report = run_checked(["canonicalize", path])
        assert code == 0 and report["chain"] == [HUGE_PRODUCT]
        code, report = run_checked(["stabilizer", path, "--cone", "0"])
        assert code == 0 and report["stabilizer"]["order"] == HUGE_PRODUCT
        code, report = run_checked(["build", path])
        assert code == 0 and report["generic_stabilizer"] == [HUGE_PRODUCT]

    def test_ratios_beyond_the_digit_limit_are_written(self, tmp_path):
        # the tuples differ by the factor (10^4000 + 1)(10^4000 + 3)
        def doc(coefficient):
            return {"schema_version": "1", "source": P1_DOC, "target": P1_DOC, "chi": [],
                    "polynomials": [[{"coefficient": coefficient, "exponents": [1, 0]}],
                                    [{"coefficient": coefficient, "exponents": [0, 1]}]]}
        first = write(tmp_path, "m1.json", doc("1/" + str(10 ** 4000 + 3)))
        second = write(tmp_path, "m2.json", doc(str(10 ** 4000 + 1)))
        code, report = run_checked(["morphism", "iso", first, second])
        assert code == 0
        assert report["iso"]["ratios"] == [HUGE_PRODUCT] * 2

    def test_canonicalize(self, tmp_path):
        doc = {"schema_version": "1", "lattice_rank": 1,
               "rays": [[-1], [1]], "cones": [[0], [1]],
               "r": [2, 3], "b": [[0, 1], [1, 0]]}
        code, report = run_checked(["canonicalize", write(tmp_path, "a.json", doc)])
        assert code == 0
        assert report["chain"] == [6]
        assert documents.parse_stacky_document(report["data"]).r == (6,)

    def test_morphism_check(self, tmp_path):
        code, report = run_checked(
            ["morphism", "check", write(tmp_path, "m.json", duple_doc(3))])
        assert code == 0
        assert report["condition_a"] is True
        assert report["condition_b"]["status"] == "proven"

    def test_morphism_check_refuted(self, tmp_path):
        doc = {"schema_version": "1", "source": P1_DOC, "target": P1_DOC,
               "polynomials": [[{"coefficient": "1", "exponents": [1, 0]}],
                               [{"coefficient": "1", "exponents": [1, 0]}]],
               "chi": []}
        code, report = run_checked(
            ["morphism", "check", write(tmp_path, "m.json", doc)])
        assert code == 2
        assert report["condition_b"]["status"] == "refuted"
        assert report["condition_b"]["witness_pattern"] == [0]

    def test_morphism_check_validates_once(self, tmp_path, certificates, snf_calls):
        doc = dict(binomial_doc(2), target=dict(P1_DOC, rays=[[-2], [2]]))
        code, report = run_checked(["morphism", "check", write(tmp_path, "m.json", doc)])
        assert code == 0
        assert report["condition_a"] is True
        assert report["condition_b"] == {"status": "proven"}
        # one certificate per fan, one rays_span Smith form for the target
        # (1 x 2) and one Picard presentation grading the polynomials (2 x 1)
        assert len(certificates) == 2
        assert snf_calls == [(1, 2), (2, 1)]

    def test_self_map_validates_its_fan_once(self, tmp_path, certificates):
        code, _ = run_checked(["morphism", "check", write(tmp_path, "m.json", duple_doc(3))])
        assert code == 0
        assert len(certificates) == 1

    def test_morphism_iso_certifies_each_fan_once(self, tmp_path, certificates):
        target = dict(P1_DOC, rays=[[-2], [2]])
        a = write(tmp_path, "pos.json", dict(duple_doc(2), target=target))
        b = write(tmp_path, "neg.json", dict(duple_doc(2, sign=-1), target=target))
        code, report = run_checked(["morphism", "iso", a, b])
        assert code == 0
        assert report["iso"] == {"status": "yes", "ratios": ["-1", "-1"]}
        assert len(certificates) == 2

    def test_classify_certifies_the_shared_fan_once(self, tmp_path, certificates):
        paths = [write(tmp_path, f"p{k}.json", p1_root_doc(k)) for k in range(4)]
        code, report = run_checked(["classify", *paths])
        assert code == 2
        assert report["results"][0]["isomorphic"] is False
        assert len(certificates) == 1

    def test_twist_classes_make_the_only_picard_projection(self, tmp_path, monkeypatch):
        target = {"schema_version": "1", "lattice_rank": 1, "rays": [[-3], [2]],
                  "cones": [[0], [1]], "r": [2], "b": [[0, 1]]}
        doc = {"schema_version": "1", "source": P1_DOC, "target": target,
               "polynomials": [[{"coefficient": "1", "exponents": [2, 2]}],
                               [{"coefficient": "1", "exponents": [3, 3]}]],
               "chi": [[-3, 0]]}
        calls = []
        spy(monkeypatch, lattice.cokernel_with_projection, calls.append)
        code, report = run_checked(["morphism", "check", write(tmp_path, "m.json", doc)])
        assert code == 2
        assert report["condition_a"] is True
        # the document's twist classes build the source Picard presentation;
        # validation compares against it without a second projection
        assert len(calls) == 1

    def test_morphism_iso(self, tmp_path):
        a = write(tmp_path, "pos.json", duple_doc(2))
        b = write(tmp_path, "neg.json", duple_doc(2, sign=-1))
        code, report = run_checked(["morphism", "iso", b, a])
        assert code == 0
        assert report["iso"] == {"status": "yes", "ratios": ["-1", "-1"]}

    def test_morphism_iso_no(self, tmp_path):
        scaled = duple_doc(2)
        scaled["polynomials"][0][0]["coefficient"] = "2"
        scaled["polynomials"][1][0]["coefficient"] = "1/2"
        a = write(tmp_path, "base.json", duple_doc(2))
        b = write(tmp_path, "scaled.json", scaled)
        code, report = run_checked(["morphism", "iso", a, b])
        assert code == 2
        assert report["iso"]["status"] == "no"

    def test_morphism_precondition_errors_distinct(self, tmp_path):
        half = {"schema_version": "1", "lattice_rank": 1,
                "rays": [[1]], "cones": [[0]], "r": [], "b": []}
        doc = {"schema_version": "1", "source": half, "target": P1_DOC,
               "polynomials": [[{"coefficient": "1", "exponents": [1]}],
                               [{"coefficient": "1", "exponents": [1]}]],
               "chi": []}
        code, report = run_checked(
            ["morphism", "check", write(tmp_path, "m.json", doc)])
        assert code == 1
        assert report["error"]["code"] == "source_not_complete"

    def test_morphism_target_is_validated(self, tmp_path):
        target = {"schema_version": "1", "lattice_rank": 1,
                  "rays": [[1], [2]], "cones": [[0], [1]], "r": [], "b": []}
        doc = dict(duple_doc(1), target=target)
        path = write(tmp_path, "m.json", doc)
        for argv in (["morphism", "check", path], ["morphism", "iso", path, path]):
            code, report = run_checked(argv)
            assert code == 1
            assert report["error"]["location"] == "duplicate_ray_direction"

    def test_text_rendering(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", WPS_ROOT)
        with pytest.raises(SystemExit) as info:
            cli.main(["validate", path])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "command: validate" in out
        assert "valid: true" in out

    def test_json_rendering(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", WPS_ROOT)
        with pytest.raises(SystemExit) as info:
            cli.main(["--json", "validate", path])
        assert info.value.code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "validate"


# ---------------------------------------------------------------------------
# The command line read against the argparse parser it replaced
# ---------------------------------------------------------------------------

def unique_prefixes(option):
    """``option`` and each shorter prefix of it that names no other global option."""
    names = GLOBAL_OPTIONS + ("--help",)
    return [option[:n] for n in range(3, len(option) + 1)
            if sum(name.startswith(option[:n]) for name in names) == 1]


PREFIXES = [prefix for option in GLOBAL_OPTIONS for prefix in unique_prefixes(option)]
INTEGERS = st.one_of(st.integers().map(str), st.sampled_from(["7" * 5000, "-" + "7" * 5000]))
VALUES = st.one_of(INTEGERS, st.sampled_from(["", "x", "0,1"]))
GLOBALS = st.one_of(st.sampled_from(PREFIXES), INTEGERS,
                    st.builds("{}={}".format, st.sampled_from(PREFIXES), VALUES))
ARGUMENTS = st.one_of(GLOBALS, st.builds("--cone={}".format, VALUES), st.sampled_from(
    list(SUBCOMMANDS) + ["frobnicate", "check", "iso", "--cone", "--", "@p1", "@morphism",
                         "@missing", "0,1", "x", "-h", "--help"]))
OPERANDS = st.one_of(st.sampled_from(["@p1", "@morphism", "check", "iso", "--cone", "0,1"]),
                     ARGUMENTS)
# a flag, or an option and its value as one argument or as two
SETTINGS = st.builds(lambda option, value, joined: [option] if option[2] != "s" else
                     [f"{option}={value}"] if joined else [option, value],
                     st.sampled_from(PREFIXES), st.one_of(st.integers(0, 99).map(str), VALUES),
                     st.booleans())
# arbitrary lists, and lists of the shape of a command: global options, then
# a subcommand and mostly its operands
ARGVS = st.one_of(st.lists(ARGUMENTS, max_size=8), st.builds(
    lambda head, name, tail: sum(head, []) + [name] + tail, st.lists(SETTINGS, max_size=3),
    st.sampled_from(SUBCOMMANDS), st.lists(OPERANDS, max_size=4)))


def parsed(argv):
    """The reading of ``argv`` by ``cli._parse``, in the form of
    ``conftest.reference_parse``."""
    args = SimpleNamespace()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli._parse(argv, args)
    except SystemExit as exc:
        assert exc.code == 0
        return "help", None
    except cli._UsageError:
        return "usage", args.command
    values = vars(args)
    if values["mode"] is None:
        del values["mode"]
    return "ok", values


@pytest.fixture(scope="module")
def argument_documents(tmp_path_factory):
    """Paths for the documents the drawn arguments name."""
    folder = tmp_path_factory.mktemp("arguments")
    return {"@p1": write(folder, "p1.json", P1_DOC),
            "@morphism": write(folder, "morphism.json", duple_doc(1)),
            "@missing": str(folder / "missing.json")}


class TestArgumentGrammar:
    @settings(max_examples=1000, deadline=None)
    @given(ARGVS)
    def test_parse_agrees_with_argparse(self, argv):
        assert parsed(argv) == reference_parse(argv)

    @settings(max_examples=200, deadline=None)
    @given(ARGVS)
    def test_any_arguments_get_an_exit_code_and_a_valid_report(self, argument_documents, argv):
        argv = [argument_documents.get(arg, arg) for arg in argv]
        outcome, values = parsed(argv)
        command = values["command"] if outcome == "ok" else values
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, report = cli.run(argv)
            except SystemExit as exc:
                code, report = exc.code, None
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
        assert info.value.code == code and code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        printed = out.getvalue()
        if report is None:
            assert (outcome, code) in (("help", 0), ("usage", 1)) and command is None
            assert printed.count("usage: toricdm") == (2 if outcome == "help" else 0)
        else:
            assert schema_errors(report, "report.schema.json") == []
            assert report["command"] == command
            assert printed in (json.dumps(report, indent=2) + "\n",
                               cli._render_text(report) + "\n")
            assert (outcome == "usage") == (report.get("error", {}).get("code") == "usage")
