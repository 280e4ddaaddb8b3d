"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line with
its elapsed time and enforces the stated time budget.  Run with ``pytest -s``
to see the lines as they complete.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from toricdm import (FgAbelianGroup, IntegerMatrix, MorphismData,
                     SparsePolynomial, StackyData, build_matrices, canonicalize,
                     check_condition_a, check_condition_b, check_two_isomorphic,
                     cli, cokernel_with_projection, documents, gerbe_class,
                     generic_stabilizer,
                     is_admissible_zero_pattern, is_isomorphic_banded,
                     morphisms, picard_group, point_stabilizer, quotient_group, rigidify,
                     smith_normal_form, split_nonspanning)
from toricdm.oracle import (det_cofactor, oracle_divisibility,
                            oracle_element_order_census,
                            oracle_is_group_isomorphism, oracle_stabilizer_order,
                            oracle_verify_snf)

from conftest import (affine_quotient_data, chain_by_smith_form, make_fan,
                      p1_root_data, projective_line_fan, random_spanning_data, schema_errors,
                      serialize_morphism_data, weighted_line_root_data)


@contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed or elapsed >= budget_seconds else "PASS"
        print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"{name} exceeded {budget_seconds}s"


def test_criterion_1_cyclic_quotient_family():
    with criterion("1 cyclic-quotient family", 1.0):
        for a in range(1, 13):
            data = affine_quotient_data(a)
            desc = quotient_group(data)
            expected = FgAbelianGroup(0, (a,) if a > 1 else ())
            assert desc.torus_rank == 0
            assert desc.finite_part == expected
            assert point_stabilizer(data, {0}) == expected
            assert point_stabilizer(data, frozenset()).is_trivial


def test_criterion_2_weighted_line_root_fixture():
    with criterion("2 weighted-line root fixture", 1.0):
        data = weighted_line_root_data()
        b, q = build_matrices(data)
        assert b.to_rows() == [[-3, 2], [0, 1]]
        assert q.to_rows() == [[0], [2]]
        desc = quotient_group(data)
        assert desc.torus_rank == 1 and desc.finite_part.is_trivial
        assert generic_stabilizer(data) == FgAbelianGroup(0, (2,))
        assert point_stabilizer(data, {0}).order() == 6
        assert point_stabilizer(data, {1}).order() == 4
        pres = picard_group(rigidify(data))
        assert pres.group == FgAbelianGroup(1)
        g = pres.class_of((0, 1)) - pres.class_of((1, 0))
        assert 2 * g == pres.class_of((1, 0))
        assert 3 * g == pres.class_of((0, 1))
        assert gerbe_class(data, 1) == 3 * g


def test_criterion_3_stabilizer_order_formula():
    with criterion("3 stabilizer order formula", 20.0):
        rng = random.Random(101)
        for _ in range(200):
            data = random_spanning_data(rng)
            d = data.lattice_rank
            r_product = 1
            for r in data.r:
                r_product *= r
            for cone in data.fan.faces():
                if len(cone) != d:
                    continue
                square = IntegerMatrix.column_stack(
                    [data.fan.rays[i] for i in sorted(cone)], d)
                expected = abs(det_cofactor(square)) * r_product
                order = point_stabilizer(data, cone).order()
                assert order == expected
                assert order == oracle_stabilizer_order(data, cone)


def test_criterion_4_classification_parity():
    with criterion("4 classification parity", 1.0):
        relation = picard_group(StackyData(projective_line_fan())).relation_matrix
        for k in range(-6, 7):
            for k2 in range(-6, 7):
                verdict = is_isomorphic_banded(p1_root_data(k), p1_root_data(k2))
                assert verdict == ((k - k2) % 2 == 0)
                assert verdict == oracle_divisibility((0, k - k2), 2, relation)


def test_criterion_5_canonicalize_properties():
    with criterion("5 canonical chain form", 10.0):
        rng = random.Random(55)
        fan = projective_line_fan()
        for _ in range(100):
            big_r = rng.randint(0, 4)
            r = tuple(rng.randint(1, 12) for _ in range(big_r))
            b = IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(2)] for _ in range(big_r)], 2)
            data = StackyData(fan, r, b)
            canonical, certificate = canonicalize(data)
            assert canonical.r == chain_by_smith_form(r)
            assert oracle_element_order_census(r) == \
                oracle_element_order_census(canonical.r)
            assert generic_stabilizer(canonical) == generic_stabilizer(data)
            if big_r:
                assert oracle_is_group_isomorphism(certificate, r, canonical.r)
            again, _ = canonicalize(canonical)
            assert again.r == canonical.r
            assert is_isomorphic_banded(again, canonical)
            assert is_isomorphic_banded(canonical, canonical)


def test_criterion_6_snf_and_divisibility_suites():
    with criterion("6 normal-form and divisibility suites", 20.0):
        rng = random.Random(606)
        for _ in range(1000):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)], n)
            assert oracle_verify_snf(a, smith_normal_form(a))
        for _ in range(500):
            n = rng.randint(1, 3)
            r = rng.randint(1, 6)
            cols = [tuple(rng.randint(-4, 4) for _ in range(n))
                    for _ in range(rng.randint(0, 3))]
            relations = IntegerMatrix.column_stack(cols, n)
            v = tuple(rng.randint(-10, 10) for _ in range(n))
            group, project = cokernel_with_projection(relations)
            assert group.is_divisible(project(v), r) == oracle_divisibility(v, r, relations)


def test_criterion_7_morphism_fixtures():
    with criterion("7 morphism fixtures", 1.0):
        p1 = StackyData(projective_line_fan())

        def mono(coeff, exps):
            return SparsePolynomial.monomial(2, coeff, exps)

        for d in range(1, 6):
            md = MorphismData(p1, p1, (mono(1, (d, 0)), mono(1, (0, d))), ())
            assert check_condition_a(md)
            assert check_condition_b(md).is_proven

        duplicated = MorphismData(p1, p1, (mono(1, (1, 0)), mono(1, (1, 0))), ())
        verdict = check_condition_b(duplicated)
        assert verdict.is_refuted
        witness = verdict.witness_pattern
        assert witness is not None
        image = {k for k, p in enumerate(duplicated.polys)
                 if p.is_zero or (p.support_vars() & witness)}
        assert not is_admissible_zero_pattern(p1.fan, image)

        base = MorphismData(p1, p1, (mono(1, (3, 0)), mono(1, (0, 3))), ())
        flipped = MorphismData(p1, p1, (mono(-1, (3, 0)), mono(-1, (0, 3))), ())
        iso = check_two_isomorphic(base, flipped)
        assert iso.status == "yes" and iso.ratios == (Fraction(-1), Fraction(-1))

        scaled = MorphismData(p1, p1, (mono(2, (3, 0)),
                                       mono(Fraction(1, 2), (0, 3))), ())
        assert check_two_isomorphic(base, scaled).status == "no"

        target = weighted_line_root_data()
        pres = picard_group(p1)
        fixture = MorphismData(p1, target,
                               (mono(1, (2, 2)), mono(1, (3, 3))),
                               (pres.class_of((-3, 0)),))
        assert check_condition_a(fixture)


def test_criterion_8_nonspanning_split():
    with criterion("8 non-spanning split", 1.0):
        for rays in ([(1, 0)], [(2, 4)], [(0, 7)], [(3, -6)]):
            data = StackyData(make_fan(2, rays, [[0]]))
            split, factor = split_nonspanning(data)
            assert factor == 1
            assert split.fan.lattice_rank + factor == 2
            again, factor2 = split_nonspanning(split)
            assert again == split and factor2 == 0
        spanning = StackyData(projective_line_fan())
        assert split_nonspanning(spanning) == (spanning, 0)


def test_criterion_9_cli_round_trip_and_exit_codes(tmp_path, monkeypatch):
    with criterion("9 document round-trip and exit codes", 5.0):
        stacky_docs = {
            "wps_root": {"schema_version": "1", "lattice_rank": 1,
                         "rays": [[-3], [2]], "cones": [[0], [1]],
                         "r": [2], "b": [[0, 1]]},
            "a1_mu3": {"schema_version": "1", "lattice_rank": 1,
                       "rays": [[3]], "cones": [[0]], "r": [], "b": []},
            "nonspan": {"schema_version": "1", "lattice_rank": 2,
                        "rays": [[2, 4]], "cones": [[0]], "r": [], "b": []},
            "p2": {"schema_version": "1", "lattice_rank": 2,
                   "rays": [[1, 0], [0, 1], [-1, -1]],
                   "cones": [[0, 1], [1, 2], [0, 2]], "r": [], "b": []},
            "p1_k0": {"schema_version": "1", "lattice_rank": 1,
                      "rays": [[-1], [1]], "cones": [[0], [1]],
                      "r": [2], "b": [[0, 0]]},
            "p1_k1": {"schema_version": "1", "lattice_rank": 1,
                      "rays": [[-1], [1]], "cones": [[0], [1]],
                      "r": [2], "b": [[0, 1]]},
        }
        p1_doc = {"schema_version": "1", "lattice_rank": 1,
                  "rays": [[-1], [1]], "cones": [[0], [1]], "r": [], "b": []}
        morphism_docs = {
            "duple": {"schema_version": "1", "source": p1_doc, "target": p1_doc,
                      "polynomials": [[{"coefficient": "1", "exponents": [2, 0]}],
                                      [{"coefficient": "1", "exponents": [0, 2]}]],
                      "chi": []},
            "sumsq": {"schema_version": "1", "source": p1_doc, "target": p1_doc,
                      "polynomials": [
                          [{"coefficient": "1", "exponents": [2, 0]},
                           {"coefficient": "1", "exponents": [0, 2]}],
                          [{"coefficient": "1", "exponents": [0, 2]}]],
                      "chi": []},
        }

        paths = {}
        for name, doc in {**stacky_docs, **morphism_docs}.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            paths[name] = str(path)

        for name, doc in stacky_docs.items():
            data = documents.parse_stacky_document(doc)
            serialized = documents.serialize_stacky_data(data)
            assert schema_errors(serialized, "stacky_data.schema.json") == []
            assert documents.parse_stacky_document(serialized) == data
        for name, doc in morphism_docs.items():
            md = documents.parse_morphism_document(doc)
            serialized = serialize_morphism_data(md)
            assert schema_errors(serialized, "morphism.schema.json") == []
            assert documents.parse_morphism_document(serialized) == md

        report_checked = []
        for argv in (["validate", paths["wps_root"]],
                     ["build", paths["wps_root"]],
                     ["build", paths["nonspan"]],
                     ["pic", paths["wps_root"]],
                     ["stabilizer", paths["wps_root"], "--cone", "0"],
                     ["rigidify", paths["wps_root"]],
                     ["split", paths["nonspan"]],
                     ["canonicalize", paths["wps_root"]],
                     ["classify", paths["p1_k0"], paths["p1_k1"]],
                     ["morphism", "check", paths["duple"]],
                     ["morphism", "check", paths["sumsq"]]):
            code, report = cli.run(argv)
            assert schema_errors(report, "report.schema.json") == []
            report_checked.append((argv[0], code))

        # exit-code contract, one instance per code
        code, _ = cli.run(["validate", paths["wps_root"]])
        assert code == 0
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps({**stacky_docs["wps_root"], "r": [0]}))
        code, _ = cli.run(["validate", str(bad_path)])
        assert code == 1
        code, _ = cli.run(["classify", paths["p1_k1"], paths["p1_k0"]])
        assert code == 2
        code, report = cli.run(["morphism", "check", paths["sumsq"]])
        assert code == 0 and report["condition_b"]["status"] == "proven"
        monkeypatch.setattr(morphisms, "CHART_WORK_LIMIT", 0)  # charts undecided
        code, _ = cli.run(["morphism", "check", paths["sumsq"]])
        assert code == 3
