"""Command line interface: verbs, flags, JSON output, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import graded_leibniz
from graded_leibniz import (
    QQ,
    Algebra,
    Field,
    check_leibniz,
    make_family,
    nilpotency_profile,
    right_annihilator,
)
from graded_leibniz.cli import main
from graded_leibniz.gradings import universal_grading_with_generators
from graded_leibniz.linalg import unit_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, timeout=None, stdout=subprocess.PIPE):
    """Run `python -m graded_leibniz.cli` in a child that imports this same package,
    installed or not."""
    root = os.path.dirname(os.path.dirname(graded_leibniz.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "graded_leibniz.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1), err
    return code, json.loads(out)


def test_check_null_filiform(capsys):
    code, doc = run_json(capsys, "check", "--family", "nf", "--dim", "5")
    assert code == 0
    assert doc == {"leibniz": True, "null_filiform": True, "nilpotency_index": 6}


def test_check_other_families(capsys):
    _, doc = run_json(capsys, "check", "--family", "f1", "--dim", "5")
    assert doc == {"leibniz": True, "null_filiform": False, "nilpotency_index": 5}
    _, doc = run_json(capsys, "check", "--family", "lie-q", "--dim", "6", "--field", "F5")
    assert doc["leibniz"] is True


def test_check_failure_exits_one(capsys, tmp_path):
    bad = {
        "dim": 3,
        "field": {"kind": "Q"},
        "sc": [
            {"i": 1, "j": 1, "terms": [{"k": 2, "c": "1/1"}]},
            {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1/1"}]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, doc = run_json(capsys, "check", "--input", str(path))
    assert code == 1
    assert doc["leibniz"] is False


def test_props_fields(capsys):
    _, doc = run_json(capsys, "props", "--family", "f2", "--dim", "5")
    assert doc["lcs_dims"] == [5, 3, 2, 1, 0]
    assert doc["antisymmetric"] is False
    assert doc["nilpotent"] is True
    assert doc["filiform"] is True
    assert len(doc["center"]) == 2  # e_4 and e_5 both central in f2
    assert doc["algebra"] == {"family": "f2", "dim": 5}


#: the last two keys of `props --dim 6` as printed, byte for byte: subspace
#: rows print as "p/q" strings over Q and as ints over F_p
PROPS_SUBSPACE_ROWS = {
    ("nf", "Q"): (
        '"center": [["0/1", "0/1", "0/1", "0/1", "0/1", "1/1"]], '
        '"right_annihilator": [["0/1", "1/1", "0/1", "0/1", "0/1", "0/1"], '
        '["0/1", "0/1", "1/1", "0/1", "0/1", "0/1"], '
        '["0/1", "0/1", "0/1", "1/1", "0/1", "0/1"], '
        '["0/1", "0/1", "0/1", "0/1", "1/1", "0/1"], '
        '["0/1", "0/1", "0/1", "0/1", "0/1", "1/1"]]'
    ),
    ("nf", "F5"): (
        '"center": [[0, 0, 0, 0, 0, 1]], "right_annihilator": [[0, 1, 0, 0, 0, 0], '
        '[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], '
        '[0, 0, 0, 0, 0, 1]]'
    ),
    ("f1", "Q"): (
        '"center": [["0/1", "0/1", "0/1", "0/1", "0/1", "1/1"]], '
        '"right_annihilator": [["0/1", "1/1", "0/1", "0/1", "0/1", "0/1"], '
        '["0/1", "0/1", "1/1", "0/1", "0/1", "0/1"], '
        '["0/1", "0/1", "0/1", "1/1", "0/1", "0/1"], '
        '["0/1", "0/1", "0/1", "0/1", "1/1", "0/1"], '
        '["0/1", "0/1", "0/1", "0/1", "0/1", "1/1"]]'
    ),
    ("f1", "F5"): (
        '"center": [[0, 0, 0, 0, 0, 1]], "right_annihilator": [[0, 1, 0, 0, 0, 0], '
        '[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], '
        '[0, 0, 0, 0, 0, 1]]'
    ),
    ("f2", "Q"): (
        '"center": [["0/1", "0/1", "0/1", "0/1", "1/1", "0/1"], '
        '["0/1", "0/1", "0/1", "0/1", "0/1", "1/1"]], '
        '"right_annihilator": [["0/1", "1/1", "0/1", "0/1", "0/1", "0/1"], '
        '["0/1", "0/1", "1/1", "0/1", "0/1", "0/1"], '
        '["0/1", "0/1", "0/1", "1/1", "0/1", "0/1"], '
        '["0/1", "0/1", "0/1", "0/1", "1/1", "0/1"], '
        '["0/1", "0/1", "0/1", "0/1", "0/1", "1/1"]]'
    ),
    ("f2", "F5"): (
        '"center": [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], '
        '"right_annihilator": [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], '
        '[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]'
    ),
    ("lie-q", "Q"): (
        '"center": [["0/1", "0/1", "0/1", "0/1", "0/1", "1/1"]], '
        '"right_annihilator": [["0/1", "0/1", "0/1", "0/1", "0/1", "1/1"]]'
    ),
    ("lie-q", "F5"): (
        '"center": [[0, 0, 0, 0, 0, 1]], "right_annihilator": [[0, 0, 0, 0, 0, 1]]'
    ),
}


@pytest.mark.parametrize("family,field", sorted(PROPS_SUBSPACE_ROWS))
def test_props_subspace_rows_are_pinned(capsys, family, field):
    code, out, _ = run_cli(capsys, "props", "--family", family, "--dim", "6", "--field", field)
    assert code == 0
    assert out.endswith(", " + PROPS_SUBSPACE_ROWS[family, field] + "}\n")


#: sha256 of the outputs at n = 12, 16, 20 and 24 over Q and F5, in that
#: order, concatenated: the CLI's stdout per verb and family, and for
#: `universal_grading` the JSON of [grading, generator expressions] per
#: family (the expressions come from snf.int_matrix_inverse).  Recorded at
#: the commit before fraction-free elimination over Q; any change to the
#: exact linear algebra must leave them as they are.
GOLDEN_DIMS = (12, 16, 20, 24)
GOLDEN_FIELDS = ("Q", "F5")
GOLDEN_DIGESTS = {
    ("check", "nf"): "cda4fc2e203a4f7d8b7ce46bee5921432b850fb24d82cb0e9f8ea5de5eb385a6",
    ("check", "f1"): "5c8cd2c091835759fd393ced682f7721ac2eabb30867852b350ad8b78393b526",
    ("check", "f2"): "5c8cd2c091835759fd393ced682f7721ac2eabb30867852b350ad8b78393b526",
    ("check", "lie-l"): "5c8cd2c091835759fd393ced682f7721ac2eabb30867852b350ad8b78393b526",
    ("check", "lie-q"): "5c8cd2c091835759fd393ced682f7721ac2eabb30867852b350ad8b78393b526",
    ("props", "nf"): "95ff68666e180398f8f6e9806702a00770d0603a0176369d7acc0994a661cbc5",
    ("props", "f1"): "ec6f3bbafae03f7cc27ba2a622ed8e6dba6346d52860840ebbd92ba85a510576",
    ("props", "f2"): "5804e58a454ca3bd6827a58c8dfa645245d1506020da7491b69afb7e4c45077e",
    ("props", "lie-l"): "e0d5b584b29fb6d63fdfb6aae53133c36bc463a4b8c1f463e90c4acbc67bdb23",
    ("props", "lie-q"): "e929a1aa93eea912bd524d55676ee87621166f737d2bb97df85e9951b227765e",
    ("export", "nf"): "4045acd7d2c2de96517ff12625973618a2b2162d8405296dd90a4c4b752e405c",
    ("export", "f1"): "13a2b0384ffdd1e736005d38302602d67436b01ba19ab1762471623e2f2d903d",
    ("export", "f2"): "454865bf1549fba31f1fcdf897cf2177eae06f7ea1f668264d7f10fcfe3e4dea",
    ("export", "lie-l"): "fb043866ccd369074c7fd4f0358879741ae2a7f73d00375b4038ce979d9055a1",
    ("export", "lie-q"): "b4b8ba9055d18f50525cce613bec9433c9a1e365a6db8b0a337e601ee0370359",
    ("universal_grading", "nf"): "4c52c7f7520db6d352e67e6eb490119fddb7cc9fa7bcbb37bbd875b91cadf1a2",
    ("universal_grading", "f1"): "ea7ae5700824e7883207ce127674187c120118f6f40f24e4f058909dd132e684",
    ("universal_grading", "f2"): "25daa86a31753214fb866b86b5fe40154c299b04486cefe2a89c88f0726ea524",
}


#: sha256 of `gradings` stdout at the enumeration benchmark's sizes, past
#: the reach of the reference-loop tests in tests/test_gradings.py.
#: Recorded before the sweep keyed partitions on integer columns.
GRADINGS_DIGESTS = {
    "--family nf --dim 10": "4ca1373323756ca141bd258a5cd9682badbf6dfd1c7e2d37b7127b37f355e8b7",
    "--family f1 --dim 7": "39559d39f62d1a4bca0454e397b51e8e301b3c6324af6cb003a11bb017c64823",
    "--family f2 --dim 7": "e511311ef6ec23726e5d4df3bdf2a8282e65254d94b1bc77d97c207c9cd762ec",
    "--family f1 --dim 6 --group ZxZ2xZ4": "e48d5e5bdb6f3e20344c7096a6932ba4fc1cd68a9c6dbbbbcacb29e087416230",
    # three target coordinates, so the sweep's keys zip three label columns
    "--family f2 --dim 5 --group ZxZxZ2": "06e6482d1f8b2c57e3e0aa2a33a51d56dbf136f83982fb5ad9e5386ce8176603",
}


@pytest.mark.parametrize("args", sorted(GRADINGS_DIGESTS))
def test_gradings_outputs_are_byte_identical(capsys, args):
    code, out, err = run_cli(capsys, "gradings", *args.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GRADINGS_DIGESTS[args], f"gradings {args} output changed"


@pytest.mark.parametrize("verb,family", sorted(GOLDEN_DIGESTS))
def test_large_outputs_are_byte_identical(capsys, verb, family):
    digest = hashlib.sha256()
    for n in GOLDEN_DIMS:
        for field in GOLDEN_FIELDS:
            if verb == "universal_grading":
                k = QQ if field == "Q" else Field(int(field[1:]))
                _, grading, gens = universal_grading_with_generators(make_family(family, n, k))
                text = json.dumps([grading.to_json(), [list(g) for g in gens]])
            else:
                code, text, err = run_cli(capsys, verb, "--family", family, "--dim", str(n),
                                          "--field", field)
                assert code == 0, err
            digest.update(text.encode())
    assert digest.hexdigest() == GOLDEN_DIGESTS[verb, family], f"{verb} --family {family} output changed"


#: An algebra with non-integral constants, which no GOLDEN_DIGESTS input
#: has: nf 6 in the basis f_1 = e_1, f_2 = 3e_2 - 2e_1 and f_i = i e_i for
#: i >= 3.  Its constants include -3/2 and 5/6, and its right annihilator's
#: first reduced row is (1, 1/2, 0, 0, 0, 0), which the integer
#: elimination in linalg.rref and Subspace hold as (2, 1, 0, 0, 0, 0), a pivot entry
#: that is not 1.
NON_INTEGRAL_INPUT = os.path.join(os.path.dirname(__file__), "data", "nf6_rescaled_basis.json")

#: sha256 of check, props and export stdout on NON_INTEGRAL_INPUT: how a
#: Fraction constant and a row with a non-unit pivot are printed.  Recorded
#: before integral constants were stored as ints over Q.
NON_INTEGRAL_DIGESTS = {
    "check": "8c34303115dd7841620ea8ee29549036814ebea950ebf6c881d3e1209aefb24c",
    "props": "e233f76b64a61d0564562c87e48c466ec9fdd28e443c47988127d1748f1eb442",
    "export": "679eed67553906d12dbfb48a24113826778a428e357f47e9f88495ece7808c63",
}


def test_non_integral_input_is_what_its_digests_claim():
    with open(NON_INTEGRAL_INPUT, encoding="utf-8") as handle:
        alg = Algebra.from_json(json.load(handle))
    constants = {c for terms in alg.sc.values() for _, c in terms}
    assert {Fraction(-3, 2), Fraction(5, 6)} <= constants
    annihilator = right_annihilator(alg)
    assert annihilator.rows[0] == [2, 1, 0, 0, 0, 0]
    assert unit_rows(annihilator.rows, annihilator.pivots)[0] == [1, Fraction(1, 2), 0, 0, 0, 0]
    # nf 6 itself, in another basis
    assert nilpotency_profile(alg).null_filiform and check_leibniz(alg).ok


@pytest.mark.parametrize("verb", sorted(NON_INTEGRAL_DIGESTS))
def test_non_integral_outputs_are_byte_identical(capsys, verb):
    code, out, err = run_cli(capsys, verb, "--input", NON_INTEGRAL_INPUT)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == NON_INTEGRAL_DIGESTS[verb], f"{verb} output changed"


def test_props_antisymmetric_over_f2(capsys):
    """Over F2, -c = c, so only the diagonal test tells nf ([e1, e1] = e2) from a Lie algebra."""
    _, doc = run_json(capsys, "props", "--family", "nf", "--dim", "2", "--field", "F2")
    assert doc["antisymmetric"] is False
    _, doc = run_json(capsys, "props", "--family", "lie-l", "--dim", "4", "--field", "F2")
    assert doc["antisymmetric"] is True


def test_aut_count_brute_force(capsys):
    code, doc = run_json(
        capsys, "aut-count", "--family", "nf", "--dim", "3", "--field", "F5", "--brute-force"
    )
    assert code == 0
    assert doc["check"] == "aut-bruteforce"
    assert doc["count"] == 100
    assert doc["matches_family"] is True
    assert doc["algebra"] == {"family": "nf", "dim": 3}
    assert doc["field"] == {"kind": "Fp", "p": 5}
    assert isinstance(doc["elapsed_ms"], int)
    # one automorphism per coset of the torus diag(t, t^2, t^3), the one
    # whose first column leads with 1
    assert doc["torus_size"] == 4
    # walk calls: one for the empty prefix and three for each of the 25
    # first columns leading with 1, which force the other two
    assert doc["nodes"] == 1 + 3 * 25
    # columns 2 and 3 are forced under each first column, and none is cut
    assert (doc["forced"], doc["pruned"]) == (2 * 25, 0)
    assert list(doc)[-4:] == ["torus_size", "nodes", "forced", "pruned"]


def test_aut_count_formula(capsys):
    code, doc = run_json(capsys, "aut-count", "--family", "f1", "--dim", "5", "--field", "Fp:3")
    assert code == 0
    assert doc["check"] == "aut-family-count"
    assert doc["count"] == 4 * 3**4
    assert doc["matches_family"] is None


def test_aut_count_formula_needs_known_family(capsys):
    code, out, err = run_cli(capsys, "aut-count", "--family", "f2", "--dim", "4", "--field", "F3")
    assert code == 2 and "formula" in err


def test_gradings_with_group_flag(capsys):
    code, docs = run_json(capsys, "gradings", "--family", "f1", "--dim", "4", "--group", "Z2")
    assert code == 0
    split = {"group": {"rank": 0, "torsion": [2]}, "degrees": [[0], [1], [1], [1]]}
    assert split in docs


def test_gradings_default_menu(capsys):
    code, docs = run_json(capsys, "gradings", "--family", "nf", "--dim", "5")
    assert code == 0 and len(docs) == 5


def test_gradings_deterministic(capsys):
    _, first = run_json(capsys, "gradings", "--family", "f2", "--dim", "5")
    _, second = run_json(capsys, "gradings", "--family", "f2", "--dim", "5")
    assert first == second


def test_normalizer_verb(capsys):
    code, doc = run_json(capsys, "normalizer", "--family", "f1", "--dim", "3", "--field", "F5")
    assert code == 0
    assert doc["check"] == "normalizer"
    assert doc["count"] == 16 and doc["torus_size"] == 16
    assert doc["matches_family"] is True
    assert doc["nodes"] > 0
    assert "note" in doc


@pytest.mark.parametrize("verb", [("normalizer",), ("aut-count",)])
def test_f1_family_below_dimension_three_exits_two(capsys, verb):
    # f1 of dimension 2 is abelian, with 48 automorphisms over F3; the
    # normalizer check used to pass there and the count formula gave 12
    code, out, err = run_cli(capsys, *verb, "--family", "f1", "--dim", "2", "--field", "F3")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_f1_brute_force_below_dimension_three_has_no_family(capsys):
    # the f1 formulas need dimension >= 3: there is no family to match,
    # not a mismatch with the 12 matrices they would give
    code, doc = run_json(
        capsys, "aut-count", "--family", "f1", "--dim", "2", "--field", "F3", "--brute-force"
    )
    assert code == 0 and doc["count"] == 48 and doc["matches_family"] is None


def test_export_import_round_trip(capsys, tmp_path):
    _, doc = run_json(capsys, "export", "--family", "lie-l", "--dim", "4")
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, back = run_json(capsys, "check", "--input", str(path))
    assert code == 0 and back["leibniz"] is True


def test_verify_paper_small(capsys):
    code, doc = run_json(capsys, "verify-paper", "--max-dim", "3", "--threads", "2")
    assert code == 0
    assert doc["failed"] == 0
    assert doc["total"] == doc["passed"] == len(doc["claims"])
    first = doc["claims"][0]
    assert {"criterion", "claim", "family", "dim", "field", "pass", "detail", "elapsed_ms"} <= set(first)
    # CPU time is reported for the whole run only: per-claim fields enter
    # the benchmark's traced/untraced comparison
    assert isinstance(doc["cpu_ms"], int) and doc["cpu_ms"] >= 0
    assert not any("cpu_ms" in c for c in doc["claims"])


def test_verify_paper_elapsed_is_wall_time(capsys):
    start = time.monotonic()
    code, doc = run_json(capsys, "verify-paper", "--max-dim", "3", "--threads", "2")
    wall_ms = (time.monotonic() - start) * 1000
    assert code == 0
    assert doc["elapsed_ms"] <= wall_ms


def test_json_indent_flag(capsys):
    code, out, _ = run_cli(capsys, "--json-indent", "2", "check", "--family", "nf", "--dim", "3")
    assert code == 0 and out.startswith("{\n  ")
    json.loads(out)


def test_json_indent_refuses_negative_values(capsys):
    # json.dumps takes indent -1 as 0: newlines and no indentation, exit 0
    code, out, err = run_cli(capsys, "--json-indent", "-1", "check", "--family", "nf", "--dim", "3")
    assert code == 2 and out == "" and "--json-indent must be at least 0, got -1" in err
    code, out, _ = run_cli(capsys, "--json-indent", "0", "check", "--family", "nf", "--dim", "3")
    assert code == 0 and out.startswith("{\n\"leibniz\"")


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "check", "--dim", "3")[0] == 2
    assert run_cli(capsys, "check", "--family", "nf")[0] == 2
    assert run_cli(capsys, "check", "--family", "nf", "--dim", "1")[0] == 2
    assert run_cli(capsys, "check", "--family", "lie-q", "--dim", "5")[0] == 2
    assert run_cli(capsys, "check", "--family", "nf", "--dim", "3", "--field", "F4")[0] == 2
    assert run_cli(capsys, "check", "--family", "nf", "--dim", "3", "--field", "huh")[0] == 2
    assert run_cli(capsys, "gradings", "--family", "lie-l", "--dim", "4")[0] == 2
    assert run_cli(capsys, "gradings", "--family", "nf", "--dim", "4", "--group", "what")[0] == 2
    assert run_cli(capsys, "normalizer", "--family", "nf", "--dim", "4")[0] == 2
    assert run_cli(capsys, "check", "--input", "/nonexistent/path.json")[0] == 2


def one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv,message",
    [
        # --dim 0 used to read as a missing dimension
        (("check", "--family", "nf", "--dim", "0"), "dimension >= 2"),
        (("props", "--family", "f1", "--dim", "0", "--field", "F3"), "dimension >= 2"),
        # a prime that is not an integer used to print int()'s own message
        (("check", "--family", "nf", "--dim", "3", "--field", "Fp:x"), "cannot parse field 'Fp:x'"),
        (("check", "--family", "nf", "--dim", "3", "--field", "F"), "cannot parse field 'F'"),
    ],
    ids=["check-dim-0", "props-dim-0", "field-Fp:x", "field-F"],
)
def test_zero_dim_and_unparsable_field_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert one_error_line(err) and message in err


@pytest.mark.parametrize("p", ["318665857834031151167461", "3317044064679887385961981"],
                         ids=["psi12", "psi13"])
def test_strong_pseudoprime_modulus_exits_two(capsys, p):
    # psi_12 passes Miller-Rabin to the bases 2..37 and used to load as a field
    code, out, err = run_cli(capsys, "check", "--family", "nf", "--dim", "3", "--field", "F" + p)
    assert code == 2 and out == ""
    assert one_error_line(err) and p in err


def test_input_with_zero_dim_exits_two(capsys, tmp_path):
    # --dim 0 next to --input used to be ignored without a word
    path = tmp_path / "nf3.json"
    path.write_text(json.dumps(graded_leibniz.make_family("nf", 3).to_json()))
    code, out, err = run_cli(capsys, "check", "--input", str(path), "--dim", "0")
    assert code == 2 and out == ""
    assert one_error_line(err) and "replaces" in err
    assert run_cli(capsys, "check", "--input", str(path))[0] == 0


def test_input_with_target_index_zero_exits_two(capsys, tmp_path):
    # indices run from 1; a term on e_0 must be refused, not read as a
    # bracket that the Leibniz check then passes
    path = tmp_path / "target0.json"
    path.write_text(json.dumps({"dim": 2, "field": {"kind": "Q"},
                                "sc": [{"i": 1, "j": 1, "terms": [{"k": 0, "c": "1"}]}]}))
    code, out, err = run_cli(capsys, "check", "--input", str(path))
    assert code == 2 and out == ""
    assert one_error_line(err)


def test_input_excludes_family(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text("{}")
    code, _, err = run_cli(capsys, "check", "--input", str(path), "--family", "nf", "--dim", "3")
    assert code == 2 and "replaces" in err


def test_malformed_input_document_exits_two(capsys, tmp_path):
    # wrong sc shape (dict instead of entry list) must not escape as a traceback
    path = tmp_path / "mangled.json"
    path.write_text(json.dumps({"dim": 2, "field": {"kind": "Q"}, "sc": {"1,1": {"1": "1"}}}))
    code, _, err = run_cli(capsys, "check", "--input", str(path))
    assert code == 2 and "malformed" in err
    path.write_text(json.dumps({"dim": 2, "sc": []}))
    code, _, err = run_cli(capsys, "check", "--input", str(path))
    assert code == 2 and "malformed" in err
    # nested deeper than the decoder recurses
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run_cli(capsys, "check", "--input", str(path))
    assert code == 2 and "malformed" in err


@pytest.mark.parametrize("verb", ["check", "export"])
def test_repeated_term_target_exits_two(capsys, tmp_path, verb):
    # summed, k = 2 with c = 1 and c = -1 would read as no constant, and
    # check would print "leibniz": true
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"dim": 2, "field": {"kind": "Q"}, "sc": [
        {"i": 1, "j": 1, "terms": [{"k": 2, "c": 1}, {"k": 2, "c": -1}]}]}))
    code, out, err = run_cli(capsys, verb, "--input", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "malformed" in lines[0] and "repeats a target" in lines[0]


def test_budget_flag_converts_to_search_budget(capsys):
    code, _, err = run_cli(
        capsys, "aut-count", "--family", "nf", "--dim", "4", "--field", "F5",
        "--brute-force", "--budget-ms", "1",
    )
    assert code == 2 and "budget" in err


def test_brute_force_family_comparison_over_budget_exits_two(capsys):
    # the walk fits the default budget, but the family it is compared with
    # has 100^2 * 101^2 matrices, too many to build
    code, out, err = run_cli(
        capsys, "aut-count", "--family", "f1", "--dim", "3", "--field", "F101", "--brute-force"
    )
    assert code == 2 and out == "" and "budget" in err


@pytest.mark.parametrize("family, dim, field, count, nodes", [
    ("f1", "4", "F5", 2000, 381),
    ("f1", "5", "F3", 324, 328),
])
def test_brute_force_default_budget_counts_walk_nodes(capsys, family, dim, field, count, nodes):
    # the default budget counts the walk's nodes, a few hundred here with
    # one automorphism per torus coset, not the 5^16 and 3^25 matrices the
    # walk ranges over
    code, doc = run_json(
        capsys, "aut-count", "--family", family, "--dim", dim, "--field", field, "--brute-force"
    )
    assert code == 0
    assert (doc["count"], doc["nodes"], doc["matches_family"]) == (count, nodes, True)


@pytest.mark.parametrize("budget_ms, exit_code", [("1", 2), ("3", 0)])
def test_normalizer_budget_ms_converts_at_the_walk_rate(capsys, budget_ms, exit_code):
    # f1 5 over F5 walks 41 calls: past 1 ms at 20 calls per ms, within 3 ms
    code, out, err = run_cli(
        capsys, "normalizer", "--family", "f1", "--dim", "5", "--field", "F5",
        "--budget-ms", budget_ms,
    )
    assert code == exit_code
    if exit_code:
        assert out == "" and "budget" in err
    else:
        assert json.loads(out)["nodes"] == 41


@pytest.mark.parametrize("verb", [("aut-count", "--brute-force"), ("normalizer",)])
@pytest.mark.parametrize("value", ["0", "-4"])
def test_nonpositive_budget_ms_exits_two(capsys, verb, value):
    # a budget below 1 ms used to be clamped to 1 ms without a word
    code, out, err = run_cli(
        capsys, *verb, "--family", "nf", "--dim", "3", "--field", "F3", "--budget-ms", value
    )
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--budget-ms" in lines[0]


def test_budget_ms_needs_brute_force(capsys):
    # the family formula searches nothing, so there is no work for a budget to bound
    code, out, err = run_cli(
        capsys, "aut-count", "--family", "nf", "--dim", "3", "--field", "F3", "--budget-ms", "5"
    )
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--brute-force" in lines[0]


def test_argparse_usage_exit_code():
    proc = run_module("no-such-verb")
    assert proc.returncode == 2


def test_module_invocation_matches_spec_example():
    proc = run_module("check", "--family", "nf", "--dim", "5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "leibniz": True,
        "null_filiform": True,
        "nilpotency_index": 6,
    }
    assert proc.stdout.strip() == (
        '{"leibniz": true, "null_filiform": true, "nilpotency_index": 6}'
    )


def test_closed_stdout_exits_two_with_one_error_line():
    # `props ... | head -c 10` printed a BrokenPipeError traceback; a pipe
    # whose read end is closed before the child starts fails every write
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_module("props", "--family", "nf", "--dim", "24", stdout=write, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and one_error_line(proc.stderr), proc.stderr


def test_family_label_needs_the_family_structure(capsys, tmp_path):
    # an nf export cut down to one structure constant is no longer nf, so
    # neither the normalizer nor the nf grading hypothesis may apply to it
    _, doc = run_json(capsys, "export", "--family", "nf", "--dim", "4", "--field", "F3")
    doc["sc"] = doc["sc"][:1]
    assert doc["label"] == "nf"
    path = tmp_path / "fake_nf.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "normalizer", "--input", str(path))[0] == 2
    assert run_cli(capsys, "gradings", "--input", str(path))[0] == 2


def _one_constant_doc(c, dim="2", field='{"kind": "Q"}', k="2"):
    """JSON text of a document with the single constant [e_1, e_1] = c e_k."""
    return (f'{{"dim": {dim}, "field": {field}, '
            f'"sc": [{{"i": 1, "j": 1, "terms": [{{"k": {k}, "c": {c}}}]}}]}}')


@pytest.mark.parametrize("text", [
    pytest.param(_one_constant_doc("1.5", field='{"kind": "Fp", "p": 5}'), id="float-c-F5"),
    pytest.param(_one_constant_doc('"1/0"'), id="zero-denominator"),
    pytest.param(_one_constant_doc("1e400"), id="overflowing-float"),
    pytest.param(_one_constant_doc('"1.5"'), id="decimal-string"),
    pytest.param(_one_constant_doc("1", dim="2.5"), id="float-dim"),
    pytest.param(_one_constant_doc("true"), id="bool-c"),
    pytest.param(_one_constant_doc("1", k="2.0"), id="float-target"),
    # "" and {} iterate as no constants, which read as the abelian algebra
    pytest.param('{"dim": 2, "field": {"kind": "Q"}, "sc": ""}', id="sc-empty-string"),
    pytest.param('{"dim": 2, "field": {"kind": "Q"}, "sc": {}}', id="sc-empty-dict"),
    pytest.param('{"dim": 2, "field": {"kind": "Q"}, "sc": [{"i": 1, "j": 1, "terms": ""}]}',
                 id="terms-empty-string"),
    pytest.param('{"dim": 2, "field": {"kind": "Q"}, "sc": [{"i": 1, "j": 1, "terms": {}}]}',
                 id="terms-empty-dict"),
])
def test_bad_constants_exit_two(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "check", "--input", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_exponent_string_is_refused_at_once(tmp_path):
    # Fraction("1e999999999") would build 10**999999999, which ran for minutes
    path = tmp_path / "exponent.json"
    path.write_text(_one_constant_doc('"1e999999999"'))
    proc = run_module("check", "--input", str(path), timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert one_error_line(proc.stderr) and "malformed" in proc.stderr


#: an integer literal longer than int() converts by default (4,300 digits)
HUGE = "1" * 5000


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="this interpreter converts integer literals of any length")
@pytest.mark.parametrize("verb", ["check", "props"])
@pytest.mark.parametrize("text", [
    pytest.param(_one_constant_doc(HUGE), id="huge-c"),
    pytest.param(_one_constant_doc("1", dim=HUGE), id="huge-dim"),
])
def test_huge_json_integer_exits_two(capsys, tmp_path, verb, text):
    # json.load raises a plain ValueError on these, which used to escape as a traceback
    path = tmp_path / "huge.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, verb, "--input", str(path))
    assert code == 2 and out == ""
    assert one_error_line(err) and "malformed" in err


@pytest.mark.parametrize("verb", ["check", "props", "gradings", "aut-count", "normalizer", "export"])
def test_dimension_above_the_cap_exits_two_at_once(capsys, tmp_path, verb):
    # "dim": 2**70 sent check, props and gradings into Subspace.full, which
    # built an identity of that size entry by entry and never returned
    huge = str(2 ** 70)
    path = tmp_path / "oversized.json"
    path.write_text(_one_constant_doc("1", dim=huge))
    for argv in ((verb, "--input", str(path)), (verb, "--family", "nf", "--dim", huge)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert one_error_line(err) and f"above the cap of {graded_leibniz.MAX_DIM}" in err


@pytest.mark.parametrize("text", [
    '{"dim": 2, "field": {"kind": "Q"}, "sc": [{"i": "1\\r2", "j": 1, "terms": [{"k": 2, "c": 1}]}]}',
    _one_constant_doc("1", k='"2\\n"'),
], ids=["carriage-return-in-i", "newline-in-k"])
def test_a_line_break_in_an_index_stays_on_the_error_line(capsys, tmp_path, text):
    # the index and the target were printed with str(), so a "\r" or "\n"
    # in a string index split the error message over two lines
    path = tmp_path / "line_break.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "check", "--input", str(path))
    assert code == 2 and out == "" and one_error_line(err) and "out of range" in err


@pytest.mark.parametrize("verb", [("check",), ("props",), ("aut-count", "--brute-force"), ("export",)])
@pytest.mark.parametrize("p", ["5.0", "true"])
def test_non_integer_modulus_exits_two(capsys, tmp_path, verb, p):
    # {"p": 5.0} used to load as F5.0, equal to F5 but holding float constants
    path = tmp_path / "float_p.json"
    path.write_text(_one_constant_doc("1", field=f'{{"kind": "Fp", "p": {p}}}'))
    code, out, err = run_cli(capsys, *verb, "--input", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_non_utf8_input_exits_two(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 2, "label": "caf\xe9"}')
    code, out, err = run_cli(capsys, "check", "--input", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--max-dim", "2", "--threads", "-3"), "--threads"),
        (("--max-dim", "2", "--threads", "0"), "--threads"),
        (("--max-dim", "0"), "--max-dim"),
        (("--max-dim", "1", "--threads", "1"), "--max-dim"),
    ],
)
def test_bad_verify_paper_counts_exit_two(capsys, argv, flag):
    # a pool of no workers, or a dimension cap that leaves out every
    # family claim, used to print a report of passed claims and exit 0
    code, out, err = run_cli(capsys, "verify-paper", *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and flag in lines[0]


def test_smallest_verify_paper_counts_still_run(capsys):
    code, doc = run_json(capsys, "verify-paper", "--max-dim", "2", "--threads", "1")
    assert code == 0 and doc["failed"] == 0 and doc["total"] > 2


def _in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("calls", [
    [("--json-indent", "2", "check", "--family", "nf", "--dim", "3"),
     ("check", "--family", "nf", "--dim", "3")],
    [("gradings", "--family", "nf", "--dim", "4", "--group", "Z2"),
     ("gradings", "--family", "nf", "--dim", "4")],
    [("aut-count", "--family", "nf", "--dim", "3", "--field", "F3", "--budget-ms", "5"),
     ("aut-count", "--family", "nf", "--dim", "3", "--field", "F3")],
    [("check", "--family", "nf", "--dim", "3", "--field", "F4"),
     ("check", "--family", "nf", "--dim", "3", "--field", "F5")],
    [("check", "--family", "zz", "--dim", "3"),
     ("props", "--family", "f1", "--dim", "4")],
], ids=["json-indent", "group", "budget-ms", "bad-field", "argparse-error"])
def test_parser_reuse_leaves_no_state(capsys, calls):
    # the parser is built once per process; each call in a row must print
    # the same bytes and exit code as in a fresh interpreter
    for argv in calls:
        proc = run_module(*argv)
        assert _in_process(capsys, argv) == (proc.returncode, proc.stdout, proc.stderr), argv
