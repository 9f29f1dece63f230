"""Command line interface: verbs, flags, JSON output, exit codes."""

import json
import os
import subprocess
import sys
import time

import pytest

import graded_leibniz
from graded_leibniz.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """Run `python -m graded_leibniz.cli` in a child that imports this same package,
    installed or not."""
    root = os.path.dirname(os.path.dirname(graded_leibniz.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "graded_leibniz.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
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
    # walk calls: one for the empty prefix and three for each of the 4 * 25
    # first columns, which force the other two
    assert doc["nodes"] == 1 + 3 * 100


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
    assert "note" in doc


@pytest.mark.parametrize("verb", [("normalizer",), ("aut-count",)])
def test_f1_family_below_dimension_three_exits_two(capsys, verb):
    # f1 of dimension 2 is abelian, with 48 automorphisms over F3; the
    # normalizer check used to pass there and the count formula gave 12
    code, out, err = run_cli(capsys, *verb, "--family", "f1", "--dim", "2", "--field", "F3")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_f1_brute_force_below_dimension_three_reports_the_mismatch(capsys):
    code, doc = run_json(
        capsys, "aut-count", "--family", "f1", "--dim", "2", "--field", "F3", "--brute-force"
    )
    assert code == 1 and doc["count"] == 48 and doc["matches_family"] is False


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


def test_input_with_zero_dim_exits_two(capsys, tmp_path):
    # --dim 0 next to --input used to be ignored without a word
    path = tmp_path / "nf3.json"
    path.write_text(json.dumps(graded_leibniz.make_family("nf", 3).to_json()))
    code, out, err = run_cli(capsys, "check", "--input", str(path), "--dim", "0")
    assert code == 2 and out == ""
    assert one_error_line(err) and "replaces" in err
    assert run_cli(capsys, "check", "--input", str(path))[0] == 0


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


def test_budget_flag_converts_to_search_budget(capsys):
    code, _, err = run_cli(
        capsys, "aut-count", "--family", "nf", "--dim", "4", "--field", "F5",
        "--brute-force", "--budget-ms", "1",
    )
    assert code == 2 and "budget" in err


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


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("GRADED_LEIBNIZ_THREADS", "2")
    code, doc = run_json(capsys, "verify-paper", "--max-dim", "2")
    assert code == 0 and doc["failed"] == 0


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
    pytest.param(_one_constant_doc("1", dim="2.5"), id="float-dim"),
    pytest.param(_one_constant_doc("true"), id="bool-c"),
    pytest.param(_one_constant_doc("1", k="2.0"), id="float-target"),
])
def test_bad_constants_exit_two(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "check", "--input", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


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


def test_non_integer_threads_env_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("GRADED_LEIBNIZ_THREADS", "abc")
    code, out, err = run_cli(capsys, "verify-paper", "--max-dim", "2")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "GRADED_LEIBNIZ_THREADS" in lines[0]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--max-dim", "2", "--threads", "-3"), "--threads"),
        (("--max-dim", "2", "--threads", "0"), "--threads"),
        (("--max-dim", "0"), "--max-dim"),
        (("--max-dim", "1", "--threads", "1"), "--max-dim"),
    ],
)
def test_bad_verify_paper_counts_exit_two(capsys, monkeypatch, argv, flag):
    # a pool of no workers, or a dimension cap that leaves out every
    # family claim, used to print a report of passed claims and exit 0
    monkeypatch.delenv("GRADED_LEIBNIZ_THREADS", raising=False)
    code, out, err = run_cli(capsys, "verify-paper", *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and flag in lines[0]


@pytest.mark.parametrize("value", ["0", "-2"])
def test_nonpositive_threads_env_exits_two(capsys, monkeypatch, value):
    monkeypatch.setenv("GRADED_LEIBNIZ_THREADS", value)
    code, out, err = run_cli(capsys, "verify-paper", "--max-dim", "2")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "GRADED_LEIBNIZ_THREADS" in lines[0]


def test_smallest_verify_paper_counts_still_run(capsys):
    code, doc = run_json(capsys, "verify-paper", "--max-dim", "2", "--threads", "1")
    assert code == 0 and doc["failed"] == 0 and doc["total"] > 2
