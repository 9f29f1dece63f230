"""The CLI contract under mutated --input documents.

Every verb that reads an algebra document must end in one of two ways:
exit 0 or 1 with exactly one JSON document on stdout, or exit 2 with one
`error:` line on stderr.  Never a traceback and never a hang.  The
documents are the built-in families as `export` writes them (over Q at
n <= 6, over F3 at n <= 3, where the walks are small) and the committed
non-integral input, mutated a few times each: a value replaced by an
int, 2**70, a float, a bool, a string, a list or a dict, a key deleted,
a list entry duplicated.  "dim" is set only to values up to 8, above
MAX_DIM, or non-ints, and the walks run on a 50 ms budget, so that no
example runs for seconds.
"""

import contextlib
import copy
import io
import json
import os

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from graded_leibniz import FAMILIES, MAX_DIM, Field, GradedLeibnizError, QQ, make_family
from graded_leibniz.cli import main

NON_INTEGRAL_INPUT = os.path.join(os.path.dirname(__file__), "data", "nf6_rescaled_basis.json")

#: every verb that takes --input, with the options that change its path;
#: the walks get a small budget, because the default one lets a walk over
#: a document that no family formula covers run for minutes
VERBS = (("check",), ("props",), ("gradings",), ("aut-count",),
         ("aut-count", "--brute-force", "--budget-ms", "50"), ("normalizer", "--budget-ms", "50"),
         ("export",))


def _documents():
    docs = []
    for field, top in ((QQ, 6), (Field(3), 3)):
        for family in FAMILIES:
            for n in range(2, top + 1):
                try:
                    docs.append(make_family(family, n, field).to_json())
                except GradedLeibnizError:  # lie_q at odd n
                    pass
    with open(NON_INTEGRAL_INPUT, encoding="utf-8") as handle:
        docs.append(json.load(handle))
    return docs


DOCUMENTS = _documents()

#: what a mutation puts in place of a value
VALUES = st.one_of(
    st.integers(-3, 10), st.just(2 ** 70), st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.none(), st.text(max_size=6), st.sampled_from(["1/2", "-3/2", "Q", "Fp"]),
    st.lists(st.integers(-3, 10), max_size=3),
    st.dictionaries(st.sampled_from(["i", "j", "k", "c", "kind", "p"]), st.integers(-3, 10),
                    max_size=3),
)

#: what a mutation puts in place of "dim": small enough to run at once,
#: above the cap, or not an int
DIMS = st.one_of(st.integers(-2, 8), st.sampled_from([MAX_DIM + 1, 2 ** 70]),
                 st.floats(allow_nan=False, max_value=8), st.booleans(), st.none(),
                 st.text(max_size=3), st.lists(st.integers(0, 8), max_size=2))


def _slots(node):
    """Every (container, key) under node: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            parent[key] = draw(DIMS if parent is doc and key == "dim" else VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@seed(20171001)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_documents())
def test_mutated_documents_keep_the_cli_contract(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for verb in VERBS:
        code, out, err = _run((*verb, "--input", str(path)))
        if code in (0, 1):
            assert out.endswith("\n") and out.count("\n") == 1, (verb, out)
            json.loads(out)
            assert err == "", (verb, err)
        else:
            assert code == 2 and out == "", (verb, code, out)
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (verb, err)
