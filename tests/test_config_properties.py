"""Property test: no mutation of a scenario document escapes the taxonomy.

Starting from the documents in tests/data, drop keys, swap value types,
put in non-finite, huge and out-of-range numbers and add unknown keys.
Parsing and running the result either succeeds or raises ConfigError,
ValidationError or NumericError; anything else is a crash that reaches
the user as a traceback.
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from socsir.config import loads_config  # noqa: E402
from socsir.errors import ConfigError, NumericError, ValidationError  # noqa: E402
from socsir.scenarios import run_scenario  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"
# The scenario documents; golden.json beside them is the digest table.
DOCS = [
    json.loads(path.read_text())
    for path in sorted(DATA.glob("*.json"))
    if path.name != "golden.json"
]

# Runs are cut to this many steps so an example stays cheap; the documents
# in tests/data take at most 2000.
CAP_STEPS = 2000

NUMBERS = st.one_of(
    st.sampled_from([0, -1, 1, 0.5, 1e-300, -0.0, 1e300, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**20), max_value=10**20),
)
LEAVES = st.one_of(NUMBERS, st.none(), st.booleans(), st.text(max_size=8))
CONTAINERS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=6,
)
# Factors that push a valid number out of its range, or just inside it.
FACTORS = st.sampled_from(
    [-1.0, 0.0, 1e-12, 0.5, 0.999999, 1.000001, 2.0, 1e6, math.inf, math.nan]
)


# Weighted towards edits that keep a document close to valid, so that many
# examples get past parsing and run.
OPS = ["scale"] * 3 + ["number"] * 3 + ["leaf", "container", "drop", "unknown_key"]


def _slots(node, path=()):
    """Every (container path, key) in a document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)) and value:
            yield from _slots(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_docs(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCS))))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        slots = list(_slots(doc))
        if not slots:
            break
        path, key = draw(st.sampled_from(slots))
        parent = _at(doc, path)
        op = draw(st.sampled_from(OPS))
        if op == "drop":
            del parent[key]
        elif op == "number":
            parent[key] = draw(NUMBERS)
        elif op == "leaf":
            parent[key] = draw(LEAVES)
        elif op == "container":
            parent[key] = draw(CONTAINERS)
        elif op == "scale":
            value = parent[key]
            if type(value) in (int, float) and abs(value) < 1e300:
                parent[key] = value * draw(FACTORS)
        else:
            target = parent if isinstance(parent, dict) else doc
            target[draw(st.text(min_size=1, max_size=8))] = draw(LEAVES)
    return doc


# Derandomized, so the suite gives the same verdict on every run.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_docs())
def test_mutated_documents_fail_only_with_documented_errors(doc):
    try:
        cfg = loads_config(json.dumps(doc))
        limit = cfg.t0 + CAP_STEPS * cfg.dt
        if limit < cfg.t1:
            cfg = cfg._replace(t1=limit)
        run_scenario(cfg)
    except (ConfigError, ValidationError, NumericError):
        pass
