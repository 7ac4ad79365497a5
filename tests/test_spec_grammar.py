"""The spec grammar of the family table, and the JSON Schema that documents it.

``validate_spec`` checks every spec against the argument shapes of
``construct._FAMILIES`` and ``groups._KINDS``; ``build`` always runs it.
``ringspec.schema.json`` documents the same grammar: it is read here,
through ``jsonschema``, and never by the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from ringlab import SpecError, SuiteContext, build, run_suite, validate_spec
from test_cli import _MALFORMED_SPECS
from test_construct import _FAMILY_SPECS, _MORE_KIND_SPECS, _SCHEMA

Z2 = {"zn": 2}

#: Specs whose integer fields are integral floats, and the path of each.
#: The schema's "integer" admits 4.0; the family table takes JSON
#: integers only, so these are the one place where the two disagree.
_INTEGRAL_FLOATS = {
    "zn": ({"zn": 4.0}, "$.zn"),
    "matrix-n": ({"matrix": {"n": 2.0, "base": Z2}}, "$.matrix.n"),
    "gf-p": ({"gf": {"p": 2.0, "k": 2}}, "$.gf.p"),
    "cyclic": ({"group_ring": {"base": Z2, "group": {"cyclic": 2.0}}}, "$.group_ring.group.cyclic"),
}

#: Specs that would build, or fail with a raw exception, if unchecked,
#: and the path each is refused at.
_PROBES = {
    "zn-true": ({"zn": True}, "$.zn"),
    "generator-true": ({"quotient": {"base": Z2, "generators": [True]}},
                       "$.quotient.generators[0]"),
    "cyclic-true": ({"group_ring": {"base": Z2, "group": {"cyclic": True}}},
                    "$.group_ring.group.cyclic"),
    "klein_four-null": ({"group_ring": {"base": Z2, "group": {"klein_four": None}}},
                        "$.group_ring.group"),
    "gf-extra-key": ({"gf": {"p": 2, "k": 1, "q": 3}}, "$.gf"),
    "matrix-without-base": ({"matrix": {"n": 2}}, "$.matrix"),
    "generator-a": ({"quotient": {"base": Z2, "generators": ["a"]}},
                    "$.quotient.generators[0]"),
    "table-of-ints": ({"table": {"add": 3, "mul": 3}}, "$.table.add"),
    "table-cell-true": ({"table": {"add": [[0, 1], [True, 0]], "mul": [[0, 0], [0, 1]]}},
                        "$.table.add[1][0]"),
    "table-row-int": ({"table": {"add": [[0, 1], 1], "mul": [[0, 0], [0, 1]]}},
                      "$.table.add[1]"),
    "product-empty": ({"product": []}, "$.product"),
    "two-kinds": ({"zn": 2, "gf": {"p": 2, "k": 1}}, "$"),
}

#: Values put in place of any one value of a well-formed spec.
_BAD_VALUES = [True, -1, 0, 2.5, "x", None, [], {}]

_VALIDATOR = jsonschema.Draft202012Validator(json.loads(_SCHEMA.read_text()))


def _accepts(spec) -> bool:
    try:
        validate_spec(spec)
    except SpecError:
        return False
    return True


def _mutants(node):
    """``node`` with one change: a value replaced by one of ``_BAD_VALUES``,
    a key dropped or a key added, in any object or the first item of any list."""
    yield from _BAD_VALUES
    if isinstance(node, dict):
        yield {**node, "extra": 1}
        for key, value in node.items():
            yield {k: v for k, v in node.items() if k != key}
            for mutant in _mutants(value):
                yield {**node, key: mutant}
    elif isinstance(node, list) and node:
        for mutant in _mutants(node[0]):
            yield [mutant, *node[1:]]


@pytest.mark.parametrize("case", sorted(_INTEGRAL_FLOATS))
def test_integer_fields_refuse_integral_floats(case):
    spec, path = _INTEGRAL_FLOATS[case]
    with pytest.raises(SpecError, match="is not of type 'integer'") as info:
        build(spec)
    assert info.value.path == path


@pytest.mark.parametrize("case", sorted(_PROBES))
def test_malformed_node_is_a_spec_error_at_its_path(case):
    spec, path = _PROBES[case]
    with pytest.raises(SpecError) as info:
        build(spec)
    assert info.value.path == path


def _nested(levels: int) -> dict:
    """``levels`` spec nodes, one inside the next: opposites over Z2."""
    spec = {"zn": 2}
    for _ in range(levels - 1):
        spec = {"opposite": spec}
    return spec


def test_spec_nodes_nest_at_most_100_levels():
    assert build(_nested(100)).order == 2
    with pytest.raises(SpecError, match="^spec nodes nest more than 100 levels deep ") as info:
        build(_nested(101))
    assert info.value.path == "$" + ".opposite" * 100
    # The schema has no depth bound: the documented second divergence.
    assert _VALIDATOR.is_valid(_nested(101))


def test_schema_and_family_table_give_the_same_verdicts(suite_ctx, monkeypatch):
    derived = []
    through = SuiteContext.derived

    def record(ctx, spec):
        derived.append(spec)
        return through(ctx, spec)

    monkeypatch.setattr(SuiteContext, "derived", record)
    run_suite(SuiteContext(suite_ctx.entries))
    assert len(derived) > 100
    kinds = {**_FAMILY_SPECS, **_MORE_KIND_SPECS}
    assert len(kinds) == 16
    mutants = [m for spec in kinds.values() for m in _mutants(spec)]
    corpus = ([e.spec for e in suite_ctx.entries] + derived + list(_MALFORMED_SPECS.values())
              + [spec for spec, _ in _PROBES.values()] + list(kinds.values()) + mutants)
    verdicts = {True: 0, False: 0}
    for spec in corpus:
        verdict = _accepts(spec)
        assert verdict == _VALIDATOR.is_valid(spec), spec
        verdicts[verdict] += 1
    assert min(verdicts.values()) > 100, verdicts
    # The one divergence: integral floats.
    for spec, _ in _INTEGRAL_FLOATS.values():
        assert _VALIDATOR.is_valid(spec) and not _accepts(spec)


def test_ringlab_runs_without_jsonschema():
    code = "\n".join([
        "import contextlib, io, sys",
        "import ringlab",
        "from ringlab.cli import main",
        "ringlab.classify(ringlab.build({'triangular': {'n': 2, 'base': {'zn': 4}}}))",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['verify', '--theorem', 'prop2.1']) == 0",
        "assert 'jsonschema' not in sys.modules",
    ])
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
