import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ringlab import (
    CHECKS, RinglabError, SuiteContext, build, classify, element_profile, validate_spec, zn,
)
from ringlab import invariants
from ringlab.cli import main, make_parser

T2Z2 = {"triangular": {"n": 2, "base": {"zn": 2}}}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_t2z2(spec_file, capsys):
    path = spec_file(T2Z2)
    code, out, _ = run(capsys, "classify", "--spec", path, "--json")
    assert code == 0
    doc = json.loads(out)
    cls = doc["classification"]
    assert cls["is_CUSC"] is True
    assert cls["is_CUC"] is False
    assert cls["is_USC"] is True


def test_classify_z3_witness(spec_file, capsys):
    path = spec_file({"zn": 3})
    code, out, _ = run(capsys, "classify", "--spec", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"]["is_CUSC"] is False
    assert doc["classification"]["witnesses"]["is_CUSC"]["element"] == "2"


def test_classify_bad_spec_exits_2(spec_file, capsys):
    path = spec_file({"bogus": 1})
    code, out, err = run(capsys, "classify", "--spec", path)
    assert code == 2
    assert "error" in err


def test_classify_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--spec", str(tmp_path / "nope.json"))
    assert code == 2


def test_classify_elements_flag(spec_file, capsys):
    path = spec_file({"zn": 3})
    code, out, _ = run(capsys, "classify", "--spec", path, "--json", "--elements")
    doc = json.loads(out)
    assert len(doc["elements"]) == 3


def test_element_z3(spec_file, capsys):
    path = spec_file({"zn": 3})
    code, out, _ = run(capsys, "element", "--spec", path, "--element", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["profile"]["clean_decompositions"]) == 2


def test_element_z4(spec_file, capsys):
    path = spec_file({"zn": 4})
    code, out, _ = run(capsys, "element", "--spec", path, "--element", "3", "--json")
    doc = json.loads(out)
    decomps = doc["profile"]["clean_decompositions"]
    assert decomps == [{"idempotent": "0", "unit": "3", "commuting": True}]


def test_element_matrix_label(spec_file, capsys):
    path = spec_file(T2Z2)
    code, out, _ = run(capsys, "element", "--spec", path, "--element", "(1 1;0 0)", "--json")
    assert code == 0
    doc = json.loads(out)
    strong = doc["profile"]["strongly_clean_decompositions"]
    assert len(strong) == 1
    assert doc["profile"]["is_uniquely_strongly_clean"] is True
    assert doc["profile"]["is_uniquely_clean"] is False


def test_element_unresolvable_exits_2(spec_file, capsys):
    path = spec_file({"zn": 4})
    code, _, err = run(capsys, "element", "--spec", path, "--element", "(1 1)")
    assert code == 2
    assert "resolve" in err


@pytest.mark.parametrize("label", ["--1", "\u00b2", "-1"])
def test_element_label_that_is_no_index_exits_2(spec_file, capsys, label):
    # Only a label of decimal digits is read as an index; "-1" never resolved.
    path = spec_file({"zn": 4})
    code, out, err = run(capsys, "element", "--spec", path, f"--element={label}")
    assert (code, out) == (2, "")
    assert err == f"error: element label {label!r} does not resolve in Z4\n"


def test_build_command(spec_file, capsys):
    path = spec_file({"gf": {"p": 2, "k": 2}})
    code, out, _ = run(capsys, "build", "--spec", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 4
    assert doc["validation"] == {"ok": True, "mode": "full", "triples_checked": 64}
    # Above the 512-element limit the cubic laws are sampled.
    path = spec_file({"matrix": {"n": 2, "base": {"zn": 5}}})
    code, out, _ = run(capsys, "build", "--spec", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["validation"] == {"ok": True, "mode": "sampled", "triples_checked": 512}
    # Up to it, in full, although the build checked T2(Z8) by sampling.
    path = spec_file({"triangular": {"n": 2, "base": {"zn": 8}}})
    code, out, _ = run(capsys, "build", "--spec", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["validation"] == {"ok": True, "mode": "full", "triples_checked": 512 ** 3}


def test_catalog_command_with_manifest(capsys, tmp_path):
    manifest = [
        {"name": "Z2", "spec": {"zn": 2}},
        {"name": "Z6", "spec": {"zn": 6}},
    ]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(manifest))
    code, out, _ = run(capsys, "catalog", "--catalog", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert [r["name"] for r in doc["rings"]] == ["Z2", "Z6"]
    assert doc["rings"][1]["units"] == 2


def test_verify_single_theorem(capsys, tmp_path):
    manifest = [
        {"name": "Z2", "spec": {"zn": 2}},
        {"name": "Z4", "spec": {"zn": 4}},
        {"name": "T2(Z2)", "spec": T2Z2},
    ]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(manifest))
    code, out, _ = run(capsys, "verify", "--theorem", "thm3.4",
                       "--catalog", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert [c["id"] for c in doc["checks"]] == ["thm3.4"]


#: The zero ring and Z1 x Z2, whose rows reach the ``order 1`` branches
#: of ``example2.3``, ``prop2.2`` and ``thm3.10``, which the default
#: catalog never does.
ORDER_ONE_MANIFEST = [
    {"name": "Z1", "spec": {"zn": 1}},
    {"name": "Z1xZ2", "spec": {"product": [{"zn": 1}, {"zn": 2}]}},
]

#: sha256 of ``verify --json --catalog`` over :data:`ORDER_ONE_MANIFEST`.
ORDER_ONE_VERIFY_SHA256 = "cd36d773150e1c847e8a82c62546daed96ba6c63332175b1065c91055c2144f6"


def test_verify_json_over_order_one_rings_is_pinned(capsys, tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(ORDER_ONE_MANIFEST))
    code, out, _ = run(capsys, "verify", "--json", "--catalog", str(path))
    assert code == 0
    rows = {(c["id"], r["ring"]): r for c in json.loads(out)["checks"] for r in c["rows"]}
    for cid, detail in (("example2.3", "order 1"), ("prop2.2", "order 1"),
                        ("thm3.10", "hypotheses unmet")):
        assert rows[cid, "Z1"] == {"ring": "Z1", "verdict": "not-applicable", "detail": detail}
    assert hashlib.sha256(out.encode()).hexdigest() == ORDER_ONE_VERIFY_SHA256


def test_verify_unknown_theorem_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "nope")
    assert code == 2
    assert "unknown theorem" in err


def _utf16_spec(tmp_path):
    path = tmp_path / "ring.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"zn": 2}).encode("utf-16-le"))
    return str(path)


def _truncated_manifest(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"name": "Z2", "spec": {"zn": 2}}])[:-3])
    return str(path)


#: Unreadable or non-JSON input files, empty check selections and a
#: non-integer threshold, each as the argv it makes from a scratch
#: directory; ``_BAD_ENV`` sets the environment a case needs.
_BAD_INPUTS = {
    "spec-is-a-directory": lambda tmp: ["classify", "--spec", str(tmp)],
    "spec-is-not-utf8": lambda tmp: ["classify", "--spec", _utf16_spec(tmp)],
    "missing-manifest": lambda tmp: ["verify", "--catalog", str(tmp / "missing.json")],
    "manifest-is-a-directory": lambda tmp: ["verify", "--catalog", str(tmp)],
    "truncated-manifest": lambda tmp: ["catalog", "--catalog", _truncated_manifest(tmp)],
    "only-commas-theorem": lambda tmp: ["verify", "--theorem", ","],
    "empty-theorem": lambda tmp: ["verify", "--theorem", ""],
    "threshold-env-not-an-integer": lambda tmp: ["verify", "--theorem", "prop2.1"],
}
_BAD_ENV = {"threshold-env-not-an-integer": {"RINGLAB_THRESHOLD": "x"}}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(case, capsys, tmp_path, monkeypatch):
    for key, value in _BAD_ENV.get(case, {}).items():
        monkeypatch.setenv(key, value)
    code, out, err = run(capsys, *_BAD_INPUTS[case](tmp_path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    # None of these errors has a JSON path to name.
    assert not err.rstrip().endswith("(at $)"), err


@pytest.mark.parametrize("levels", [500, 1500])
def test_deeply_nested_spec_file_exits_2_with_one_error_line(capsys, tmp_path, levels):
    # 500 levels reach the walk's depth bound; 1500 the JSON decoder's recursion limit.
    path = tmp_path / "deep.json"
    path.write_text('{"opposite": ' * (levels - 1) + '{"zn": 2}' + "}" * (levels - 1))
    code, out, err = run(capsys, "build", "--spec", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("command", ["catalog", "verify"])
def test_manifest_spec_error_names_its_entry(command, capsys, tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([
        {"name": "a", "spec": {"zn": 2}},
        {"name": "x", "spec": {"zn": "two"}},
    ]))
    code, out, err = run(capsys, command, "--catalog", str(path))
    assert (code, out) == (2, "")
    assert err == "error: 'two' is not of type 'integer' (at $[1].spec.zn)\n"


def test_verify_jobs_determinism_small(capsys, tmp_path):
    manifest = [
        {"name": "Z2", "spec": {"zn": 2}},
        {"name": "Z3", "spec": {"zn": 3}},
        {"name": "Z4", "spec": {"zn": 4}},
        {"name": "M2(Z2)", "spec": {"matrix": {"n": 2, "base": {"zn": 2}}}},
    ]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(manifest))
    outputs = []
    for jobs in ("1", "3"):
        code, out, _ = run(capsys, "verify", "--catalog", str(path), "--json",
                           "--jobs", jobs, "--theorem", "prop2.1,thm3.4,thm3.10")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_threshold_env_override(spec_file, capsys, monkeypatch):
    path = spec_file({"triangular": {"n": 2, "base": {"zn": 4}}})
    monkeypatch.setenv("RINGLAB_THRESHOLD", "8")
    code, out, err = run(capsys, "build", "--spec", path, "--json")
    assert (code, out) == (2, "")
    assert "order 64" in err and "above the cap 8" in err
    monkeypatch.setenv("RINGLAB_THRESHOLD", "64")
    code, out, _ = run(capsys, "build", "--spec", path, "--json")
    assert code == 0
    assert json.loads(out)["order"] == 64
    monkeypatch.setenv("RINGLAB_THRESHOLD", "oops")
    code, _, err = run(capsys, "build", "--spec", path)
    assert code == 2


@pytest.mark.parametrize("command", ["build", "classify"])
def test_oversized_ring_is_refused_with_its_order_and_table_bytes(spec_file, capsys, command):
    # Z8 x T3(Z4) has order 32768: two uint16 tables of 32768^2 cells.
    spec = {"product": [{"zn": 8}, {"triangular": {"n": 3, "base": {"zn": 4}}}]}
    code, out, err = run(capsys, command, "--spec", spec_file(spec))
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "32768" in lines[0] and "4294967296" in lines[0]


#: Specs whose orders pass 2^64, refused from the exponent or the running
#: product before the order is computed in full.
_HUGE_SPECS = {
    "matrix-n-120": {"matrix": {"n": 120, "base": {"zn": 2}}},
    "group_ring-C100000": {"group_ring": {"base": {"zn": 2}, "group": {"cyclic": 100000}}},
    "product-1100-factors": {"product": [{"zn": 16384}] * 1100},
    "trunc_poly-n-10**8": {"trunc_poly": {"base": {"zn": 2}, "n": 10 ** 8}},
}


@pytest.mark.parametrize("name", sorted(_HUGE_SPECS))
def test_order_past_2_64_is_refused_by_its_size(spec_file, capsys, name):
    code, out, err = run(capsys, "build", "--spec", spec_file(_HUGE_SPECS[name]))
    assert (code, out) == (2, "")
    assert err == ("error: construction requires order 2^64 or more, above the cap 16384; "
                   "its add and mul tables would take 2^131 bytes or more\n")


_V2 = [[0, 1], [1, 0]]
_ACT2 = [[0, 0], [0, 1]]

#: Specs the schema accepts whose tables or element ids do not fit their rings.
_MALFORMED_SPECS = {
    "table-ragged-add": {"table": {"add": [[0, 1], [1]], "mul": [[0, 0], [0, 1]]}},
    "ideal_extension-ragged-m-add": {"ideal_extension": {
        "base": {"zn": 2}, "m": {"add": [[0, 1], [1]]},
        "left_action": _ACT2, "right_action": _ACT2}},
    "formal_triangular-ragged-left-action": {"formal_triangular": {
        "a": {"zn": 2}, "b": {"zn": 2}, "m": {"add": _V2},
        "left_action": [[0, 0], [0]], "right_action": _ACT2}},
    "group_ring-ragged-table": {"group_ring": {
        "base": {"zn": 2}, "group": {"table": {"mul": [[0, 1], [1]]}}}},
    "group-identity-5": {"group_ring": {
        "base": {"zn": 2}, "group": {"table": {"mul": _V2, "identity": 5}}}},
    "group-labels-1": {"group_ring": {
        "base": {"zn": 2}, "group": {"table": {"mul": [[0, 1], [1, 0]], "labels": ["e"]}}}},
    "table-entry-2**70": {"table": {"add": [[0, 2 ** 70], [1, 0]], "mul": [[0, 0], [0, 1]]}},
    "table-labels-1": {"table": {
        "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "labels": ["0"]}},
    "quotient-generator-4": {"quotient": {"base": {"zn": 4}, "generators": [4]}},
    "corner-idempotent-9": {"corner": {"base": {"zn": 4}, "idempotent": 9}},
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_SPECS))
def test_malformed_spec_is_refused_with_exit_2(spec_file, capsys, name):
    spec = _MALFORMED_SPECS[name]
    validate_spec(spec)
    with pytest.raises(RinglabError):
        build(spec)
    code, out, err = run(capsys, "build", "--spec", spec_file(spec))
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("command", ["classify", "element", "verify"])
def test_reading_option_is_gone(spec_file, capsys, command):
    # Uniqueness has one reading, exactly one decomposition: neither the
    # subcommand nor the library call behind it takes another.
    argv = {"classify": ["--spec", spec_file({"zn": 3})],
            "element": ["--spec", spec_file({"zn": 3}), "--element", "2"],
            "verify": ["--theorem", "prop2.1"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--usc-reading", "exact-one"])
    assert exc.value.code == 2
    assert "--usc-reading" in capsys.readouterr().err
    library_call = {"classify": lambda: classify(zn(3), usc_reading="exact-one"),
                    "element": lambda: element_profile(zn(3), 0, "exact-one"),
                    "verify": lambda: SuiteContext([], usc_reading="exact-one")}[command]
    with pytest.raises(TypeError):
        library_call()


def _readme_cli_flags() -> dict[str, set[str]]:
    """Flags per subcommand in README's CLI block, plus its shared flags."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    flags: dict[str, set[str]] = {}
    command = None
    for line in block.splitlines():
        head = re.match(r"ringlab (\w+)", line)
        if head:
            command = head.group(1)
            flags[command] = set()
        if command:
            flags[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    shared_text = re.search(r"^Shared flags?:(.*?)\n\n", section, re.S | re.M).group(1)
    shared = set(re.findall(r"`(--[a-z][a-z-]*)", shared_text))
    return {command: found | shared for command, found in flags.items()}


def test_readme_lists_every_cli_flag():
    parser = make_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        command: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        for command, sub in subparsers.choices.items()
    }
    assert _readme_cli_flags() == accepted


def test_readme_lists_every_check_id_in_registry_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Check ids for `--theorem`:", 1)[1].split("```", 2)[1]
    assert block.split() == list(CHECKS)


def test_lattice_limit_flag_bounds_the_quasi_duo_oracle(spec_file, capsys, tmp_path,
                                                       monkeypatch):
    spec = {"product": [{"zn": 2}] * 4}
    manifest = tmp_path / "cat.json"
    manifest.write_text(json.dumps([{"name": "Z2^4", "spec": spec}]))
    monkeypatch.setattr(invariants, "DEFAULT_IDEAL_COUNT_LIMIT", 5)
    code, out, _ = run(capsys, "verify", "--catalog", str(manifest), "--theorem",
                       "crosschecks", "--json")
    assert code == 0
    rows = json.loads(out)["checks"][0]["rows"]
    assert [r["verdict"] for r in rows] == ["skipped"]
    assert rows[0]["detail"] == "ideal lattice exceeds 5 members"
    # classify decides quasi-duo without the lattice, so it has no such bound.
    code, out, _ = run(capsys, "classify", "--spec", spec_file(spec), "--json")
    assert code == 0
    cls = json.loads(out)["classification"]
    assert cls["is_quasi_duo_left"] is True and cls["is_quasi_duo_right"] is True
    # The bound is a constant: no command takes a flag for it.
    for command in (["verify"], ["classify", "--spec", spec_file(spec)]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--lattice-limit", "5"])
        assert exc.value.code == 2


def test_verify_does_not_import_numpy_ma():
    # A plain np.unique imports numpy.ma, 10-16 ms of a process's start.
    code = "\n".join([
        "import contextlib, io, sys",
        "from ringlab.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['verify', '--json']) == 0",
        "assert 'numpy.ma' not in sys.modules",
    ])
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
