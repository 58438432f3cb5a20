"""JSON serialization and the command-line front end."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import matbase
from matbase.cli import main
from matbase.errors import (ExchangeAxiomError, FormatError,
                            MixedCardinalityError)
from matbase.examples import get_example
from matbase.io import (load_matroid, matroid_from_json, matroid_to_dict,
                        matroid_to_json, save_matroid)
from matbase.matroid import matroid_from_flat_constraints, uniform_matroid

from util import count_searches, ground


def test_json_roundtrip():
    m = get_example("m2")["M"]
    text = matroid_to_json(m)
    back = matroid_from_json(text)
    assert back == m and back.ground.labels == m.ground.labels
    # canonical output is a fixpoint of format
    assert matroid_to_json(back) == text
    d = matroid_to_dict(m)
    assert d["ground"] == list("abcde") and len(d["bases"]) == 8


def test_json_flats_form():
    text = json.dumps({
        "ground": ["a", "b", "c", "d", "e"],
        "rank": 3,
        "flats": [{"set": ["a", "b", "c"], "rank": 2},
                  {"set": ["c", "d", "e"], "rank": 2}]})
    m = matroid_from_json(text)
    assert m == get_example("m2")["M"]


def test_json_format_errors():
    for text in (
            "[1, 2]",
            '{"bases": []}',
            '{"ground": "abc", "bases": []}',
            '{"ground": ["a"], "bases": [], "flats": []}',
            '{"ground": ["a", "b", "c"]}',
            '{"ground": ["a"], "bases": {}}',
            '{"ground": ["a", "b", "c"], "rank": true, "flats": []}',
            '{"ground": ["a", "b", "c"], "rank": 2, "flats": [{"set": ["a"]}]}',
            "not json"):
        with pytest.raises(FormatError):
            matroid_from_json(text)


@pytest.mark.parametrize("text", [
    # a repeated label is not read as one element
    '{"ground": ["a", "b"], "bases": [["a", "a"]]}',
    '{"ground": ["a", "b", "c"], "rank": 2,'
    ' "flats": [{"set": ["a", "a"], "rank": 1}]}',
    # a string is not read one character at a time
    '{"ground": ["a", "b", "c"], "bases": ["ab", "bc"]}',
    '{"ground": ["a", "b", "c"], "rank": 2,'
    ' "flats": [{"set": "ab", "rank": 1}]}',
    # labels are strings, not numbers or booleans turned into strings
    '{"ground": [1, 2], "bases": [["1"], ["2"]]}',
    '{"ground": [true], "bases": [["True"]]}',
])
def test_json_label_lists_are_strict(text):
    with pytest.raises(FormatError):
        matroid_from_json(text)


def test_json_construction_errors_surface():
    with pytest.raises(MixedCardinalityError):
        matroid_from_json(
            '{"ground": ["a", "b"], "bases": [["a"], ["a", "b"]]}')
    with pytest.raises(ExchangeAxiomError):
        matroid_from_json(
            '{"ground": ["a", "b", "c", "d"],'
            ' "bases": [["a", "b"], ["c", "d"]]}')
    # two 4-point planes through abc cannot satisfy exchange at rank 3
    with pytest.raises(ExchangeAxiomError):
        matroid_from_json(json.dumps({
            "ground": list("abcde"), "rank": 3,
            "flats": [{"set": list("abc"), "rank": 2},
                      {"set": list("abd"), "rank": 2}]}))


def test_save_load(tmp_path):
    m = uniform_matroid(2, 4)
    p = tmp_path / "u24.json"
    save_matroid(m, p)
    assert load_matroid(p) == m
    assert p.read_text().endswith("\n")


# ------------------------------------------------------------------- CLI

def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    def put(name, m):
        p = tmp_path / (name + ".json")
        save_matroid(m, p)
        return str(p)

    ex = {
        "m2": put("m2", get_example("m2")["M"]),
        "seven": put("seven", get_example("seven_typed")["M"]),
        "twodec": put("twodec", get_example("2decomp")["M"]),
        "minimal": put("minimal", get_example("minimal")["M"]),
        "lc1": put("lc1", get_example("lucascon")["M1"]),
        "lc2": put("lc2", get_example("lucascon")["M2"]),
    }
    bad = tmp_path / "bad.json"
    bad.write_text('{"ground": ["a","b","c"], "bases": [["a"], ["a","b"]]}')
    ex["bad"] = str(bad)
    nj = tmp_path / "nj.json"
    nj.write_text("not json at all")
    ex["nj"] = str(nj)
    ex["missing"] = str(tmp_path / "missing.json")
    return ex


def test_cli_axioms(files):
    rc, out, _ = _run(["axioms", files["m2"]])
    assert rc == 0 and out == "ok: rank 3, 8 bases on 5 elements\n"
    rc, out, _ = _run(["axioms", files["bad"]])
    assert rc == 1 and out == "bases of mixed sizes [1, 2]\n"


def test_cli_facets(files):
    rc, out, _ = _run(["facets", files["m2"]])
    assert rc == 0
    assert out.splitlines() == [
        "a rank=1 trivial=true components=a|bcde",
        "b rank=1 trivial=true components=b|acde",
        "abc rank=2 trivial=false components=abc|de",
        "d rank=1 trivial=true components=d|abce",
        "e rank=1 trivial=true components=abcd|e",
        "abde rank=3 trivial=true components=c|abde",
        "cde rank=2 trivial=false components=ab|cde",
    ]


def test_cli_classify(files):
    rc, out, _ = _run(["classify", files["seven"]])
    assert rc == 0
    assert out.startswith("(d) decomposable, not 2-decomposable\n")
    assert "facet pairs: 01 02 03 13 23" in out
    rc, out, _ = _run(["classify", files["m2"]])
    assert rc == 0 and out == "(a) binary\nwitness: none\n"


def test_cli_classify_json(files):
    rc, out, _ = _run(["classify", files["seven"], "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["class"] == "d"
    assert data["label"] == "decomposable, not 2-decomposable"
    assert sorted(len(p) for p in data["witness"]["pieces"]) == [18, 18, 20, 24]
    assert data["witness"]["facet_pairs"] == [
        [0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]


def test_cli_decompose(files):
    rc, out, _ = _run(["decompose", files["twodec"]])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "class: (e) 2-decomposable"
    assert "  twins ab via {c,d,e}==2" in lines
    assert "2 pieces" in lines
    assert lines[-1] == "  facet pairs: 01"
    rc, out, _ = _run(["decompose", files["minimal"]])
    assert rc == 1
    rc, _, err = _run(["decompose", files["seven"], "--max-pieces", "2"])
    assert rc == 4 and "within 2 pieces" in err


def test_cli_decompose_rejects_piece_cap_below_two(files):
    rc, out, err = _run(["decompose", files["seven"], "--max-pieces", "-3"])
    assert rc == 2 and out == ""
    assert "at least two pieces" in err


def test_cli_order(files):
    rc, out, _ = _run(["order", "--leq", files["lc2"], files["lc1"]])
    assert rc == 0
    assert out == ("true\n"
                   "every base of the first system is a base of the second\n")
    rc, out, _ = _run(["order", "--leq", files["lc1"], files["lc2"]])
    assert rc == 1 and out.startswith("false\n")
    rc, out, _ = _run(["order", "--cover", files["lc2"], files["lc1"]])
    assert rc == 0
    assert "nothing lies strictly between" in out
    rc, out, _ = _run(["order", "--minimal", files["minimal"]])
    assert rc == 0
    assert out == ("true\n"
                   "no connected simple rank-3 base system lies strictly"
                   " inside\n")
    rc, out, _ = _run(["order", "--minimal", files["seven"]])
    assert rc == 1


def test_cli_order_minimal_searches_once(tmp_path, monkeypatch):
    # a non-minimal input gets its verdict and its witness from one
    # search; a binary input is answered without one
    nonminimal = tmp_path / "nonminimal.json"
    save_matroid(get_example("nonminimal")["M"], nonminimal)
    fano = tmp_path / "fano.json"
    save_matroid(matroid_from_flat_constraints(
        ground(7), 3, [("abc", 2), ("ade", 2), ("afg", 2), ("bdf", 2),
                       ("beg", 2), ("cdg", 2), ("cef", 2)]), fano)
    counts = count_searches(monkeypatch)
    rc, out, _ = _run(["order", "--minimal", str(nonminimal)])
    assert rc == 1 and out.startswith("false\nan included base system with ")
    assert counts["runs"] == 1
    counts.clear()
    rc, out, _ = _run(["order", "--minimal", str(fano)])
    assert rc == 0 and out.startswith("true\n")
    assert counts["runs"] == 0


def test_cli_census():
    rc, out, _ = _run(["census", "6", "--filter", "neither-binary-nor-2dec"])
    assert rc == 0
    assert out == "n=6 filter=neither-binary-nor-2dec count=0\n"
    rc, out, _ = _run(["census", "7", "--filter", "neither-binary-nor-2dec"])
    assert rc == 0
    assert out.splitlines() == [
        "n=7 filter=neither-binary-nor-2dec count=2",
        "  lines: abc,ade,bdf,cefg",
        "  lines: abc,ade,bdf,cdg,efg",
    ]
    rc, out, _ = _run(["census", "5"])
    assert rc == 0 and out.splitlines()[0] == "n=5 filter=all count=3"


def test_cli_verify_deterministic():
    rc1, out1, _ = _run(["verify", "m2"])
    assert rc1 == 0
    assert out1.splitlines()[0] == "== m2 =="
    assert out1.splitlines()[-1] == "-- m2: pass"
    assert all(ln.startswith(("==", "ok", "note", "--"))
               for ln in out1.splitlines())
    rc2, out2, _ = _run(["verify", "m2"])
    assert (rc1, out1) == (rc2, out2)


def test_cli_fmt(files):
    rc, out, _ = _run(["fmt", files["m2"]])
    assert rc == 0
    assert out == matroid_to_json(get_example("m2")["M"])
    # formatting is idempotent byte for byte
    rc2, out2, _ = _run(["fmt", files["m2"]])
    assert out2 == out


def test_cli_fmt_has_no_json_option(files):
    # fmt always writes JSON, so it takes no --json switch
    with pytest.raises(SystemExit) as ei:
        _run(["fmt", "--json", files["m2"]])
    assert ei.value.code == 2
    rc, out, _ = _run(["fmt", files["m2"]])
    assert rc == 0 and out == matroid_to_json(get_example("m2")["M"])


def test_cli_verify_all_matches_golden():
    # the bundled fixtures re-derived end to end; the golden file changes
    # only with a stated reason
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "verify_all.txt")
    with open(golden) as fh:
        want = fh.read()
    rc, out, _ = _run(["verify", "all"])
    assert rc == 0 and out == want


def test_cli_bad_inputs(files):
    rc, _, err = _run(["fmt", files["nj"]])
    assert rc == 2 and "invalid JSON" in err
    rc, _, err = _run(["fmt", files["missing"]])
    assert rc == 2 and "No such file" in err
    with pytest.raises(SystemExit) as ei:
        _run(["verify", "nope"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit):
        _run(["frobnicate"])


def test_cli_axioms_rejects_repeated_label(tmp_path):
    p = tmp_path / "rep.json"
    p.write_text('{"ground": ["a", "b"], "bases": [["a", "a"]]}')
    rc, out, err = _run(["axioms", str(p)])
    assert rc == 2 and out == ""
    assert "repeats a label" in err


def test_cli_exchange_error_message(tmp_path):
    p = tmp_path / "exch.json"
    p.write_text('{"ground": ["a","b","c","d"],'
                 ' "bases": [["a","b"], ["c","d"]]}')
    rc, out, _ = _run(["axioms", str(p)])
    assert rc == 1
    assert out == "exchange fails: ab, cd cannot trade a\n"


def test_import_loads_no_numpy():
    # every CLI call pays for the package import; numpy is a test-only
    # dependency
    src = os.path.dirname(os.path.dirname(matbase.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, matbase; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_python_m_matbase_runs_the_cli():
    src = os.path.dirname(os.path.dirname(matbase.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "matbase", "verify", "m2"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "-- m2: pass"
