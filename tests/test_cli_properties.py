"""Property tests of the CLI contract over generated argv and manifest documents.

Every run exits 0 (success), 1 (a check failed) or 2 (usage error), never
with a traceback, and never prints a non-finite number.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cvgraphsense.cli import main

FINITE = st.floats(-4.0, 4.0).map(repr)
SPECIAL = st.sampled_from(["0", "-0", "10.5", "1e-300", "nan", "-nan", "inf", "-inf",
                           "1e308", "-1e308", "1e400", "9" * 400, "0x1p3", "abc", ""])
# mostly finite, so that most runs get past argument checking
NUMBER = st.one_of(FINITE, FINITE, SPECIAL)
SIZE = st.one_of(st.integers(2, 8), st.integers(-1, 8)).map(str)
GRAPH = st.one_of(
    st.tuples(st.just("--star"), SIZE),
    st.tuples(st.just("--empty"), SIZE),
    st.tuples(st.just("--rectangular"),
              st.one_of(st.just("2"), st.sampled_from(["-1", "0", "1", "2"]))),
    st.tuples(st.just("--multipartite"),
              st.one_of(st.integers(2, 4), st.integers(0, 4)).map(str),
              st.one_of(st.integers(1, 2), st.integers(0, 2)).map(str)),
)
F_SPEC = st.one_of(NUMBER, st.lists(NUMBER, min_size=2, max_size=16).map(",".join))
MODALITY = st.sampled_from(["phase", "displacement"])


def _flag(name, values):
    """An optional flag: nothing, or (name, value)."""
    return st.one_of(st.just(()), st.tuples(st.just(name), values))


def _budget():
    return st.one_of(st.tuples(st.just("--r"), NUMBER),
                     st.tuples(st.just("--target-N"),
                               st.one_of(st.floats(0.5, 60.0).map(repr), NUMBER)))


GRAPH_INFO = st.tuples(st.just(("graph-info",)), GRAPH, _flag("--csv", st.just(())))
QFI = st.tuples(st.just(("qfi",)), MODALITY.map(lambda m: (m,)), GRAPH, _budget(),
                _flag("--f", F_SPEC), st.sampled_from([(), ("--csv",)]))
FI = st.tuples(st.just(("fi",)), MODALITY.map(lambda m: (m,)), GRAPH, _budget(),
               _flag("--f", F_SPEC), _flag("--phi", NUMBER),
               st.one_of(st.just(("--optimize",)),
                         st.tuples(st.just("--alpha"), NUMBER, st.just("--beta"), NUMBER)),
               st.sampled_from([(), ("--csv",)]))
FIGURE = st.tuples(st.just(("figure",)), st.sampled_from([("fig2",), ("fig4",)]),
                   st.tuples(st.just("--n-max"), st.integers(-1, 16).map(str)),
                   _flag("--ntilde-max", NUMBER), _flag("--phi", NUMBER),
                   st.sampled_from([(), ("--json",)]))
VERIFY = st.tuples(st.just(("verify",)),
                   st.sampled_from([(), ("all",), ("phase",), ("displacement",),
                                    ("photon",), ("derivatives",)]),
                   st.tuples(st.just("--cases"), st.integers(-1, 5).map(str)),
                   _flag("--seed", st.integers(-2, 10 ** 6).map(str)))


def _flatten(parts):
    out = []
    for part in parts:
        if isinstance(part, tuple):
            out.extend(_flatten(part))
        else:
            out.append(part)
    return out


ARGV = st.one_of(GRAPH_INFO, QFI, FI, FIGURE, VERIFY).map(_flatten)
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(ARGV)
def test_cli_exit_codes_and_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    assert not NON_FINITE.search(out.getvalue()), (argv, out.getvalue())
    if code == 2:
        assert err.getvalue().strip(), argv


GRAPH_NONE = {"star": None, "multipartite": None, "rectangular": None, "empty": None,
              "edges": None}
# one small, valid parameter set per command, in the parser's key order
MANIFEST_PARAMETERS = {
    "graph-info": {**GRAPH_NONE, "star": 3, "csv": False},
    "qfi": {"modality": "phase", **GRAPH_NONE, "star": 3, "r": 1.0, "target_n": None,
            "f": "1", "csv": False},
    "fi": {"modality": "displacement", **GRAPH_NONE, "star": 3, "r": 1.0, "target_n": None,
           "f": "1", "phi": 0.0, "alpha": None, "beta": None, "optimize": True,
           "csv": False},
    "figure": {"name": "fig2", "output": None, "n_max": 4, "ntilde_max": 10.0, "phi": 0.0,
               "json": False},
    "verify": {"suite": "photon", "cases": 2, "seed": 1},
}
# JSON values of every type; numbers stay small so that no run grows large
JSON_VALUE = st.sampled_from([None, True, False, -1, 0, 1, 2, 1.5, "", "abc", "nan", "t.out",
                              [1, 2], [2, 3, 4], {"a": 1}])
# a parameter of another type is drawn twice as often as each other change
CHANGES = ("retype", "retype", "drop", "extra", "command", "parameters", "old keys",
           "not an object")


@st.composite
def manifest_documents(draw):
    """A valid document with one or two changes: a parameter of another type,
    missing or unknown; `command` or `parameters` missing or of another type;
    the top-level keys of older manifests; or no JSON object at all."""
    command = draw(st.sampled_from(sorted(MANIFEST_PARAMETERS)))
    params = dict(MANIFEST_PARAMETERS[command])
    doc = {"command": command, "parameters": params}
    for change in draw(st.lists(st.sampled_from(CHANGES), min_size=1, max_size=2)):
        key = draw(st.sampled_from(sorted(params)))
        if change == "retype":
            params[key] = draw(JSON_VALUE)
        elif change == "drop":
            del params[key]
        elif change == "extra":
            params["unknown"] = draw(JSON_VALUE)
        elif change == "old keys":
            doc.update(output_path="t.csv", seed=0)
        elif change == "not an object":
            return draw(JSON_VALUE)
        elif draw(st.booleans()):
            doc.pop(change, None)
        else:
            doc[change] = draw(JSON_VALUE)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(manifest_documents())
def test_manifest_replay_exit_codes_and_output(doc):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a manifest may name an output file
        try:
            with open("m.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--manifest", "m.json"])
            written = set(os.listdir(tmp)) - {"m.json"}
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (doc, code)
    if code == 0:  # a success prints its result or writes the named file
        assert out.getvalue() or written, doc
    assert "Traceback" not in err.getvalue()
    assert not NON_FINITE.search(out.getvalue()), (doc, out.getvalue())
    if code == 2:
        assert err.getvalue().splitlines()[-1].startswith("error: "), (doc, err.getvalue())


def _run_in(argv):
    """main(argv) with stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(ARGV, st.booleans())
def test_saved_manifest_replays_identically(argv, to_file):
    # a run that got past the parser, replayed from its manifest, repeats its
    # exit code, its stdout and the file it wrote
    if to_file and argv[0] == "figure":
        argv = argv + ["--output", "out.txt"]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            code, out = _run_in(argv + ["--save-manifest", "m.json"])
            if code not in (0, 1):
                return
            written = Path("out.txt").read_text() if os.path.exists("out.txt") else None
            if written is not None:
                os.remove("out.txt")
            replay_code, replay_out = _run_in(["--manifest", "m.json"])
            replay_written = Path("out.txt").read_text() if os.path.exists("out.txt") else None
        finally:
            os.chdir(cwd)
    assert (replay_code, replay_out, replay_written) == (code, out, written), argv
