"""Property test of the CLI contract over generated argv.

Every run exits 0 (success), 1 (a check failed) or 2 (usage error), never
with a traceback, and never prints a non-finite number.
"""

import contextlib
import io
import re

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
