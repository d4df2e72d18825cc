"""Record what the command line prints for a fixed corpus of commands.

    python tools/output_record.py SRC_DIR

imports `cvgraphsense` from SRC_DIR (a checkout's `src/`) and runs every
command of CORPUS in process, each entry in a fresh temporary directory that
holds the fixed edge lists of EDGE_FILES; the commands of one entry share
it, so a saved manifest can be replayed. For each command it prints one line:

    exit-code  sha256(stdout)  sha256(stderr)  [file=sha256(file) ...]  | command

with SRC_DIR in stderr (a warning names its source file) replaced by `SRC`
and the `:LINE` after such a file dropped, so that moving a line of the
program is not an output change, the temporary directory in stdout and
stderr (an edge list's label is its absolute path) replaced by `TMP`, and
one hash for every file the commands wrote to the directory. Digests are cut
to 16 hex digits. Comparing two checkouts is then one diff:

    diff <(python tools/output_record.py PARENT/src) <(python tools/output_record.py src)

BLAS runs on one thread and `--help` is formatted at 80 columns, so the record
depends on the program alone.
"""

import contextlib
import hashlib
import io
import os
import random
import re
import shlex
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

REPLAY = "--manifest m.json"
TWO_VALUED = ",".join(["1"] + ["0.5", "1.5"] * 7 + ["0.5"])


def edge_list(n, adjacent):
    """Edge-list text of the graph on vertices 1..n with the pairs j < k where adjacent(j, k)."""
    pairs = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1) if adjacent(j, k)]
    return f"{n}\n" + "".join(f"{j} {k}\n" for j, k in pairs)


# a twin-free random graph (every row class one vertex, u = n) and one whose
# vertices j share the rows of their class j mod 5 (planted twins, u < n);
# a hand-written list with comments, blank lines, duplicate and reversed pairs,
# isolated vertices and a vertex count above its largest index; a list with a
# token that is not an integer; a CRLF list, which only the line-by-line reading
# takes, a tab-separated one with no final newline, which one split takes, and
# three that the line-by-line reading refuses (an inline comment, two edges on
# one line, a 19-digit vertex count)
EDGE_FILES = {
    "random.edges": edge_list(24, lambda j, k: random.Random(100 * j + k).random() < 0.3),
    "twins.edges": edge_list(30, lambda j, k: j % 5 != k % 5 and (j + k) % 5 in (1, 4)),
    "messy.edges": ("# vertices 5, 11 and 12 have no edge\n12\n\n1 2\n2 1\n3 1\n1 3\n"
                    "  2 4 \n4 3\n# a second component\n6 7\n7 8\n8 6\n\n9 7\n"
                    "9 8\n10 6\n10 7\n10 8\n7 6\n"),
    "malformed.edges": "2\n1 2.5\n",
    "crlf.edges": "# a ring\r\n4\r\n1 2\r\n2 3\r\n3 4\r\n4 1\r\n",
    "tabs.edges": "5\n1\t2\n2\t3\n\t3\t5",
    "inline.edges": "3\n1 2 # c\n2 3\n",
    "two-per-line.edges": "4\n1 2 3 4\n",
    "huge.edges": "1234567890123456789\n1 2\n",
}

# one entry per directory: a command, or a tuple of commands run in order
CORPUS = [
    "--help", "graph-info --help", "qfi --help", "fi --help", "figure --help", "verify --help",
    # graph-info
    "graph-info --star 5", "graph-info --multipartite 3 2 --csv", "graph-info --empty 3",
    "graph-info --rectangular 4 --csv",
    # qfi, the small-r cross-checks and one cross-check failure (exit 1)
    "qfi phase --star 3 --r 1 --f 1", "qfi displacement --star 4 --target-N 50 --csv",
    "qfi phase --star 3 --r 1 --f=1,-1,0.5 --csv", "qfi phase --star 3 --r=-0.5 --f=-1,2,0.5",
    "qfi phase --empty 3 --r 1e-5", "qfi phase --empty 3 --r 1e-9", "qfi phase --empty 1 --r 1e-12",
    "qfi phase --star 3 --r 1e-7 --csv", "qfi displacement --star 3 --r 5 --f=0,-1,-1,1,0,0",
    # a subnormal QFI of tiny f keeps its digits (exit 0), one of tiny r fails the
    # cross-check (exit 1), tiny but normal ones pass, a huge f overflows (exit 2;
    # inf, not nan, at r = 0 too); a mixed-sign f below 1 (run scaled) and one above
    # 1 (not scaled)
    "qfi phase --star 3 --r 1 --f 1e-161", "qfi displacement --star 3 --r 1 --f 1e-161",
    "qfi phase --empty 1 --r 1e-162", "qfi phase --star 3 --r 1 --f 1e-20",
    "qfi phase --star 3 --r 1 --f 1e200", "qfi phase --star 2 --r 0 --f 1e308",
    "qfi phase --star 5 --r 1 --f=0.3,-0.7,0.45,0.1,-0.2",
    "qfi displacement --star 3 --r 2 --f=3.5,-1,0.25,0,2,-0.5",
    # fi: optimized, fixed angles, non-uniform f, large phi, zero QFI
    "fi phase --star 4 --r 1 --optimize", "fi phase --star 4 --r 1 --optimize --csv",
    "fi displacement --star 4 --r 1 --alpha 1.2 --beta 0.4 --csv",
    "fi displacement --multipartite 3 2 --r 1 --optimize",
    "fi displacement --multipartite 3 2 --r 1 --optimize --csv",
    "fi displacement --star 5 --r 1 --optimize --csv",
    "fi phase --star 5 --r 1 --f=1.5,2,2,2,2 --phi 2.2 --optimize",
    f"fi phase --star 16 --r 3 --f={TWO_VALUED} --phi 0.3 --optimize",
    "fi phase --star 4 --r 1 --phi 0.3 --alpha 0.7 --beta 1.9",
    "fi phase --star 4 --r 1 --phi 1e16 --alpha 0.7 --beta 1.9",
    "fi phase --star 4 --r 5 --phi 1e16 --optimize",
    "fi phase --empty 1 --r 0 --optimize", "fi phase --empty 1 --r 0 --optimize --csv",
    "fi phase --empty 1 --r 0 --alpha 0 --beta 0", "fi phase --empty 1 --r 1e-300 --optimize",
    "fi phase --star 4 --r 1 --f 10 --phi 1e308 --optimize",
    # figures
    "figure fig2 --n-max 64 --output out.csv", "figure fig2 --output fig2.csv", "figure fig3",
    "figure fig3 --phi 0.3", "figure fig3 --phi 1e16", "figure fig5 --json", "figure fig2 --json",
    "figure fig2 --n-max 4 --ntilde-max 1e300",
    *(f"figure {name} --ntilde-max {t}{out}" for name in ("fig2", "fig4")
      for t in ("nan", "inf", "0", "-1") for out in ("", " --output out.csv")),
    # the benchmark's operations (perfbench/workloads.py), less its two edge-list
    # files, with fixed angles where it draws them from its seed
    *(f"fi {m} --star {n} --r {r} --optimize"
      for m in ("phase", "displacement") for r in (1, 3) for n in (2, 7)),
    *(f"figure {name} --n-max 2048{fmt}" for name in ("fig2", "fig4") for fmt in ("", " --json")),
    *(f"verify all --cases 200 --seed {s}" for s in (42, 142, 242, 342, 442, 542)),
    "qfi phase --multipartite 4 64 --r 1", "qfi phase --multipartite 4 256 --r 1",
    "qfi displacement --multipartite 4 256 --r 1", "qfi phase --rectangular 128 --r 1",
    "qfi displacement --rectangular 512 --r 1", "qfi phase --star 1024 --r 1",
    "qfi displacement --star 2048 --r 1",
    "fi phase --star 512 --r 1 --alpha 5.372412 --beta 1.118303",
    "fi displacement --star 1024 --r 1 --alpha 0.813920 --beta 4.211975",
    # the derivative suite over more draws, and every suite on its first (star-graph) draw
    "verify derivatives --cases 1000 --seed 7", "verify all --cases 1 --seed 0",
    # edge lists, with and without twins, and the hand-written and malformed ones
    *(f"{command} --edges {name}{args}" for name in ("random.edges", "twins.edges")
      for command, args in (("graph-info", ""), ("qfi phase", " --r 1"),
                            ("qfi displacement", " --r 1"), ("fi displacement", " --r 1 --optimize"))),
    *(f"{command} --edges {name}{args}" for name in ("messy.edges", "malformed.edges")
      for command, args in (("graph-info", ""), ("qfi phase", " --r 1"),
                            ("qfi displacement", " --r 1"))),
    *(f"{command} --edges {name}.edges" for command in ("graph-info", "qfi phase --r 1")
      for name in ("crlf", "tabs", "inline", "two-per-line", "huge")),
    # usage errors (exit 2)
    "qfi phase --star 3", "qfi phase --star 3 --r 11", "qfi phase --star 3 --r 1 --f 1,2",
    "fi phase --star 4 --r 1", "fi phase --star 4 --r 1 --optimize --alpha 1",
    "fi phase --star 4 --r 1 --phi nan --optimize", "graph-info --star 0",
    "qfi phase --star 4 --target-N 0.1", "verify all --cases 0",
    "verify photon --cases 1 --seed -1", "--manifest missing.json",
    "qfi phase --star 3 --r 1 --save-manifest .",
    "qfi phase --star 3 --r 1 --save-manifest missing/m.json",
    # saved manifests and their replays
    ("graph-info --multipartite 3 2 --save-manifest m.json", REPLAY),
    ("qfi phase --star 3 --r=-0.5 --f=-1,2,0.5 --save-manifest m.json", REPLAY),
    ("fi phase --star 4 --r 1 --optimize --csv --save-manifest m.json", REPLAY),
    ("figure fig2 --n-max 64 --output out.csv --save-manifest m.json", REPLAY),
    ("verify photon --cases 20 --save-manifest m.json", REPLAY),
]


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def run(entry, argv, src, tmp):
    """(exit code, stdout, stderr) of one in-process command run in tmp."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():  # entering resets "once per location"
        try:
            code = entry(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = 0 if exc.code is None else exc.code
        except Exception:  # a traceback, recorded as such
            code = "traceback"
            traceback.print_exc()
    err = re.sub(r"(SRC/\S*?\.py):\d+", r"\1", err.getvalue().replace(src, "SRC"))
    return code, out.getvalue().replace(tmp, "TMP"), err.replace(tmp, "TMP")


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit("usage: python tools/output_record.py SRC_DIR")
    src = str(Path(args[0]).resolve())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy loads
    os.environ["COLUMNS"] = "80"  # read when argparse formats --help
    sys.path.insert(0, src)
    import cvgraphsense.cli

    if not Path(cvgraphsense.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"cvgraphsense was imported from {cvgraphsense.cli.__file__}, not {src}")
    home = os.getcwd()
    for entry in CORPUS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for name, text in EDGE_FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            try:
                for command in (entry,) if isinstance(entry, str) else entry:
                    code, out, err = run(cvgraphsense.cli.main, shlex.split(command), src,
                                         os.getcwd())
                    files = [f"{p.relative_to(tmp)}={digest(p.read_bytes())}"
                             for p in sorted(Path(tmp).rglob("*"))
                             if p.is_file() and p.name not in EDGE_FILES]
                    print(code, digest(out.encode()), digest(err.encode()), *files, "|", command)
            finally:
                os.chdir(home)


if __name__ == "__main__":
    main()
