"""The rank-3 census, pinned by tests/golden/census.txt.

Each line of the golden file is `n=N`, the number of classes
iter_line_families(N) yields and the sha256 of their line masks, one
representative per line in the order yielded, for N = 4..9.  A change to
the enumeration that keeps every representative and the order keeps
this file.  The file changes only with a stated reason; to regenerate
it, run `PYTHONPATH=src python tests/test_census_golden.py --write`.

The benchmark inputs under bench/inputs are written from the census too,
so `bench/make_inputs.py --check` must find them unchanged.
"""

import hashlib
import os
import subprocess
import sys

from matbase.census import iter_line_families

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "census.txt")
MAKE_INPUTS = os.path.join(HERE, os.pardir, "bench", "make_inputs.py")


def census_lines():
    out = []
    for n in range(4, 10):
        fams = list(iter_line_families(n))
        digest = hashlib.sha256()
        for fam in fams:
            digest.update(repr(fam).encode())
            digest.update(b"\n")
        out.append("n=%d %d %s" % (n, len(fams), digest.hexdigest()))
    return out


def test_census_matches_golden():
    with open(GOLDEN) as fh:
        want = fh.read().splitlines()
    assert census_lines() == want


def test_bench_inputs_match_census():
    # the check reads bench/ and writes nothing there, not even bytecode
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, MAKE_INPUTS, "--check"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    assert done.returncode == 0, done.stdout


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_census_golden.py --write")
    with open(GOLDEN, "w") as fh:
        fh.write("\n".join(census_lines()) + "\n")
