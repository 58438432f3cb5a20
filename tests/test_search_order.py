"""The rank-3 inclusion pools, pinned by tests/golden/search_order.txt.

Each line of the golden file is a label, a count and the sha256 of the
key sequence of one pool, enumerate_included_rank3 in its sorted
order: `included LABEL` on a census class with at most six points,
`n=N #I` for the I-th class with N points, or on a fixture matroid with
at most ten elements that check_rank3_input accepts, keyed by sorted
bases.

The pools are sorted by profile, so a change to the search that finds
the same systems keeps this file.  The file changes only with a stated
reason; to regenerate it, run
`PYTHONPATH=src python tests/test_search_order.py --write`.
"""

import hashlib
import os
import sys

from matbase.census import census_rank3
from matbase.errors import MatbaseError
from matbase.examples import example_ids, get_example
from matbase.order import enumerate_included_rank3
from matbase.rank3 import check_rank3_input

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "search_order.txt")


def _line(label, keys):
    digest = hashlib.sha256()
    for key in keys:
        digest.update(repr(key).encode())
        digest.update(b"\n")
    return "%s %d %s" % (label, len(keys), digest.hexdigest())


def _fixtures():
    for eid in example_ids():
        for name, m in sorted(get_example(eid).matroids.items()):
            if m.ground.n > 10:
                continue
            try:
                check_rank3_input(m)
            except MatbaseError:
                continue
            yield "%s:%s" % (eid, name), m


def search_order_lines():
    out = []
    cases = [("n=%d #%d" % (n, i), m) for n in range(4, 7)
             for i, m in enumerate(census_rank3(n))]
    cases += list(_fixtures())
    for label, m in cases:
        keys = [tuple(sorted(mi.bases)) for mi in enumerate_included_rank3(m)]
        out.append(_line("included %s" % label, keys))
    return out


def test_search_order_matches_golden():
    with open(GOLDEN) as fh:
        want = fh.read().splitlines()
    assert search_order_lines() == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_search_order.py --write")
    with open(GOLDEN, "w") as fh:
        fh.write("\n".join(search_order_lines()) + "\n")
