"""The rank-3 engine's search order, pinned by tests/golden/search_order.txt.

Each line of the golden file is a label, a count and the sha256 of the
key sequence of one search, in the order the search hands it out:
- `profiles n=N #I`: search_profiles(..., connected_only=False) on the
  I-th census class with N points, which keeps every dependent triple
  of the class dependent;
- `included LABEL`: iter_included_rank3 on a census class with at most
  six points or on a fixture matroid with at most ten elements that
  check_rank3_input accepts, keyed by sorted bases;
- `bounded n=N #I`: the search_profiles stream that
  no_strict_intermediate_rank3(M', M) runs for each census class M with
  at most six points against its first included system M'.

A change to the engine that keeps every stream keeps this file.  The
file changes only with a stated reason; to regenerate it, run
`PYTHONPATH=src python tests/test_search_order.py --write`.
"""

import hashlib
import os
import sys

from matbase.census import census_rank3
from matbase.errors import MatbaseError
from matbase.examples import example_ids, get_example
from matbase.order import iter_included_rank3
from matbase.rank3 import check_rank3_input, search_profiles
from matbase.setfam import ksubsets

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "search_order.txt")


def _line(label, keys):
    digest = hashlib.sha256()
    for key in keys:
        digest.update(repr(key).encode())
        digest.update(b"\n")
    return "%s %d %s" % (label, len(keys), digest.hexdigest())


def _dependent(m):
    return [t for t in ksubsets(m.ground.full_mask, 3) if t not in m.bases]


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
    census = [(n, i, m) for n in range(4, 7)
              for i, m in enumerate(census_rank3(n))]
    for n, i, m in census:
        keys = [p.key() for p in search_profiles(m, connected_only=False)]
        out.append(_line("profiles n=%d #%d" % (n, i), keys))
    cases = [("n=%d #%d" % (n, i), m) for n, i, m in census]
    cases += list(_fixtures())
    for label, m in cases:
        keys = [tuple(sorted(mi.bases)) for mi in iter_included_rank3(m)]
        out.append(_line("included %s" % label, keys))
    for n, i, m in census:
        low = next(iter_included_rank3(m), None)
        if low is None:
            continue
        # low is connected, so the sandwich search has the whole ground
        # as support and low's dependent triples as bound
        keys = [p.key() for p in search_profiles(
            m, dep_max=_dependent(low), connected_only=False)]
        out.append(_line("bounded n=%d #%d" % (n, i), keys))
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
