"""The facet tables and flats, pinned by tests/golden/facets.txt.

Each line of the golden file is a kind, a label, a count and a sha256:
- `facets LABEL`: base_facets on a connected matroid, the count its
  number of reports and the digest over every FacetReport field, in
  field order, report by report;
- `flats LABEL`: Matroid.flats(), the count its number of flats and the
  digest over the masks in order.

The matroids are every connected fixture and its dual, and every census
class with 4 to 8 points and its dual (ranks 1 to 5), so both the rank-3
facet rule and the rule for the other ranks are covered.

A change to the facet or flat code that keeps every answer keeps this
file.  The file changes only with a stated reason; to regenerate it, run
`PYTHONPATH=src python tests/test_facets_golden.py --write`.
"""

import dataclasses
import hashlib
import os
import sys

from matbase.census import census_rank3
from matbase.examples import example_ids, get_example
from matbase.facets import base_facets
from matbase.setfam import ElementSet

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "facets.txt")


def _line(label, items):
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
        digest.update(b"\n")
    return "%s %d %s" % (label, len(items), digest.hexdigest())


def _plain(value):
    return value.mask if isinstance(value, ElementSet) else value


def _report_fields(report):
    return tuple(_plain(getattr(report, f.name))
                 for f in dataclasses.fields(report))


def _cases():
    for eid in example_ids():
        for name, m in sorted(get_example(eid).matroids.items()):
            yield "%s:%s" % (eid, name), m
            yield "%s:%s*" % (eid, name), m.dual()
    for n in range(4, 9):
        for i, m in enumerate(census_rank3(n)):
            yield "n=%d #%d" % (n, i), m
            yield "n=%d #%d*" % (n, i), m.dual()


def facet_lines():
    out = []
    for label, m in _cases():
        if m.is_connected():
            reports = [_report_fields(r) for r in base_facets(m)]
            out.append(_line("facets %s" % label, reports))
        out.append(_line("flats %s" % label, list(m.flats())))
    return out


def test_facets_match_golden():
    with open(GOLDEN) as fh:
        want = fh.read().splitlines()
    assert facet_lines() == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_facets_golden.py --write")
    with open(GOLDEN, "w") as fh:
        fh.write("\n".join(facet_lines()) + "\n")
