#!/usr/bin/env python3
"""Write the benchmark inputs under bench/inputs, in matbase's own JSON.

    python3 bench/make_inputs.py           # (re)write the files
    python3 bench/make_inputs.py --check   # compare with the files on disk

Files, one matroid per line, line k being census class k:

    census-n6.jsonl .. census-n8.jsonl   classes in the flats form
    duals-n7.jsonl, duals-n8.jsonl       their duals in the bases form
    lucascon.jsonl                       M1 then M2, bases form

Before writing, the class counts are checked against Mayhew & Royle,
"Matroids with nine elements" (JCTB 2008), and every file is checked
with the oracles: classes connected, simple, rank 3 and pairwise
non-isomorphic; each dual the complement family of its class.  The
output depends on the census order alone, so a rerun reproduces every
file byte for byte.
"""

import argparse
import json
import sys
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
SRC = HERE.parent / "src"

# simple rank-3 matroids on n elements (Mayhew & Royle 2008); exactly one
# of them, an (n-1)-point line plus a point, is disconnected
SIMPLE_RANK3 = {4: 2, 5: 4, 6: 9, 7: 23, 8: 68}
CENSUS_SIZES = (6, 7, 8)
DUAL_SIZES = (7, 8)


def class_json(labels, lines):
    return json.dumps({
        "ground": list(labels), "rank": 3,
        "flats": [{"set": [labels[i] for i in oracles.bits(f)], "rank": 2}
                  for f in lines]})


def bases_json(labels, family):
    return json.dumps({
        "ground": list(labels),
        "bases": [[labels[i] for i in oracles.bits(b)] for b in sorted(family)]})


def census_lines(mb, n):
    """Line families of the census classes, checked before use."""
    fams = list(mb.iter_line_families(n))
    want = SIMPLE_RANK3[n] - 1
    if len(fams) != want:
        raise SystemExit("census n=%d: %d classes, Mayhew-Royle give %d"
                         % (n, len(fams), want))
    structures = []
    for lines in fams:
        fam = oracles.family_from_flats(n, 3, [(f, 2) for f in lines])
        if not (oracles.is_connected(n, fam) and oracles.is_simple(n, fam)):
            raise SystemExit("census n=%d: class %r is not connected and simple"
                             % (n, lines))
        structures.append((n, oracles.long_lines(n, fam)))
    if oracles.isomorphic_pairs(structures):
        raise SystemExit("census n=%d: isomorphic classes" % n)
    return fams


def build(mb):
    files = {}
    for n in CENSUS_SIZES:
        labels = "abcdefghijklmnopqrstuvwxyz"[:n]
        fams = census_lines(mb, n)
        files["census-n%d.jsonl" % n] = [class_json(labels, f) for f in fams]
        if n in DUAL_SIZES:
            duals = []
            for lines in fams:
                m = mb.matroid_of_lines(n, lines)
                d = m.dual()
                fam = oracles.family_from_flats(n, 3, [(f, 2) for f in lines])
                full = (1 << n) - 1
                if frozenset(d.bases.masks) != frozenset(full ^ b for b in fam):
                    raise SystemExit("dual of %r is not the complement family"
                                     % (lines,))
                duals.append(bases_json(labels, d.bases.masks))
            files["duals-n%d.jsonl" % n] = duals
    ex = mb.get_example("lucascon")
    m1, m2 = ex["M1"], ex["M2"]
    if not (m1.ground.n == 11 and len(m1.bases) == 150
            and frozenset(m2.bases.masks) < frozenset(m1.bases.masks)):
        raise SystemExit("lucascon: expected 11 points, 150 bases, B(M2) < B(M1)")
    files["lucascon.jsonl"] = [bases_json(m.ground.labels, m.bases.masks)
                               for m in (m1, m2)]
    return {name: "".join(line + "\n" for line in lines)
            for name, lines in files.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the files on disk instead of writing")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import matbase
    files = build(matbase)
    if args.check:
        stale = [name for name, text in sorted(files.items())
                 if not (INPUTS / name).is_file()
                 or (INPUTS / name).read_text(encoding="utf-8") != text]
        for name in stale:
            print("differs: %s" % name)
        return 1 if stale else 0
    INPUTS.mkdir(exist_ok=True)
    for name, text in sorted(files.items()):
        (INPUTS / name).write_text(text, encoding="utf-8")
        print("wrote %s (%d lines)" % (name, text.count("\n")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
