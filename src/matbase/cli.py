"""Command-line front end.

Subcommands: axioms, facets, classify, decompose, order, census,
verify, fmt.  Output is plain text by default, JSON with --json (fmt
always writes JSON and takes no --json); the exit code carries the
verdict: 0 yes/pass, 1 no/fail, 2 bad input, 4 search hit its cap
without a verdict.
"""

import argparse
import json
import sys

from .census import census_rank3, neither_binary_nor_two_decomposable
from .decomp import Decomposition, classify, rank3_quick_witnesses
from .errors import (EmptyFamilyError, ExchangeAxiomError, InconclusiveError,
                     MatbaseError, MixedCardinalityError)
from .facets import base_facets
from .io import load_matroid, matroid_to_dict, matroid_to_json
from .order import _first_included, no_strict_intermediate_rank3, weak_leq
from .rank3 import facet_rank2_flats
from .verify import SUITE_IDS, run_all, run_example


def _set_text(ground, mask):
    labs = sorted(ground.labels_of(mask))
    if all(len(lab) == 1 for lab in labs):
        return "".join(labs)
    return "{" + ",".join(labs) + "}"


def _emit(args, obj, lines):
    if args.json:
        print(json.dumps(obj, indent=1))
    else:
        for line in lines:
            print(line)


def _witness_obj(w):
    if w is None:
        return None
    if isinstance(w, Decomposition):
        return {"pieces": [matroid_to_dict(p)["bases"] for p in w.pieces],
                "facet_pairs": [list(pr) for pr in w.facet_pairs]}
    return {"bases": matroid_to_dict(w)["bases"]}


def _witness_lines(w):
    if w is None:
        return ["witness: none"]
    if isinstance(w, Decomposition):
        return ["witness:"] + ["  " + ln for ln in w.show().split("\n")]
    return ["witness: included base system, %d bases: %s"
            % (len(w.bases), " ".join(sorted(w.ground.show(b)
                                             for b in w.bases)))]


def cmd_axioms(args):
    try:
        m = load_matroid(args.file)
    except (ExchangeAxiomError, EmptyFamilyError,
            MixedCardinalityError) as e:
        _emit(args, {"ok": False, "error": str(e)}, [str(e)])
        return 1
    _emit(args, {"ok": True, "rank": m.rank, "bases": len(m.bases),
                 "elements": m.ground.n},
          ["ok: rank %d, %d bases on %d elements"
           % (m.rank, len(m.bases), m.ground.n)])
    return 0


def cmd_facets(args):
    m = load_matroid(args.file)
    lines, rows = [], []
    for r in base_facets(m):
        comps = [_set_text(m.ground, c) for c in r.components_on_face]
        lines.append("%s rank=%d trivial=%s components=%s" % (
            _set_text(m.ground, r.flat.mask), r.rank_at_flat,
            "true" if r.trivial else "false", "|".join(comps)))
        rows.append({"flat": sorted(m.ground.labels_of(r.flat.mask)),
                     "rank": r.rank_at_flat, "trivial": bool(r.trivial),
                     "components": [sorted(m.ground.labels_of(c))
                                    for c in r.components_on_face]})
    _emit(args, rows, lines)
    return 0


def cmd_classify(args):
    m = load_matroid(args.file)
    mc = classify(m)
    _emit(args, {"class": mc.kind, "label": mc.label,
                 "witness": _witness_obj(mc.witness)},
          [mc.show()] + _witness_lines(mc.witness))
    return 0


def cmd_decompose(args):
    m = load_matroid(args.file)
    mc = classify(m, args.max_pieces)
    ws = rank3_quick_witnesses(m) if m.rank == 3 else []
    dec = mc.witness if isinstance(mc.witness, Decomposition) else None
    obj = {"class": mc.kind,
           "witnesses": [{"kind": w.kind,
                          "sets": [sorted(m.ground.labels_of(s))
                                   for s in w.sets],
                          "hyperplane": str(w.hyperplane)} for w in ws],
           "pieces": ([matroid_to_dict(p)["bases"] for p in dec.pieces]
                      if dec else []),
           "facet_pairs": [list(pr) for pr in dec.facet_pairs]
           if dec else []}
    lines = ["class: " + mc.show()]
    if ws:
        lines.append("witnesses:")
        lines.extend("  " + w.show() for w in ws)
    else:
        lines.append("witnesses: none")
    if dec is not None:
        lines.extend(dec.show().split("\n"))
    else:
        lines.append("no decomposition found")
    _emit(args, obj, lines)
    return 0 if dec is not None else 1


def cmd_order(args):
    if args.leq is not None:
        low, high = (load_matroid(p) for p in args.leq)
        res = weak_leq(low, high)
        missing = len(frozenset(low.bases) - frozenset(high.bases))
        detail = ("every base of the first system is a base of the second"
                  if res else "%d bases of the first system are not bases "
                  "of the second" % missing)
    elif args.minimal is not None:
        m = load_matroid(args.minimal)
        inc = _first_included(m)
        res = inc is None
        if res:
            detail = ("no connected simple rank-3 base system lies "
                      "strictly inside")
        else:
            detail = ("an included base system with %d bases exists"
                      % len(inc.bases))
    else:
        low, high = (load_matroid(p) for p in args.cover)
        if not (weak_leq(low, high)
                and frozenset(low.bases) != frozenset(high.bases)):
            res = False
            detail = ("the first system does not lie strictly below "
                      "the second")
        else:
            res = no_strict_intermediate_rank3(low, high)
            detail = ("nothing lies strictly between: the second covers "
                      "the first" if res
                      else "a strictly intermediate base system exists")
    _emit(args, {"result": bool(res), "detail": detail},
          ["true" if res else "false", detail])
    return 0 if res else 1


def cmd_census(args):
    pred = (neither_binary_nor_two_decomposable
            if args.filter == "neither-binary-nor-2dec" else None)
    reps = census_rank3(args.n, pred)
    lines = ["n=%d filter=%s count=%d" % (args.n, args.filter, len(reps))]
    rows = []
    for m in reps:
        fl = sorted(_set_text(m.ground, f) for f in facet_rank2_flats(m))
        lines.append("  lines: %s" % (",".join(fl) if fl else "(none)"))
        rows.append({"lines": fl})
    _emit(args, {"n": args.n, "filter": args.filter, "count": len(reps),
                 "representatives": rows}, lines)
    return 0


def cmd_verify(args):
    reports = run_all() if args.id == "all" else [run_example(args.id)]
    lines = []
    for r in reports:
        lines.extend(r.lines())
    obj = [{"id": r.example_id, "ok": r.ok,
            "checks": [{"ok": c.ok, "text": c.text} for c in r.checks],
            "notes": list(r.notes)} for r in reports]
    _emit(args, obj, lines)
    return 0 if all(r.ok for r in reports) else 1


def cmd_fmt(args):
    m = load_matroid(args.file)
    sys.stdout.write(matroid_to_json(m))
    return 0


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    p = argparse.ArgumentParser(
        prog="matbase",
        description="facets, weak-map order, and polytopal decompositions "
                    "of matroid base systems")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("axioms", parents=[common],
                       help="check the basis exchange axiom on a file")
    q.add_argument("file")
    q.set_defaults(func=cmd_axioms)

    q = sub.add_parser("facets", parents=[common],
                       help="list the facets of a base system")
    q.add_argument("file")
    q.set_defaults(func=cmd_facets)

    q = sub.add_parser("classify", parents=[common],
                       help="five-type verdict with witness")
    q.add_argument("file")
    q.set_defaults(func=cmd_classify)

    q = sub.add_parser("decompose", parents=[common],
                       help="find a polytopal decomposition")
    q.add_argument("file")
    q.add_argument("--max-pieces", type=int, default=16, metavar="N",
                   help="cap on the piece-set search, at least 2 (default 16)")
    q.set_defaults(func=cmd_decompose)

    q = sub.add_parser("order", parents=[common],
                       help="weak-map order queries")
    mode = q.add_mutually_exclusive_group(required=True)
    mode.add_argument("--leq", nargs=2, metavar=("LOW", "HIGH"),
                      help="is the first base system contained in the second")
    mode.add_argument("--minimal", metavar="FILE",
                      help="is the system weak-map minimal among "
                           "connected simple rank-3 systems")
    mode.add_argument("--cover", nargs=2, metavar=("LOW", "HIGH"),
                      help="does the second system cover the first")
    q.set_defaults(func=cmd_order)

    q = sub.add_parser("census", parents=[common],
                       help="connected simple rank-3 matroids up to "
                            "isomorphism")
    q.add_argument("n", type=int)
    q.add_argument("--filter", default="all",
                   choices=("all", "neither-binary-nor-2dec"))
    q.set_defaults(func=cmd_census)

    q = sub.add_parser("verify", parents=[common],
                       help="re-derive the bundled fixtures")
    q.add_argument("id", choices=SUITE_IDS + ("all",))
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("fmt", help="rewrite a matroid file in canonical form")
    q.add_argument("file")
    q.set_defaults(func=cmd_fmt)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InconclusiveError as e:
        print(str(e), file=sys.stderr)
        return 4
    except MatbaseError as e:
        print(str(e), file=sys.stderr)
        return 2
    except OSError as e:
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
