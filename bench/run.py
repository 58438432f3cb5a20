#!/usr/bin/env python3
"""matbase benchmark: one workload per run, on one thread, closed loop.

    python3 bench/run.py --workload census-classify --seed 1 --seconds 10 --trace 0

A run repeats whole rounds of the workload's operations until --seconds
have passed (at least one round); each operation starts when the
previous one returns.  Every operation parses its input text with
matbase.io.matroid_from_json and builds fresh Matroid objects, so no
derived data carries over between operations or rounds.  --seed relabels
the ground set of every input before the program sees it.

Outputs are checked against the oracles in oracles.py after the timed
phase.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.  With --trace 0 the metrics are end to end: wall_s
(median round time), setup_s (median time of a fresh process up to the
first timed operation) and peak_rss_mb.  With --trace 1 the public
layer functions are wrapped in spans and the metrics are per layer;
spans go to bench/results/trace-<workload>-seed<seed>.json.
"""

import argparse
import functools
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
INPUTS = HERE / "inputs"
RESULTS = HERE / "results"
SETUP_PROBES = 11


# ------------------------------------------------------------------ inputs

def import_matbase():
    """matbase from this checkout's src, never an installed copy."""
    if not (SRC / "matbase" / "__init__.py").is_file():
        raise SystemExit("bench: no matbase sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import matbase
    if Path(matbase.__file__).resolve().parent != (SRC / "matbase").resolve():
        raise SystemExit("bench: imported matbase from %s" % matbase.__file__)
    return matbase


def read_lines(name):
    with open(INPUTS / name, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line]


def shuffled(text, rng):
    """A random permutation of the ground labels of an input, as a map."""
    ground = json.loads(text)["ground"]
    perm = list(ground)
    rng.shuffle(perm)
    return dict(zip(ground, perm))


def relabel(text, image):
    """The same matroid with its elements renamed by image: the ground
    list keeps its order and every set is renamed element by element."""
    data = json.loads(text)
    pos = {lab: i for i, lab in enumerate(data["ground"])}

    def move(labels):
        return sorted((image[x] for x in labels), key=pos.__getitem__)

    if "bases" in data:
        data["bases"] = sorted((move(b) for b in data["bases"]),
                               key=lambda b: [pos[x] for x in b])
    else:
        data["flats"] = [{"set": move(f["set"]), "rank": f["rank"]}
                         for f in data["flats"]]
    return json.dumps(data)


class Item:
    """One input matroid, read without the program: its label positions
    and base family, for the checks."""

    def __init__(self, text):
        data = json.loads(text)
        self.n = len(data["ground"])
        self.pos = {lab: i for i, lab in enumerate(data["ground"])}
        if "bases" in data:
            self.family = frozenset(self.mask(b) for b in data["bases"])
        else:
            self.family = oracles.family_from_flats(
                self.n, data["rank"],
                [(self.mask(f["set"]), f["rank"]) for f in data["flats"]])

    def mask(self, labels):
        return oracles.mask_of(self.pos[x] for x in labels)

    def family_of(self, m):
        """Base family of a program matroid, re-read through its labels."""
        return frozenset(self.mask(m.ground.labels_of(b)) for b in m.bases.masks)


def load_inputs(workload, seed):
    """The workload's inputs, each relabelled by a permutation drawn from
    the seed; matroids that are compared share one permutation."""
    rng = random.Random(seed)
    if workload == "census":
        return {}
    if workload == "census-classify":
        return {"classes": [(n, [relabel(t, shuffled(t, rng)) for t in read_lines(
            "census-n%d.jsonl" % n)]) for n in (6, 7, 8)]}
    if workload == "lucascon":
        m1, m2 = read_lines("lucascon.jsonl")
        image = shuffled(m1, rng)
        return {"M1": relabel(m1, image), "M2": relabel(m2, image)}
    if workload == "dual-split":
        out = []
        for n in (7, 8):
            for prim, dual in zip(read_lines("census-n%d.jsonl" % n),
                                  read_lines("duals-n%d.jsonl" % n)):
                image = shuffled(prim, rng)
                out.append((n, relabel(prim, image), relabel(dual, image)))
        return {"pairs": out}
    raise SystemExit("bench: unknown workload %r" % workload)


# -------------------------------------------------------------- operations
#
# Each workload is a list of (name, thunk) operations and a check over one
# round of outputs.  Summaries are plain data, compared between rounds: the
# first round is checked, and a later one must repeat it exactly.

def ops_for(workload, mb, inp):
    parse = mb.matroid_from_json
    if workload == "census":
        return [("census_rank3(%d)" % n, functools.partial(mb.census_rank3, n))
                for n in range(4, 9)]
    if workload == "census-classify":
        return [("classify n%d#%d" % (n, k),
                 lambda t=t: mb.classify(parse(t)))
                for n, texts in inp["classes"] for k, t in enumerate(texts)]
    if workload == "lucascon":
        m1, m2 = inp["M1"], inp["M2"]
        return [
            ("base_facets(M1)", lambda: mb.base_facets(parse(m1))),
            ("classify(M1)", lambda: mb.classify(parse(m1))),
            ("weak_leq(M2,M1)", lambda: mb.weak_leq(parse(m2), parse(m1))),
            ("no_strict_intermediate_rank3(M2,M1)",
             lambda: mb.no_strict_intermediate_rank3(parse(m2), parse(m1))),
        ]
    if workload == "dual-split":
        out = []
        for k, (_, _, dual) in enumerate(inp["pairs"]):
            out.append(("two_decompose(dual#%d)" % k,
                        lambda t=dual: mb.two_decompose(parse(t))))
            out.append(("base_facets(dual#%d)" % k,
                        lambda t=dual: mb.base_facets(parse(t))))
        return out
    raise SystemExit("bench: unknown workload %r" % workload)


def summary(out):
    """Hashable plain-data image of an operation's output."""
    if isinstance(out, (bool, type(None))):
        return out
    if isinstance(out, (list, tuple)):
        return tuple(summary(x) for x in out)
    kind = type(out).__name__
    if kind == "Matroid":
        return (out.ground.labels, tuple(out.bases.masks))
    if kind == "MatroidClass":
        return (out.kind, summary(out.witness))
    if kind == "Decomposition":
        return summary(list(out.pieces))
    if kind == "FacetReport":
        return (out.flat.mask, out.rank_at_flat)
    if kind == "LinearConstraint":
        return (out.support, out.dir, out.bound)
    raise TypeError("no summary for %s" % kind)


class Checker:
    """Collects failures: operation indices and a message for each."""

    def __init__(self, outs):
        self.outs = outs
        self.bad = {}

    def expect(self, ok, k, msg):
        if not ok:
            self.bad.setdefault(k, msg)

    def run(self, k, check, *args):
        """check(self, k, *args), unless operation k raised; a check that
        raises on a malformed output fails the operation."""
        if isinstance(self.outs[k], Exception):
            return
        try:
            check(self, k, *args)
        except Exception as exc:  # the output did not have the checked shape
            self.expect(False, k, "check raised %r" % exc)


def check_verdict(ck, k, item, verdict):
    """A classify verdict against the oracles, by kind."""
    fam, n = item.family, item.n
    ck.expect(verdict.kind in "abcde" and len(verdict.kind) == 1, k,
              "unknown kind %r" % verdict.kind)
    ck.expect((verdict.kind == "a") == oracles.embeds_in_pg(n, fam), k,
              "kind %s disagrees with the PG(2,2) embedding test" % verdict.kind)
    if verdict.kind in "de":
        ck.expect(verdict.witness is not None, k, "no decomposition witness")
        pieces = [item.family_of(p) for p in getattr(verdict.witness, "pieces", ())]
        ck.expect(frozenset().union(*pieces) == fam, k,
                  "the pieces do not cover the base family")
        ck.expect(all(oracles.exchange_ok(p) for p in pieces), k,
                  "a piece fails the exchange axiom")
        if verdict.kind == "e":
            ck.expect(len(pieces) == 2, k, "a 2-split with %d pieces" % len(pieces))
    if verdict.kind != "e":
        ck.expect(oracles.first_split(n, fam) is None, k,
                  "kind %s, yet a hyperplane splits B(M)" % verdict.kind)
    if verdict.kind == "c":
        sub = item.family_of(verdict.witness)
        ck.expect(sub < fam and oracles.exchange_ok(sub)
                  and oracles.is_connected(n, sub), k,
                  "the (c) witness is no connected base system inside B(M)")


def check_facets(ck, k, item, reports):
    """Reported inequalities cut out exactly the facets, one each."""
    faces = []
    for rep in reports:
        amask = item.mask(rep.flat.ground.labels_of(rep.flat.mask))
        face = oracles.tight_family(item.family, amask)
        ck.expect(max((b & amask).bit_count() for b in item.family)
                  == rep.rank_at_flat, k, "a facet bound is not r(A)")
        faces.append(face)
    ck.expect(len(set(faces)) == len(faces)
              and set(faces) == oracles.facet_faces(item.n, item.family), k,
              "the reported inequalities are not the facets, one each")


# census: simple rank-3 counts of Mayhew & Royle minus the one
# disconnected class, an (n-1)-point line plus a point
CENSUS_COUNTS = {4: 1, 5: 3, 6: 8, 7: 22, 8: 67}
# classes neither binary nor 2-decomposable, as the paper counts them
NEITHER_COUNTS = {6: 0, 7: 2, 8: 5}


def check_census(ck, k, n, classes):
    ck.expect(len(classes) == CENSUS_COUNTS[n], k,
              "%d classes, expected %d" % (len(classes), CENSUS_COUNTS[n]))
    structures = []
    for m in classes:
        fam = frozenset(m.bases.masks)
        ck.expect(m.ground.n == n and all(b.bit_count() == 3 for b in fam)
                  and oracles.is_connected(n, fam) and oracles.is_simple(n, fam),
                  k, "a class is not connected, simple and of rank 3")
        structures.append((n, oracles.long_lines(n, fam)))
    ck.expect(not oracles.isomorphic_pairs(structures), k,
              "two classes are isomorphic")


def check_weak_leq(ck, k, m1, m2, leq):
    ck.expect(leq is True and m2.family < m1.family, k,
              "B(M2) is not a proper subset of B(M1)")


def check_cover(ck, k, m1, m2, cover):
    ck.expect(cover is True, k, "no cover found")
    ck.expect(all(face != m2.family
                  for _, face in oracles.tight_families(m1.n, m1.family)),
              k, "B(M2) is a face of B(M1)")


def check_dual_split(ck, k, m, d, split):
    full = (1 << m.n) - 1
    ck.expect(d.family == frozenset(full ^ b for b in m.family), k,
              "the dual input is not the complement family")
    # x -> 1 - x maps B(M) onto B(M*), so one splits iff the other does
    ck.expect((split is None) == (oracles.first_split(m.n, m.family) is None),
              k, "M* splits but M does not, or the other way round")
    if split is not None:
        hyp, low, up = split
        halves = oracles.split_halves(
            d.family, d.mask(hyp.ground.labels_of(hyp.support)), hyp.bound)
        ck.expect(halves == (d.family_of(low), d.family_of(up))
                  and all(oracles.exchange_ok(h) for h in halves),
                  k, "the split halves are wrong")


def check_dual_facets(ck, k, mb, prim, d, reports):
    check_facets(ck, k, d, reports)
    primal = mb.base_facets(mb.matroid_from_json(prim))
    ck.expect(len(reports) == len(primal), k,
              "M* has %d facets, M has %d" % (len(reports), len(primal)))


def check_round(workload, mb, inp, outs):
    """Check one round of outputs; returns {op index: message}."""
    ck = Checker(outs)
    if workload == "census":
        for k, n in enumerate(range(4, 9)):
            ck.run(k, check_census, n, outs[k])
    elif workload == "census-classify":
        items = [(n, Item(t)) for n, texts in inp["classes"]
                 for t in texts]
        for k, (_, item) in enumerate(items):
            ck.run(k, check_verdict, item, outs[k])
        for n, want in NEITHER_COUNTS.items():
            ks = [k for k, (m, _) in enumerate(items) if m == n]
            if any(isinstance(outs[k], Exception) for k in ks):
                continue
            got = sum(outs[k].kind not in "ae" for k in ks)
            for k in ks:
                ck.expect(got == want, k,
                          "n=%d: %d classes neither (a) nor (e), expected %d"
                          % (n, got, want))
    elif workload == "lucascon":
        m1, m2 = Item(inp["M1"]), Item(inp["M2"])
        ck.run(0, check_facets, m1, outs[0])
        ck.run(1, check_verdict, m1, outs[1])
        ck.run(2, check_weak_leq, m1, m2, outs[2])
        ck.run(3, check_cover, m1, m2, outs[3])
    elif workload == "dual-split":
        for j, (n, prim, dual) in enumerate(inp["pairs"]):
            m, d = Item(prim), Item(dual)
            ck.run(2 * j, check_dual_split, m, d, outs[2 * j])
            ck.run(2 * j + 1, check_dual_facets, mb, prim, d, outs[2 * j + 1])
    return ck.bad


# ----------------------------------------------------------------- tracing

# public layer functions, by module; generators get one span per resume
LAYERS = {
    "io": ("matroid_from_json",),
    "facets": ("is_facet_defining_base", "base_facets"),
    "rank3": ("facet_rank2_flats", "search_profiles"),
    "order": ("enumerate_included_rank3", "no_strict_intermediate_rank3"),
    "decomp": ("two_decompose", "three_partitions",
               "find_decomposition_rank3", "verify_decomposition"),
    "census": ("iter_line_families",),
}
GENERATORS = {"rank3.search_profiles", "census.iter_line_families"}


class Tracer:
    """Spans [name, start, end, parent index] and counters, in memory."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.counts = Counter()

    def enter(self, name):
        self.spans.append([name, time.perf_counter(), None, self.stack[-1]])
        self.stack.append(len(self.spans) - 1)

    def exit(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()


def _span(tr, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.exit()
        if name == "decomp.two_decompose" and out is not None:
            tr.counts["decomp.two_decompose.splits"] += 1
        return out
    return wrapper


def _gen_span(tr, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            tr.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tr.exit()
            tr.counts[name + ".yields"] += 1
            yield item
    return wrapper


def install_tracing(mb, tr):
    """Wrap every layer function in every matbase namespace that binds it,
    and the Matroid constructor for untrusted families."""
    wrapped = {}
    for mod, names in LAYERS.items():
        module = sys.modules["matbase." + mod]
        for name in names:
            fn = getattr(module, name)
            span = "%s.%s" % (mod, name)
            make = _gen_span if span in GENERATORS else _span
            wrapped[id(fn)] = (fn, make(tr, span, fn))
    for modname, module in list(sys.modules.items()):
        if modname != "matbase" and not modname.startswith("matbase."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    cls = mb.Matroid
    init = cls.__init__

    def checked_init(self, ground, masks, trusted=False):
        if trusted:
            init(self, ground, masks, trusted)
            return
        tr.enter("matroid.exchange_check")
        try:
            init(self, ground, masks, trusted)
        finally:
            tr.exit()
        tr.counts["matroid.exchange_check.accepted"] += 1

    cls.__init__ = checked_init
    for meth in ("find_u24_minor", "flats"):
        setattr(cls, meth, _span(tr, "matroid." + meth, getattr(cls, meth)))


def self_times(spans, offset):
    """(name -> summed self time, name -> span count) over spans whose
    parent indices count from offset; a parent of -1 is the top."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent - offset] += end - start
    selfs, calls = Counter(), Counter()
    for (name, start, end, _), cov in zip(spans, covered):
        selfs[name] += end - start - cov
        calls[name] += 1
    return selfs, calls


def layer_metrics(spans, offset, counts):
    """Per-layer metrics of one traced round."""
    selfs, calls = self_times(spans, offset)

    def ratio(a, b):
        return a / b if b else 0.0

    gen_total = sum(e - s for name, s, e, _ in spans
                    if name == "census.iter_line_families")
    return {
        "matroid.exchange_check.calls": calls["matroid.exchange_check"],
        "matroid.exchange_check.self_s": selfs["matroid.exchange_check"],
        "matroid.exchange_check.accept_ratio": ratio(
            counts["matroid.exchange_check.accepted"],
            calls["matroid.exchange_check"]),
        "matroid.find_u24_minor.self_s": selfs["matroid.find_u24_minor"],
        "matroid.flats.self_s": selfs["matroid.flats"],
        "facets.is_facet_defining_base.calls": calls["facets.is_facet_defining_base"],
        "facets.is_facet_defining_base.self_s": selfs["facets.is_facet_defining_base"],
        "facets.base_facets.self_s": selfs["facets.base_facets"],
        "rank3.facet_rank2_flats.calls": calls["rank3.facet_rank2_flats"],
        "rank3.facet_rank2_flats.self_s": selfs["rank3.facet_rank2_flats"],
        "rank3.search_profiles.profiles": counts["rank3.search_profiles.yields"],
        "rank3.search_profiles.self_s": selfs["rank3.search_profiles"],
        "order.enumerate_included_rank3.self_s": selfs["order.enumerate_included_rank3"],
        "order.no_strict_intermediate_rank3.self_s":
            selfs["order.no_strict_intermediate_rank3"],
        "decomp.two_decompose.calls": calls["decomp.two_decompose"],
        "decomp.two_decompose.self_s": selfs["decomp.two_decompose"],
        "decomp.two_decompose.split_ratio": ratio(
            counts["decomp.two_decompose.splits"], calls["decomp.two_decompose"]),
        "decomp.three_partitions.self_s": selfs["decomp.three_partitions"],
        "decomp.find_decomposition_rank3.self_s":
            selfs["decomp.find_decomposition_rank3"],
        "decomp.verify_decomposition.self_s": selfs["decomp.verify_decomposition"],
        "census.iter_line_families.self_s": selfs["census.iter_line_families"],
        "census.classes_per_s": ratio(
            counts["census.iter_line_families.yields"], gen_total),
        "io.matroid_from_json.self_s": selfs["io.matroid_from_json"],
    }


# -------------------------------------------------------------------- runs

def run_rounds(ops, seconds, tracer=None):
    """Whole rounds until the time is up.  Returns the round times, the
    first round's outputs, per-round summaries, per-round layer metrics
    (traced runs only) and the peak RSS in MB through the first round,
    which does not depend on how many rounds fit."""
    times, sums, layers, first = [], [], [], None
    start = time.perf_counter()
    while True:
        if tracer is not None:
            span0, counts0 = len(tracer.spans), Counter(tracer.counts)
        outs = []
        t0 = time.perf_counter()
        for name, thunk in ops:
            try:
                outs.append(thunk())
            except Exception as exc:  # a raising operation counts as failed
                outs.append(exc)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            layers.append(layer_metrics(tracer.spans[span0:], span0,
                                        tracer.counts - counts0))
        if first is None:
            first = outs
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sums.append([o if isinstance(o, Exception) else summary(o)
                     for o in outs])
        if time.perf_counter() - start >= seconds:
            return times, first, sums, layers, rss_mb


def monotonic():
    """A clock that processes on one host share (CLOCK_MONOTONIC)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_probe_times(args):
    """Times of fresh processes that import matbase and read the inputs,
    each from its spawn to where the first timed operation would start;
    the probe reports its own time, so its teardown is left out."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(cmd + ["--setup-since", repr(monotonic())],
                               check=True, stdout=subprocess.PIPE, text=True)
        out.append(float(probe.stdout.split()[-1]))
    return out


def declared_metrics(kind):
    """name -> unit of the metrics BENCHMARK.json declares of a kind."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("census", "census-classify", "lucascon", "dual-split"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-since", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    mb = import_matbase()
    inp = load_inputs(args.workload, args.seed)
    if args.setup_since is not None:
        ops_for(args.workload, mb, inp)
        print(repr(monotonic() - args.setup_since))
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracing(mb, tracer)
    ops = ops_for(args.workload, mb, inp)
    setup = None if args.trace else setup_probe_times(args)
    times, first, sums, layers, rss_mb = run_rounds(ops, args.seconds, tracer)
    if tracer is not None:
        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / ("trace-%s-seed%d.json" % (args.workload, args.seed)),
                  "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
        tracer.spans.clear()

    bad = {k: "raised %r" % o for k, o in enumerate(first)
           if isinstance(o, Exception)}
    bad.update((k, msg) for k, msg in check_round(
        args.workload, mb, inp, first).items() if k not in bad)
    # a later round is checked against the first: the same input must give
    # the same output, so an operation that raised or whose output changed
    # has failed
    base, failed = set(bad), 0
    for r, s in enumerate(sums, start=1):
        raised = {k for k, a in enumerate(s) if isinstance(a, Exception)}
        changed = {k for k, (a, b) in enumerate(zip(s, sums[0]))
                   if k not in raised and a != b}
        for k in raised:
            bad.setdefault(k, "raised in round %d: %r" % (r, s[k]))
        for k in changed:
            bad.setdefault(k, "output of round %d differs from round 1" % r)
        failed += len(base | raised | changed)
    for k, msg in sorted(bad.items()):
        print("FAILED %s: %s" % (ops[k][0], msg), file=sys.stderr)
    correct = all(msg.startswith("raised") for msg in bad.values())

    if args.trace:
        # counts repeat exactly in every round; the low median keeps them whole
        values = {name: statistics.median_low(lay[name] for lay in layers)
                  for name in layers[0]}
        values["trace.wall_s"] = statistics.median(times)
        units = declared_metrics("per_layer")
    else:
        values = {"wall_s": statistics.median(times),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": rss_mb}
        units = declared_metrics("end_to_end")
    if set(units) != set(values):
        raise SystemExit("bench: metrics differ from BENCHMARK.json: %s"
                         % sorted(set(units) ^ set(values)))
    metrics = {name: {"value": values[name] if units[name] == "count"
                      else float(values[name]), "unit": units[name]}
               for name in units}
    for name, m in metrics.items():
        print("%-44s %14.6f %s" % (name, m["value"], m["unit"]))
    print("%s: %d rounds, %d operations, %d failed" % (
        args.workload, len(times), len(ops) * len(times), failed))
    result = {"correct": correct, "attempted": len(ops) * len(times),
              "failed": failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                     args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
