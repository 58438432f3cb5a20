"""Re-derivation suites for the bundled fixtures.

Each suite recomputes the published structure of one fixture from
scratch, one line per checked fact; the overall verdict is the
conjunction.  Output is deterministic text, identical across runs.
"""

from dataclasses import dataclass

from .setfam import LinearConstraint, family_from_constraints, ksubsets
from .facets import (base_dimension, base_facets, check_intersecting_submodularity,
                     face_split, is_facet_defining_base, is_facet_defining_ind)
from .order import (enumerate_included_rank3, is_weak_minimal_rank3,
                    no_strict_intermediate_rank3, weak_leq)
from .rank3 import InclusionConstraints, facet_rank2_flats, propagate
from .decomp import (_half_matroid, classify, facet_graph,
                     find_decomposition_rank3, rank3_quick_witnesses,
                     rank3_two_decomposable_by, three_partitions,
                     two_decompose)
from .examples import get_example


@dataclass(frozen=True)
class Check:
    ok: bool
    text: str


@dataclass(frozen=True)
class ExampleReport:
    example_id: str
    checks: tuple
    notes: tuple = ()

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def lines(self):
        out = ["== %s ==" % self.example_id]
        for c in self.checks:
            out.append("%s %s" % ("ok  " if c.ok else "FAIL", c.text))
        for note in self.notes:
            out.append("note %s" % note)
        out.append("-- %s: %s" % (self.example_id, "pass" if self.ok else "FAIL"))
        return out


def _fam(m):
    return frozenset(m.bases)


def _side(m, support, bound, ge=False):
    """Members of B(m) on one closed side of (support, bound)."""
    amask = m.ground.mask(support)
    if ge:
        return frozenset(b for b in m.bases
                         if (b & amask).bit_count() >= bound)
    return frozenset(b for b in m.bases if (b & amask).bit_count() <= bound)


def _suite_m2(ex):
    m = ex["M"]
    g = m.ground
    ck = []
    expect = frozenset(t for t in ksubsets(g.full_mask, 3)
                       if t not in (g.mask("abc"), g.mask("cde")))
    ck.append(Check(_fam(m) == expect and len(expect) == 8,
                    "base family is the 8 triples outside abc and cde"))
    table = {(g.show(r.flat.mask), r.rank_at_flat, r.trivial)
             for r in base_facets(m)}
    want = {("abc", 2, False), ("cde", 2, False), ("abde", 3, True),
            ("a", 1, True), ("b", 1, True), ("d", 1, True), ("e", 1, True)}
    ck.append(Check(table == want,
                    "facet table: non-trivial abc, cde; trivial abde and "
                    "singletons a, b, d, e"))
    rep = is_facet_defining_base(m, "abc")
    ck.append(Check(rep.facet_of_base
                    and tuple(g.show(c) for c in rep.components_on_face)
                    == ("abc", "de"),
                    "(abc,2)= cuts a facet with components abc | de"))
    res, con = face_split(m, "abc")
    ck.append(Check(len(res.bases) == 3 and res.rank == 2
                    and len(con.bases) == 2 and con.rank == 1,
                    "facet factors: all pairs of abc times a point of de"))
    ck.append(Check(base_dimension(res.direct_sum(con)) == 3,
                    "facet dimension 3 = 5 - 2 components"))
    return ck


def _suite_csmis(ex):
    m = ex["M"]
    g = m.ground
    ck = []
    ck.append(Check(m.rank_of(g.mask("ab")) == 1, "r(ab) = 1: a, b parallel"))
    ck.append(Check(is_facet_defining_ind(m, "ab"),
                    "(ab,1)= cuts a facet of the independence system"))
    rep = is_facet_defining_base(m, "ab")
    ck.append(Check(not rep.facet_of_base and len(rep.components_on_face) == 3,
                    "(ab,1)= is no facet of the base system: 3 components"))
    ds = face_split(m, "ab")[0].direct_sum(face_split(m, "ab")[1])
    ck.append(Check(len(ds.connected_components()) == 3,
                    "face factors' direct sum has 3 components"))
    dual = m.dual()
    dual_expect = family_from_constraints(g, [
        LinearConstraint.parse(g, "{a,b,c,d,e,f}==3"),
        LinearConstraint.parse(g, "{c,d}<=1"),
        LinearConstraint.parse(g, "{e,f}<=1")])
    ck.append(Check(_fam(dual) == frozenset(dual_expect.masks),
                    "dual bases cut out by (cd,1) and (ef,1)"))
    simple, relabel = m.simplify()
    ck.append(Check(simple.ground.n == 5 and relabel["b"] == relabel["a"],
                    "simplification merges a with b: 5 elements"))
    verdict = check_intersecting_submodularity(
        g, [("abcd", 2), ("abef", 2), (g.full_mask, 3)])
    ck.append(Check(verdict is not True
                    and [(pair[0].mask, pair[1]) for pair in verdict]
                    == [(g.mask("abcd"), 2), (g.mask("abef"), 2)],
                    "constraint pair abcd, abef fails intersecting "
                    "submodularity at ab"))
    return ck


def _suite_2decomp(ex):
    m, m1, m2 = ex["M"], ex["M1"], ex["M2"]
    g = m.ground
    ck = []
    fam = family_from_constraints(g, [
        LinearConstraint.parse(g, "{a,b,c,d,e}==3"),
        LinearConstraint.parse(g, "{a,b,c}<=2"),
        LinearConstraint.parse(g, "{c,d,e}<=2")])
    ck.append(Check(frozenset(fam.masks) == _fam(m1) and len(fam.masks) == 8,
                    "(abc,2) and (cde,2) carve the 8 bases of the lower piece"))
    c_ab = LinearConstraint.parse(g, "{a,b}<=1")
    c_abc = LinearConstraint.parse(g, "{a,b,c}<=2")
    ck.append(Check(c_ab.implies(c_abc), "(ab,1)<= implies (abc,2)<="))
    comp = LinearConstraint.parse(g, "{c,d,e}<=2").complement_form(3)
    ck.append(Check(comp == LinearConstraint(g, g.mask("ab"), ">=", 1),
                    "(cde,2)<= rewrites to (ab,1)>= on rank-3 members"))
    got = two_decompose(m)
    ck.append(Check(got is not None, "a splitting hyperplane exists"))
    if got is not None:
        hy, p1, p2 = got
        ck.append(Check(hy == LinearConstraint(g, g.mask("cde"), "==", 2),
                        "the split is (cde,2)="))
        ck.append(Check(_fam(p1) == _fam(m1) and _fam(p2) == _fam(m2),
                        "pieces match the two displayed base systems"))
        cross = _side(m, "cde", 2) & _side(m, "cde", 2, ge=True)
        ck.append(Check(_half_matroid(g, cross) is not None
                        and cross == _fam(m1) & _fam(m2),
                        "cross-section family is itself a base system"))
    ck.append(Check(check_intersecting_submodularity(
        g, [("abc", 2), ("cde", 2), (g.full_mask, 3)]) is True,
        "this constraint pair passes intersecting submodularity"))
    return ck


def _suite_twopoints(ex):
    m, m1, m2 = ex["M"], ex["M1"], ex["M2"]
    g = m.ground
    ck = []
    ck.append(Check(sorted(g.show(f) for f in facet_rank2_flats(m))
                    == ["abc", "cdef"], "facet rank-2 flats are abc, cdef"))
    twins = {g.show(w.sets[0]) for w in rank3_quick_witnesses(m)
             if w.kind == "twins"}
    ck.append(Check("ef" in twins, "e, f are twins outside every facet flat"))
    ck.append(Check(twins == {"de", "df", "ef"},
                    "d, e, f are pairwise twins; no other pair qualifies"))
    ck.append(Check(rank3_two_decomposable_by(m, "abcd"),
                    "the twin pair splits the system by (abcd,2)="))
    ck.append(Check(_side(m, "abcd", 2, ge=True) == _fam(m1),
                    "lower (ef,1) side equals the displayed piece"))
    ck.append(Check(_side(m, "abcd", 2) == _fam(m2),
                    "upper side equals the displayed piece"))
    return ck


def _suite_triangle(ex):
    m, m1, m2 = ex["M"], ex["M1"], ex["M2"]
    g = m.ground
    ck = []
    tri = {g.show(w.sets[0]) for w in rank3_quick_witnesses(m)
           if w.kind == "triangle"}
    ck.append(Check("bdf" in tri,
                    "b, d, f form a 3-cycle of pairs inside no facet flat"))
    ck.append(Check(rank3_two_decomposable_by(m, "bdf"),
                    "the 3-cycle splits the system by (bdf,2)="))
    ck.append(Check(_side(m, "bdf", 2) == _fam(m1),
                    "lower side equals the displayed piece"))
    ck.append(Check(_side(m, "bdf", 2, ge=True) == _fam(m2),
                    "upper side equals the corrected second piece"))
    return ck


def _suite_notall(ex):
    m = ex["M"]
    g = m.ground
    ck = []
    ws = rank3_quick_witnesses(m)
    kinds = {w.kind for w in ws}
    ck.append(Check("twins" not in kinds and "triangle" not in kinds,
                    "neither the twin nor the 3-cycle pattern applies"))
    ck.append(Check(any(w.kind == "flat-plus-point"
                        and g.show(w.sets[0]) == "ade"
                        and g.show(w.sets[1]) == "h" for w in ws),
                    "flat ade plus the isolated point h is a witness"))
    ck.append(Check(rank3_two_decomposable_by(m, "adeh"),
                    "the witness splits the system by (adeh,2)="))
    return ck


def _suite_twelve(ex):
    m = ex["M"]
    g = m.ground
    ck = []
    ck.append(Check(m.ground.n == 12 and m.is_connected()
                    and not m.loops(), "12 points, connected, simple"))
    ck.append(Check(rank3_two_decomposable_by(m, "efghl"),
                    "2-decomposable by (efghl,2)="))
    ws = rank3_quick_witnesses(m)
    ck.append(Check(not any(w.kind in ("twins", "triangle") for w in ws),
                    "twin and 3-cycle patterns find nothing"))
    ck.append(Check([(g.show(w.sets[0]), g.show(w.sets[1])) for w in ws]
                    == [("ijl", "k")],
                    "flat ijl plus the isolated point k is the lone "
                    "quick witness"))
    ck.append(Check(rank3_two_decomposable_by(m, "ijkl"),
                    "that witness also splits the system, by (ijkl,2)="))
    return ck


def _suite_seven_typed(ex):
    m = ex["M"]
    g = m.ground
    ck = []
    wit = m.find_u24_minor()
    ok_minor = False
    if wit is not None:
        four, cmask = wit
        mc = m.contract(cmask)
        minor = mc.restrict(mc.ground.mask(g.labels_of(four)))
        ok_minor = (minor.ground.n == 4 and minor.rank == 2
                    and len(minor.bases) == 6)
    ck.append(Check(ok_minor, "not binary: a four-point-line minor exists"))
    ck.append(Check(two_decompose(m) is None,
                    "no single hyperplane splits the system"))
    names = ("M1", "M2", "M3", "M4")
    dec = find_decomposition_rank3(m)
    ok_pieces = False
    pair_names = set()
    if dec is not None:
        by_name = {}
        for k, p in enumerate(dec.pieces):
            for nm in names:
                if _fam(ex[nm]) == _fam(p):
                    by_name[k] = nm
        ok_pieces = len(dec.pieces) == 4 and sorted(by_name) == [0, 1, 2, 3]
        pair_names = {tuple(sorted((by_name[i], by_name[j])))
                      for i, j in dec.facet_pairs} if ok_pieces else set()
    ck.append(Check(ok_pieces, "decomposes into the four displayed pieces"))
    ck.append(Check(pair_names == {("M1", "M2"), ("M1", "M3"), ("M1", "M4"),
                                   ("M2", "M3"), ("M2", "M4")},
                    "common facets glue exactly the five displayed pairs"))
    ck.append(Check(("M3", "M4") not in pair_names,
                    "the last two pieces share no facet"))
    ck.append(Check(_fam(ex["M1"]) & _fam(ex["M2"]) == _fam(ex["M12"]),
                    "the first two pieces meet in the displayed base system"))
    ck.append(Check(all(weak_leq(ex[nm], m) for nm in names),
                    "every piece sits below the whole in the weak-map order"))
    ck.append(Check(len(three_partitions(m)) > 0, "a 3-partition exists"))
    ck.append(Check(classify(m).kind == "d",
                    "class (d): decomposable, not 2-decomposable"))
    return ck


def _suite_minimal(ex):
    m = ex["M"]
    ck = []
    ck.append(Check(m.find_u24_minor() is not None, "not binary"))
    ck.append(Check(two_decompose(m) is None, "not 2-decomposable"))
    ck.append(Check(three_partitions(m) == [], "no 3-partition"))
    ck.append(Check(find_decomposition_rank3(m) is None, "no decomposition"))
    ck.append(Check(enumerate_included_rank3(m) == []
                    and is_weak_minimal_rank3(m),
                    "no properly included base system: weak-map minimal"))
    ck.append(Check(classify(m).kind == "b", "class (b): minimal non-binary"))
    return ck


def _suite_nonminimal(ex):
    m, m1 = ex["M"], ex["M1"]
    ck = []
    ck.append(Check(weak_leq(m1, m) and _fam(m1) != _fam(m),
                    "the displayed system is properly included"))
    ck.append(Check(find_decomposition_rank3(m) is None, "no decomposition"))
    ck.append(Check(classify(m).kind == "c",
                    "class (c): non-minimal yet indecomposable"))
    return ck


def _suite_lucascon(ex):
    m1, m2 = ex["M1"], ex["M2"]
    g = m1.ground
    ck = []
    flats2 = facet_rank2_flats(m1)
    ck.append(Check(m1.is_connected() and m1.rank == 3 and len(flats2) == 15,
                    "11 points, connected, rank 3, 15 facet rank-2 flats"))
    ck.append(Check(all((f1 & f2).bit_count() <= 1
                        for i, f1 in enumerate(flats2)
                        for f2 in flats2[i + 1:]),
                    "facet rank-2 flats pairwise meet in at most one point"))
    ck.append(Check(weak_leq(m2, m1) and _fam(m2) != _fam(m1),
                    "the candidate sits strictly below in the weak-map order"))
    not_facet = all(
        frozenset(b for b in m1.bases
                  if (b & rep.flat.mask).bit_count() == rep.rank_at_flat)
        != _fam(m2)
        for rep in base_facets(m1))
    ck.append(Check(not_facet, "the candidate is no facet of the upper system"))
    gr = facet_graph(m1, "abcd", "efghijk")
    ck.append(Check(sorted(g.show(e) for e in gr.edges)
                    == ["eg", "eh", "fg", "ij"],
                    "facet graph on the complement has edges eg, eh, fg, ij"))
    ck.append(Check(sorted(g.show(c) for c in gr.components)
                    == ["efgh", "ij", "k"],
                    "its components are efgh, ij and the isolated k"))
    fix = propagate(m1, InclusionConstraints.of(
        g, require_facet=["{a,b,c,d}<=1"]))
    ck.append(Check(
        [g.show(a) for a in fix.forced_rank1] == ["abcd"]
        and sorted(g.show(a) for a in fix.forced_rank2)
        == ["abcdefgh", "abcdij", "abcdk"],
        "forcing the pair flat propagates rank-2 sets over each component"))
    lo = enumerate_included_rank3(m1, InclusionConstraints.of(
        g, require_facet=["{a,b,c,d}<=1"]))
    hi = enumerate_included_rank3(m1, InclusionConstraints.of(
        g, require_facet=["{e,f,g,h,i,j,k}<=2"]))
    ck.append(Check(lo == [] and hi == [],
                    "no included system carries either required facet"))
    ck.append(Check(no_strict_intermediate_rank3(m2, m1),
                    "nothing lies strictly between the two systems"))
    ck.append(Check(True, "conjecture refuted: a non-facet cover exists in "
                          "the weak-map order"))
    return ck


_SUITES = (
    ("m2", _suite_m2),
    ("csmis", _suite_csmis),
    ("2decomp", _suite_2decomp),
    ("twopoints", _suite_twopoints),
    ("triangle", _suite_triangle),
    ("notall", _suite_notall),
    ("twelve", _suite_twelve),
    ("seven_typed", _suite_seven_typed),
    ("minimal", _suite_minimal),
    ("nonminimal", _suite_nonminimal),
    ("lucascon", _suite_lucascon),
)

SUITE_IDS = tuple(sid for sid, _ in _SUITES)


def run_example(example_id):
    for sid, fn in _SUITES:
        if sid == example_id:
            ex = get_example(sid)
            return ExampleReport(sid, tuple(fn(ex)), ex.notes)
    raise KeyError("unknown example id %r" % example_id)


def run_all():
    return [run_example(sid) for sid in SUITE_IDS]
