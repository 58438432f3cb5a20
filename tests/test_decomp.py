"""Decomposition machinery: hyperplane splits, quick certificates, facet
graphs, 3-partitions, constraint propagation, full search, classification,
and the small-ground census."""

import functools
from collections import Counter

import pytest

from matbase import decomp, rank3
from matbase.census import (census_rank3, iter_line_families,
                            neither_binary_nor_two_decomposable)
from matbase.decomp import (CLASS_LABELS, DecompositionReport,
                            _is_proper_face, classify, facet_graph,
                            find_decomposition_rank3,
                            rank3_quick_witnesses, rank3_two_decomposable_by,
                            three_partitions, two_decompose,
                            verify_decomposition)
from matbase.errors import (ConstraintError, ContradictionError,
                            GroundMismatchError, InconclusiveError,
                            NotConnectedError, NotSimpleError)
from matbase.examples import get_example
from matbase.matroid import matroid_from_flat_constraints, uniform_matroid
from matbase.order import (enumerate_included_rank3,
                           no_strict_intermediate_rank3, weak_leq)
from matbase.rank3 import (InclusionConstraints, facet_rank2_flats, propagate,
                           rank3_profile)
from matbase.setfam import bits, ksubsets, submasks

from util import (count_searches, ground,
                  line_key_by_permutations, pool_rank3,
                  rank3_profile_by_flats, rank3_split_by_flat_rule,
                  seed_pieces_by_partitions, set_partitions_3, split_families,
                  splits_by_halves, supporting_face, try_matroid,
                  two_decompose_by_halves)


def test_two_decompose_fixture():
    ex = get_example("2decomp")
    hyp, low, up = two_decompose(ex["M"])
    assert str(hyp) == "{c,d,e}==2"
    assert low.bases == ex["M1"].bases and up.bases == ex["M2"].bases
    assert len(low.bases) == 8 and len(up.bases) == 7
    hyp, low, up = two_decompose(uniform_matroid(2, 4))
    assert str(hyp) == "{a,b}==1"
    assert len(low.bases) == len(up.bases) == 5
    assert two_decompose(get_example("seven_typed")["M"]) is None
    disc = uniform_matroid(1, 2, "ab").direct_sum(uniform_matroid(1, 2, "cd"))
    with pytest.raises(NotConnectedError):
        two_decompose(disc)


SPLIT_FIXTURES = ("2decomp", "twopoints", "triangle", "notall")


def _split_sweep_inputs():
    """The fixtures above and the census classes for n <= 7: connected
    simple rank-3 matroids, split and not."""
    return ([get_example(k)["M"] for k in SPLIT_FIXTURES]
            + [m for n in range(4, 8) for m in census_rank3(n)])


def test_two_decompose_check_agreement():
    # the cross-section criterion finds the first split of the
    # two-halves scan over all masks, with the same halves
    from util import pool_small
    inputs = [m for m in pool_small(6) if m.is_connected()]
    inputs += _split_sweep_inputs()
    splits = 0
    for m in inputs:
        got = split_families(two_decompose(m))
        assert got == two_decompose_by_halves(m)
        splits += got is not None
    assert 0 < splits < len(inputs)


def test_rank3_split_criterion_against_direct_split():
    # [DERIVED] on every mask, the cross-section criterion agrees with
    # the facet-flat rule and with the definition: both closed halves
    # exchange-valid, both strict sides nonempty
    inputs = pool_rank3(6, simple_only=True, connected_only=True)
    inputs += _split_sweep_inputs()
    cases = splits = 0
    for m in inputs:
        for a in range(1, m.ground.full_mask + 1):
            got = rank3_two_decomposable_by(m, a)
            assert got == rank3_split_by_flat_rule(m, a)
            assert got == splits_by_halves(m, a, 2)
            cases += 1
            splits += got
    assert 0 < splits < cases


def test_rank3_split_fixtures():
    twelve = get_example("twelve")["M"]
    assert rank3_two_decomposable_by(twelve, "efghl")
    assert rank3_two_decomposable_by(twelve, "ijkl")
    seven = get_example("seven_typed")["M"]
    full = seven.ground.full_mask
    assert not any(rank3_two_decomposable_by(seven, a)
                   for a in submasks(full) if a)
    # a support of rank 2 can never carry the split
    m2 = get_example("m2")["M"]
    assert not rank3_two_decomposable_by(m2, "abc")


def test_quick_witnesses_twins():
    ex = get_example("twopoints")
    m = ex["M"]
    g = m.ground
    ws = rank3_quick_witnesses(m)
    tw = [w for w in ws if w.kind == "twins"]
    # d, e, f all lie in cdef only, so each pair among them is a twin pair
    assert [w.sets for w in tw] == [
        (g.mask("de"),), (g.mask("df"),), (g.mask("ef"),)]
    assert str(tw[-1].hyperplane) == "{a,b,c,d}==2"
    assert tw[-1].show() == "twins ef via {a,b,c,d}==2"


def test_quick_witnesses_triangle():
    m = get_example("triangle")["M"]
    g = m.ground
    ws = rank3_quick_witnesses(m)
    tr = [w for w in ws if w.kind == "triangle"]
    assert [w.sets for w in tr] == [(g.mask("bdf"),)]
    assert str(tr[0].hyperplane) == "{b,d,f}==2"


def test_quick_witnesses_flat_plus_point():
    m = get_example("notall")["M"]
    g = m.ground
    ws = rank3_quick_witnesses(m)
    assert [(w.kind,) + w.sets for w in ws] == [
        ("flat-plus-point", g.mask("ade"), g.mask("h"))]
    assert str(ws[0].hyperplane) == "{a,d,e,h}==2"


def test_quick_witnesses_twelve():
    # the big 12-point system: twins and triangles find nothing, but the
    # line ijl misses every facet flat through k, so the pair certifies
    m = get_example("twelve")["M"]
    g = m.ground
    ws = rank3_quick_witnesses(m)
    assert not any(w.kind in ("twins", "triangle") for w in ws)
    assert [(g.show(w.sets[0]), g.show(w.sets[1])) for w in ws] == [
        ("ijl", "k")]


def test_quick_witnesses_sound():
    # every certificate names a hyperplane that really splits the system
    for name in ("twopoints", "triangle", "notall", "twelve"):
        m = get_example(name)["M"]
        for w in rank3_quick_witnesses(m):
            assert w.hyperplane.bound == 2
            assert rank3_two_decomposable_by(
                m, m.ground.labels_of(w.hyperplane.support))
    assert rank3_quick_witnesses(get_example("seven_typed")["M"]) == []
    assert rank3_quick_witnesses(get_example("minimal")["M"]) == []


def test_facet_graph_fixtures():
    ex = get_example("seven_typed")
    m, m1 = ex["M"], ex["M1"]
    g = m.ground
    fg = facet_graph(m, "bd", "acefg")
    assert sorted(fg.edges) == sorted([g.mask("ac"), g.mask("ae")])
    assert sorted(fg.components) == sorted(
        [g.mask("ace"), g.mask("f"), g.mask("g")])
    assert not fg.is_connected()
    fg1 = facet_graph(m1, "bd", "acefg")
    assert sorted(fg1.edges) == sorted(
        [g.mask("ac"), g.mask("ae"), g.mask("ce")])
    lc = get_example("lucascon")
    ml = lc["M1"]
    gl = ml.ground
    fgl = facet_graph(ml, "abcd", "efghijk")
    assert sorted(fgl.edges) == sorted(
        [gl.mask("eh"), gl.mask("eg"), gl.mask("fg"), gl.mask("ij")])
    assert sorted(fgl.components) == sorted(
        [gl.mask("efgh"), gl.mask("ij"), gl.mask("k")])


def test_facet_graph_edgeless_and_errors():
    m = get_example("m2")["M"]
    g = m.ground
    # no facet flat meets d alone beyond cde; probe sets not meeting any
    fg = facet_graph(m, "d", "ab")
    assert fg.edges == () and len(fg.components) == 2
    with pytest.raises(ConstraintError):
        facet_graph(m, "ab", "bc")
    with pytest.raises(ConstraintError):
        facet_graph(m, "", "ab")


def _partitions_oracle(m):
    """Directly check the three defining conditions on every partition."""
    g = m.ground
    flats2 = facet_rank2_flats(m)
    out = set()
    for blocks in set_partitions_3(list(g.labels)):
        masks = tuple(sorted(g.mask("".join(b)) for b in blocks))
        if any(x.bit_count() < 2 for x in masks):
            continue
        if any(f & masks[0] and f & masks[1] and f & masks[2]
               for f in flats2):
            continue
        if any(m.rank_of(masks[i] | masks[j]) != 3
               for i, j in ((0, 1), (0, 2), (1, 2))):
            continue
        out.add(masks)
    return out


def test_three_partitions_seven():
    m = get_example("seven_typed")["M"]
    g = m.ground
    got = three_partitions(m)
    shows = [tp.show() for tp in got]
    assert sorted(shows) == sorted(
        ["bc|df|aeg", "bc|adf|eg", "bd|ace|fg", "abd|ce|fg",
         "de|bf|acg", "de|abf|cg"])
    assert [tp.parts for tp in got] == sorted(tp.parts for tp in got)
    assert {tp.parts for tp in got} == _partitions_oracle(m)
    for tp in got:
        assert tp.ground is g


def test_three_partitions_oracle():
    # [DERIVED] the enumeration equals the filter over set_partitions_3
    assert three_partitions(get_example("minimal")["M"]) == []
    for m in (pool_rank3(7, simple_only=True, connected_only=True)
              + census_rank3(8)):
        assert {tp.parts for tp in three_partitions(m)} == _partitions_oracle(m)


def test_seed_pieces_match_partition_rule():
    # [DERIVED] the pool's own facet pairs give the seeds that the
    # enumerated 3-partitions give, on every input with a search to run
    cases = ([m for n in (7, 8)
              for m in census_rank3(n, neither_binary_nor_two_decomposable)]
             + [get_example("seven_typed")["M"],
                get_example("lucascon")["M1"]])
    assert len(cases) == 9
    for m in cases:
        pool = enumerate_included_rank3(m)
        nonorig = decomp._facet_partners(m, pool)
        got = decomp._seed_pieces(m, nonorig)
        assert got == sorted(set(got))
        assert set(got) == seed_pieces_by_partitions(m, nonorig)
    assert (len(pool), len(got)) == (105, 101)  # lucascon M1
    # on the pools every nested pair gives a 3-partition, so one-piece
    # facet lists over all mask pairs let the rule itself decide
    m = get_example("seven_typed")["M"]
    masks = range(m.ground.full_mask + 1)
    nonorig = [((a1, 1, ()), (z, 2, ())) for z in masks for a1 in masks]
    got = decomp._seed_pieces(m, nonorig)
    assert len(got) == 36
    assert set(got) == seed_pieces_by_partitions(m, nonorig)


def test_propagate_seven():
    m = get_example("seven_typed")["M"]
    g = m.ground
    cons = InclusionConstraints.of(g, require_facet=("{b,d}<=1",))
    out = propagate(m, cons)
    assert g.mask("bd") in out.forced_rank1
    assert g.mask("ce") in out.forced_rank1
    assert g.mask("abcde") in out.forced_rank2
    # fixpoint: a second pass changes nothing
    again = propagate(m, out)
    assert (again.forced_rank1 == out.forced_rank1
            and again.forced_rank2 == out.forced_rank2)
    # monotone: inputs survive into the closure
    cons2 = InclusionConstraints.of(g, forced_rank1=("fg",),
                                    require_facet=("{b,d}<=1",))
    out2 = propagate(m, cons2)
    assert any(a & g.mask("fg") == g.mask("fg") for a in out2.forced_rank1)
    assert set(out.forced_rank2) <= set(out2.forced_rank2)
    empty = propagate(m, InclusionConstraints.of(g))
    assert empty.forced_rank1 == () and empty.forced_rank2 == ()


def test_propagate_contradictions():
    m = get_example("seven_typed")["M"]
    g = m.ground
    with pytest.raises(ContradictionError):
        propagate(m, InclusionConstraints.of(g, forced_rank2=("abcdefg",)))
    with pytest.raises(ContradictionError):
        # rank 2 on all but one element would make g a coloop
        propagate(m, InclusionConstraints.of(g, forced_rank2=("abcdef",)))
    with pytest.raises(ContradictionError):
        # bc straddles the certified flat bd once merged with d
        propagate(m, InclusionConstraints.of(
            g, forced_rank1=("bc",), require_facet=("{b,d}<=1",)))


def test_require_facet_empty_support_rejected():
    # an empty set cuts no facet, so the entry is a typed error before
    # propagation or the inclusion search sees it
    m = get_example("seven_typed")["M"]
    g = m.ground
    with pytest.raises(ConstraintError):
        propagate(m, InclusionConstraints.of(g, require_facet=["{}<=1"]))
    with pytest.raises(ConstraintError):
        enumerate_included_rank3(
            m, InclusionConstraints.of(g, require_facet=["{}<=1"]))


def test_verify_decomposition_typed():
    ex = get_example("seven_typed")
    m = ex["M"]
    pieces = [ex["M1"], ex["M2"], ex["M3"], ex["M4"]]
    rep = verify_decomposition(m, pieces)
    assert rep.ok and rep.failed is None
    assert bool(rep)
    assert rep.facet_pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    seps = {pr: str(c) for pr, c in rep.separators}
    assert seps == {
        (0, 1): "{a,b,c,d,e}==2", (0, 2): "{c,e}==1", (0, 3): "{b,d}==1",
        (1, 2): "{c,e,f,g}==2", (1, 3): "{b,d,f,g}==2", (2, 3): "{b,d}==1"}


def test_verify_decomposition_2decomp():
    ex = get_example("2decomp")
    rep = verify_decomposition(ex["M"], [ex["M1"], ex["M2"]])
    assert rep.ok and rep.facet_pairs == ((0, 1),)


def test_verify_decomposition_failures():
    ex = get_example("seven_typed")
    rep = verify_decomposition(ex["M"], [ex["M1"], ex["M2"]])
    assert not rep.ok and rep.failed == "(a)"
    assert not bool(rep)
    # the facet face of M1 is disconnected, so as a piece it breaks the
    # component condition
    rep = verify_decomposition(ex["M1"], [ex["M1"], ex["M12"]])
    assert not rep.ok and rep.failed == "(b)"
    with pytest.raises(ConstraintError):
        verify_decomposition(ex["M"], [ex["M1"]])
    with pytest.raises(GroundMismatchError):
        verify_decomposition(get_example("m2")["M"],
                             [uniform_matroid(3, 5, "vwxyz")] * 2)
    m = ex["M"]
    pool = enumerate_included_rank3(m)
    # two pieces covering B(M) whose common bases are no face of the first
    rep = verify_decomposition(m, [pool[0], pool[1]])
    assert not rep.ok and rep.failed == "(c)"
    assert rep.detail == "pieces 0 and 1 meet in a non-face of piece 0"
    # pieces that cover, keep the components and meet in faces, with a
    # non-original facet that no other piece carries reversed
    rep = verify_decomposition(m, [pool[0], pool[9], pool[11]])
    assert not rep.ok and rep.failed == "(d)"
    assert rep.detail == "facet (fg,1) of piece 0 has 0 reversed partners"


def test_shared_face_beyond_single_cuts():
    # pieces 1 and 3 of the (d) witness of census class 19 at n = 7 share
    # 8 bases that no single tight (A,r(A))= cuts out of either piece;
    # the inequalities tight on all 8 cut them out together
    m = census_rank3(7)[19]
    verdict = classify(m)
    assert verdict.kind == "d"
    pieces = verdict.witness.pieces
    shared = frozenset(pieces[1].bases) & frozenset(pieces[3].bases)
    assert len(shared) == 8
    for p in (pieces[1], pieces[3]):
        bases = frozenset(p.bases)
        assert all(supporting_face(bases, a) != shared
                   for a in range(1, m.ground.full_mask + 1))
        assert _is_proper_face(p, shared)
    assert verify_decomposition(m, list(pieces)).ok


@pytest.mark.parametrize("search", [classify, find_decomposition_rank3])
def test_two_split_failing_verification_raises(monkeypatch, search):
    m = next(m for m in census_rank3(6) if classify(m).kind == "e")
    monkeypatch.setattr(decomp, "verify_decomposition", lambda m, pieces:
                        DecompositionReport(False, "(c)", "forced failure"))
    with pytest.raises(AssertionError, match="fails verify_decomposition"):
        search(m)


def test_two_decompose_failing_half_raises(monkeypatch):
    # the halves of the hyperplane that hits are exchange-checked again
    monkeypatch.setattr(decomp, "_half_matroid", lambda ground, fam: None)
    with pytest.raises(AssertionError, match="half is not"):
        two_decompose(get_example("2decomp")["M"])


def test_find_decomposition_seven():
    ex = get_example("seven_typed")
    dec = find_decomposition_rank3(ex["M"])
    fams = [frozenset(p.bases.masks) for p in dec.pieces]
    assert sorted(len(f) for f in fams) == [18, 18, 20, 24]
    # the four displayed systems, found in canonical search order
    assert fams.index(frozenset(ex["M2"].bases.masks)) == 0
    assert fams.index(frozenset(ex["M4"].bases.masks)) == 1
    assert fams.index(frozenset(ex["M3"].bases.masks)) == 2
    assert fams.index(frozenset(ex["M1"].bases.masks)) == 3
    assert dec.facet_pairs == ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3))
    assert verify_decomposition(ex["M"], list(dec.pieces)).ok
    assert "facet pairs: 01 02 03 13 23" in dec.show()


def test_find_decomposition_none_and_caps():
    assert find_decomposition_rank3(get_example("minimal")["M"]) is None
    assert find_decomposition_rank3(get_example("nonminimal")["M"]) is None
    with pytest.raises(InconclusiveError):
        find_decomposition_rank3(get_example("seven_typed")["M"],
                                 max_pieces=2)
    dec = find_decomposition_rank3(get_example("2decomp")["M"])
    assert len(dec.pieces) == 2 and dec.facet_pairs == ((0, 1),)


@pytest.mark.parametrize("cap", [1, 0, -3])
def test_piece_cap_below_two_rejected(cap):
    m = get_example("seven_typed")["M"]
    for search in (find_decomposition_rank3, classify):
        with pytest.raises(ConstraintError, match="at least two pieces"):
            search(m, max_pieces=cap)


@pytest.mark.parametrize("cap", ["3", None, 2.5, 3.0, True, False])
def test_piece_cap_not_an_int_rejected(cap):
    # a string or None raised a bare TypeError, 2.5 searched "within 2
    # pieces" and True read as 1
    m = get_example("seven_typed")["M"]
    for search in (find_decomposition_rank3, classify):
        with pytest.raises(ConstraintError, match="takes an int"):
            search(m, max_pieces=cap)


def test_classify_fixtures():
    assert classify(get_example("m2")["M"]).kind == "a"
    assert classify(get_example("minimal")["M"]).kind == "b"
    assert classify(get_example("nonminimal")["M"]).kind == "c"
    mc = classify(get_example("seven_typed")["M"])
    assert mc.kind == "d" and mc.show() == "(d) decomposable, not 2-decomposable"
    mc = classify(get_example("2decomp")["M"])
    assert mc.kind == "e" and mc.show() == "(e) 2-decomposable"
    assert mc.label == CLASS_LABELS["e"]
    assert verify_decomposition(get_example("2decomp")["M"],
                                list(mc.witness.pieces)).ok
    # the four-point line is 2-decomposable in rank 2 as well
    assert classify(uniform_matroid(2, 4)).kind == "e"


def test_classify_errors():
    g = ground(6)
    csmis = matroid_from_flat_constraints(g, 3, [("abcd", 2), ("abef", 2)])
    with pytest.raises(NotSimpleError):
        classify(csmis)
    disc = uniform_matroid(1, 2, "ab").direct_sum(uniform_matroid(1, 2, "cd"))
    with pytest.raises(NotConnectedError):
        classify(disc)
    with pytest.raises(InconclusiveError):
        classify(get_example("seven_typed")["M"].dual())


def _line_key(m):
    """The n! key of a simple rank-3 matroid's long lines: equal exactly
    on isomorphic simple rank-3 matroids of one size, and independent of
    the census key."""
    return line_key_by_permutations(m.ground.n,
                                    rank3_profile_by_flats(m).long_lines)


def test_census_counts():
    # [DERIVED] frozen totals of isomorphism classes of connected simple
    # rank-3 matroids
    assert [len(census_rank3(n)) for n in (4, 5, 6, 7, 8)] == [1, 3, 8, 22, 67]
    for n in (6, 7):
        reps = census_rank3(n)
        for m in reps:
            assert m.ground.n == n and m.rank == 3
            assert m.is_connected() and m.is_simple()
        # pairwise non-isomorphic: one n! key per class, all distinct
        assert len({_line_key(m) for m in reps}) == len(reps)
    with pytest.raises(ConstraintError):
        census_rank3(3)
    with pytest.raises(ConstraintError):
        census_rank3(10)
    # a ground size that is not an int
    for bad in (8.0, "8", 8.5):
        with pytest.raises(ConstraintError):
            census_rank3(bad)
        with pytest.raises(ConstraintError):
            list(iter_line_families(bad))


@functools.lru_cache(maxsize=None)
def census_nine():
    return tuple(census_rank3(9))


def test_census_count_nine():
    # Mayhew & Royle: 383 simple rank-3 matroids on nine elements, one of
    # them disconnected (an eight-point line plus a point)
    assert len(census_nine()) == 382


def test_census_covers_pool():
    reps = census_rank3(6)
    pool = [m for m in pool_rank3(6, simple_only=True, connected_only=True)
            if m.ground.n == 6]
    assert pool
    keys = [_line_key(rep) for rep in reps]
    for m in pool:
        assert keys.count(_line_key(m)) == 1


def test_census_complete_on_five_points():
    # [DERIVED] oracle: every subfamily of the ten triples, filtered and
    # grouped into isomorphism classes by brute relabeling
    g = ground(5)
    triples = sorted(ksubsets(g.full_mask, 3))
    line_keys = set()
    for sel in range(1, 1 << len(triples)):
        fam = [triples[i] for i in bits(sel)]
        m = try_matroid(g, fam)
        if m is None or not m.is_connected() or m.loops():
            continue
        if any(c.bit_count() > 1 for c in m.parallel_classes()):
            continue
        line_keys.add(_line_key(m))
    reps = census_rank3(5)
    assert len(line_keys) == len(reps) == 3
    assert {_line_key(rep) for rep in reps} == line_keys


def test_census_neither_filter():
    # the systems that are neither binary nor 2-decomposable: none below
    # seven elements, then two, then five
    assert census_rank3(6, predicate=neither_binary_nor_two_decomposable) == []
    n7 = census_rank3(7, predicate=neither_binary_nor_two_decomposable)
    n8 = census_rank3(8, predicate=neither_binary_nor_two_decomposable)
    assert (len(n7), len(n8)) == (2, 5)

    def line_sets(m):
        return frozenset(
            frozenset(m.ground.labels_of(f)) for f in m.flats_of_rank(2)
            if f.bit_count() >= 3)

    want = {
        frozenset(frozenset(w) for w in ("abc", "ade", "bdf", "cefg")),
        frozenset(frozenset(w) for w in ("abc", "ade", "bdf", "cdg", "efg"))}
    assert {line_sets(m) for m in n7} == want


def least_maximal(pool):
    """The least system of pool, by profile key, among those that no
    system of pool lies strictly above in the weak-map order."""
    maximal = [p for p in pool if not any(
        weak_leq(p, q) and p.bases != q.bases for q in pool)]
    return min(maximal, key=lambda p: rank3_profile(p).key())


def test_classify_searches_once(monkeypatch):
    minimal = get_example("minimal")["M"]
    nonminimal = get_example("nonminimal")["M"]
    pool = enumerate_included_rank3(nonminimal)
    counts = count_searches(monkeypatch)
    assert classify(minimal).kind == "b"
    assert counts["runs"] == 1 and counts["builds"] == 0
    counts.clear()
    mc = classify(nonminimal)
    assert mc.kind == "c" and mc.witness == least_maximal(pool)
    assert counts["runs"] == 1 and counts["builds"] <= len(pool) + 1


# the (c) witness of lucascon M1, pinned so that it cannot move with the
# order in which the search finds the systems
LUCASCON_COVER = ("classes {a},{b},{c},{e},{d,f,g,h,i},{j},{k} lines "
                  "{b,c,e},{a,d,e,f,g,h,i},{a,c,j},{b,d,f,g,h,i,j},{a,b,k},"
                  "{e,j,k}")


def test_cover_witness_is_least_maximal():
    # lucascon M1, nonminimal M and census class 373 at n = 9, all (c):
    # the witness is the least maximal system of the pool, m covers it,
    # and lucascon M1 keeps the witness it had
    lucascon = get_example("lucascon")["M1"]
    for m in (lucascon, get_example("nonminimal")["M"], census_nine()[373]):
        mc = classify(m)
        assert mc.kind == "c"
        assert mc.witness == least_maximal(enumerate_included_rank3(m))
        assert no_strict_intermediate_rank3(mc.witness, m)
        if m is lucascon:
            assert rank3_profile(mc.witness).show() == LUCASCON_COVER


def test_cover_witness_failing_check_raises(monkeypatch):
    monkeypatch.setattr(decomp, "no_strict_intermediate_rank3",
                        lambda low, high: False)
    with pytest.raises(AssertionError, match="is no cover"):
        classify(get_example("nonminimal")["M"])


def test_classify_engine_steps(monkeypatch):
    # census_rank3(7)[17] is one of the two classes at n = 7 that classify
    # sends to the inclusion search.  The search expands each state it
    # keeps once, by rank; the rank-2 look-ahead drops the states whose
    # later points all lie on their line, which only have leaves of
    # rank 2, so without it classify expands more rank-2 states and
    # returns the same verdict and witness
    m = census_rank3(7)[17]

    def expanded():
        counts = Counter()
        place = rank3._place

        def counted(state, *step):
            counts[state[2]] += 1
            return place(state, *step)

        with monkeypatch.context() as mp:
            mp.setattr(rank3, "_place", counted)
            mc = classify(m)
        return counts, mc.kind, mc.witness.pieces

    counts, kind, pieces = expanded()
    assert kind == "d" and counts[0] == 1 and counts[2] > 20
    monkeypatch.setattr(rank3, "_alive", lambda classes, ahead: True)
    blind, kind_blind, pieces_blind = expanded()
    assert (kind_blind, pieces_blind) == (kind, pieces)
    assert blind[2] > 2 * counts[2] and blind[3] == counts[3]


def test_census_nine_verdicts():
    # class 261 has 5 systems below it, and they give a 5-piece
    # decomposition; class 376's least decomposition has 7 pieces
    c9 = census_nine()
    for idx, pieces in ((261, 5), (376, 7)):
        mc = classify(c9[idx])
        assert mc.kind == "d" and len(mc.witness.pieces) == pieces
        assert verify_decomposition(c9[idx], list(mc.witness.pieces)).ok
    assert len(enumerate_included_rank3(c9[261])) == 5
