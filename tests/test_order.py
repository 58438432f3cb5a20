"""Weak-map order: containment tests, the constrained inclusion search,
minimality, and cover relations."""

import itertools

import pytest

from matbase.census import census_rank3
from matbase.decomp import classify
from matbase.errors import (ConstraintError, GroundMismatchError, LoopError,
                            RankError)
from matbase.examples import get_example
from matbase.facets import is_facet_inequality
from matbase.matroid import (matroid_from_bases, matroid_from_flat_constraints,
                             uniform_matroid)
from matbase.order import (enumerate_included_rank3, is_weak_minimal_rank3,
                           iter_included_rank3, no_strict_intermediate_rank3,
                           weak_leq)
from matbase.rank3 import (InclusionConstraints, facet_rank2_flats,
                           propagate, rank3_profile, search_profiles)
from matbase.setfam import (GroundSet, LinearConstraint, bits, ksubsets,
                            submasks)

from util import (count_searches, dependent_bits, exchange_ok_brute, ground,
                  pool_rank3, pool_small, systems_below, weak_leq_by_ranks)


def test_weak_leq_basics():
    g = ground(5)
    m2 = matroid_from_flat_constraints(g, 3, [("abc", 2), ("cde", 2)])
    u = uniform_matroid(3, 5)
    assert weak_leq(m2, u) and weak_leq(m2, m2)
    assert not weak_leq(u, m2)
    with pytest.raises(GroundMismatchError):
        weak_leq(m2, uniform_matroid(3, 5, "vwxyz"))
    with pytest.raises(RankError):
        weak_leq(uniform_matroid(2, 5, "abcde"), u)


def test_weak_leq_rank_dominance_agreement():
    # base inclusion and rankwise dominance never split
    mats = [m for m in pool_small(5) if m.ground.n == 5 and m.rank == 3]
    for m1 in mats:
        for m2 in mats:
            assert weak_leq(m2, m1) == weak_leq_by_ranks(m2, m1)


def _brute_included(m):
    """All proper connected sub-base-systems, as frozensets of masks."""
    masks = sorted(m.bases.masks)
    out = set()
    for r in range(1, len(masks)):
        for combo in itertools.combinations(masks, r):
            if not exchange_ok_brute(combo):
                continue
            sub = matroid_from_bases(m.ground, combo)
            if sub.is_connected():
                out.add(frozenset(combo))
    return out


def test_enumerator_complete_on_five_points():
    # [DERIVED] oracle: filter every subfamily of the base list
    for m in pool_rank3(5, simple_only=True, connected_only=True):
        got = {frozenset(sub.bases.masks)
               for sub in enumerate_included_rank3(m)}
        assert got == _brute_included(m)
        assert len(got) == len(enumerate_included_rank3(m))


def test_enumerator_complete_on_four_line_six_points():
    # [DERIVED] 16 bases, and nothing connected sits properly inside
    g = ground(6)
    m = matroid_from_flat_constraints(
        g, 3, [("abc", 2), ("ade", 2), ("bdf", 2), ("cef", 2)])
    assert len(m.bases) == 16
    assert enumerate_included_rank3(m) == []
    assert _brute_included(m) == set()


def test_enumerator_stream_validity():
    seven = get_example("seven_typed")["M"]
    got = list(iter_included_rank3(seven))
    assert len(got) == 12
    seen = set()
    for sub in got:
        assert sub.ground == seven.ground and sub.rank == 3
        assert sub.is_connected() and not sub.loops()
        assert weak_leq(sub, seven)
        assert sub.bases != seven.bases
        key = frozenset(sub.bases.masks)
        assert key not in seen
        seen.add(key)
    # the displayed included system is among them
    m1 = get_example("seven_typed")["M1"]
    assert frozenset(m1.bases.masks) in seen


def test_enumerator_respects_constraints():
    u = uniform_matroid(3, 5)
    g = u.ground
    cons = InclusionConstraints.of(g, forced_rank1=("ab",))
    got = enumerate_included_rank3(u, cons)
    assert got and all(sub.rank_of(g.mask("ab")) == 1 for sub in got)
    allsubs = enumerate_included_rank3(u)
    want = {frozenset(s.bases.masks) for s in allsubs
            if s.rank_of(g.mask("ab")) == 1}
    assert {frozenset(s.bases.masks) for s in got} == want


def test_inclusion_constraint_errors():
    g = ground(5)
    with pytest.raises(ConstraintError):
        InclusionConstraints.of(g, require_facet=("{a,b,c}<=3",))
    with pytest.raises(ConstraintError):
        InclusionConstraints.of(
            g, require_facet=(LinearConstraint.parse(g, "{a,b}>=1"),))
    with pytest.raises(ConstraintError):
        InclusionConstraints.of(g, forced_rank1=("abcde",))


# built directly, without .of, the constraints are checked all the same

def test_direct_require_facet_empty_support():
    g = get_example("seven_typed")["M"].ground
    with pytest.raises(ConstraintError):
        InclusionConstraints(require_facet=(LinearConstraint(g, 0, "<=", 1),))


def test_direct_require_facet_bound_three():
    g = get_example("seven_typed")["M"].ground
    with pytest.raises(ConstraintError):
        InclusionConstraints(
            require_facet=(LinearConstraint(g, g.mask("abc"), "<=", 3),))


def test_direct_require_facet_string():
    with pytest.raises(ConstraintError):
        InclusionConstraints(require_facet=("{a,b}<=1",))


def test_positional_constraints_rejected():
    # keyword-only: a third positional argument is not read as anything
    g = get_example("seven_typed")["M"].ground
    c = LinearConstraint.parse(g, "{b,d}<=1")
    with pytest.raises(TypeError):
        InclusionConstraints((), (), (c,))
    with pytest.raises(TypeError):
        InclusionConstraints((g.mask("ab"),))


def test_constraint_on_another_ground_rejected():
    # the masks of a constraint over another 7-element ground fit this
    # ground too, but it constrains nothing here
    m = get_example("seven_typed")["M"]
    g = m.ground
    other = LinearConstraint.parse(GroundSet("pqrstuv"), "{p,r}<=1")
    with pytest.raises(GroundMismatchError):
        InclusionConstraints.of(g, require_facet=[other])
    with pytest.raises(GroundMismatchError):
        enumerate_included_rank3(m, InclusionConstraints(require_facet=(other,)))


def test_direct_forced_rank1_full_ground():
    m = get_example("seven_typed")["M"]
    cons = InclusionConstraints(forced_rank1=(m.ground.full_mask,))
    with pytest.raises(ConstraintError):
        enumerate_included_rank3(m, cons)


def test_direct_forced_set_not_a_mask():
    for bad in ("ab", -1, True, 1.0):
        with pytest.raises(ConstraintError):
            InclusionConstraints(forced_rank1=(bad,))
        with pytest.raises(ConstraintError):
            InclusionConstraints(forced_rank2=(bad,))


def test_direct_forced_rank1_outside_ground():
    # bit 9 lies outside the 7-element ground; it was read as {a}
    m = get_example("seven_typed")["M"]
    cons = InclusionConstraints(forced_rank1=(1 << 9 | 1,))
    with pytest.raises(ConstraintError):
        enumerate_included_rank3(m, cons)
    with pytest.raises(ConstraintError):
        propagate(m, cons)


def test_direct_forced_rank2_outside_ground():
    m = get_example("seven_typed")["M"]
    cons = InclusionConstraints(forced_rank2=(1 << 7 | m.ground.mask("abc"),))
    with pytest.raises(ConstraintError):
        enumerate_included_rank3(m, cons)


def test_profile_roundtrip():
    for m in pool_rank3(6, simple_only=False):
        p = rank3_profile(m)
        assert p.matroid() == m
        assert p.support() == m.ground.full_mask
    # nonsimple fixtures reground cleanly too
    g = ground(6)
    csmis = matroid_from_flat_constraints(g, 3, [("abcd", 2), ("abef", 2)])
    p = rank3_profile(csmis)
    assert p.matroid() == csmis
    assert g.mask("ab") in p.classes
    lc2 = get_example("lucascon")["M2"]
    p = rank3_profile(lc2)
    assert p.matroid() == lc2
    assert lc2.ground.mask("abcd") in p.classes


def test_profile_errors():
    with pytest.raises(RankError):
        rank3_profile(uniform_matroid(2, 4))
    gl = ground(5)
    lm = matroid_from_bases(gl, ["abc", "abd", "acd", "bcd"])
    with pytest.raises(LoopError):
        rank3_profile(lm)


def test_weak_minimality():
    mn = get_example("minimal")["M"]
    assert is_weak_minimal_rank3(mn)
    assert next(iter_included_rank3(mn), None) is None
    seven = get_example("seven_typed")["M"]
    assert not is_weak_minimal_rank3(seven)
    # binary implies weak-minimal, and the search finds nothing either
    g = ground(5)
    m2 = matroid_from_flat_constraints(g, 3, [("abc", 2), ("cde", 2)])
    assert m2.is_binary()
    assert is_weak_minimal_rank3(m2)
    assert next(iter_included_rank3(m2), None) is None


def test_nonminimal_fixture():
    ex = get_example("nonminimal")
    m, m1 = ex["M"], ex["M1"]
    assert weak_leq(m1, m)
    assert not is_weak_minimal_rank3(m)


def test_cover_relation_seven():
    ex = get_example("seven_typed")
    m, m1 = ex["M"], ex["M1"]
    assert no_strict_intermediate_rank3(m1, m)
    # [DERIVED] brute force over the ten-base gap finds no exchange-valid
    # family strictly between the two
    low = set(m1.bases.masks)
    extra = sorted(set(m.bases.masks) - low)
    assert len(extra) == 10
    for r in range(1, len(extra)):
        for combo in itertools.combinations(extra, r):
            assert not exchange_ok_brute(sorted(low | set(combo)))


def test_cover_relation_errors_and_edge_cases():
    g = ground(5)
    m2 = matroid_from_flat_constraints(g, 3, [("abc", 2), ("cde", 2)])
    u = uniform_matroid(3, 5)
    assert no_strict_intermediate_rank3(m2, m2)
    with pytest.raises(ConstraintError):
        no_strict_intermediate_rank3(u, m2)
    with pytest.raises(RankError):
        no_strict_intermediate_rank3(uniform_matroid(2, 4),
                                     uniform_matroid(2, 4))
    # u35 covers the one-line systems: deleting a single base each
    one_line = matroid_from_flat_constraints(g, 3, [("abc", 2)])
    assert no_strict_intermediate_rank3(one_line, u)
    # but not m2, which sits two lines down
    assert not no_strict_intermediate_rank3(m2, u)


def system(n, classes, lines):
    """The rank-3 matroid on ground(n) with the given non-singleton
    parallel classes and long lines, as label strings, by the
    definition: its bases are the 3-sets that meet no class twice and
    lie in no line."""
    g = ground(n)
    cls = [g.mask(list(c)) for c in classes]
    lns = [g.mask(list(l)) for l in lines]
    return matroid_from_bases(g, [
        t for t in ksubsets(g.full_mask, 3)
        if all((t & c).bit_count() < 2 for c in cls)
        and not any(t & ~l == 0 for l in lns)])


def assert_strictly_between(low, mid, high):
    assert exchange_ok_brute(mid.bases.masks)
    assert (set(low.bases.masks) < set(mid.bases.masks)
            < set(high.bases.masks))


# M2 = U(1, C) + the rank-2 partition matroid on E - C below a census
# class M1, a candidate for a non-facet cover.  Each intermediate merges
# classes that a line of M1 already joins to another line, so it is
# reached only by fixing the classes before the lines


def test_cover_check_census_eight_55():
    m1 = system(8, [], ["abc", "ade", "bdf", "cef", "cdg", "begh"])
    assert m1 == census_rank3(8)[55]
    m2 = system(8, ["acd", "bef"], ["befgh"])  # C = acd
    for mid in (system(8, ["cd", "be"], ["abcdef", "begh"]),
                system(8, ["cd", "bef"], ["abcdef", "befgh"]),
                system(8, ["acd", "be"], ["abcdef", "begh"])):
        assert_strictly_between(m2, mid, m1)
    assert not no_strict_intermediate_rank3(m2, m1)


def test_cover_check_census_eight_50():
    m1 = system(8, [], ["abc", "ade", "afg", "bdfh", "cegh"])
    assert m1 == census_rank3(8)[50]
    m2 = system(8, ["abd", "fgh"], ["cefgh"])  # C = abd
    mid = system(8, ["fgh"], ["abc", "ade", "bdfgh", "cefgh"])
    assert len(mid.bases) == 32 and mid.is_connected()
    assert_strictly_between(m2, mid, m1)
    assert not no_strict_intermediate_rank3(m2, m1)


def cover_twin_highs():
    """The distinct rank-3 matroids of pool_small(6), each also with one
    element that is neither a loop nor a coloop made a loop (its bases
    that avoid it)."""
    out = {}
    for m in pool_small(6):
        if m.rank != 3:
            continue
        out[m.ground.n, m.bases.masks] = m
        for e in bits(m.ground.full_mask & ~m.loops() & ~m.coloops()):
            d = matroid_from_bases(m.ground, [b for b in m.bases.masks
                                              if not b >> e & 1])
            out[d.ground.n, d.bases.masks] = d
    return list(out.values())


def test_cover_check_matches_twin():
    # every pair (low, high) with high from cover_twin_highs and low any
    # rank-3 system below it, loops and all, as the twin rank3_systems
    # lists them; the twin's answer is that no listed system lies
    # strictly between
    pairs = looped = covers = 0
    for high in cover_twin_highs():
        full = high.ground.full_mask
        triples = list(ksubsets(full, 3))
        dep_high = dependent_bits(high)
        below = [dep for loops in submasks(full)
                 for _, _, dep in systems_below(high, loops)]
        for dep in below:
            want = not any(x != dep and x != dep_high and x & dep == x
                           for x in below)
            low = matroid_from_bases(high.ground, [
                t for k, t in enumerate(triples) if not dep >> k & 1])
            assert no_strict_intermediate_rank3(low, high) == want
            pairs += 1
            looped += bool(low.loops() & ~high.loops())
            covers += want
    assert pairs > 12000 and 2 * looped > pairs and 0 < covers < pairs


class MissedSystems(Exception):
    """Valid included systems that enumerate_included_rank3 lacks."""


# connected systems properly included in census_rank3(8) classes, as
# (non-singleton classes, long lines), that the inclusion search misses:
# each merges classes after a line through them was joined to another
SEARCH_GAP = {
    50: [(["fgh"], ["abc", "ade", "bdfgh", "cefgh"]),
         (["ace", "fh"], ["bdfh", "acefgh"]),
         (["abd", "gh"], ["cegh", "abdfgh"])],
    51: [(["bd", "ce", "gh"], ["abcde", "bdfgh"]),
         (["af", "cg", "eh"], ["abcfg", "adefh"]),
         (["abd", "gh"], ["cegh", "abdfgh"])],
    57: [(["ae", "df", "ch"], ["abceh", "cdfgh"]),
         (["ac", "bf", "eg"], ["acdeg", "befgh"])],
    59: [(["ab", "ef", "gh"], ["abdef", "cefgh"]),
         (["ae", "bg", "fh"], ["abceg", "bdfgh"]),
         (["bf", "eg", "ah"], ["abcfh", "adegh"])],
}


@pytest.mark.parametrize("idx", [
    pytest.param(idx, marks=pytest.mark.xfail(
        raises=MissedSystems, strict=True,
        reason="the search joins lines before it merges their classes"))
    for idx in sorted(SEARCH_GAP)])
def test_inclusion_search_misses_merged_classes(idx):
    check_search_finds(census_rank3(8)[idx], SEARCH_GAP[idx])


# the same gap on the paper's own 11-point matroid: 105 connected
# systems lie properly below lucascon M1, and the search finds 102
LUCASCON_GAP = [
    (["ace", "dgi", "bj"], ["acdefgi", "bdghij", "fhk", "abcejk"]),
    (["bh", "gi", "acefk"], ["bghij", "acdefgik"]),
    (["fh", "cj", "bdeik"], ["cfghj", "abdefhik"]),
]


@pytest.mark.xfail(raises=MissedSystems, strict=True,
                   reason="the search joins lines before it merges their "
                          "classes")
def test_inclusion_search_misses_systems_below_lucascon():
    m = get_example("lucascon")["M1"]
    assert m.ground == ground(11)
    assert classify(m).kind == "c"
    check_search_finds(m, LUCASCON_GAP)


def check_search_finds(m, subs):
    """Build each (classes, lines) of subs on the ground of m, check that
    it is a connected system properly below m, and raise MissedSystems
    unless enumerate_included_rank3(m) returns all of them."""
    missed = [system(m.ground.n, *sub) for sub in subs]
    for sub in missed:
        assert exchange_ok_brute(sub.bases.masks) and sub.is_connected()
        assert set(sub.bases.masks) < set(m.bases.masks)
    found = {sub.bases.masks for sub in enumerate_included_rank3(m)}
    lost = [sub for sub in missed if sub.bases.masks not in found]
    if lost:
        raise MissedSystems("%d of %d" % (len(lost), len(missed)))


def test_required_original_facet_skips_the_engine(monkeypatch):
    # a required facet of m itself can be a facet of no included system,
    # so nothing is returned and the engine never runs
    m = get_example("seven_typed")["M"]
    g = m.ground
    counts = count_searches(monkeypatch)
    for f in facet_rank2_flats(m):
        cons = InclusionConstraints.of(
            g, require_facet=["{%s}<=2" % ",".join(g.labels_of(f))])
        assert enumerate_included_rank3(m, cons) == []
    assert counts["runs"] == 0
    # a required facet that m lacks still runs the search
    cons = InclusionConstraints.of(g, require_facet=["{b,d}<=1"])
    assert enumerate_included_rank3(m, cons)
    assert counts["runs"] == 1


def test_require_facet_builds_only_returned_matroids(monkeypatch):
    # the profile decides every require_facet entry, so a matroid is
    # built only for each system returned; a 2-point set is never a
    # facet flat of rank 2, so nothing is built for it
    m = uniform_matroid(3, 6)
    g = m.ground
    counts = count_searches(monkeypatch)
    built = 0
    for a, bound in (("ab", 2), ("abc", 2), ("ab", 1)):
        cons = InclusionConstraints.of(
            g, require_facet=["{%s}<=%d" % (",".join(a), bound)])
        found = enumerate_included_rank3(m, cons)
        assert (found == []) == (bound == 2 and a == "ab")
        assert all(is_facet_inequality(sub, g.mask(list(a)), bound)
                   for sub in found)
        built += len(found)
        assert counts["builds"] == built


def test_search_with_required_facet_builds_no_matroid(monkeypatch):
    # the facet keys of each profile decide every require_facet entry,
    # so a search run to the end builds no matroid
    m = uniform_matroid(3, 6)
    counts = count_searches(monkeypatch)
    for text in ("{a,b}<=1", "{a,b,c}<=2", "{a,b}<=1 {c,d,e}<=2"):
        cons = InclusionConstraints.of(m.ground, require_facet=text.split())
        assert list(search_profiles(m, cons))
    assert counts["runs"] == 3 and counts["builds"] == 0


def test_short_rank2_facet_skips_the_engine(monkeypatch):
    # a facet flat of rank 2 is a long line, so a 2-point set is none and
    # the search over U(3,7) never starts
    m = census_rank3(7)[0]
    cons = InclusionConstraints.of(m.ground, require_facet=["{a,b}<=2"])
    counts = count_searches(monkeypatch)
    assert enumerate_included_rank3(m, cons) == []
    assert counts["runs"] == 0
