"""Weak-map order: containment tests, the constrained inclusion search,
minimality, and cover relations."""

import itertools

import pytest

from matbase.census import census_rank3
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
                           rank3_profile, search_profiles)
from matbase.setfam import LinearConstraint, ksubsets

from util import (count_searches, exchange_ok_brute, ground, pool_rank3,
                  pool_small, weak_leq_by_ranks)


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
    # forbidden rows must stay violated: abc has to remain a base
    cons = InclusionConstraints.of(g, forbidden=("{a,b,c}<=2",))
    got = enumerate_included_rank3(u, cons)
    want = {frozenset(s.bases.masks) for s in allsubs
            if g.mask("abc") in s.bases}
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


def test_profile_roundtrip():
    for m in pool_rank3(6, simple_only=False):
        p = rank3_profile(m)
        assert p.matroid() == m
        assert p.support() == m.ground.full_mask
        assert p.dependent_triples() == frozenset(
            t for t in ksubsets(m.ground.full_mask, 3) if t not in m.bases)
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


def test_search_profiles_keeps_unsupported_elements_loops():
    # a forced set reaching outside the support constrains only its part
    # inside: a stays a loop instead of joining b in a parallel class
    m = get_example("seven_typed")["M"]
    g = m.ground
    a = g.mask("a")
    support = g.full_mask & ~a
    found = list(search_profiles(
        m, InclusionConstraints.of(g, forced_rank1=["ab"]), mandatory=(),
        support=support, connected_only=False))
    assert found
    for profile in found:
        assert profile.support() & a == 0
        assert profile.matroid().rank_of(a) == 0
    # a forced rank-2 set adds no mandatory triple through a, so a bound
    # on the dependent triples of the support alone leaves the search as
    # it is without the bound
    keys = [
        [profile.key() for profile in search_profiles(
            m, InclusionConstraints.of(g, forced_rank2=["abcd"]), mandatory=(),
            dep_max=bound, support=support, connected_only=False)]
        for bound in (None, ksubsets(support, 3))]
    assert keys[0] and keys[0] == keys[1]


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


def test_short_rank2_facet_skips_the_engine(monkeypatch):
    # a facet flat of rank 2 is a long line, so a 2-point set is none and
    # the search over U(3,7) never starts
    m = census_rank3(7)[0]
    cons = InclusionConstraints.of(m.ground, require_facet=["{a,b}<=2"])
    counts = count_searches(monkeypatch)
    assert enumerate_included_rank3(m, cons) == []
    assert counts["runs"] == 0
