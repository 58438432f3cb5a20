"""Facet tests: which inequalities cut facets of a base system, geometric
dimension cross-checks, submodularity audits, minimum descriptions."""

import pytest

from matbase.errors import NotConnectedError, RankError
from matbase.facets import (base_dimension, base_facets,
                            check_intersecting_submodularity, face_split,
                            is_facet_defining_base, is_facet_defining_ind,
                            minimum_flat_representation)
from matbase.matroid import (matroid_from_bases, matroid_from_flat_constraints,
                             uniform_matroid)
from matbase.rank3 import facet_rank2_flats
from matbase.setfam import ksubsets, submasks

from util import (affine_dim, exchange_ok_brute, ground, indicators,
                  label_sets, pool_rank3, pool_small)


def _m2():
    g = ground(5)
    return g, matroid_from_flat_constraints(g, 3, [("abc", 2), ("cde", 2)])


def test_facet_table_two_lines():
    # [PAPER] two lines abc, cde on five points: the full facet list
    g, m = _m2()
    got = {(g.show(r.flat.mask), r.rank_at_flat, r.trivial)
           for r in base_facets(m)}
    assert got == {
        ("abc", 2, False), ("cde", 2, False), ("abde", 3, True),
        ("a", 1, True), ("b", 1, True), ("d", 1, True), ("e", 1, True)}
    # c lies on both lines, so (c,1)<= is redundant, not a facet
    assert not is_facet_defining_base(m, "c").facet_of_base


def test_parallel_pair_ind_facet_but_not_base_facet():
    # [PAPER] r(ab)=1 from crossing 4-point lines; (ab,1)<= cuts a facet of
    # the independence polytope but not of the base polytope
    g = ground(6)
    m = matroid_from_flat_constraints(g, 3, [("abcd", 2), ("abef", 2)])
    assert m.rank_of(g.mask("ab")) == 1
    assert is_facet_defining_ind(m, "ab")
    rep = is_facet_defining_base(m, "ab")
    assert not rep.facet_of_base and rep.trivial is None
    assert len(rep.components_on_face) == 3
    assert rep.components_on_face == (
        g.mask("ab"), g.mask("cd"), g.mask("ef"))


def test_facet_reports_errors():
    _, m = _m2()
    with pytest.raises(RankError):
        is_facet_defining_base(m, "")
    with pytest.raises(RankError):
        is_facet_defining_base(m, "abcde")
    disc = uniform_matroid(1, 2, "ab").direct_sum(uniform_matroid(1, 2, "cd"))
    with pytest.raises(NotConnectedError):
        is_facet_defining_base(disc, "ab")
    with pytest.raises(NotConnectedError):
        base_facets(disc)


def test_one_element_matroids_have_no_facets():
    # a point and a loop are connected, and no nonempty proper A exists
    for m in (uniform_matroid(1, 1), uniform_matroid(0, 1)):
        assert m.is_connected() and base_facets(m) == []


def test_base_dimension_against_affine_oracle():
    # [DERIVED] polytope dimension = |E| - number of components, checked
    # against the rank of the actual vertex coordinates
    for m in pool_small(6):
        dim = affine_dim(indicators(m.ground, list(m.bases)))
        assert base_dimension(m) == dim


def test_facet_iff_dimension_drops_by_one():
    # [DERIVED] geometric oracle: (A, r(A))= cuts a facet exactly when the
    # vertices achieving equality span one dimension less
    for m in pool_small(6):
        if not m.is_connected():
            continue
        g = m.ground
        dim = base_dimension(m)
        cands = {f for f in m.flats() if 0 < f < g.full_mask}
        cands.update(g.full_mask & ~(1 << i) for i in range(g.n))
        for amask in cands:
            ra = m.rank_of(amask)
            face = [b for b in m.bases if (b & amask).bit_count() == ra]
            facedim = affine_dim(indicators(g, face))
            rep = is_facet_defining_base(m, amask)
            assert rep.facet_of_base == (facedim == dim - 1)
            # the equivalent component count and split-connectivity forms
            assert rep.facet_of_base == (len(rep.components_on_face) == 2)
            rest, con = face_split(m, amask)
            assert rep.facet_of_base == (
                rest.is_connected() and con.is_connected())


def test_face_split_generates_face_family():
    # the bases tight at (A, r(A)) are exactly restriction plus contraction
    # bases, and they satisfy base exchange themselves
    for m in pool_small(5):
        g = m.ground
        for amask in m.flats():
            if not 0 < amask < g.full_mask:
                continue
            ra = m.rank_of(amask)
            face = sorted(b for b in m.bases
                          if (b & amask).bit_count() == ra)
            rest, con = face_split(m, amask)
            rsets = label_sets(rest)
            csets = label_sets(con)
            want = sorted(g.mask(sorted(x | y))
                          for x in rsets for y in csets)
            assert face == want
            assert exchange_ok_brute(face)


def test_validity_transfer():
    # a bound |X & A| <= a holds on every independent set iff it holds on
    # every base
    for m in pool_small(5):
        indep = [s for s in submasks(m.ground.full_mask)
                 if m.rank_of(s) == s.bit_count()]
        for amask in submasks(m.ground.full_mask):
            for a in range(amask.bit_count() + 1):
                on_bases = all((b & amask).bit_count() <= a for b in m.bases)
                on_indep = all((s & amask).bit_count() <= a for s in indep)
                assert on_bases == on_indep


def test_rank1_meeting_facet_rank2_flat_is_inside():
    # in a connected rank-3 matroid, a rank-1 flat touching a facet flat of
    # rank 2 lies inside it, with at least two elements left over
    for m in pool_rank3(7, simple_only=False, connected_only=True):
        flats1 = m.flats_of_rank(1)
        for rep in base_facets(m):
            if rep.rank_at_flat != 2:
                continue
            f2 = rep.flat.mask
            for f1 in flats1:
                if f1 & f2:
                    assert f1 & ~f2 == 0
                    assert (f2 & ~f1).bit_count() >= 2


def test_rank1_facet_criterion():
    # (A,1)<= with A a rank-1 flat fails to cut a facet exactly when two
    # rank-2 flats intersect in A and jointly cover the ground set
    for m in pool_rank3(7, simple_only=False, connected_only=True):
        full = m.ground.full_mask
        flats2 = m.flats_of_rank(2)
        for a in m.flats_of_rank(1):
            blocked = any(
                f1 & f2 == a and f1 | f2 == full
                for f1 in flats2 for f2 in flats2 if f1 != f2)
            assert is_facet_defining_base(m, a).facet_of_base == (not blocked)


def test_simple_rank3_facet_lines():
    # simple connected rank 3: the facet-defining rank-2 flats are exactly
    # the lines holding three or more points
    for m in pool_rank3(7, simple_only=True, connected_only=True):
        long_lines = sorted(f for f in m.flats_of_rank(2)
                            if f.bit_count() >= 3)
        assert sorted(facet_rank2_flats(m)) == long_lines
        from_table = sorted(r.flat.mask for r in base_facets(m)
                            if r.rank_at_flat == 2)
        assert from_table == long_lines


def test_intersecting_submodularity_check():
    g = ground(6)
    verdict = check_intersecting_submodularity(
        g, [("abcd", 2), ("abef", 2)])
    assert verdict is not True
    (s1, b1), (s2, b2) = verdict
    assert (s1.mask, b1) == (g.mask("abcd"), 2)
    assert (s2.mask, b2) == (g.mask("abef"), 2)
    g5 = ground(5)
    # without a global rank row the two-line system is not submodular:
    # r'(abcde) reaches 4 via abde
    assert check_intersecting_submodularity(
        g5, [("abc", 2), ("cde", 2)]) is not True
    assert check_intersecting_submodularity(
        g5, [("abc", 2), ("cde", 2), ("abcde", 3)]) is True
    # disjoint supports are never audited
    assert check_intersecting_submodularity(
        g5, [("ab", 1), ("cd", 1)]) is True


def test_minimum_flat_representation():
    g, m = _m2()
    rep = [(g.show(f.mask), r) for f, r in minimum_flat_representation(m)]
    assert rep == [("abc", 2), ("cde", 2), ("abcde", 3)]

    def cut_out(full, pairs):
        return {s for s in submasks(full)
                if all((s & fm).bit_count() <= r for fm, r in pairs)}

    # [DERIVED] the rows reconstruct the independence system, and no
    # single row can be dropped
    for m in pool_small(6):
        if m.loops():
            continue
        full = m.ground.full_mask
        pairs = [(f.mask, r) for f, r in minimum_flat_representation(m)]
        indep = {s for s in submasks(full)
                 if m.rank_of(s) == s.bit_count()}
        assert cut_out(full, pairs) == indep
        for skip in range(len(pairs)):
            assert cut_out(full, pairs[:skip] + pairs[skip + 1:]) != indep
        bases = [b for b in ksubsets(full, m.rank)
                 if all((b & fm).bit_count() <= r for fm, r in pairs)]
        assert sorted(bases) == sorted(m.bases.masks)


def test_minimum_representation_errors():
    gl = ground(4)
    ml = matroid_from_bases(gl, ["ab", "ac", "bc"])
    with pytest.raises(RankError):
        minimum_flat_representation(ml)
