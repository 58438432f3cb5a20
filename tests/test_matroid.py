"""Matroid construction, rank, minors, duality, connectivity, binarity."""

import random

import pytest

from matbase.errors import (EmptyFamilyError, ExchangeAxiomError,
                            GroundMismatchError, MixedCardinalityError)
from matbase.matroid import (Matroid, are_isomorphic, matroid_from_bases,
                             matroid_from_flat_constraints, uniform_matroid)
from matbase.setfam import GroundSet, bits, ksubsets, submasks

from util import (exchange_ok_brute, ground, independent_sets, label_sets,
                  pool_small, rank_brute, relabel, try_matroid)


def test_construction_errors():
    g = ground(4)
    with pytest.raises(EmptyFamilyError):
        matroid_from_bases(g, [])
    with pytest.raises(MixedCardinalityError):
        matroid_from_bases(g, ["ab", "abc"])
    # a mask outside the ground is reported before the mixed sizes
    with pytest.raises(GroundMismatchError):
        Matroid(g, [0b11, 0b1110000])
    # [TRIVIAL] {ab, cd} has no exchange for a into cd
    with pytest.raises(ExchangeAxiomError) as ei:
        matroid_from_bases(g, ["ab", "cd"])
    b1, b2, x = ei.value.witness
    fam = {g.mask("ab"), g.mask("cd")}
    m1, m2, ex = g.mask(b1), g.mask(b2), g.mask([x])
    assert m1 in fam and m2 in fam and ex & m1 and not ex & m2
    assert all((m1 & ~ex) | (1 << y) not in fam for y in bits(m2 & ~m1))


def test_construction_agrees_with_brute_oracle_small():
    # [DERIVED] oracle: definition-level exchange check; exhaustive over
    # every family on 4 elements, all sizes
    for r in (1, 2, 3):
        g = ground(4)
        subs = sorted(ksubsets(g.full_mask, r))
        for sel in range(1, 1 << len(subs)):
            masks = [subs[i] for i in bits(sel)]
            got = try_matroid(g, masks)
            assert (got is not None) == exchange_ok_brute(masks)
            if got is not None:
                assert sorted(got.bases.masks) == sorted(masks)


def test_construction_agrees_with_brute_oracle_random():
    # seeded random families on 6 elements
    rng = random.Random(424242)
    g = ground(6)
    subs = sorted(ksubsets(g.full_mask, 3))
    for _ in range(400):
        k = rng.randrange(1, 9)
        masks = rng.sample(subs, k)
        assert (try_matroid(g, masks) is not None) == exchange_ok_brute(masks)


def test_uniform_matroid():
    m = uniform_matroid(2, 4)
    assert len(m.bases) == 6 and m.rank == 2
    assert uniform_matroid(3, 5, "abcde").ground.labels == tuple("abcde")


def test_rank_oracle_small():
    # rank from bases vs max independent subset size, |E| <= 6
    for m in pool_small(6):
        indep = independent_sets(m)
        for x in submasks(m.ground.full_mask):
            by_indep = max((s.bit_count() for s in submasks(x) if s in indep),
                           default=0)
            assert m.rank_of(x) == rank_brute(m, x) == by_indep


def test_rank_submodular():
    rng = random.Random(13579)
    for m in pool_small(5):
        full = m.ground.full_mask
        for x in submasks(full):
            for y in submasks(full):
                assert (m.rank_of(x) + m.rank_of(y)
                        >= m.rank_of(x | y) + m.rank_of(x & y))
    for m in pool_small(7)[-12:]:
        full = m.ground.full_mask
        for _ in range(300):
            x, y = rng.randrange(full + 1), rng.randrange(full + 1)
            assert (m.rank_of(x) + m.rank_of(y)
                    >= m.rank_of(x | y) + m.rank_of(x & y))


def test_closure_and_flats():
    for m in pool_small(5):
        full = m.ground.full_mask
        flats = set(m.flats())
        for x in submasks(full):
            cl = m.closure_of(x)
            # [DERIVED] closure = all elements not raising the rank
            want = x
            for i in bits(full & ~x):
                if m.rank_of(x | (1 << i)) == m.rank_of(x):
                    want |= 1 << i
            assert cl == want
            assert m.is_flat(x) == (cl == x)
            assert cl in flats
        # flats closed under intersection
        for f1 in flats:
            for f2 in flats:
                assert m.is_flat(f1 & f2)
        for k in range(m.rank + 1):
            assert set(m.flats_of_rank(k)) == {f for f in flats
                                               if m.rank_of(f) == k}


def test_circuits_minimal_dependent():
    for m in pool_small(5):
        indep = independent_sets(m)
        circ = set(m.circuits())
        for x in submasks(m.ground.full_mask):
            minimal_dep = x not in indep and all(
                x & ~(1 << i) in indep for i in bits(x))
            assert (x in circ) == minimal_dep


def test_loops_coloops_parallel():
    g = ground(6)
    # lines abcd and abef force r({a,b}) = 1: a, b are parallel
    m = matroid_from_flat_constraints(g, 3, [("abcd", 2), ("abef", 2)])
    assert m.rank_of(g.mask("ab")) == 1  # [PAPER]
    assert sorted(m.parallel_classes()) == sorted(
        [g.mask("ab"), g.mask("c"), g.mask("d"), g.mask("e"), g.mask("f")])
    assert m.loops() == 0 and m.coloops() == 0
    triples = [t for t in ksubsets(g.full_mask, 3) if not t & g.mask("f")]
    lm = matroid_from_bases(g, [t for t in triples
                                if (t & g.mask("abc")).bit_count() <= 2])
    assert lm.loops() == g.mask("f")
    assert lm.coloops() == 0


def test_components_and_connectivity():
    g = ground(5)
    m = matroid_from_bases(
        g, [t for t in ksubsets(g.full_mask, 3)
            if (t & g.mask("abc")).bit_count() <= 2
            and (t & g.mask("cde")).bit_count() <= 2])
    assert m.is_connected() and len(m.connected_components()) == 1
    # a loop is its own component
    gl = ground(4)
    ml = matroid_from_bases(gl, ["ab", "ac", "bc"])
    comps = sorted(ml.connected_components())
    assert comps == sorted([gl.mask("abc"), gl.mask("d")])
    assert not ml.is_connected()
    # direct sum splits into the two grounds
    u1 = uniform_matroid(1, 2, "ab")
    u2 = uniform_matroid(1, 2, "cd")
    ds = u1.direct_sum(u2)
    assert sorted(ds.connected_components()) == sorted(
        [ds.ground.mask("ab"), ds.ground.mask("cd")])


def test_direct_sum():
    u1 = uniform_matroid(1, 2, "ab")
    u2 = uniform_matroid(2, 3, "cde")
    ds = u1.direct_sum(u2)
    assert ds.rank == 3 and ds.ground.labels == tuple("abcde")
    assert label_sets(ds) == frozenset(
        frozenset(x) | frozenset(y)
        for x in ("a", "b") for y in ("cd", "ce", "de"))
    with pytest.raises(GroundMismatchError):
        u1.direct_sum(uniform_matroid(1, 2, "bc"))


def test_minors_reground_and_oracle():
    for m in pool_small(5):
        full = m.ground.full_mask
        for a in submasks(full):
            if a in (0, full):
                continue
            rest = m.restrict(a)
            assert rest.ground.labels == m.ground.labels_of(a)
            # [DERIVED] restriction bases = max-size independent subsets of a
            indep = independent_sets(m)
            k = m.rank_of(a)
            want = {s for s in submasks(a)
                    if s.bit_count() == k and s in indep}
            assert {m.ground.mask(rest.ground.labels_of(b))
                    for b in rest.bases} == want
            con = m.contract(a)
            assert con.ground.labels == m.ground.labels_of(full & ~a)
            # contraction bases = complements completing a max subset of a
            some = max((s for s in submasks(a) if s in indep),
                       key=lambda s: s.bit_count())
            wantc = {s for s in submasks(full & ~a)
                     if s.bit_count() == m.rank - k
                     and m.rank_of(s | some) == m.rank}
            assert {m.ground.mask(con.ground.labels_of(b))
                    for b in con.bases} == wantc
            assert m.delete(a) == m.restrict(full & ~a)


def test_dual_involution_and_rank_identity():
    for m in pool_small(6):
        d = m.dual()
        assert d.dual() == m
        full = m.ground.full_mask
        n, r = m.ground.n, m.rank
        assert d.rank == n - r
        for a in submasks(full):
            assert d.rank_of(a) == a.bit_count() - r + m.rank_of(full & ~a)
        # component structure is self-dual
        assert sorted(d.connected_components()) == sorted(
            m.connected_components())


def test_dual_restrict_contract_connectivity():
    # M*|A^c connected iff M/A connected, |E| <= 5 exhaustive
    for m in pool_small(5):
        full = m.ground.full_mask
        d = m.dual()
        for a in submasks(full):
            if a == full:
                continue
            assert (d.restrict(full & ~a).is_connected()
                    == m.contract(a).is_connected())


def test_simplify():
    g = ground(6)
    m = matroid_from_flat_constraints(g, 3, [("abcd", 2), ("abef", 2)])
    simple, rep = m.simplify()
    # [PAPER] a and b merge; five elements remain
    assert simple.ground.n == 5 and rep["a"] == rep["b"]
    assert simple.rank == 3 and simple.is_connected() == m.is_connected()
    dup = matroid_from_bases(GroundSet("abcde"),
                             [b for b in ksubsets(0b11111, 2)
                              if b & 0b11 != 0b11])
    sd, _ = dup.simplify()
    assert are_isomorphic(sd, uniform_matroid(2, 4))
    for m in pool_small(5):
        # simple: every set of at most two elements is independent
        small = [a for a in submasks(m.ground.full_mask) if a.bit_count() <= 2]
        assert m.is_simple() == all(rank_brute(m, a) == a.bit_count()
                                    for a in small)
        if m.loops():
            continue
        s, _ = m.simplify()
        assert s.rank == m.rank and s.is_simple()
        assert s.is_connected() == m.is_connected()


def _u24_minor_brute(m):
    full = m.ground.full_mask
    for c in submasks(full):
        if m.ground.n - c.bit_count() < 4:
            continue
        for rest4 in ksubsets(full & ~c, 4):
            mc = m.contract(c)
            minor = mc.restrict(mc.ground.mask(m.ground.labels_of(rest4)))
            if minor.rank == 2 and len(minor.bases) == 6:
                return True
    return False


def test_binary_u24_minor():
    u24 = uniform_matroid(2, 4)
    assert not u24.is_binary() and u24.find_u24_minor() is not None
    g = ground(7)
    seven = matroid_from_flat_constraints(
        g, 3, [("abc", 2), ("ade", 2), ("afg", 2), ("bdf", 2), ("ceg", 2)])
    assert not seven.is_binary()
    # [PAPER] the stated witness: contract c, delete b and g
    mc = seven.contract(g.mask("c"))
    minor = mc.restrict(mc.ground.mask("adef"))
    assert minor.rank == 2 and len(minor.bases) == 6
    # and the engine's own witness is a valid one
    four, cmask = seven.find_u24_minor()
    mc = seven.contract(cmask)
    minor = mc.restrict(mc.ground.mask(g.labels_of(four)))
    assert minor.rank == 2 and len(minor.bases) == 6
    fano = matroid_from_flat_constraints(
        g, 3, [("abc", 2), ("ade", 2), ("afg", 2), ("bdf", 2), ("beg", 2),
               ("cdg", 2), ("cef", 2)])
    # [DERIVED] exhaustive minor search finds no four-point line
    assert fano.is_binary() and not _u24_minor_brute(fano)


def test_binary_agrees_with_brute_minor_search():
    for m in pool_small(6):
        assert m.is_binary() == (not _u24_minor_brute(m))
        assert m.is_binary() == (m.find_u24_minor() is None)


def test_are_isomorphic():
    g = ground(5)
    m = matroid_from_flat_constraints(g, 3, [("abc", 2), ("cde", 2)])
    perm = dict(zip("abcde", "eacdb"))
    assert are_isomorphic(m, relabel(m, perm))
    assert not are_isomorphic(m, uniform_matroid(3, 5, "abcde"))
    assert not are_isomorphic(m, uniform_matroid(2, 4))
