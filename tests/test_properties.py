"""Invariant batteries, exhaustive on small grounds and seeded-random
above.  Each battery_* function runs one invariant over its scope,
raises AssertionError on the first violation, and returns the number of
cases it checked, so other suites can re-run and report them."""

import itertools
import random

from matbase.census import canonical_key, census_rank3
from matbase.decomp import (classify, facet_graph, rank3_quick_witnesses,
                            rank3_two_decomposable_by, three_partitions,
                            two_decompose, verify_decomposition)
from matbase.errors import ContradictionError
from matbase.examples import get_example
from matbase.facets import base_dimension, base_facets, face_split, \
    is_facet_defining_base
from matbase.order import enumerate_included_rank3, weak_leq
from matbase.rank3 import InclusionConstraints, facet_rank2_flats, propagate
from matbase.setfam import LinearConstraint, ksubsets, submasks

from util import (affine_dim, all_families, duplicate_element,
                  exchange_ok_brute, ground, indicators, label_sets,
                  pool_rank3, pool_small, rank3_profile_by_flats, relabel,
                  set_partitions_3, split_families, try_matroid,
                  two_decompose_by_halves, weak_leq_by_ranks)


def battery_exchange_construction():
    """Construction accepts exactly the exchange-valid families.

    Exhaustive over every family of r-subsets at n=4, every family of
    3-subsets at n=5, and 400 seeded samples at n=6."""
    cases = 0
    for r in (1, 2, 3):
        for g, fam in all_families(4, r):
            assert (try_matroid(g, fam) is not None) == exchange_ok_brute(fam)
            cases += 1
    for g, fam in all_families(5, 3):
        assert (try_matroid(g, fam) is not None) == exchange_ok_brute(fam)
        cases += 1
    rng = random.Random(661616)
    g = ground(6)
    subs = sorted(ksubsets(g.full_mask, 3))
    for _ in range(400):
        fam = tuple(rng.sample(subs, rng.randrange(1, 10)))
        assert (try_matroid(g, fam) is not None) == exchange_ok_brute(fam)
        cases += 1
    return cases


def battery_constraint_implication():
    """implies() is sound always and exact for effective bounds, against
    direct containment of the satisfying families."""
    cases = 0
    for n in (4, 5):
        g = ground(n)
        full = g.full_mask
        sat = {}
        for amask in submasks(full):
            if not amask:
                continue
            for a in range(amask.bit_count() + 1):
                key = (amask, a)
                sat[key] = frozenset(
                    x for x in submasks(full)
                    if (x & amask).bit_count() <= a)
        for (a1, b1), s1 in sat.items():
            for (a2, b2), s2 in sat.items():
                c1 = LinearConstraint(g, a1, "<=", b1)
                c2 = LinearConstraint(g, a2, "<=", b2)
                got = c2.implies(c1)
                contained = s2 <= s1
                assert not got or contained
                if b1 < a1.bit_count() and b2 < a2.bit_count():
                    assert got == contained
                cases += 1
    return cases


def battery_complement_note():
    """(A,a)<= and its complement form cut the same rank-sized sets."""
    cases = 0
    for n in (4, 5, 6):
        g = ground(n)
        full = g.full_mask
        for amask in submasks(full):
            if not amask:
                continue
            for a in range(amask.bit_count() + 1):
                for r in range(a, n + 1):
                    c = LinearConstraint(g, amask, "<=", a)
                    cc = c.complement_form(r)
                    for x in ksubsets(full, r) if r else [0]:
                        assert c.satisfied(x) == cc.satisfied(x)
                        cases += 1
    return cases


def battery_rank_dominance():
    """Base-family inclusion coincides with rankwise dominance."""
    cases = 0
    mats = pool_small(6)
    for m1 in mats:
        for m2 in mats:
            if m1.ground != m2.ground or m1.rank != m2.rank:
                continue
            assert weak_leq(m2, m1) == weak_leq_by_ranks(m2, m1)
            cases += 1
    return cases


def battery_facet_dimension():
    """For connected matroids, four readings of "(A, r(A))<= cuts a
    facet" agree: the report flag, a two-component face, both split
    halves connected, and an affine dimension drop of exactly one."""
    cases = 0
    for m in pool_small(7):
        if not m.is_connected():
            continue
        g = m.ground
        dim = base_dimension(m)
        cands = {f for f in m.flats() if 0 < f < g.full_mask}
        cands.update(g.full_mask & ~(1 << i) for i in range(g.n))
        for amask in cands:
            ra = m.rank_of(amask)
            face = [b for b in m.bases if (b & amask).bit_count() == ra]
            rep = is_facet_defining_base(m, amask)
            assert rep.facet_of_base == (
                affine_dim(indicators(g, face)) == dim - 1)
            assert rep.facet_of_base == (len(rep.components_on_face) == 2)
            rest, con = face_split(m, amask)
            assert rep.facet_of_base == (
                rest.is_connected() and con.is_connected())
            cases += 1
    return cases


def battery_face_factorization():
    """The tight family at (A, r(A)) is the product of the restriction
    and contraction families, and is itself exchange-valid."""
    cases = 0
    for m in pool_small(6):
        g = m.ground
        for amask in m.flats():
            if not 0 < amask < g.full_mask:
                continue
            ra = m.rank_of(amask)
            face = sorted(b for b in m.bases
                          if (b & amask).bit_count() == ra)
            rest, con = face_split(m, amask)
            want = sorted(g.mask(sorted(x | y))
                          for x in label_sets(rest) for y in label_sets(con))
            assert face == want
            assert exchange_ok_brute(face)
            cases += 1
    return cases


def battery_duality():
    """Dual of dual is the original; corank identity holds pointwise;
    contraction connectivity mirrors dual restriction."""
    cases = 0
    for m in pool_small(6):
        d = m.dual()
        assert d.dual() == m
        full = m.ground.full_mask
        for a in submasks(full):
            assert d.rank_of(a) == (
                a.bit_count() - m.rank + m.rank_of(full & ~a))
            cases += 1
    for m in pool_small(5):
        d = m.dual()
        full = m.ground.full_mask
        for a in submasks(full):
            if a == full:
                continue
            assert (d.restrict(full & ~a).is_connected()
                    == m.contract(a).is_connected())
            cases += 1
    return cases


def battery_split_agreement():
    """The two-halves and cross-section criteria for a splitting
    hyperplane find the same first split with the same halves."""
    cases = 0
    for m in pool_small(7):
        if m.is_connected():
            assert (split_families(two_decompose(m))
                    == two_decompose_by_halves(m))
            cases += 1
    return cases


def _partition_conditions(m, parts):
    flats2 = facet_rank2_flats(m)
    if any(p.bit_count() < 2 for p in parts):
        return False
    if any(f & parts[0] and f & parts[1] and f & parts[2] for f in flats2):
        return False
    return all(m.rank_of(parts[i] | parts[j]) == 3
               for i, j in ((0, 1), (0, 2), (1, 2)))


def battery_partition_counting():
    """Emitted 3-partitions satisfy the definition, the clique-edge
    counting bound, and pairwise facet-graph edge-disjointness; the
    emitted list equals the definitional filter."""

    def e(k):
        return k * (k - 1) // 2

    def f(k):
        t, odd = divmod(k, 2)
        return t * t if odd else t * (t - 1)

    cases = 0
    assert (e(4), f(3), f(4), f(8)) == (6, 1, 2, 12)
    for m in pool_rank3(7, simple_only=True, connected_only=True):
        g = m.ground
        flats2 = facet_rank2_flats(m)
        need = sum(f(fl.bit_count()) for fl in flats2)
        got = {tp.parts for tp in three_partitions(m)}
        naive = set()
        for blocks in set_partitions_3(list(g.labels)):
            parts = tuple(sorted(g.mask("".join(b)) for b in blocks))
            if _partition_conditions(m, parts):
                naive.add(parts)
        assert got == naive
        for parts in got:
            assert sum(e(p.bit_count()) for p in parts) >= need
            for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                gi = facet_graph(m, g.labels_of(parts[i]),
                                 g.labels_of(parts[k]))
                gj = facet_graph(m, g.labels_of(parts[j]),
                                 g.labels_of(parts[k]))
                assert not set(gi.edges) & set(gj.edges)
            cases += 1
        cases += 1
    return cases


def battery_quick_witness_soundness():
    """Every quick certificate names a hyperplane that really splits."""
    cases = 0
    mats = list(census_rank3(7)) + [
        get_example(n)["M"] for n in
        ("twopoints", "triangle", "notall", "twelve")]
    for m in mats:
        for w in rank3_quick_witnesses(m):
            assert rank3_two_decomposable_by(
                m, m.ground.labels_of(w.hyperplane.support))
            cases += 1
    return cases


def battery_piece_inclusion():
    """Witness decompositions verify, and every piece sits weakly below
    the whole."""
    cases = 0
    for m in census_rank3(7):
        mc = classify(m)
        if mc.kind not in ("d", "e"):
            continue
        dec = mc.witness
        assert verify_decomposition(m, list(dec.pieces)).ok
        for p in dec.pieces:
            assert weak_leq(p, m)
            cases += 1
    return cases


def battery_enumerator_stream():
    """Everything the inclusion search yields is a proper, connected,
    weakly smaller system; under constraints, forced ranks hold."""
    cases = 0
    seven = get_example("seven_typed")["M"]
    g = seven.ground
    cons = InclusionConstraints.of(g, require_facet=("{b,d}<=1",))
    closed = propagate(seven, cons)
    got = enumerate_included_rank3(seven, cons)
    for sub in got:
        assert weak_leq(sub, seven) and sub.is_connected()
        assert sub.bases != seven.bases
        for a in closed.forced_rank1:
            assert sub.rank_of(a) == 1
        for t in closed.forced_rank2:
            assert sub.rank_of(t) <= 2
        rep = is_facet_defining_base(sub, "bd")
        assert rep.facet_of_base
        cases += 1
    assert cases > 0
    return cases


def battery_propagate_fixpoint():
    """propagate is monotone on its inputs and idempotent, over seeded
    random constraint seeds."""
    rng = random.Random(905090)
    cases = 0
    for m in census_rank3(6) + census_rank3(7):
        g = m.ground
        full = g.full_mask
        for _ in range(6):
            f1 = rng.randrange(1, full) & ~1 or 2
            f2 = rng.randrange(1, full) | 1
            if f2.bit_count() < 2 or (full & ~f2).bit_count() < 2:
                continue
            cons = InclusionConstraints(
                forced_rank1=(f1,), forced_rank2=(f2,))
            try:
                out = propagate(m, cons)
            except ContradictionError:
                continue
            assert any(a & f1 == f1 for a in out.forced_rank1)
            assert any(t & f2 == f2 for t in out.forced_rank2)
            again = propagate(m, out)
            assert again.forced_rank1 == out.forced_rank1
            assert again.forced_rank2 == out.forced_rank2
            cases += 1
    assert cases > 0
    return cases


def battery_rank2_intersections():
    """A rank-2 flat and a rank-2 set not inside it intersect in rank
    at most 1; distinct lines of a simple matroid share at most one
    point."""
    cases = 0
    for m in pool_rank3(7, simple_only=False, connected_only=False):
        full = m.ground.full_mask
        flats2 = m.flats_of_rank(2)
        for f1 in flats2:
            for f2 in submasks(full):
                if m.rank_of(f2) != 2 or not f2 & ~f1:
                    continue
                assert m.rank_of(f1 & f2) <= 1
                cases += 1
        simple = all(c.bit_count() == 1 for c in m.parallel_classes())
        if simple:
            for f1, f2 in itertools.combinations(flats2, 2):
                assert (f1 & f2).bit_count() <= 1
                cases += 1
    return cases


def battery_facet_flat_containment():
    """A rank-1 flat meeting a facet-defining rank-2 flat lies inside
    it and leaves at least two elements over."""
    cases = 0
    for m in pool_rank3(7, simple_only=False, connected_only=True):
        flats1 = m.flats_of_rank(1)
        for rep in base_facets(m):
            if rep.rank_at_flat != 2:
                continue
            f2 = rep.flat.mask
            for f1 in flats1:
                if f1 & f2:
                    assert f1 & ~f2 == 0 and (f2 & ~f1).bit_count() >= 2
                    cases += 1
    return cases


def _same_simple_rank3(m1, m2):
    """Whether two simple rank-3 matroids are isomorphic: one size and
    one census key of their long lines."""
    return m1.ground.n == m2.ground.n and (
        canonical_key(rank3_profile_by_flats(m1).long_lines)
        == canonical_key(rank3_profile_by_flats(m2).long_lines))


def battery_simplify_invariance():
    """Adding a parallel copy never changes the simplification class or
    the classification."""
    cases = 0
    rng = random.Random(77007)
    for m in census_rank3(6) + census_rank3(7):
        lab = rng.choice(m.ground.labels)
        dup = duplicate_element(m, lab, "z")
        simple, rep = dup.simplify()
        assert rep["z"] == rep[lab]
        assert simple.is_simple() and _same_simple_rank3(simple, m)
        assert classify(m).kind == classify(simple).kind
        cases += 1
    return cases


def battery_relabel_invariance():
    """Classification and facet structure are label-blind."""
    cases = 0
    rng = random.Random(31337)
    for m in census_rank3(6) + census_rank3(7):
        labs = list(m.ground.labels)
        img = labs[:]
        rng.shuffle(img)
        perm = dict(zip(labs, img))
        rm = relabel(m, perm)
        assert _same_simple_rank3(m, rm)
        assert classify(m).kind == classify(rm).kind
        assert len(base_facets(m)) == len(base_facets(rm))
        cases += 1
    return cases


BATTERIES = [
    battery_exchange_construction,
    battery_constraint_implication,
    battery_complement_note,
    battery_rank_dominance,
    battery_facet_dimension,
    battery_face_factorization,
    battery_duality,
    battery_split_agreement,
    battery_partition_counting,
    battery_quick_witness_soundness,
    battery_piece_inclusion,
    battery_enumerator_stream,
    battery_propagate_fixpoint,
    battery_rank2_intersections,
    battery_facet_flat_containment,
    battery_simplify_invariance,
    battery_relabel_invariance,
]


def test_exchange_construction():
    assert battery_exchange_construction() > 1000


def test_constraint_implication():
    assert battery_constraint_implication() > 1000


def test_complement_note():
    assert battery_complement_note() > 1000


def test_rank_dominance():
    assert battery_rank_dominance() > 100


def test_facet_dimension():
    assert battery_facet_dimension() > 300


def test_face_factorization():
    assert battery_face_factorization() > 100


def test_duality():
    assert battery_duality() > 1000


def test_split_agreement():
    assert battery_split_agreement() > 30


def test_partition_counting():
    assert battery_partition_counting() > 10


def test_quick_witness_soundness():
    assert battery_quick_witness_soundness() > 20


def test_piece_inclusion():
    assert battery_piece_inclusion() > 20


def test_enumerator_stream():
    assert battery_enumerator_stream() > 0


def test_propagate_fixpoint():
    assert battery_propagate_fixpoint() > 20


def test_rank2_intersections():
    assert battery_rank2_intersections() > 200


def test_facet_flat_containment():
    assert battery_facet_flat_containment() > 20


def test_simplify_invariance():
    assert battery_simplify_invariance() == 30


def test_relabel_invariance():
    assert battery_relabel_invariance() == 30


def test_census_classification_distribution():
    # [DERIVED] frozen class counts over the censuses
    def dist(n):
        out = {}
        for m in census_rank3(n):
            k = classify(m).kind
            out[k] = out.get(k, 0) + 1
        return out

    assert dist(4) == {"a": 1}
    assert dist(5) == {"a": 1, "e": 2}
    assert dist(6) == {"a": 1, "e": 7}
    assert dist(7) == {"a": 1, "d": 2, "e": 19}
    assert dist(8) == {"b": 1, "d": 4, "e": 62}
