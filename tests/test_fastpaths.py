"""Fast paths against their definitional twins in util: the bitset
kernels, the dependent triples of a state and the cover check's line
step, the overlap merge and the census key on hypothesis-generated
inputs, the face components and the facet table on every face of a
small pool, the flats against the closure walk, the generic-rank facet
table against a count of the minors' components, and facet duality, the
rank-3 profile and facet rule and the half hyperplane scan on the census
up to eight points, the face test of verify_decomposition against the
ordered-partition recursion and the exchange edges, the census key on
every family the census enumeration meets up to seven points, the
profile connectivity and facet keys on every rank-3 system below small
matroids, the inclusion search against those systems, and the
constrained inclusion search against the systems that meet the
constraints by their definitions."""

import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from matbase import facets
from matbase.census import (_beam, _candidate_lines, _invariant, _matches,
                            _orbit_lines, _pairs, canonical_key,
                            census_rank3, iter_line_families,
                            matroid_of_lines)
from matbase.decomp import _is_proper_face, classify, two_decompose
from matbase.errors import (ConstraintError, EmptyFamilyError,
                            ExchangeAxiomError, GroundMismatchError,
                            MatbaseError, NotConnectedError)
from matbase.examples import example_ids, get_example
from matbase.facets import (base_facets, is_facet_defining_base,
                            is_facet_inequality)
from matbase.matroid import (Matroid, _exchange_witness, merge_overlapping,
                             matroid_from_flat_constraints, uniform_matroid)
from matbase.order import _included_profiles, _join_line
from matbase.rank3 import (InclusionConstraints, Rank3Profile, _Triples,
                           check_rank3_input,
                           facet_graph_components, facet_rank2_flats,
                           rank3_profile, search_profiles)
from matbase.setfam import GroundSet, LinearConstraint, bits, ksubsets

from util import (automorphisms, closure_by_rank, count_beams,
                  exchange_witness_pairs,
                  face_components_by_minors, facet_inequality_by_report,
                  facet_reports_by_counting,
                  facet_rank2_flats_by_reports, flats_by_closure, ground,
                  included_by_definition, is_proper_face_by_levels,
                  line_extensions, line_families_by_keys,
                  line_key_by_permutations,
                  merge_by_union_find, normalize_cascade,
                  pool_rank3, pool_small,
                  rank3_profile_by_flats, rank_brute, relabel_mask,
                  split_families, systems_below, triple_dependent,
                  two_decompose_by_halves)


@st.composite
def families(draw):
    """Equal-size families on at most 7 elements, in any member order:
    either sparse picks or all k-subsets but a few, where a failure, if
    any, lies deep in the pair loop."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    subs = list(ksubsets((1 << n) - 1, k))
    if draw(st.booleans()):
        fam = draw(st.lists(st.sampled_from(subs), min_size=1, unique=True))
    else:
        drop = draw(st.sets(st.sampled_from(subs), max_size=3))
        fam = [s for s in subs if s not in drop] or subs
    return n, draw(st.permutations(fam))


@given(families())
def test_exchange_witness_matches_pair_loop(case):
    _, fam = case
    assert (_exchange_witness(fam, frozenset(fam))
            == exchange_witness_pairs(fam, frozenset(fam)))


def test_exchange_witness_on_cross_sections():
    # the traffic two_decompose sends: the cross-sections
    # {B : |B & A| = a}, 0 < a < r, A below the top element, of the
    # census classes up to seven points and of their duals, each
    # distinct member list once
    crosses = {}
    for m in CENSUS_TO_7 + [m.dual() for m in CENSUS_TO_7]:
        for amask in range(1, 1 << (m.ground.n - 1)):
            sizes = [(b & amask).bit_count() for b in m.bases.masks]
            for a in range(1, m.rank):
                cross = tuple(b for b, s in zip(m.bases.masks, sizes)
                              if s == a)
                if cross:
                    crosses[cross] = None
    failed = 0
    for cross in crosses:
        want = exchange_witness_pairs(cross, frozenset(cross))
        assert _exchange_witness(cross, frozenset(cross)) == want
        failed += want is not None
    assert 0 < failed < len(crosses)


@given(families())
def test_exchange_error_carries_pair_loop_witness(case):
    n, fam = case
    g = ground(n)
    want = exchange_witness_pairs(sorted(fam), frozenset(fam))
    if want is None:
        Matroid(g, fam)
        return
    with pytest.raises(ExchangeAxiomError) as ei:
        Matroid(g, fam)
    b1, b2, x = want
    assert ei.value.witness == (g.labels_of(b1), g.labels_of(b2),
                                g.labels[x])


def random_state(rng):
    """A (support, classes, lines) state on a random ground: classes
    partition the support, lines are unions of at least three
    classes."""
    n = rng.randint(4, 8)
    elems = sorted(rng.sample(range(n), rng.randint(3, n)))
    support = sum(1 << i for i in elems)
    by_tag = {}
    for i in elems:
        tag = rng.randrange(2 * len(elems))
        by_tag[tag] = by_tag.get(tag, 0) | 1 << i
    classes = tuple(sorted(by_tag.values()))
    lines = []
    if len(classes) >= 3:
        for _ in range(rng.randint(0, 3)):
            lines.append(sum(rng.sample(classes, rng.choice(
                [3, 3, rng.randint(3, len(classes))]))))
    return support, classes, tuple(sorted(lines))


@st.composite
def states(draw):
    """random_state from one seeded Random, whose draws, unlike
    hypothesis's own, do not lean to empty or full sets."""
    return random_state(draw(st.randoms(use_true_random=True)))


@given(states())
def test_dependent_triples_match_per_triple_loop(case):
    # the memoized bitsets of _Triples against each triple on its own
    support, classes, lines = case
    cls_of = {i: c for c in classes for i in bits(c)}
    tri = _Triples(support)
    assert tri.masks_of(tri.dependent(classes, lines)) == [
        t for t in ksubsets(support, 3)
        if triple_dependent(t, cls_of, lines)]


def line_joins(case):
    """(support, parent, line) for the drawn state normalized by the
    cascade, if it lives, and each line through three of its classes
    that no line holds."""
    support, classes, lines = case
    parent = normalize_cascade(support, classes, lines)
    if parent is None:
        return
    for pick in itertools.combinations(parent[0], 3):
        line = sum(pick)
        if all(line & ~l for l in parent[1]):
            yield support, parent, line


@given(states())
def test_child_matches_cascade(case):
    for support, (classes, lines), line in line_joins(case):
        assert _join_line(support, classes, lines, line) == (
            normalize_cascade(support, classes, lines + (line,)))


def test_child_matches_cascade_dead_and_merged():
    # the same comparison over fixed seeds, which must meet children
    # dead with all classes on one line, and children whose new line
    # absorbs two or more lines
    dead = merged = 0
    for seed in range(150):
        case = random_state(random.Random(seed))
        for support, (classes, lines), line in line_joins(case):
            got = _join_line(support, classes, lines, line)
            assert got == normalize_cascade(support, classes,
                                            lines + (line,))
            dead += got is None
            merged += got is not None and len(lines) + 1 - len(got[1]) >= 2
    assert dead and merged



def test_closure_matches_rank_definition_on_pool():
    # every mask of every matroid on at most six elements, and flats()
    # against the masks that are their own closure
    for m in pool_small(6):
        masks = range(1 << m.ground.n)
        closures = [closure_by_rank(m, x) for x in masks]
        assert [m.closure_of(x) for x in masks] == closures
        assert m.flats() == tuple(x for x in masks if closures[x] == x)


@given(families(), st.integers(0, 127))
def test_closure_matches_rank_definition_on_families(case, x):
    # the one-pass rule and the rank loop agree on any equal-size family,
    # matroid or not, so the family is taken on trust
    n, fam = case
    m = Matroid(ground(n), fam, trusted=True)
    x &= m.ground.full_mask
    assert m.closure_of(x) == closure_by_rank(m, x)


def test_components_on_face_match_minors():
    # every nonempty proper A of every connected matroid on <= 6 elements
    for m in pool_small(6):
        if not m.is_connected():
            continue
        for a in range(1, m.ground.full_mask):
            assert (is_facet_defining_base(m, a).components_on_face
                    == face_components_by_minors(m, a))


def test_facet_table_lookup_matches_reports():
    # every nonempty proper A and every bound of every connected matroid
    # on <= 6 elements: the table holds each facet, and only facets
    for m in pool_small(6):
        if not m.is_connected():
            continue
        for a in range(1, m.ground.full_mask):
            for bound in range(m.rank + 1):
                assert (is_facet_inequality(m, a, bound)
                        == facet_inequality_by_report(m, a, bound))


def test_facet_rank2_flats_match_reports():
    # the filter raises RankError on a rank-2 matroid, whose full ground
    # is its one rank-2 flat, so only the other ranks compare
    compared = 0
    for m in pool_small(6):
        if m.is_connected() and m.rank != 2:
            assert facet_rank2_flats(m) == facet_rank2_flats_by_reports(m)
            compared += m.rank == 3
    assert compared


def test_base_facets_list_is_fresh():
    m = get_example("seven_typed")["M"]
    first = base_facets(m)
    kept = list(first)
    first.clear()
    assert base_facets(m) == kept and kept


def test_classify_tests_each_facet_once(monkeypatch):
    # the facet table is built at most once per matroid object, and a
    # pool matroid reads it off the profile it came from, not its flats
    builds = Counter()
    alive = []  # every matroid met stays alive, so no id is reused
    pool = []
    build, make = facets._build_facet_table, Rank3Profile.matroid

    def counted(m):
        alive.append(m)
        builds[id(m)] += 1
        return build(m)

    def tracked(profile):
        mat = make(profile)
        pool.append(mat)
        return mat

    monkeypatch.setattr(facets, "_build_facet_table", counted)
    monkeypatch.setattr(Rank3Profile, "matroid", tracked)
    assert classify(get_example("seven_typed")["M"]).kind == "d"
    assert builds and max(builds.values()) == 1
    tabled = [m for m in pool if id(m) in builds]
    assert tabled and all(m._flats is None for m in tabled)


@functools.lru_cache(maxsize=None)
def rank3_facet_inputs():
    """The census classes up to eight points, both halves of each one's
    2-split, and the connected non-simple rank-3 matroids of
    pool_rank3."""
    out = []
    for n in range(4, 9):
        for m in census_rank3(n):
            out.append(m)
            split = two_decompose(m)
            if split is not None:
                out += split[1:]
    out += [m for m in pool_rank3(6, connected_only=True)
            if any(c.bit_count() > 1 for c in m.parallel_classes())]
    return tuple(out)


def test_rank3_profile_matches_flats():
    for m in rank3_facet_inputs():
        assert rank3_profile(m) == rank3_profile_by_flats(m)


def test_rank3_facet_rule_matches_counting():
    # the table read off the profile against a component count on every
    # candidate, and whole base_facets reports up to seven points
    inputs = rank3_facet_inputs()
    nonsimple = reports = 0
    for m in inputs:
        counted = facet_reports_by_counting(m)
        assert list(facets._facet_table(m)) == list(counted)
        nonsimple += any(c.bit_count() > 1 for c in m.parallel_classes())
        if m.ground.n <= 7:
            assert base_facets(m) == list(counted.values())
            reports += 1
    assert nonsimple and reports < len(inputs)


def fresh(m):
    """m rebuilt with no derived data, so a twin reads no memo of the
    code under test."""
    return Matroid(m.ground, m.bases.masks, trusted=True)


@functools.lru_cache(maxsize=None)
def census_and_duals():
    """The census classes up to eight points and their duals (ranks 1
    to 5); the duals of the seven- and eight-point classes are the
    generic-rank inputs of the facet table."""
    out = []
    for n in range(4, 9):
        for m in census_rank3(n):
            out += [m, m.dual()]
    return tuple(out)


def assert_flats_match_closure_walk(m):
    # the flats, and the rank each one leaves in the memo
    got = m.flats()
    assert got == flats_by_closure(fresh(m))
    assert [m._rank_memo[f] for f in got] == [rank_brute(m, f) for f in got]


def test_flats_match_closure_walk():
    # pool_small(6) holds loops, coloops and rank 0 and full rank
    cases = list(pool_small(6)) + list(census_and_duals())
    assert any(m.loops() for m in cases)
    for m in cases:
        assert_flats_match_closure_walk(m)


@st.composite
def matroids(draw):
    """U(r, n) on at most 7 elements less the bases of a drawn list that
    leave a matroid, maybe dualized, maybe with a loop added."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(0, n))
    g = ground(n)
    masks = list(ksubsets(g.full_mask, r))
    for drop in draw(st.lists(st.sampled_from(masks), max_size=10)):
        rest = [b for b in masks if b != drop]
        if rest and _exchange_witness(rest, frozenset(rest)) is None:
            masks = rest
    m = Matroid(g, masks, trusted=True)
    if draw(st.booleans()):
        m = m.dual()
    if draw(st.booleans()):
        m = m.direct_sum(uniform_matroid(0, 1, ["z"]))
    return m


@given(matroids())
def test_flats_match_closure_walk_on_random_matroids(m):
    assert_flats_match_closure_walk(m)


def generic_facet_inputs():
    """The connected matroids of pool_small(6) of a rank other than 3,
    and the connected duals of the census classes on seven and eight
    points (ranks 4 and 5) and of the fixtures on at most eight."""
    out = [m for m in pool_small(6) if m.is_connected() and m.rank != 3]
    out += [m.dual() for n in (7, 8) for m in census_rank3(n)]
    out += [m.dual() for eid in example_ids()
            for m in get_example(eid).matroids.values() if m.ground.n <= 8]
    return [m for m in out if m.is_connected()]


def test_generic_facet_table_matches_counting():
    # every report field, and the table keys, against a component count
    # of the minors on every candidate
    ranks = Counter()
    for m in generic_facet_inputs():
        counted = facet_reports_by_counting(fresh(m))
        assert list(facets._facet_table(m)) == list(counted)
        assert base_facets(m) == list(counted.values())
        ranks[m.rank] += 1
    assert ranks[4] and ranks[5] and ranks[2] and ranks[1]


def test_facets_of_dual_are_complements():
    # B(M*) = 1 - B(M), so (A, r(A))<= is a facet of B(M) exactly when
    # (E - A, |E - A| - r(E) + r(A))<= is one of B(M*)
    for m in census_and_duals()[::2]:
        if not m.is_connected():
            continue
        full = m.ground.full_mask
        want = sorted((full & ~r.flat.mask,
                       m.ground.n - r.flat.mask.bit_count() - m.rank
                       + r.rank_at_flat) for r in base_facets(m))
        got = [(r.flat.mask, r.rank_at_flat) for r in base_facets(m.dual())]
        assert got == want


def test_generic_facet_table_counts_nothing_twice(monkeypatch):
    # a rank-4 and a rank-5 dual: the table is built once per matroid,
    # from side probes alone, with no report per candidate
    builds, reports = Counter(), Counter()
    build, report = facets._build_facet_table, facets.is_facet_defining_base

    def counted_build(m):
        builds[id(m)] += 1
        return build(m)

    def counted_report(m, a):
        reports[id(m)] += 1
        return report(m, a)

    monkeypatch.setattr(facets, "_build_facet_table", counted_build)
    monkeypatch.setattr(facets, "is_facet_defining_base", counted_report)
    duals = [census_rank3(7)[0].dual(), census_rank3(8)[0].dual()]
    assert [d.rank for d in duals] == [4, 5]
    for d in duals:
        assert d.is_connected()
        first = base_facets(d)
        assert first and base_facets(d) == first
        assert all(is_facet_inequality(d, r.flat.mask, r.rank_at_flat)
                   for r in first)
    assert sorted(builds.values()) == [1, 1] and not reports


def test_facet_test_stops_at_first_disconnected_side(monkeypatch):
    # each candidate's sides are tested in turn, the contraction side of
    # a flat only when its restriction side is connected
    calls = []
    probe = facets.side_components

    def recorded(side, b0, base_set):
        comps = probe(side, b0, base_set)
        calls.append((side, len(comps)))
        return comps

    monkeypatch.setattr(facets, "side_components", recorded)
    m = census_rank3(8)[5].dual()
    full = m.ground.full_mask
    facets._facet_table(m)
    probed = iter(calls)
    stopped = both = 0
    for f in m.flats()[1:-1]:
        side, count = next(probed)
        assert side == f
        if count == 1:
            assert next(probed)[0] == full & ~f
            both += 1
        else:
            stopped += 1
    assert stopped and both
    assert (sorted(side for side, _ in probed)
            == sorted(full & ~(1 << e) for e in range(m.ground.n)))


def test_half_scan_matches_full_scan():
    # the first split over half the masks is the first over all of them
    # by the two-halves definition, with the same halves, on connected
    # matroids up to six points and on the rank-4 and rank-5 duals of
    # the census classes on seven and eight points
    inputs = [m for m in pool_small(6) if m.is_connected()]
    inputs += [m.dual() for n in (7, 8) for m in census_rank3(n)]
    splits = 0
    for m in inputs:
        got = split_families(two_decompose(m))
        assert got == two_decompose_by_halves(m)
        splits += got is not None
    assert 0 < splits < len(inputs)


CONNECTED_6 = [m for m in pool_small(6) if m.is_connected()]


@st.composite
def piece_families(draw):
    """A connected matroid of pool_small(6) with a family of its bases:
    the face where a random chain of sets is tight, or a random
    subfamily of it."""
    m = draw(st.sampled_from(CONNECTED_6))
    n = m.ground.n
    order = draw(st.permutations(range(n)))
    fam = frozenset(m.bases)
    for cut in draw(st.sets(st.integers(1, n))):
        amask = sum(1 << e for e in order[:cut])
        fam = frozenset(b for b in fam
                        if (b & amask).bit_count() == m.rank_of(amask))
    if draw(st.booleans()):
        fam = frozenset(draw(st.sets(st.sampled_from(sorted(fam)))))
    return m, fam


@given(piece_families())
def test_face_test_matches_levels(case):
    m, fam = case
    assert _is_proper_face(m, fam) == is_proper_face_by_levels(m, fam)


def test_face_test_matches_exchange_edges():
    # a vertex is a proper face of any polytope with another vertex, and
    # the edges of a base polytope are the base pairs one exchange apart
    # (Gelfand, Goresky, MacPherson and Serganova 1987)
    pairs = edges = 0
    for m in CONNECTED_6:
        bases = m.bases.masks
        assert _is_proper_face(m, frozenset())
        for b in bases:
            assert _is_proper_face(m, frozenset([b])) == (len(bases) > 1)
        for b1, b2 in itertools.combinations(bases, 2):
            edge = (b1 ^ b2).bit_count() == 2 and len(bases) > 2
            assert _is_proper_face(m, frozenset([b1, b2])) == edge
            pairs += 1
            edges += edge
    assert (pairs, edges) == (4158, 2194)


def test_face_test_needs_a_connected_piece():
    # the face test reads the facet table, which only a connected piece
    # has; a connected piece with one base has no facets, and its faces
    # are the empty family alone
    disconnected = [m for m in pool_small(6) if not m.is_connected()]
    assert len(disconnected) == 4
    for m in disconnected:
        with pytest.raises(NotConnectedError):
            _is_proper_face(m, frozenset(m.bases.masks[:1]))
    for r in (0, 1):
        m = uniform_matroid(r, 1, "a")
        assert m.is_connected() and facets._facet_table(m) == {}
        assert _is_proper_face(m, frozenset())
        assert not _is_proper_face(m, frozenset(m.bases))


@given(st.lists(st.integers(0, 255)))
def test_merge_overlapping_matches_union_find(masks):
    assert merge_overlapping(masks) == merge_by_union_find(masks)


CENSUS_TO_7 = [m for n in range(4, 8) for m in census_rank3(n)]


@st.composite
def census_probes(draw):
    """A census class on at most 7 elements and disjoint (a1, a2)."""
    m = draw(st.sampled_from(CENSUS_TO_7))
    tags = draw(st.lists(st.integers(0, 2), min_size=m.ground.n,
                         max_size=m.ground.n))
    a1 = sum(1 << i for i, t in enumerate(tags) if t == 1)
    a2 = sum(1 << i for i, t in enumerate(tags) if t == 2)
    return m, a1, a2


@given(census_probes())
def test_facet_graph_components_are_graph_components(case):
    m, a1, a2 = case
    comps, edges = facet_graph_components(m, a1, a2)
    assert all(e & ~a2 == 0 and e.bit_count() == 2 for e in edges)
    assert comps == merge_by_union_find([1 << i for i in bits(a2)] + edges)


@st.composite
def line_families(draw, max_n=7):
    """Line families on at most max_n points, in any order: lines of 3
    to n - 2 points pairwise meeting in at most one point."""
    n = draw(st.integers(4, max_n))
    candidates = _candidate_lines(n)
    fam = []
    if candidates:
        for line in draw(st.lists(st.sampled_from(candidates), unique=True)):
            if all((line & old).bit_count() <= 1 for old in fam):
                fam.append(line)
    return n, fam


@given(line_families(), st.randoms(use_true_random=False))
def test_canonical_key_matches_permutations(case, rng):
    n, fam = case
    key = canonical_key(fam)
    assert key == line_key_by_permutations(n, fam)
    perm = list(range(n))
    rng.shuffle(perm)
    assert canonical_key([relabel_mask(line, perm) for line in fam]) == key


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_canonical_key_on_census_families(n):
    # every raw family of the level-by-level enumeration: the extensions
    # of each representative by one candidate line
    candidates = _candidate_lines(n)
    for fam in iter_line_families(n):
        for raw in line_extensions(fam, candidates):
            assert canonical_key(raw) == line_key_by_permutations(n, raw)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_line_families_match_level_loop(n):
    # one extension per orbit and the walk against keying every raw
    # extension of every representative: the same families in the same
    # order
    assert list(iter_line_families(n)) == line_families_by_keys(n)


def test_census_beams_once_per_class(monkeypatch):
    # one full beam per class but the empty family; keying every raw
    # family took 214 and 805
    counts = count_beams(monkeypatch)
    for n, classes in ((7, 22), (8, 67)):
        counts.clear()
        assert len(list(iter_line_families(n))) == classes
        assert counts["beams"] == classes - 1


def test_orbit_lines_match_automorphisms():
    # on every class up to seven points: the least line of each orbit of
    # the automorphisms found among all n! permutations, among the lines
    # that can extend the class
    cases = 0
    for n in range(4, 8):
        candidates = [(line, _pairs(n, line))
                      for line in sorted(_candidate_lines(n))]
        for fam in iter_line_families(n):
            auts = automorphisms(n, fam)
            want = []
            covered = set()
            for line, _ in candidates:
                if line not in covered and all(
                        (line & old).bit_count() <= 1 for old in fam):
                    # candidates ascend: the first line met of an orbit
                    # is its least
                    covered.update(relabel_mask(line, p) for p in auts)
                    want.append(line)
            assert _orbit_lines(n, fam, _beam(fam)[1], candidates) == want
            cases += 1
    assert cases == 34


@given(line_families(), line_families(), st.randoms(use_true_random=False))
def test_walk_matches_key_equality(case, other, rng):
    n, fam = case
    key = canonical_key(fam)
    perm = list(range(n))
    rng.shuffle(perm)
    copy = [relabel_mask(line, perm) for line in fam]
    rng.shuffle(copy)
    assert _invariant(n, copy) == _invariant(n, fam)
    assert _matches(copy, key)
    m, lines = other
    if (m, len(lines)) == (n, len(fam)):
        assert _matches(lines, key) == (canonical_key(lines) == key)


# census classes on nine points that share their invariant, each group
# pairwise non-isomorphic; no two classes on fewer points share one
SHARED_INVARIANTS = [
    [(7, 25, 42, 196, 336, 416), (7, 25, 98, 168, 336, 388)],
    [(7, 25, 42, 52, 193, 322, 388), (7, 25, 42, 76, 176, 336, 385),
     (7, 25, 42, 84, 164, 322, 385)],
]


def test_walk_on_shared_invariants():
    rng = random.Random(9)
    for group in SHARED_INVARIANTS:
        keys = [canonical_key(fam) for fam in group]
        assert len(set(keys)) == len(group)
        assert len({_invariant(9, fam) for fam in group}) == 1
        for fam, key in zip(group, keys):
            perm = list(range(9))
            rng.shuffle(perm)
            assert _matches([relabel_mask(line, perm) for line in fam], key)
            assert [_matches(fam, other) for other in keys] == [
                other == key for other in keys]


def test_matroid_of_lines_matches_flat_constraints():
    cases = 0
    for n in range(4, 9):
        for fam in iter_line_families(n):
            m = matroid_of_lines(n, fam)
            want = matroid_from_flat_constraints(
                m.ground, 3, [(line, 2) for line in fam])
            assert (m.ground, m.bases) == (want.ground, want.bases)
            cases += 1
    assert cases == 101
    # a point outside the ground; two lines sharing two points; a line
    # holding every triple; too few points for rank 3
    for n, lines, error in ((4, [0b10011], GroundMismatchError),
                            (5, [0b111, 0b1011], ExchangeAxiomError),
                            (4, [0b1111], EmptyFamilyError),
                            (2, [], ConstraintError)):
        with pytest.raises(error):
            matroid_of_lines(n, lines)
        with pytest.raises(error):
            matroid_from_flat_constraints(
                GroundSet("abcde"[:n]), 3, [(line, 2) for line in lines])


@functools.lru_cache(maxsize=None)
def walked_profiles():
    """Every rank-3 profile, connected or not, below the census classes
    up to six points and seven_typed, with its matroid: those of the
    twin rank3_systems with no loop, and with the first element as the
    one loop."""
    out = []
    for m in ([m for n in range(4, 7) for m in census_rank3(n)]
              + [get_example("seven_typed")["M"]]):
        for loops in (0, 1):
            for classes, lines, _ in systems_below(m, loops):
                p = Rank3Profile(m.ground, classes, lines)
                out.append((p, p.matroid()))
    return tuple(out)


def test_profile_connectivity_matches_matroid():
    total = disconnected = 0
    for profile, mat in walked_profiles():
        connected = profile.is_connected()
        assert connected == mat.is_connected()
        total += 1
        disconnected += not connected
    assert 0 < disconnected < total


def test_profile_facet_keys_match_matroid():
    # on connected profiles, every flat f of rank 1 and 2 is among the
    # facet keys exactly when a fresh facet report says (f, k) is a facet
    facets = 0
    for profile, mat in walked_profiles():
        if not profile.is_connected():
            continue
        keys = set(profile.facet_keys())
        for k in (1, 2):
            for f in mat.flats_of_rank(k):
                facet = facet_inequality_by_report(mat, f, k)
                assert ((f, k) in keys) == facet
                facets += facet
    assert facets


def pruned_matches_filtered(m):
    """The pruned search against the loopless systems below m that the
    twin rank3_systems lists, filtered by is_connected: the same
    profiles, each once.  Returns how many."""
    pruned = [p.key() for p in search_profiles(m)]
    twin = [(classes, lines) for classes, lines, _ in systems_below(m, 0)
            if Rank3Profile(m.ground, classes, lines).is_connected()]
    assert len(set(pruned)) == len(pruned)
    assert sorted(pruned) == sorted(twin)
    return len(pruned)


def cheap_to_search(m):
    """Not a rank-3 matroid on 7 points with at most one dependent triple
    (34 or 35 bases): the search on U(3,7) alone yields 19,638 profiles
    and takes seconds."""
    return m.ground.n < 7 or len(m.bases) <= 33


def test_pruned_search_matches_filtered_on_census():
    # every census class up to seven points but U(3,7) and the single
    # 3-point line
    found = sum(pruned_matches_filtered(m)
                for m in filter(cheap_to_search, CENSUS_TO_7))
    assert found > len(CENSUS_TO_7)


def rank3_fixtures(n_max):
    for eid in example_ids():
        for m in get_example(eid).matroids.values():
            if m.ground.n > n_max:
                continue
            try:
                check_rank3_input(m)
            except MatbaseError:
                continue
            yield m


def test_pruned_search_matches_filtered_on_fixtures():
    # every fixture matroid on at most seven points that
    # check_rank3_input accepts; the twin lists every system on the
    # ground, 22,172 loopless ones at seven points
    counts = [pruned_matches_filtered(m) for m in rank3_fixtures(7)]
    assert len(counts) >= 7 and max(counts) >= 10


@given(line_families(max_n=6))
def test_pruned_search_matches_filtered_on_line_families(case):
    pruned_matches_filtered(matroid_of_lines(*case))


def random_inclusion_constraints(g, rng):
    """Seeded mixed constraints on the ground g with at least one forced
    set or required facet: forced rank-1 sets of 1 to 3 elements, forced
    rank-2 sets of 3 or 4, and required facets (A,1)<= on 1 to 3
    elements or (A,2)<= on 2 to 4."""

    def pick(sizes):
        return sum(1 << i for i in rng.sample(range(g.n), rng.choice(sizes)))

    while True:
        f1 = tuple(pick((1, 2, 2, 3)) for _ in range(rng.choice((0, 0, 1, 2))))
        f2 = tuple(pick((3, 3, 4)) for _ in range(rng.choice((0, 0, 1))))
        rf = []
        for _ in range(rng.choice((0, 1, 1, 2))):
            bound = rng.choice((1, 2))
            sizes = (1, 2, 3) if bound == 1 else (2, 3, 3, 4)
            rf.append(LinearConstraint(g, pick(sizes), "<=", bound))
        if f1 or f2 or rf:
            break
    return InclusionConstraints(forced_rank1=f1, forced_rank2=f2,
                                require_facet=tuple(rf))


def test_constrained_search_matches_filtered_twin():
    # the search seeded from propagate's closure against the systems
    # below m that meet the constraints by their definitions
    cases = found = 0
    pool = [m for m in CENSUS_TO_7 if m.ground.n <= 6]
    for k, m in enumerate(pool + [get_example("seven_typed")["M"]]):
        rng = random.Random(k)
        for _ in range(16):
            cons = random_inclusion_constraints(m.ground, rng)
            got = [p.key() for p in _included_profiles(m, cons)]
            assert len(set(got)) == len(got)
            assert set(got) == included_by_definition(m, cons)
            cases += 1
            found += bool(got)
    assert cases == 208 and found >= 20
