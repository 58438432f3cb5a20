"""Facet-defining inequalities of independence and base systems.

A candidate inequality (A, r(A))<= is facet-defining for the base system of a
connected matroid exactly when the face it cuts out has two connected
components, equivalently when both the restriction to A and the contraction
by A are connected (Feichtner and Sturmfels, 2005).  The face is the tight
family {B : |B & A| = r(A)}, which is the base family of M|A direct-sum
M/A over the same ground.  Its components come from one tight base B0
alone: for e and f on the same side of A, f lies on the fundamental
circuit of e exactly when B0 - f + e is a base (matroid.side_components),
so neither minor is built.  Connectivity counts every loop and coloop as
its own component.

Each matroid's facets are found once, into a table of keys that every
facet question reads.  For rank 3 the table is read off the parallel
classes and long lines (Rank3Profile.facet_keys).  For other ranks the
candidates are the proper flats, each with the tight base Matroid.flats
recorded for it, and the sets E - e, each with a base avoiding e; a
candidate is tested side by side and dropped at the first side that is
not connected.  The face of a facet always has the components A and
E - A, so base_facets builds its reports from the keys with no count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotConnectedError, RankError
from .matroid import side_components
from .setfam import ElementSet, bits


@dataclass(frozen=True, slots=True)
class FacetReport:
    """Outcome of testing one inequality (flat, rank_at_flat)<= on a base
    system.

    components_on_face is the ground partition into the components of the
    face's tight family {B : |B & flat| = rank_at_flat}, the bases of
    M|flat direct-sum M/flat; trivial is None when the inequality is not
    facet-defining for the base system.
    """

    flat: ElementSet
    rank_at_flat: int
    facet_of_base: bool
    trivial: bool | None
    components_on_face: tuple


def _face_components(m, amask):
    """Components of B(M) cap (A, r(A))=, i.e. of M|A direct-sum M/A, as
    masks over the ground of m, from a base meeting A in r(A) elements."""
    b0 = max(m.bases.masks, key=lambda b: (b & amask).bit_count())
    base_set = m.bases._set
    return tuple(sorted(
        side_components(amask, b0, base_set)
        + side_components(m.ground.full_mask & ~amask, b0, base_set)))


def _is_trivial(m, amask, ra):
    """True when one strict side of the cut (A, ra) is empty over the rank
    hyperplane's 01-points."""
    asize = amask.bit_count()
    can_exceed = min(asize, m.rank) > ra
    can_fall_short = m.rank - (m.ground.n - asize) < ra
    return not (can_exceed and can_fall_short)


def is_facet_defining_ind(m, a):
    """Facet test for the independence system: a flat with connected
    restriction."""
    amask = m.ground.mask(a)
    if amask == 0:
        return False
    return m.is_flat(amask) and m.restrict(amask).is_connected()


def is_facet_defining_base(m, a):
    """Full report for one candidate inequality on a connected matroid."""
    if not m.is_connected():
        raise NotConnectedError("facet analysis needs a connected matroid")
    amask = m.ground.mask(a)
    if amask == 0 or amask == m.ground.full_mask:
        raise RankError("candidate set must be nonempty and proper")
    comps = _face_components(m, amask)
    is_facet = len(comps) == len(m.connected_components()) + 1
    ra = m.rank_of(amask)
    return FacetReport(
        flat=ElementSet(m.ground, amask),
        rank_at_flat=ra,
        facet_of_base=is_facet,
        trivial=_is_trivial(m, amask, ra) if is_facet else None,
        components_on_face=comps,
    )


def _facet_report(m, amask, ra):
    """The report of a facet (A, ra)<= of B(m): its face has the two
    components A and E - A."""
    return FacetReport(
        flat=ElementSet(m.ground, amask),
        rank_at_flat=ra,
        facet_of_base=True,
        trivial=_is_trivial(m, amask, ra),
        components_on_face=tuple(sorted((amask,
                                         m.ground.full_mask & ~amask))),
    )


def _facet_table(m):
    """{(flat, rank_at_flat): None} over the facets of B(m), in mask
    order, built once per matroid by _build_facet_table."""
    if not m.is_connected():
        raise NotConnectedError("facet analysis needs a connected matroid")
    if m._facets is None:
        m._facets = _build_facet_table(m)
    return m._facets


def _build_facet_table(m):
    """The facet table of a connected matroid, as a dict of its keys.

    For rank 3 the keys come from the profile of m.  Otherwise the
    candidates are the proper nonempty flats together with the sets
    E - e; the sets E - e pick up the trivial facets whose complement
    closes to E.  No other set cuts a facet: if A is no flat, some e
    outside A is a loop of M/A, which is connected only when E - A = {e}.
    A flat F is tested from the base Matroid.flats keeps for it, which
    meets F in r(F) elements, and E - e from the first base avoiding e;
    both sides of F are tested, E - e alone for E - e, by base-set
    probes: O(n * r) per candidate after the O(|I(M)| * n) flat pass.
    A connected one-element matroid has no candidate and no facet.
    """
    if m.rank == 3:
        from .rank3 import rank3_profile  # rank3 imports this module
        return dict.fromkeys(rank3_profile(m).facet_keys())
    full = m.ground.full_mask
    base_set = m.bases._set
    m.flats()  # fills m._flats: each flat with a base tight on it
    keys = [(f, m.rank_of(f)) for f, b0 in m._flats.items()
            if 0 < f < full and all(
                len(side_components(s, b0, base_set)) == 1
                for s in (f, full & ~f))]
    avoiding = {}
    for b in m.bases.masks:
        for e in bits(full & ~b):
            avoiding.setdefault(e, b)
    keys += [(full & ~(1 << e), m.rank) for e, b0 in avoiding.items()
             if len(side_components(full & ~(1 << e), b0, base_set)) == 1]
    return dict.fromkeys(sorted(keys))


def is_facet_inequality(m, amask, bound):
    """Whether (A, bound)<= is facet-defining for B(m): bound is r(A) and
    the face it cuts is a facet.  For the whole system: an original facet."""
    if m.rank_of(amask) != bound:
        return False
    table = _facet_table(m)
    if amask == 0 or amask == m.ground.full_mask:
        raise RankError("candidate set must be nonempty and proper")
    return (amask, bound) in table


def base_facets(m):
    """All facet-defining inequalities of the base system, in mask order,
    as a fresh list of reports read off the facet table of m."""
    return [_facet_report(m, amask, ra) for amask, ra in _facet_table(m)]


def face_split(m, a):
    """The face on (A, r(A))= as its two factors (restriction, contraction)."""
    amask = m.ground.mask(a)
    return m.restrict(amask), m.contract(amask)


def base_dimension(m):
    """Dimension of the base polytope: ground size minus component count."""
    return m.ground.n - len(m.connected_components())


def check_intersecting_submodularity(ground, cs):
    """Submodularity audit for an inequality description of an independence
    system.

    cs lists (set, bound) pairs; the audited rank function is
    r'(X) = max |S| over S subseteq X meeting every bound.  Returns True, or
    the first intersecting pair (in mask order) violating
    r'(A1) + r'(A2) >= r'(A1 & A2) + r'(A1 | A2).
    """
    pairs = sorted((ground.mask(s), int(b)) for s, b in cs)
    memo = {}

    def rprime(xmask):
        got = memo.get(xmask)
        if got is not None:
            return got
        # greedy fails under crossing bounds, so take a small exact search:
        # maximize |S| over S subseteq X subject to |S & A| <= a for all (A,a)
        best = 0
        elems = list(bits(xmask))

        def grow(i, cur, counts):
            nonlocal best
            remaining = len(elems) - i
            if cur.bit_count() + remaining <= best:
                return
            if i == len(elems):
                best = max(best, cur.bit_count())
                return
            e = 1 << elems[i]
            ok = True
            new_counts = list(counts)
            for k, (amask, bound) in enumerate(pairs):
                if amask & e:
                    if counts[k] + 1 > bound:
                        ok = False
                        break
                    new_counts[k] = counts[k] + 1
            if ok:
                grow(i + 1, cur | e, new_counts)
            grow(i + 1, cur, counts)

        grow(0, 0, [0] * len(pairs))
        memo[xmask] = best
        return best

    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            a1, _ = pairs[i]
            a2, _ = pairs[j]
            if a1 & a2 == 0:
                continue
            if rprime(a1) + rprime(a2) < rprime(a1 & a2) + rprime(a1 | a2):
                c1 = (ElementSet(ground, a1), pairs[i][1])
                c2 = (ElementSet(ground, a2), pairs[j][1])
                return (c1, c2)
    return True


def minimum_flat_representation(m):
    """The unique minimum inequality description by flats: closures of
    circuits with their ranks, deduplicated."""
    if m.loops():
        raise RankError("minimum representation needs a loopless matroid")
    if m.rank == 0:
        raise RankError("rank-0 matroid has no flat representation")
    seen = {}
    for c in m.circuits():
        cl = m.closure_of(c)
        seen[cl] = m.rank_of(cl)
    return [(ElementSet(m.ground, f), r)
            for f, r in sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))]
