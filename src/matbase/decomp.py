"""Polytopal decompositions of matroid base systems.

A base system may split along one hyperplane (A,a)= into two base
systems, or more generally into several pieces glued facet to facet.
The one-hyperplane test is generic in the rank; the full search and the
five-type classification of connected simple rank-3 matroids run on top
of the rank-3 inclusion machinery.

A piece facet counts as original when its inequality (A,a)<= is
facet-defining for the whole base system; every other piece facet must
be shared, with the reversed inequality and the identical base family,
by exactly one partner piece.
"""

from collections import deque
from dataclasses import dataclass
import itertools

from .errors import (ConstraintError, ExchangeAxiomError, GroundMismatchError,
                     InconclusiveError, NotConnectedError, NotSimpleError)
from .setfam import LinearConstraint, bits, ksubsets, submasks
from .matroid import _exchange_witness, matroid_from_bases
from .facets import _facet_table, is_facet_inequality
from .rank3 import (check_rank3_input, facet_graph_components,
                    facet_rank2_flats)
from .order import enumerate_included_rank3, no_strict_intermediate_rank3


# --------------------------------------------------------------- 2-splits

def _half_matroid(ground, fam):
    """The family as a matroid, or None when exchange fails."""
    try:
        return matroid_from_bases(ground, fam)
    except ExchangeAxiomError:
        return None


def _orient_split(m, amask, a, mlow, mup):
    """Report the cut by its larger-support representative; the two pieces
    come back as (lower side, upper side) of the reported constraint."""
    full = m.ground.full_mask
    comp, compb = full & ~amask, m.rank - a
    if (comp.bit_count(), -comp) > (amask.bit_count(), -amask):
        amask, a = comp, compb
        mlow, mup = mup, mlow
    return LinearConstraint(m.ground, amask, "==", a), mlow, mup


def _cross_section_splits(bases, sizes, a):
    """Whether (A,a)= splits the base system with these bases, given
    sizes, the |B & A| of each base, on both sides of a.

    Every edge of a base polytope is parallel to some e_i - e_j
    (Gelfand, Goresky, MacPherson and Serganova 1987), so |B & A|
    changes by at most one along an edge.  Hence the cross-section
    {B : |B & A| = a} is nonempty once both strict sides are, each
    closed half has exactly the bases on its side as vertices, and every
    edge of a half is an edge of the whole polytope or of the
    cross-section, its face on the hyperplane: both halves are base
    polytopes exactly when the cross-section is one.
    """
    cross = [b for b, s in zip(bases, sizes) if s == a]
    return bool(cross) and _exchange_witness(cross, frozenset(cross)) is None


def two_decompose(m):
    """First hyperplane (A,a)= splitting B(m) into two base systems.

    Scans the candidates with 0 < a < rank in (mask, bound) order and
    returns (hyperplane, lower piece, upper piece) for the first one whose
    closed halves are both base systems and whose strict sides are both
    nonempty, else None.  (A,a)= and (E-A,r-a)= are one hyperplane, with
    the same cross-section and the same range of a, and every mask that
    holds the top element comes after its complement.  So the scan stops
    before the first such mask, and the first hit is the same as over
    all masks.

    A candidate is decided on its cross-section (_cross_section_splits).
    Only the hyperplane that hits builds its halves, each
    exchange-checked, and AssertionError is raised if a half fails.
    """
    if not m.is_connected():
        raise NotConnectedError("2-decomposition needs a connected matroid")
    ground = m.ground
    bases = list(m.bases)
    for amask in range(1, 1 << (ground.n - 1)):
        sizes = [(b & amask).bit_count() for b in bases]
        for a in range(min(sizes) + 1, max(sizes)):
            if not _cross_section_splits(bases, sizes, a):
                continue
            mlow = _half_matroid(ground, [b for b, s in zip(bases, sizes) if s <= a])
            mup = _half_matroid(ground, [b for b, s in zip(bases, sizes) if s >= a])
            if mlow is None or mup is None:
                raise AssertionError(
                    "the cross-section at (%s,%d) is a base system but a "
                    "half is not" % (ground.show(amask), a))
            return _orient_split(m, amask, a, mlow, mup)
    return None


def rank3_two_decomposable_by(m, a):
    """Whether (a,2)= splits the base system of a connected simple rank-3
    matroid: both strict sides are nonempty and the cross-section is a
    base system (_cross_section_splits)."""
    check_rank3_input(m)
    amask = m.ground.mask(a)
    bases = m.bases.masks
    sizes = [(b & amask).bit_count() for b in bases]
    return min(sizes) < 2 < max(sizes) and _cross_section_splits(bases, sizes, 2)


@dataclass(frozen=True)
class CorollaryWitness:
    """A quick 2-split certificate.

    kind "twins": a pair with identical facet-flat membership whose
    complement keeps rank 3.  kind "triangle": three elements pairwise
    inside no facet flat.  kind "flat-plus-point": a rank-2 flat together
    with a point outside every facet flat meeting it.  hyperplane is the
    certified cut, always in the form (A,2)=; for twins A is the
    complement of the pair.
    """

    kind: str
    sets: tuple
    hyperplane: LinearConstraint

    def show(self):
        g = self.hyperplane.ground
        body = "+".join(g.show(s) for s in self.sets)
        return "%s %s via %s" % (self.kind, body, self.hyperplane)


def rank3_quick_witnesses(m):
    """All certificates found by the three quick patterns, twins first,
    then triangles, then flat-plus-point pairs."""
    check_rank3_input(m)
    ground = m.ground
    full = ground.full_mask
    n = ground.n
    flats2 = facet_rank2_flats(m)
    out = []
    member = [frozenset(f for f in flats2 if f >> i & 1) for i in range(n)]
    for pair in ksubsets(full, 2):
        i, j = bits(pair)
        if member[i] == member[j] and m.rank_of(full & ~pair) == 3:
            out.append(CorollaryWitness(
                "twins", (pair,),
                LinearConstraint(ground, full & ~pair, "==", 2)))
    if n >= 5:
        covered = set()
        for f in flats2:
            covered.update(ksubsets(f, 2))
        for tri in ksubsets(full, 3):
            if all(p not in covered for p in ksubsets(tri, 2)):
                out.append(CorollaryWitness(
                    "triangle", (tri,), LinearConstraint(ground, tri, "==", 2)))
    for fl in m.flats_of_rank(2):
        if (full & ~fl).bit_count() < 3:
            continue
        blocked = fl
        for f in flats2:
            if f & fl:
                blocked |= f
        for i in bits(full & ~blocked):
            out.append(CorollaryWitness(
                "flat-plus-point", (fl, 1 << i),
                LinearConstraint(ground, fl | 1 << i, "==", 2)))
    return out


# ----------------------------------------------------- graphs, partitions

@dataclass(frozen=True)
class FacetGraph:
    """The graph on a2 joining x,y when some facet rank-2 flat contains
    both and meets a1.  Components cover a2, isolated vertices included;
    edges are pair masks."""

    ground: object
    a1: int
    a2: int
    edges: tuple
    components: tuple

    def is_connected(self):
        return len(self.components) == 1

    def show(self):
        g = self.ground
        return "g(%s,%s) edges {%s} components {%s}" % (
            g.show(self.a1), g.show(self.a2),
            ",".join(g.show(e) for e in self.edges),
            ",".join(g.show(c) for c in self.components))


def facet_graph(m, a1, a2):
    """g(a1, a2) of a connected rank-3 matroid; a1 and a2 must be
    disjoint and nonempty."""
    check_rank3_input(m, require_simple=False)
    a1mask = m.ground.mask(a1)
    a2mask = m.ground.mask(a2)
    if a1mask & a2mask:
        raise ConstraintError("probe and vertex sets must be disjoint")
    if not (a1mask and a2mask):
        raise ConstraintError("probe and vertex sets must be nonempty")
    comps, edges = facet_graph_components(m, a1mask, a2mask)
    return FacetGraph(m.ground, a1mask, a2mask, tuple(edges), tuple(comps))


@dataclass(frozen=True)
class ThreePartition:
    """A partition of the ground into three blocks of size >= 2 with no
    facet rank-2 flat meeting all three and all pairwise unions of
    rank 3."""

    ground: object
    parts: tuple

    def show(self):
        return "|".join(self.ground.show(p) for p in self.parts)


def _is_three_partition(m, flats2, a1, a2, a3):
    """Whether three disjoint masks covering E form a 3-partition of m,
    given flats2, its facet rank-2 flats."""
    return (all(a.bit_count() >= 2 for a in (a1, a2, a3))
            and not any(f & a1 and f & a2 and f & a3 for f in flats2)
            and all(m.rank_of(x | y) == 3
                    for x, y in ((a1, a2), (a1, a3), (a2, a3))))


def three_partitions(m):
    """All 3-partitions, canonically ordered.

    Each unordered partition {A1,A2,A3} of E is visited once, A1 holding
    the lowest element and A2 the lowest one left, and kept when every
    block has at least 2 elements, no facet rank-2 flat meets all three
    blocks and every union of two blocks has rank 3.
    """
    check_rank3_input(m)
    ground = m.ground
    full = ground.full_mask
    flats2 = facet_rank2_flats(m)
    low1 = full & -full
    out = []
    for x1 in submasks(full & ~low1):
        a1 = low1 | x1
        rem = full & ~a1
        low2 = rem & -rem
        for x2 in submasks(rem & ~low2):
            a2 = low2 | x2
            a3 = rem & ~a2
            if _is_three_partition(m, flats2, a1, a2, a3):
                out.append(ThreePartition(ground, tuple(sorted((a1, a2, a3)))))
    out.sort(key=lambda tp: tp.parts)
    return out


# --------------------------------------------------- decomposition proper

@dataclass(frozen=True)
class Decomposition:
    """A verified covering of B(whole) by piece base systems.

    gluing holds ((i, j), (A,a)=) per piece pair with piece i on the <=
    side; facet_pairs lists the pairs glued along a common facet.
    """

    whole: object
    pieces: tuple
    gluing: tuple
    facet_pairs: tuple

    def show(self):
        lines = ["%d pieces" % len(self.pieces)]
        for k, p in enumerate(self.pieces):
            lines.append("  piece %d: %d bases" % (k, len(p.bases)))
        lines.append("  facet pairs: %s" % (
            " ".join("%d%d" % pr for pr in self.facet_pairs) or "none"))
        return "\n".join(lines)


@dataclass(frozen=True)
class DecompositionReport:
    """First-failure report over the four decomposition conditions:
    (a) the piece families cover the whole family exactly, (b) every
    piece is connected, as the whole is, (c) piece pairs intersect in a
    proper face of both and admit a separating hyperplane, (d) every
    piece facet is original or shared, reversed, with exactly one
    partner.  For (c) the common bases are a face of a piece when they
    equal the least face holding them, cut out by the piece's facets
    tight on all of them; an empty intersection counts as a face."""

    ok: bool
    failed: str | None
    detail: str
    separators: tuple = ()
    facet_pairs: tuple = ()

    def __bool__(self):
        return self.ok


def _facet_face(bases, amask, a):
    """The bases meeting A in a elements: the face (A,a)<= cuts."""
    return frozenset(b for b in bases if (b & amask).bit_count() == a)


def _is_proper_face(piece, fam):
    """Whether fam is a proper face of a connected piece's base polytope.
    The empty family counts as one, and is decided first: a piece with a
    single base has no facet to cut it out.

    Every proper face of a polytope is the intersection of the facets
    holding it (Ziegler, Lectures on Polytopes, Thm 2.7), and the facet
    table of a connected piece lists them all (Feichtner and Sturmfels
    2005).  So the facet faces tight on all of fam cut out the least
    face holding it, and fam is a proper face when it is that face and
    not every base.
    """
    if not fam:
        return True
    face = bases = frozenset(piece.bases)
    for amask, a in _facet_table(piece):
        if all((b & amask).bit_count() == a for b in fam):
            face = _facet_face(face, amask, a)
    return face == fam and fam != bases


def _separating_hyperplane(ground, ileft, iright):
    """First (A,a)= putting ileft on the <= side and iright on the >=
    side, in (mask, bound) order."""
    for amask in range(1, ground.full_mask):
        a = max((b & amask).bit_count() for b in ileft)
        if all((b & amask).bit_count() >= a for b in iright):
            return LinearConstraint(ground, amask, "==", a)
    return None


def _facet_partners(m, pieces):
    """Per piece, its non-original facets (A,a)<= in mask order, each as
    (A, a, partners): the other pieces with (E-A, r-a)<= as a facet, the
    inequality reversed, and the same face {B : |B & A| = a}.  The pieces
    must be connected and of the rank of m."""
    full = m.ground.full_mask
    tables = [_facet_table(p) for p in pieces]
    out = []
    for i, table in enumerate(tables):
        facets = []
        for amask, a in table:
            if is_facet_inequality(m, amask, a):
                continue
            reverse = (full & ~amask, m.rank - a)
            tight = _facet_face(pieces[i].bases, amask, a)
            facets.append((amask, a, tuple(
                j for j, other in enumerate(tables)
                if j != i and reverse in other
                and _facet_face(pieces[j].bases, amask, a) == tight)))
        out.append(tuple(facets))
    return out


def verify_decomposition(m, pieces):
    """Check the four decomposition conditions, reporting the first
    failure; on success the report carries one separating hyperplane per
    piece pair and the pairs sharing a facet."""
    pieces = list(pieces)
    if len(pieces) < 2:
        raise ConstraintError("a decomposition needs at least two pieces")
    for p in pieces:
        if p.ground != m.ground:
            raise GroundMismatchError("piece ground differs from the whole")
    if not m.is_connected():
        raise NotConnectedError("decomposition checking needs a connected whole")
    fams = [frozenset(p.bases) for p in pieces]
    whole = frozenset(m.bases)
    union = frozenset().union(*fams)
    if union != whole:
        return DecompositionReport(
            False, "(a)", "piece union has %d of %d bases%s" % (
                len(union & whole), len(whole),
                "" if union <= whole else " plus %d foreign" % len(union - whole)))
    # the whole is connected, so a piece keeps its component partition
    # when connected; (c) and (d) read facet tables, which need that
    for k, p in enumerate(pieces):
        if not p.is_connected():
            return DecompositionReport(
                False, "(b)", "piece %d changes the component partition" % k)
    seps = []
    for i, j in itertools.combinations(range(len(pieces)), 2):
        shared = fams[i] & fams[j]
        for k in (i, j):
            if not _is_proper_face(pieces[k], shared):
                return DecompositionReport(
                    False, "(c)",
                    "pieces %d and %d meet in a non-face of piece %d" % (i, j, k))
        sep = _separating_hyperplane(m.ground, fams[i], fams[j])
        if sep is None:
            return DecompositionReport(
                False, "(c)", "no hyperplane separates pieces %d and %d" % (i, j))
        seps.append(((i, j), sep))
    pairs = set()
    for i, facets in enumerate(_facet_partners(m, pieces)):
        for fmask, bound, partners in facets:
            if len(partners) != 1:
                return DecompositionReport(
                    False, "(d)",
                    "facet (%s,%d) of piece %d has %d reversed partners"
                    % (m.ground.show(fmask), bound, i, len(partners)))
            pairs.add((min(i, partners[0]), max(i, partners[0])))
    return DecompositionReport(True, None, "all four conditions hold",
                               tuple(seps), tuple(sorted(pairs)))


def _build_decomposition(m, pieces):
    plist = sorted(pieces, key=lambda p: p.bases.masks)
    rep = verify_decomposition(m, plist)
    if not rep.ok:
        return None
    return Decomposition(m, tuple(plist), rep.separators, rep.facet_pairs)


def _two_split(m):
    """The verified 2-piece decomposition along the first hyperplane
    split of B(m), or None when no hyperplane splits it; AssertionError
    if the two halves fail verify_decomposition."""
    td = two_decompose(m)
    if td is None:
        return None
    dec = _build_decomposition(m, [td[1], td[2]])
    if dec is None:
        raise AssertionError("the split at %s fails verify_decomposition"
                             % td[0])
    return dec


def find_decomposition_rank3(m, max_pieces=16):
    """Search for a decomposition of a connected simple rank-3 base
    system.

    A one-hyperplane split is returned directly, and AssertionError is
    raised if its halves fail verify_decomposition.  Otherwise
    candidate pieces are the properly included connected base systems;
    any piece of any decomposition carries, for some 3-partition
    {A1,A2,A3} and orientation, both (A1,1)<= and (A1|A2,2)<= as
    non-original facets.  The seeds are the pieces whose own facet pairs
    (A1,1)<= and (Z,2)<= with A1 inside Z give such a 3-partition
    (A1, Z-A1, E-Z); no 3-partition is enumerated.  Piece sets
    grow by adding, for each facet still unmatched, a piece carrying the
    same face reversed.  Among the piece sets with every facet matched
    and every base covered, the one minimizing (piece count, sorted base
    families) that passes verification is returned, so the result does
    not depend on seed order; as the pool holds every included connected
    system, it has the fewest pieces of any decomposition.  Returns None when the search space is
    exhausted; raises InconclusiveError if a branch would exceed
    max_pieces, leaving the verdict open, and ConstraintError when
    max_pieces is below 2.
    """
    _check_max_pieces(max_pieces)
    check_rank3_input(m)
    dec = _two_split(m)
    if dec is not None:
        return dec
    return _decompose_rank3(m, max_pieces, enumerate_included_rank3(m))


def _check_max_pieces(max_pieces):
    if type(max_pieces) is not int or max_pieces < 2:
        raise ConstraintError(
            "max_pieces takes an int: a decomposition needs at least two "
            "pieces, got max_pieces=%r" % (max_pieces,))


def _seed_pieces(m, nonorig):
    """Indices of the pool pieces that seed the search, in pool order:
    those with non-original facets (A1,1)<= and (Z,2)<= such that
    (A1, Z-A1, E-Z) is a 3-partition, nonorig being the per-piece
    _facet_partners lists."""
    full = m.ground.full_mask
    flats2 = facet_rank2_flats(m)
    out = []
    for qi, facets in enumerate(nonorig):
        ones = [a for a, bound, _ in facets if bound == 1]
        twos = [z for z, bound, _ in facets if bound == 2]
        if any(a1 & ~z == 0 and _is_three_partition(m, flats2, a1, z & ~a1,
                                                     full & ~z)
               for a1 in ones for z in twos):
            out.append(qi)
    return out


def _decompose_rank3(m, max_pieces, pool):
    """The piece-set search of find_decomposition_rank3 for a checked
    input, given pool, the list enumerate_included_rank3(m)."""
    if not pool:
        return None
    fams = [frozenset(p.bases) for p in pool]
    nonorig = _facet_partners(m, pool)
    whole = frozenset(m.bases)
    visited = set()
    closed = []
    inconclusive = False
    for qi in _seed_pieces(m, nonorig):
        queue = deque([frozenset((qi,))])
        while queue:
            s = queue.popleft()
            if s in visited:
                continue
            visited.add(s)
            open_partners = next(
                (partners for qi in sorted(s) for _, _, partners in nonorig[qi]
                 if not any(qj in s for qj in partners)), None)
            if open_partners is None:
                if frozenset().union(*(fams[qi] for qi in s)) == whole:
                    closed.append(s)
                continue
            if len(s) >= max_pieces:
                inconclusive = True
                continue
            for qj in open_partners:
                nxt = s | {qj}
                if nxt not in visited:
                    queue.append(nxt)
    closed.sort(key=lambda s: (len(s), sorted(tuple(sorted(fams[qi]))
                                              for qi in s)))
    for s in closed:
        dec = _build_decomposition(m, [pool[qi] for qi in sorted(s)])
        if dec is not None:
            return dec
    if inconclusive:
        raise InconclusiveError(
            "no decomposition within %d pieces; larger ones not excluded"
            % max_pieces)
    return None


# ---------------------------------------------------------- classification

CLASS_LABELS = {
    "a": "binary",
    "b": "minimal non-binary",
    "c": "non-minimal, no decomposition",
    "d": "decomposable, not 2-decomposable",
    "e": "2-decomposable",
}


@dataclass(frozen=True)
class MatroidClass:
    """One of the five mutually exclusive types, with checkable evidence:
    a four-point-line minor is absent for kind a, kind e carries the
    2-piece decomposition, kind d a longer one, kind c an included base
    system that it covers, kind b nothing, being weak-map minimal."""

    kind: str
    label: str
    witness: object = None

    def show(self):
        return "(%s) %s" % (self.kind, self.label)


def classify(m, max_pieces=16):
    """Five-type verdict for a connected simple matroid.

    Binary and 2-split tests are rank-independent; separating the
    remaining kinds needs the rank-3 inclusion search, so other ranks
    raise InconclusiveError past those two tests.  The pool of that
    search (enumerate_included_rank3) is complete.  The (c) witness is
    the least system, by Rank3Profile.key, among the maximal ones of the
    pool, so it does not depend on the search order.  m covers it: a
    system strictly between would be connected, as its separators are
    separators of the witness, and so would lie in the pool.
    no_strict_intermediate_rank3 checks that, and AssertionError is
    raised if the check fails.
    Non-simple or disconnected input is rejected: simplify, or classify
    per component.  A max_pieces that is not an int (bool included) or
    is below 2 is a ConstraintError.
    """
    _check_max_pieces(max_pieces)
    if not m.is_connected():
        raise NotConnectedError("classification needs a connected matroid")
    if not m.is_simple():
        raise NotSimpleError("simplify the matroid first")
    if m.find_u24_minor() is None:
        return MatroidClass("a", CLASS_LABELS["a"])
    dec = _two_split(m)
    if dec is not None:
        return MatroidClass("e", CLASS_LABELS["e"], dec)
    if m.rank != 3:
        raise InconclusiveError(
            "non-binary, not 2-decomposable: rank-%d matroids are beyond "
            "the inclusion search" % m.rank)
    pool = enumerate_included_rank3(m)
    dec = _decompose_rank3(m, max_pieces, pool)
    if dec is not None:
        return MatroidClass("d", CLASS_LABELS["d"], dec)
    if not pool:
        return MatroidClass("b", CLASS_LABELS["b"])
    # the least maximal system of the sorted pool, which m covers
    fams = [frozenset(p.bases) for p in pool]
    cover = next(p for p, f in zip(pool, fams) if not any(f < g for g in fams))
    if not no_strict_intermediate_rank3(cover, m):
        raise AssertionError("the least maximal included system is no cover")
    return MatroidClass("c", CLASS_LABELS["c"], cover)
