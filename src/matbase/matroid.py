"""Matroids given by explicit base families over a labelled ground set.

The base family is the single source of truth: rank, closure, flats, minors
and duality are all derived from it.  Construction checks the exchange axiom
unless the caller vouches for the family (minor and dual constructions do).
"""

from __future__ import annotations

import itertools

from .errors import (EmptyFamilyError, ExchangeAxiomError, GroundMismatchError,
                     MixedCardinalityError, RankError)
from .setfam import GroundSet, SetFamily, bits, ksubsets, LinearConstraint, family_from_constraints


def _exchange_witness(masks, base_set):
    """First failure of the exchange axiom, or None.

    Returns (B1, B2, x) with x in B1 - B2 such that no y in B2 - B1 makes
    B1 - x + y a member: the first such B1 in masks order, then the first
    B2, then the smallest x, as a pair loop over (B1, B2) would find it.
    masks is a nonempty list and base_set the same members as a set.

    For a member B1 and x in B1, call C the elements z with B1 - x + z a
    member, x among them.  The exchange on x fails for exactly the
    members B2 that miss C.  The first member is checked on its own: its
    sets C come from probing base_set, and the members are scanned for
    the first that misses one.  A family that fails usually fails there
    (the cross-sections of two_decompose do, nearly always), and then no
    pass over the whole family is made.

    Past it, one pass over the members fills has[e], the bitset over
    member indices of the members holding e, and comp[S] for each
    S = B - x, the elements that complete S to a member.  For each B1
    the sets C are read off comp, and the members meeting C, the OR of
    has over C, are computed once per S.  has and comp are keyed by
    one-bit masks, so no element index is computed in the pass.
    """
    first = masks[0]
    outside = list(bits(((1 << max(masks).bit_length()) - 1) & ~first))
    tests = []
    for x in bits(first):
        sx = first ^ (1 << x)
        c = 1 << x
        for y in outside:
            if sx | (1 << y) in base_set:
                c |= 1 << y
        tests.append((x, c))
    for b2 in masks:
        for x, c in tests:
            if not b2 & c:
                return (first, b2, x)
    has = {}
    comp = {}
    k = 1
    for b in masks:
        rest = b
        while rest:
            e = rest & -rest
            rest ^= e
            has[e] = has.get(e, 0) | k
            comp[b ^ e] = comp.get(b ^ e, 0) | e
        k <<= 1
    meets = {}
    for s, c in comp.items():
        hit = 0
        while c:
            e = c & -c
            c ^= e
            hit |= has[e]
        meets[s] = hit
    everything = k - 1
    for b1 in masks:
        kept = everything
        rest = b1
        while rest:
            e = rest & -rest
            rest ^= e
            kept &= meets[b1 ^ e]
        if kept != everything:
            low = ~kept & -~kept
            x = next(x for x in bits(b1) if not meets[b1 ^ (1 << x)] & low)
            return (b1, masks[low.bit_length() - 1], x)
    return None


def merge_overlapping(masks):
    """The unions of the masks linked by overlap, as a sorted list.

    Two masks are linked when they share an element, and links chain.  An
    empty mask overlaps nothing, so it comes out on its own.
    """
    groups = []
    for m in masks:
        rest = []
        for g in groups:
            if g & m:
                m |= g
            else:
                rest.append(g)
        rest.append(m)
        groups = rest
    return sorted(groups)


def side_components(side, b0, base_set):
    """Connectivity components of one side of a base b0, as a sorted list.

    base_set holds the bases of a matroid M, b0 is one of them, and side
    is A or E - A for a set A with |b0 & A| = r(A).  Then b0 & A is a base
    of M|A and b0 - A one of M/A, and for e and f on the same side,
    b0 - f + e is a base of M exactly when f lies on the fundamental
    circuit of e in that minor.  So each e of side outside b0 is joined
    with the f of b0 & side that make b0 - f + e a base, and the result
    is the components of M|A (side = A) or of M/A (side = E - A); with
    A = E they are those of M.  These circuits link exactly the elements
    that share some circuit.  Elements that meet no such circuit, loops
    and coloops among them, stay singletons; an empty side has no
    component.
    """
    inside = []
    rest = b0 & side
    while rest:
        x = rest & -rest
        rest ^= x
        inside.append(x)
    groups = []
    covered = 0
    rest = side & ~b0
    while rest:
        e = rest & -rest
        rest ^= e
        circ = e
        be = b0 | e
        for x in inside:
            if be ^ x in base_set:
                circ |= x
        groups.append(circ)
        covered |= circ
    rest = side & ~covered
    while rest:
        x = rest & -rest
        rest ^= x
        groups.append(x)
    return merge_overlapping(groups)


class Matroid:
    """A matroid stored as its family of bases (masks over a GroundSet)."""

    __slots__ = ("ground", "bases", "rank", "_rank_memo", "_flats",
                 "_components", "_facets", "_profile")

    def __init__(self, ground, masks, trusted=False):
        bases = SetFamily(ground, masks)
        if not bases.masks:
            raise EmptyFamilyError("a matroid needs at least one base")
        sizes = {m.bit_count() for m in bases.masks}
        if len(sizes) != 1:
            raise MixedCardinalityError("bases of mixed sizes %s" % sorted(sizes))
        self.ground = ground
        self.bases = bases
        self.rank = sizes.pop()
        self._rank_memo = {0: 0, ground.full_mask: self.rank}
        self._flats = None
        self._components = None
        self._facets = None
        self._profile = None
        if not trusted:
            w = _exchange_witness(bases.masks, bases._set)
            if w is not None:
                b1, b2, x = w
                raise ExchangeAxiomError(
                    "exchange fails: %s, %s cannot trade %s" %
                    (ground.show(b1), ground.show(b2), ground.labels[x]),
                    witness=(ground.labels_of(b1), ground.labels_of(b2),
                             ground.labels[x]))

    # ------------------------------------------------------------------ rank

    def rank_of(self, mask):
        """Rank of a subset: the largest intersection with a base."""
        r = self._rank_memo.get(mask)
        if r is None:
            r = max((b & mask).bit_count() for b in self.bases.masks)
            self._rank_memo[mask] = r
        return r

    def is_independent(self, mask):
        return any(b & mask == mask for b in self.bases.masks)

    def is_base(self, mask):
        return mask in self.bases._set

    def closure_of(self, mask):
        """cl(X) = E - (U - X), U the union of the bases B with
        |B & X| = r(X), in one pass over the bases that finds r(X) too.

        An element e outside X has r(X + e) = r(X) + 1 exactly when some
        base meets X in r(X) elements and holds e.
        """
        best = -1
        union = 0
        for b in self.bases.masks:
            k = (b & mask).bit_count()
            if k > best:
                best, union = k, b
            elif k == best:
                union |= b
        self._rank_memo[mask] = best
        return self.ground.full_mask & ~(union & ~mask)

    def is_flat(self, mask):
        return self.closure_of(mask) == mask

    def flats(self):
        """All flats, as an ascending tuple of masks (closure of the empty set
        and the full ground included).

        The independent sets are the subsets of the bases, taken level by
        level down from the bases.  An independent I spans the flat
        cl(I) = E - ext(I), where ext(I) holds the e outside I with I + e
        independent, and r(cl(I)) = |I|; every flat arises this way.  The
        pass from one level to the next fills ext from the sets one above,
        so the cost is O(|I(M)| * r) dict probes, within O(|I(M)| * n),
        with no pass over the bases per flat and no table over all 2^n
        subsets.  Each flat's rank goes into the rank memo, and _flats
        keeps for each flat F, in ascending order, a base B holding an
        independent set that spans F, so |B & F| = r(F): the tight base
        of the facet test (facets.py).
        """
        if self._flats is None:
            full = self.ground.full_mask
            memo = self._rank_memo
            found = {full: self.bases.masks[0]}
            level = {b: b for b in self.bases.masks}
            for k in range(self.rank - 1, -1, -1):
                below = {}
                ext = {}
                for s, b in level.items():
                    rest = s
                    while rest:
                        e = rest & -rest
                        rest ^= e
                        t = s ^ e
                        if t in ext:
                            ext[t] |= e
                        else:
                            ext[t] = e
                            below[t] = b
                for t, x in ext.items():
                    f = full & ~x
                    if f not in found:
                        found[f] = below[t]
                        memo[f] = k
                level = below
            self._flats = dict(sorted(found.items()))
        return tuple(self._flats)

    def flats_of_rank(self, k):
        return tuple(f for f in self.flats() if self.rank_of(f) == k)

    def loops(self):
        u = 0
        for b in self.bases.masks:
            u |= b
        return self.ground.full_mask & ~u

    def coloops(self):
        a = self.ground.full_mask
        for b in self.bases.masks:
            a &= b
        return a

    def circuits(self):
        """All circuits by a subset scan; meant for small ground sets."""
        out = []
        n = self.ground.n
        for size in range(1, n + 1):
            for m in ksubsets(self.ground.full_mask, size):
                if self.rank_of(m) == size:
                    continue
                for i in bits(m):
                    if self.rank_of(m ^ (1 << i)) != size - 1:
                        break
                else:
                    out.append(m)
        return tuple(sorted(out))

    def is_simple(self):
        """No loops and no two parallel elements."""
        return not self.loops() and all(
            c.bit_count() == 1 for c in self.parallel_classes())

    def parallel_classes(self):
        """Rank-1 closures of the non-loop elements, each class once."""
        seen = set()
        for i in bits(self.ground.full_mask & ~self.loops()):
            cl = self.closure_of(1 << i) & ~self.loops()
            seen.add(cl)
        return tuple(sorted(seen))

    # ------------------------------------------------------------ components

    def connected_components(self):
        """Partition of the ground set into connectivity components.

        Two elements are joined when some circuit contains both; the circuits
        through one fixed base suffice.  Loops and coloops come out as
        singleton components.
        """
        if self._components is None:
            self._components = tuple(side_components(
                self.ground.full_mask, self.bases.masks[0], self.bases._set))
        return self._components

    def is_connected(self):
        return len(self.connected_components()) == 1

    # ---------------------------------------------------------------- minors

    def _compress(self, keep_mask):
        g2 = GroundSet(self.ground.labels_of(keep_mask))
        posmap = {i: j for j, i in enumerate(bits(keep_mask))}

        def comp(mask):
            m2 = 0
            for i in bits(mask & keep_mask):
                m2 |= 1 << posmap[i]
            return m2

        return g2, comp

    def delete(self, dmask):
        self.ground.check_mask(dmask)
        keep = self.ground.full_mask & ~dmask
        g2, comp = self._compress(keep)
        rk = self.rank_of(keep)
        if rk == self.rank:
            masks2 = [comp(b) for b in self.bases.masks if b & dmask == 0]
        else:
            cand = set()
            for b in self.bases.masks:
                for c in ksubsets(b & keep, rk):
                    cand.add(comp(c))
            masks2 = cand
        return Matroid(g2, masks2, trusted=True)

    def contract(self, cmask):
        self.ground.check_mask(cmask)
        ind = 0
        for i in bits(cmask):
            if self.rank_of(ind | (1 << i)) > self.rank_of(ind):
                ind |= 1 << i
        keep = self.ground.full_mask & ~cmask
        g2, comp = self._compress(keep)
        masks2 = [comp(b) for b in self.bases.masks if b & cmask == ind]
        return Matroid(g2, masks2, trusted=True)

    def restrict(self, amask):
        return self.delete(self.ground.full_mask & ~amask)

    def dual(self):
        full = self.ground.full_mask
        return Matroid(self.ground, [full ^ b for b in self.bases.masks],
                       trusted=True)

    def direct_sum(self, other):
        if set(self.ground.labels) & set(other.ground.labels):
            raise GroundMismatchError("direct sum needs disjoint label sets")
        g2 = GroundSet(self.ground.labels + other.ground.labels)
        shift = self.ground.n
        masks2 = [b1 | (b2 << shift)
                  for b1 in self.bases.masks for b2 in other.bases.masks]
        return Matroid(g2, masks2, trusted=True)

    def simplify(self):
        """Delete loops and all but the lowest-index element of each parallel
        class.  Returns (simple matroid, label -> representative label map);
        loops are absent from the map."""
        if self.rank == 0:
            raise RankError("cannot simplify a rank-0 matroid")
        keep = 0
        quotient = {}
        for cl in self.parallel_classes():
            rep = cl & -cl
            keep |= rep
            rep_label = self.ground.labels[rep.bit_length() - 1]
            for i in bits(cl):
                quotient[self.ground.labels[i]] = rep_label
        return self.restrict(keep), quotient

    # ------------------------------------------------------------- structure

    def find_u24_minor(self):
        """A four-point-line minor, as (four_mask, contract_mask), or None.

        The remaining elements are deleted.  Searches independent contraction
        sets in ascending size, then four-sets in ascending mask order.
        """
        full = self.ground.full_mask
        for csize in range(0, max(self.rank - 1, 0)):
            for c in ksubsets(full, csize):
                if not self.is_independent(c):
                    continue
                rc = csize
                for t in ksubsets(full & ~c, 4):
                    if self.rank_of(t | c) != rc + 2:
                        continue
                    pts = list(bits(t))
                    if all(self.rank_of((1 << i) | (1 << j) | c) == rc + 2
                           for i, j in itertools.combinations(pts, 2)):
                        return (t, c)
        return None

    def is_binary(self):
        """True when no four-point-line minor exists."""
        return self.find_u24_minor() is None

    # ----------------------------------------------------------------- misc

    def __eq__(self, other):
        return (isinstance(other, Matroid)
                and self.ground == other.ground and self.bases == other.bases)

    def __hash__(self):
        return hash((self.ground, self.bases))

    def __repr__(self):
        return "Matroid(n=%d, rank=%d, bases=%d)" % (
            self.ground.n, self.rank, len(self.bases))


def are_isomorphic(m1, m2):
    """Label-bijection test between two matroids, with pair-degree pruning.

    Meant for small ground sets; the search maps elements in order and prunes
    on base counts through single elements and pairs.
    """
    if (m1.ground.n != m2.ground.n or m1.rank != m2.rank
            or len(m1.bases) != len(m2.bases)):
        return False
    n = m1.ground.n

    def degs(m):
        d1 = [0] * n
        d2 = [[0] * n for _ in range(n)]
        for b in m.bases.masks:
            idx = list(bits(b))
            for i in idx:
                d1[i] += 1
            for i, j in itertools.combinations(idx, 2):
                d2[i][j] += 1
                d2[j][i] += 1
        return d1, d2

    da1, da2 = degs(m1)
    db1, db2 = degs(m2)
    if sorted(da1) != sorted(db1):
        return False
    target = m2.bases._set
    img = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            for b in m1.bases.masks:
                mb = 0
                for x in bits(b):
                    mb |= 1 << img[x]
                if mb not in target:
                    return False
            return True
        for j in range(n):
            if used[j] or da1[i] != db1[j]:
                continue
            if any(da2[i][k] != db2[j][img[k]] for k in range(i)):
                continue
            img[i] = j
            used[j] = True
            if extend(i + 1):
                return True
            used[j] = False
            img[i] = -1
        return False

    return extend(0)


def uniform_matroid(rank, n, labels=None):
    """The uniform matroid: every rank-subset of an n-element ground set."""
    if not 0 <= rank <= n:
        raise RankError("uniform matroid needs 0 <= rank <= n")
    if labels is None:
        if n <= 26:
            labels = [chr(ord("a") + i) for i in range(n)]
        else:
            labels = ["e%d" % i for i in range(n)]
    g = GroundSet(labels)
    if g.n != n:
        raise RankError("expected %d labels, got %d" % (n, g.n))
    return Matroid(g, list(ksubsets(g.full_mask, rank)), trusted=True)


def matroid_from_bases(ground, bases):
    """Matroid from label-level bases, with full exchange validation."""
    return Matroid(ground, [ground.mask(b) for b in bases])


def matroid_from_flat_constraints(ground, rank, flats):
    """Matroid cut out by rank bounds on prescribed sets.

    flats is an iterable of (elements, bound) pairs; the base family is all
    rank-subsets B with |B & elements| <= bound for every pair.
    """
    cons = [LinearConstraint(ground, ground.full_mask, "==", rank)]
    for elems, bound in flats:
        cons.append(LinearConstraint(ground, ground.mask(elems), "<=", bound))
    fam = family_from_constraints(ground, cons)
    if not fam.masks:
        raise EmptyFamilyError("the rank bounds leave no base")
    return Matroid(ground, fam.masks)
