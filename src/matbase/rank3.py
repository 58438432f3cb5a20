"""Rank-3 normal form and the constrained search for included base systems.

A loopless rank-3 matroid is determined by its parallel classes together
with its long lines, meaning the rank-2 flats that span at least three
classes.  A 3-set is dependent exactly when it meets some class twice or
lies inside a line.  Searching over (classes, lines) states instead of
raw base families is what keeps exhaustive inclusion questions tractable
at |E| = 11.
"""

import itertools
from dataclasses import dataclass

from .errors import (ConstraintError, LoopError, NotConnectedError,
                     NotSimpleError, RankError)
from .setfam import GroundSet, LinearConstraint, bits, ksubsets
from .matroid import matroid_from_bases, merge_overlapping
from .facets import _facet_table, is_facet_inequality


def check_rank3_input(m, require_simple=True):
    """Entry gate for the rank-3 machinery: typed errors over silence."""
    if len(m.ground) < 4 or not 1 <= m.rank <= len(m.ground) - 1:
        raise RankError("rank-3 machinery needs |E| >= 4 and a proper rank")
    if m.rank != 3:
        raise RankError("expected rank 3, got %d" % m.rank)
    if not m.is_connected():
        raise NotConnectedError("input must be connected")
    if require_simple and (m.loops() or any(
            c.bit_count() > 1 for c in m.parallel_classes())):
        raise NotSimpleError("input must be simple")


def facet_rank2_flats(m):
    """Rank-2 flats of m whose inequality (F,2)<= is facet-defining, in
    mask order, read off the facet table of m.

    For a connected simple rank-3 matroid these are exactly the rank-2
    flats with at least 3 elements; the table is exact for nonsimple
    inputs too.
    """
    return [f for f, k in _facet_table(m) if k == 2]


def facet_graph_components(m, a1mask, a2mask):
    """Components of the graph on a2 joining x,y when some facet-defining
    rank-2 flat contains both and meets a1.  Returns (components, edges),
    components as masks covering all of a2 (isolated vertices included),
    edges as pair masks."""
    edges = set()
    touching = []
    for f in facet_rank2_flats(m):
        if not (f & a1mask):
            continue
        inside = f & a2mask
        if inside:
            touching.append(inside)
        for pair in ksubsets(inside, 2):
            edges.add(pair)
    comps = merge_overlapping([1 << i for i in bits(a2mask)] + touching)
    return comps, sorted(edges)


def _connected(full, support, classes, lines):
    """Whether the rank-3 matroid of (classes, lines) over support, with
    loops full - support, is connected.

    A loop is a separator of its own, so the support must be the whole
    ground.  A separator A of a loopless rank-3 matroid has
    r(A) + r(E-A) = 3 and neither side has rank 0, so one side is a
    parallel class C and E-C has rank 2: either only two classes are
    left, or E-C is a long line (Oxley, Matroid Theory, ch. 4).
    """
    if support != full or len(classes) == 3:
        return False
    return all(support & ~c not in lines for c in classes)


@dataclass(frozen=True)
class Rank3Profile:
    """Parallel classes plus long lines of a rank-3 matroid.

    classes partition the support; long_lines are the rank-2 flats
    spanning >= 3 classes, pairwise sharing at most one class.  Every
    unlisted pair of classes spans a line of its own, and elements
    outside the support are loops.  Connectivity is read off the profile
    by is_connected(); matroid() builds the matroid itself.
    """

    ground: GroundSet
    classes: tuple
    long_lines: tuple

    def key(self):
        return (self.classes, self.long_lines)

    def support(self):
        mask = 0
        for c in self.classes:
            mask |= c
        return mask

    def is_connected(self):
        """Whether the matroid of this profile is connected."""
        return _connected(self.ground.full_mask, self.support(),
                          self.classes, self.long_lines)

    def is_flat_of_rank(self, a, k):
        """Whether the mask a is a flat of rank k, for k = 1 or 2.

        Every flat holds the loops.  Beyond them a rank-1 flat is a
        class, and a rank-2 flat is a long line or the union of two
        classes that no long line holds together.
        """
        support = self.support()
        loops = self.ground.full_mask & ~support
        if a & loops != loops:
            return False
        a &= support
        if k == 1:
            return a in self.classes
        if a in self.long_lines:
            return True
        inside = [c for c in self.classes if c & ~a == 0]
        return (len(inside) == 2 and inside[0] | inside[1] == a
                and not any(a & ~l == 0 for l in self.long_lines))

    def is_facet_flat(self, a, k):
        """Whether (a, k)<= is facet-defining for the base system of the
        connected matroid M of this profile, for k = 1 or 2: a is a flat
        of rank k and both M|a and M/a are connected (facets.py).

        For a rank-2 flat, M/a has rank 1 and no loops, and M|a is
        connected when a spans >= 3 classes: a is a long line.  For a
        class a, M|a is connected, and M/a has rank 2 with one parallel
        class for each rank-2 flat through a, so it is connected when at
        least three of them pass through a.
        """
        if not self.is_flat_of_rank(a, k):
            return False
        if not self.is_connected():
            raise NotConnectedError("facet analysis needs a connected matroid")
        if k == 2:
            return a in self.long_lines
        through = [l for l in self.long_lines if l & a]
        alone = [c for c in self.classes
                 if c != a and not any(c & l for l in through)]
        return len(through) + len(alone) >= 3

    def dependent_triples(self):
        """Masks of the 3-subsets of the support that are dependent."""
        tri = _Triples(self.support())
        return frozenset(tri.masks_of(tri.dependent(self.classes,
                                                    self.long_lines)))

    def matroid(self):
        """Reconstruct the matroid; elements outside the support are loops."""
        tri = _Triples(self.support())
        dep = tri.dependent(self.classes, self.long_lines)
        every = (1 << len(tri.masks)) - 1
        return matroid_from_bases(self.ground, tri.masks_of(every & ~dep))

    def show(self):
        cl = ",".join("{%s}" % ",".join(self.ground.labels_of(c))
                      for c in self.classes)
        ln = ",".join("{%s}" % ",".join(self.ground.labels_of(l))
                      for l in self.long_lines)
        return "classes %s lines %s" % (cl, ln or "-")


class _Triples:
    """The 3-subsets of a support, indexed in ksubsets order.

    A set of them is an int bitset over the indices.  dependent() gives
    the dependent triples of a (classes, lines) state, the union of the
    memoized bitsets of its non-singleton classes and of its lines.
    """

    def __init__(self, support):
        self.masks = list(ksubsets(support, 3))
        self.index = {t: k for k, t in enumerate(self.masks)}
        self._class_memo = {}
        self._line_memo = {}

    def bitset(self, triples):
        """Bitset of the given triple masks; others are ignored."""
        out = 0
        for t in triples:
            k = self.index.get(t)
            if k is not None:
                out |= 1 << k
        return out

    def masks_of(self, bitset):
        return [self.masks[k] for k in bits(bitset)]

    def dependent(self, classes, lines):
        """Triples meeting a class in two elements or inside a line."""
        dep = 0
        for c in classes:
            if c & (c - 1):
                b = self._class_memo.get(c)
                if b is None:
                    b = self._class_memo[c] = self.bitset(
                        t for t in self.masks if (t & c).bit_count() >= 2)
                dep |= b
        for l in lines:
            b = self._line_memo.get(l)
            if b is None:
                b = self._line_memo[l] = self.bitset(
                    t for t in self.masks if t & ~l == 0)
            dep |= b
        return dep


def rank3_profile(m):
    """Normal form of a loopless rank-3 matroid."""
    if m.rank != 3:
        raise RankError("profile requires rank 3, got %d" % m.rank)
    if m.loops():
        raise LoopError("profile requires a loopless matroid")
    classes = tuple(sorted(m.parallel_classes()))
    lines = []
    for f in m.flats_of_rank(2):
        spanned = sum(1 for c in classes if c & f)
        if spanned >= 3:
            lines.append(f)
    return Rank3Profile(m.ground, classes, tuple(sorted(lines)))


@dataclass(frozen=True)
class InclusionConstraints:
    """Side conditions on the included matroid searched for.

    forced_rank1 sets must have rank 1; forced_rank2 sets rank at most 2;
    forbidden constraints must be violated by some base; require_facet
    inequalities (A,1)<= or (A,2)<= must be facet-defining for the result
    and not facet-defining for the original.
    """

    forced_rank1: tuple = ()
    forced_rank2: tuple = ()
    forbidden: tuple = ()
    require_facet: tuple = ()

    @classmethod
    def of(cls, ground, forced_rank1=(), forced_rank2=(), forbidden=(),
           require_facet=()):
        f1 = tuple(ground.mask(a) for a in forced_rank1)
        f2 = tuple(ground.mask(a) for a in forced_rank2)
        fb = tuple(c if isinstance(c, LinearConstraint)
                   else LinearConstraint.parse(ground, c) for c in forbidden)
        rf = []
        for c in require_facet:
            if not isinstance(c, LinearConstraint):
                c = LinearConstraint.parse(ground, c)
            if c.dir != "<=" or c.bound not in (1, 2):
                raise ConstraintError(
                    "require_facet takes (A,1)<= or (A,2)<= entries, got %s" % c)
            rf.append(c)
        for a in f1:
            if a == ground.full_mask:
                raise ConstraintError("cannot force the full ground to rank 1")
        return cls(f1, f2, fb, tuple(rf))


class _Engine:
    """Backtracking over (classes, lines) states.

    Every move comes from _picks, over a sorted group of the state's
    classes: merge two of them, or add a line through three that no line
    holds yet.  Cover phase makes every mandatory triple dependent,
    branching on the first uncovered triple whose group (the classes it
    meets) has the fewest moves; the moves are counted for every
    uncovered triple and built for that one alone.  Grow phase then
    takes every move over all classes.  States normalize by absorbing
    classes into touching lines, dropping lines down to <= 2 classes,
    and merging lines that share >= 2 classes.  Dependencies only grow
    along any move, so upper-bound violations prune permanently.

    mandatory and dep_max are _Triples bitsets over the support.  Moves
    are made only from a popped state that _scan found alive, whose
    dependent triples already lie in dep_max, so a move is tested on the
    triples it adds alone: those meeting a | b twice for a merge of a
    and b, those inside it for a new line.

    With full, the mask of the whole ground, a popped state whose
    matroid is disconnected (_connected) is dropped with everything
    below it.  That is exact: a child has the same rank and fewer bases,
    and when B(M') lies in B(M) at equal rank, every separator A of M,
    r(A) + r(E-A) = r(E), is one of M' too, since r' <= r and
    r'(E) = r(E).  So every descendant of a disconnected state is
    disconnected or dead, a connected state is only reached from a
    connected parent, and the connected states come in the same order
    as without the prune.
    """

    def __init__(self, support, mandatory, dep_max=None, cert1=(), cert2=(),
                 full=None):
        self.support = support
        self.full = full
        self.cert1 = tuple(cert1)
        self.cert2 = tuple(cert2)
        self.tri = _Triples(support)
        self.mandatory_bits = self.tri.bitset(mandatory)
        self.dep_max_bits = (None if dep_max is None
                             else self.tri.bitset(dep_max))

    def _normalize(self, classes, lines):
        """Canonical state, or None when provably dead.

        Classes never change here, and a line absorbs exactly the classes
        it meets, so each line is read as the bitmask of the indices of
        those classes, kept beside their union.  Masks of fewer than 3
        classes are dropped, then two masks sharing >= 2 classes are
        merged until no pair does; the result does not depend on the
        order of the merges, since each merge is forced in every outcome.
        A mask of every class is a rank-2 state, which is dead.
        """
        if len(classes) < 3:
            return None
        every = (1 << len(classes)) - 1
        masks = []
        unions = []
        for l in lines:
            m = 0
            whole = 0
            for k, c in enumerate(classes):
                if c & l:
                    m |= 1 << k
                    whole |= c
            if m.bit_count() < 3:
                continue
            k = 0
            while k < len(masks):
                if (m & masks[k]).bit_count() >= 2:
                    m |= masks.pop(k)
                    whole |= unions.pop(k)
                    k = 0
                else:
                    k += 1
            if m == every:
                return None  # all classes collinear, rank <= 2
            masks.append(m)
            unions.append(whole)
        lines = unions
        if not self._guards_ok(classes, lines):
            return None
        return tuple(sorted(classes)), tuple(sorted(lines))

    def _guards_ok(self, classes, lines):
        # certified flats must remain unions of classes in the end
        for a in self.cert1 + self.cert2:
            for c in classes:
                if c & a and c & ~a:
                    return False
        for a in self.cert2:
            for l in lines:
                if l & ~a and sum(1 for c in classes
                                  if c & a and c & l == c) >= 2:
                    return False  # closure of a would leak outside
        return True

    def _scan(self, classes, lines):
        """(alive, uncovered mandatory triples) for a normalized state.

        The state's dependent triples are built once, as a bitset over
        the support's triples, from its lines and non-singleton classes.
        It is alive when they all lie in dep_max; the uncovered mandatory
        triples come in ksubsets order over the support, which fixes the
        branching order of run().  A dead state reports none.
        """
        dep = self.tri.dependent(classes, lines)
        if self.dep_max_bits is not None and dep & ~self.dep_max_bits:
            return False, ()
        return True, self.tri.masks_of(self.mandatory_bits & ~dep)

    def _picks(self, lines, group):
        """The moves of a live state over a sorted group of its classes
        that stay inside dep_max, in combination order: each merge of
        two, as a pair, then each new line through three that no line
        holds yet, as its mask."""
        bound = self.dep_max_bits
        out = []
        for a, b in itertools.combinations(group, 2):
            if bound is None or not self.tri.dependent((a | b,), ()) & ~bound:
                out.append((a, b))
        for pick in itertools.combinations(group, 3):
            lmask = pick[0] | pick[1] | pick[2]
            if any(lmask & ~l == 0 for l in lines):
                continue
            if bound is None or not self.tri.dependent((), (lmask,)) & ~bound:
                out.append(lmask)
        return out

    @staticmethod
    def _children(classes, lines, picks):
        """The unnormalized child of a state for each pick."""
        out = []
        for pick in picks:
            if isinstance(pick, tuple):
                a, b = pick
                out.append(([c for c in classes if c != a and c != b]
                            + [a | b], list(lines)))
            else:
                out.append((list(classes), list(lines) + [pick]))
        return out

    def _moves(self, classes, lines, group):
        """Unnormalized children of a live state over a sorted group of
        its classes, one for each of its _picks."""
        return self._children(classes, lines, self._picks(lines, group))

    def run(self, seed_classes, seed_lines):
        """Yield every normalized reachable state with mandatory covered
        (and, with full, connected)."""
        start = self._normalize(seed_classes, seed_lines)
        if start is None:
            return
        seen = {start}
        stack = [start]
        while stack:
            classes, lines = stack.pop()
            if self.full is not None and not _connected(
                    self.full, self.support, classes, lines):
                continue
            alive, uncovered = self._scan(classes, lines)
            if not alive:
                continue
            if uncovered:
                # branch on the most constrained uncovered triple
                best = None
                for t in uncovered:
                    picks = self._picks(lines, [c for c in classes if c & t])
                    if best is None or len(picks) < len(best):
                        best = picks
                        if not picks:
                            break
                kids = self._children(classes, lines, best)
            else:
                yield classes, lines
                kids = self._moves(classes, lines, classes)
            for nc, nl in kids:
                state = self._normalize(nc, nl)
                if state is not None and state not in seen:
                    seen.add(state)
                    stack.append(state)


def _seeded_state(m, support, constraints):
    """Initial partition, extra mandatory triples, and cert masks.

    Returns None when the constraints are contradictory on their face.
    Only certified flats feed the forcing lemmas: a merely forced rank-1
    set need not be a flat of the result, and the lemmas are false for
    non-flats.  Elements outside the support are loops, so a forced set
    A constrains only A & support, which has the same rank.
    """
    groups = [1 << i for i in bits(support)]
    groups += [a & support for a in constraints.forced_rank1]
    cert1 = []
    cert2 = []
    extra_mandatory = set()
    for a in constraints.forced_rank2:
        for t in ksubsets(a & support, 3):
            extra_mandatory.add(t)
    for c in constraints.require_facet:
        a = c.support
        if a & ~support:
            return None
        if c.bound == 1:
            groups.append(a)
            cert1.append(a)
            # certified rank-1 flat: each component of the facet graph
            # from a into the rest collapses with a to rank <= 2
            comps, _ = facet_graph_components(m, a, support & ~a)
            for comp in comps:
                for t in ksubsets(a | comp, 3):
                    extra_mandatory.add(t)
        else:
            cert2.append(a)
            for t in ksubsets(a, 3):
                extra_mandatory.add(t)
            # certified rank-2 flat: components of the graph into a
            # are parallel classes of the result
            comps, _ = facet_graph_components(m, support & ~a, a)
            groups.extend(comps)
    # an empty forced set joins nothing and is no class
    seed = [c for c in merge_overlapping(groups) if c]
    return seed, extra_mandatory, tuple(cert1), tuple(cert2)


def search_profiles(m, constraints=None, *, mandatory, dep_max=None,
                    support=None, connected_only=True):
    """Yield the Rank3Profile of every included matroid the engine
    reaches that meets all constraints, in search order.

    mandatory: triples that must be dependent; dep_max: triples allowed
    to be dependent (None for no bound); support: the non-loops (default
    the whole ground).  With connected_only, the engine prunes every
    state whose matroid is disconnected, and everything below it.  A
    matroid is built only for a profile that a forbidden entry has to
    inspect.  A require_facet inequality must be facet-defining for the
    result and not for m; if it is one for m, or has bound 2 on fewer
    than 3 support elements, nothing is yielded and the engine does not
    run.
    """
    ground = m.ground
    if support is None:
        support = ground.full_mask
    if constraints is None:
        constraints = InclusionConstraints()
    # a facet flat of rank 2 is a long line: 3 or more support elements
    if any(is_facet_inequality(m, c.support, c.bound)
           or c.bound == 2 and (c.support & support).bit_count() < 3
           for c in constraints.require_facet):
        return
    seeded = _seeded_state(m, support, constraints)
    if seeded is None:
        return
    seed, extra_mandatory, cert1, cert2 = seeded
    mandatory = frozenset(mandatory) | frozenset(extra_mandatory)
    if dep_max is not None:
        dep_max = frozenset(dep_max)
        if any(t not in dep_max for t in mandatory):
            return
    engine = _Engine(support, mandatory, dep_max, cert1, cert2,
                     ground.full_mask if connected_only else None)
    for classes, lines in engine.run(seed, ()):
        profile = Rank3Profile(ground, classes, lines)
        if _finalize_ok(profile, constraints):
            yield profile


def _finalize_ok(profile, constraints):
    """Whether a profile meets the forbidden and require_facet entries.

    The profile decides each require_facet entry (is_facet_flat); a
    matroid is built only for the forbidden base scan, and only for a
    profile that passes them all.
    """
    if not all(profile.is_facet_flat(c.support, c.bound)
               for c in constraints.require_facet):
        return False
    if not constraints.forbidden:
        return True
    bases = profile.matroid().bases
    return not any(all(c.satisfied(b) for b in bases)
                   for c in constraints.forbidden)
