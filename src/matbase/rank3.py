"""Rank-3 normal form and the constrained search for included base systems.

A loopless rank-3 matroid is determined by its parallel classes together
with its long lines, meaning the rank-2 flats that span at least three
classes.  A 3-set is dependent exactly when it meets some class twice or
lies inside a line.  Searching over (classes, lines) states instead of
raw base families is what keeps exhaustive inclusion questions tractable
at |E| = 11.
"""

import bisect
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
    if require_simple and not m.is_simple():
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

    def facet_keys(self):
        """The facets of the base system of the connected matroid M of
        this profile, as (A, r(A)) pairs in mask order.

        (A, r(A))<= is a facet exactly when M|A and M/A are connected
        (Feichtner and Sturmfels 2005), which for a flat of rank 1 or 2 is
        is_facet_flat.  A set of rank 3 other than E cuts a facet only as
        E - e, the bases avoiding e, and does so when M\\e is connected: its
        classes and long lines are those of M without e, the lines kept
        while they span three classes.
        """
        if not self.is_connected():
            raise NotConnectedError("facet analysis needs a connected matroid")
        full = self.ground.full_mask
        keys = [(c, 1) for c in self.classes if self.is_facet_flat(c, 1)]
        keys += [(l, 2) for l in self.long_lines]
        for i in bits(full):
            rest = full & ~(1 << i)
            classes = [c & rest for c in self.classes if c & rest]
            lines = [l & rest for l in self.long_lines
                     if sum(1 for c in classes if c & l) >= 3]
            if _connected(rest, rest, classes, lines):
                keys.append((rest, 3))
        return sorted(keys)

    def dependent_triples(self):
        """Masks of the 3-subsets of the support that are dependent."""
        tri = _Triples(self.support())
        return frozenset(tri.masks_of(tri.dependent(self.classes,
                                                    self.long_lines)))

    def matroid(self):
        """Reconstruct the matroid; elements outside the support are loops.
        The matroid keeps this profile, which rank3_profile returns."""
        tri = _Triples(self.support())
        dep = tri.dependent(self.classes, self.long_lines)
        every = (1 << len(tri.masks)) - 1
        mat = matroid_from_bases(self.ground, tri.masks_of(every & ~dep))
        mat._profile = self
        return mat

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
    """Normal form of a loopless rank-3 matroid, computed once per
    matroid; a matroid built by Rank3Profile.matroid() has it already.

    The rank-2 flat through classes a and b holds every class c with
    {a', b', c'} no base, for one element a', b', c' of each, so the
    long lines come from the bases without listing the flats.
    """
    if m.rank != 3:
        raise RankError("profile requires rank 3, got %d" % m.rank)
    if m.loops():
        raise LoopError("profile requires a loopless matroid")
    if m._profile is None:
        classes = tuple(sorted(m.parallel_classes()))
        reps = [c & -c for c in classes]
        lines = set()
        for (a, ra), (b, rb) in itertools.combinations(zip(classes, reps), 2):
            line = a | b
            for c, rc in zip(classes, reps):
                if c != a and c != b and not m.is_base(ra | rb | rc):
                    line |= c
            if line != a | b:
                lines.add(line)
        m._profile = Rank3Profile(m.ground, classes, tuple(sorted(lines)))
    return m._profile


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
            if not c.support:
                raise ConstraintError(
                    "require_facet entry %s has empty support and cuts no "
                    "facet" % c)
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
    meets) has the fewest moves.  The moves of each uncovered triple are
    built in turn and the fewest kept; the scan stops at a triple with
    none.  Grow phase then takes every move over all classes.  A
    normalized state has every line a union of >= 3 classes, and no two
    lines sharing >= 2 classes; _child keeps that form from one state to
    the next, re-normalizing only the lines that meet the move.
    Dependencies only grow along any move, so upper-bound violations
    prune permanently.

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

    def _child(self, classes, lines, pick):
        """The normalized child of a normalized state for one of its
        picks, or None when the child is dead.

        Each line of the state is a union of >= 3 classes, and two lines
        share at most one class.  Merging a and b into c changes only the
        lines that meet c: each absorbs c, and the one line, if any, that
        held both a and b drops out when c and one more class are all it
        has left.  A new line changes no other line.  The changed lines
        then go back one at a time, each merged with every line it shares
        >= 2 classes with until it shares no more; as lines are unions of
        classes, two share >= 2 exactly when they meet in more than one
        class.  Each merge is forced in every outcome, so the result does
        not depend on their order.  Fewer than three classes, or a line of
        every class, is a rank-2 state, which is dead.
        """
        if isinstance(pick, tuple):
            a, b = pick
            c = a | b
            classes = list(classes)
            classes.remove(a)
            classes.remove(b)
            bisect.insort(classes, c)
            if len(classes) < 3:
                return None
            kept, fresh = [], []
            for l in lines:
                if not l & c:
                    kept.append(l)
                elif l & ~c not in classes:
                    fresh.append(l | c)
        else:
            kept, fresh = list(lines), [pick]
        for l in fresh:
            k = 0
            while k < len(kept):
                common = kept[k] & l
                if common and common not in classes:
                    l |= kept.pop(k)
                    k = 0
                else:
                    k += 1
            if l == self.support:
                return None  # all classes collinear, rank <= 2
            kept.append(l)
        if not self._guards_ok(classes, kept):
            return None
        return tuple(classes), tuple(sorted(kept))

    def run(self, seed_classes):
        """Yield every normalized reachable state with mandatory covered
        (and, with full, connected), starting from the seed classes with
        no lines."""
        start = (tuple(sorted(seed_classes)), ())
        if len(start[0]) < 3 or not self._guards_ok(*start):
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
                picks = best
            else:
                yield classes, lines
                picks = self._picks(lines, classes)
            for pick in picks:
                state = self._child(classes, lines, pick)
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
    for classes, lines in engine.run(seed):
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
