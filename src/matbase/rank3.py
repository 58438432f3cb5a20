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

from .errors import (ConstraintError, ContradictionError, GroundMismatchError,
                     LoopError, NotConnectedError, NotSimpleError, RankError)
from .setfam import (GroundSet, LinearConstraint, _coerce_constraints, bits,
                     ksubsets)
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

    def facet_keys(self):
        """The facets of the base system of the connected matroid M of
        this profile, as (A, r(A)) pairs in mask order; the one rank-3
        facet rule, which the facet tables and the require_facet entries
        of search_profiles read.

        (A, r(A))<= is a facet exactly when M|A and M/A are connected
        (Feichtner and Sturmfels 2005).  For a rank-2 flat, M/A has rank 1
        and no loops, and M|A is connected when A spans >= 3 classes: A is
        a long line.  For a class A, M|A is connected, and M/A has rank 2
        with one parallel class for each rank-2 flat through A, a long line
        or A with one class no such line holds, so it is connected when at
        least three of them pass through A.  A set of rank 3 other than E
        cuts a facet only as E - e, the bases avoiding e, and does so when
        M\\e is connected: its classes and long lines are those of M
        without e, the lines kept while they span three classes.
        """
        if not self.is_connected():
            raise NotConnectedError("facet analysis needs a connected matroid")
        full = self.ground.full_mask
        keys = []
        for a in self.classes:
            through = [l for l in self.long_lines if l & a]
            alone = [c for c in self.classes
                     if c != a and not any(c & l for l in through)]
            if len(through) + len(alone) >= 3:
                keys.append((a, 1))
        keys += [(l, 2) for l in self.long_lines]
        for i in bits(full):
            rest = full & ~(1 << i)
            classes = [c & rest for c in self.classes if c & rest]
            lines = [l & rest for l in self.long_lines
                     if sum(1 for c in classes if c & l) >= 3]
            if _connected(rest, rest, classes, lines):
                keys.append((rest, 3))
        return sorted(keys)

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
    memoized bitsets of its non-singleton classes and of its lines.  Each
    memo is filled by listing its own triples: a line gives its 3-subsets,
    a class its pairs with each support element outside it, and its own
    3-subsets.
    """

    def __init__(self, support):
        self.support = support
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
                    rest = list(bits(self.support & ~c))
                    b = self._class_memo[c] = self.bitset(itertools.chain(
                        (p | 1 << e for p in ksubsets(c, 2) for e in rest),
                        ksubsets(c, 3)))
                dep |= b
        for l in lines:
            b = self._line_memo.get(l)
            if b is None:
                b = self._line_memo[l] = self.bitset(ksubsets(l, 3))
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


@dataclass(frozen=True, kw_only=True)
class InclusionConstraints:
    """Side conditions on the included matroid searched for, built by
    keyword.

    forced_rank1 sets must have rank 1; forced_rank2 sets rank at most 2;
    both are masks over the ground searched, non-negative ints, and
    check_ground rejects one with an element outside that ground;
    require_facet inequalities (A,1)<= or (A,2)<= must be facets of the
    result (Rank3Profile.facet_keys) and not facets of the original.
    """

    forced_rank1: tuple = ()
    forced_rank2: tuple = ()
    require_facet: tuple = ()

    def __post_init__(self):
        for name in ("forced_rank1", "forced_rank2"):
            for a in getattr(self, name):
                if not isinstance(a, int) or isinstance(a, bool) or a < 0:
                    raise ConstraintError(
                        "%s takes masks, non-negative ints, got %r"
                        % (name, a))
        for c in self.require_facet:
            if not isinstance(c, LinearConstraint):
                raise ConstraintError(
                    "require_facet takes LinearConstraint entries, got %r"
                    % (c,))
            if c.dir != "<=" or c.bound not in (1, 2):
                raise ConstraintError(
                    "require_facet takes (A,1)<= or (A,2)<= entries, got %s" % c)
            if not c.support:
                raise ConstraintError(
                    "require_facet entry %s has empty support and cuts no "
                    "facet" % c)

    def check_ground(self, ground):
        """Reject constraints that do not fit the ground searched: a
        rank-1 set that is the whole ground or a forced set with an
        element outside it (ConstraintError), and a require_facet entry
        over another ground (GroundMismatchError)."""
        if ground.full_mask in self.forced_rank1:
            raise ConstraintError("cannot force the full ground to rank 1")
        for a in self.forced_rank1 + self.forced_rank2:
            if a & ~ground.full_mask:
                raise ConstraintError("forced set %#x has elements outside "
                                      "the ground of %d" % (a, ground.n))
        for c in self.require_facet:
            if c.ground != ground:
                raise GroundMismatchError(
                    "constraint %s is on a different ground set" % c)

    @classmethod
    def of(cls, ground, forced_rank1=(), forced_rank2=(), require_facet=()):
        out = cls(forced_rank1=tuple(ground.mask(a) for a in forced_rank1),
                  forced_rank2=tuple(ground.mask(a) for a in forced_rank2),
                  require_facet=tuple(_coerce_constraints(ground,
                                                          require_facet)))
        out.check_ground(ground)
        return out


def propagate(m, c):
    """Close inclusion constraints under the rank-forcing rules that hold
    for every connected rank-3 matroid M' with B(M') inside B(m); the
    inclusion search (search_profiles) starts from this closure.

    Facet-certified entries of c.require_facet are flats of every
    candidate, so the graph rules apply to them: a certified rank-1 flat
    A forces rank 2 on A|C for each component C of g(A, E-A); a certified
    or promoted rank-2 flat Z forces rank 1 on each non-singleton
    component of g(E-Z, Z).  Plain forced entries only combine:
    overlapping rank-1 sets unite, a rank-1 set overlapping a rank-2 set
    extends it, and two certified rank-2 flats force rank 1 on their
    intersection.  A derived rank-2 set missing only two elements is a
    flat of every connected candidate and is promoted.  Monotone, and a
    fixpoint: rerunning on the output changes nothing.

    Raises ContradictionError when the closure kills every candidate:
    the full ground forced below rank 3, a coloop forced, or a rank-1
    set escaping a certified flat it meets.  Constraints that do not fit
    the ground of m are rejected first (InclusionConstraints.check_ground).
    """
    check_rank3_input(m)
    ground = m.ground
    c.check_ground(ground)
    full = ground.full_mask
    ones = set(c.forced_rank1)
    twos = set(c.forced_rank2)
    flat1 = {rc.support for rc in c.require_facet if rc.bound == 1}
    flat2 = {rc.support for rc in c.require_facet if rc.bound == 2}
    ones |= flat1
    twos |= flat2

    while True:
        before = (frozenset(ones), frozenset(twos), frozenset(flat2))
        if full in ones or full in twos:
            raise ContradictionError("the full ground is forced below rank 3")
        for t in sorted(twos):
            left = (full & ~t).bit_count()
            if left == 1:
                raise ContradictionError(
                    "rank-2 set %s forces a coloop" % ground.show(t))
            if left == 2:
                flat2.add(t)
        # a rank-1 set meeting a flat lies inside it
        for z in flat2:
            for a in ones:
                if a & z and a & ~z:
                    raise ContradictionError(
                        "rank-1 set %s escapes the rank-2 flat %s"
                        % (ground.show(a), ground.show(z)))
        ones = set(merge_overlapping(ones))
        for f in flat1:
            cls = next(a for a in ones if a & f)
            if cls != f:
                raise ContradictionError(
                    "rank-1 set %s escapes the rank-1 flat %s"
                    % (ground.show(cls), ground.show(f)))
        for a in sorted(ones):
            for t in sorted(twos):
                if a & t:
                    twos.add(a | t)
        for z1, z2 in itertools.combinations(sorted(flat2), 2):
            if z1 & z2:
                ones.add(z1 & z2)
        for f in sorted(flat1):
            comps, _ = facet_graph_components(m, f, full & ~f)
            for comp in comps:
                twos.add(f | comp)
        for z in sorted(flat2):
            comps, _ = facet_graph_components(m, full & ~z, z)
            for comp in comps:
                if comp.bit_count() >= 2:
                    ones.add(comp)
        if (frozenset(ones), frozenset(twos), frozenset(flat2)) == before:
            break
    return InclusionConstraints(forced_rank1=tuple(sorted(ones)),
                                forced_rank2=tuple(sorted(twos)),
                                require_facet=c.require_facet)


class _Engine:
    """Backtracking over the connected (classes, lines) states on a
    ground mask, from seed classes towards every mandatory triple
    dependent.

    Every move comes from _picks, over a sorted group of the state's
    classes: merge two of them, or add a line through three that no line
    holds yet.  Cover phase branches on the first uncovered triple: it
    is independent, so it meets three classes a, b and c, no line holds
    a | b | c, and its moves are the three merges and that line.  Grow
    phase then takes every move over all classes.  A normalized state
    has every line a union of >= 3 classes, and no two lines sharing
    >= 2 classes; _child keeps that form from one state to the next,
    re-normalizing only the lines that meet the move.

    The search is not complete.  _child joins two lines that share two
    classes, and drops a state whose lines hold every class; both are
    forced only while those classes stay apart, and a later merge can
    make them parallel.  A system reached only by such a merge is
    missed, as some are below census_rank3(8) classes 50, 51, 57, 59,
    and 3 of the 105 connected systems below lucascon M1.

    A new state whose matroid is disconnected (_connected) is put in
    seen but never pushed, so nothing below it is searched; the start
    state is tested the same way.  That is exact: a child has the same
    rank and fewer bases, and when B(M') lies in B(M) at equal rank,
    every separator A of M, r(A) + r(E-A) = r(E), is one of M' too, since
    r' <= r and r'(E) = r(E).  So every descendant of a disconnected
    state is disconnected or dead.
    """

    def __init__(self, support, mandatory, cert1=(), cert2=()):
        self.support = support
        self.cert1 = tuple(cert1)
        self.cert2 = tuple(cert2)
        self.tri = _Triples(support)
        self.mandatory_bits = self.tri.bitset(mandatory)

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
        """The uncovered mandatory triples of a normalized state, as a
        bitset over the ground's triples in ksubsets order, which fixes
        the branching order of run()."""
        return self.mandatory_bits & ~self.tri.dependent(classes, lines)

    def _picks(self, lines, group):
        """The moves of a state over a sorted group of its classes, in
        combination order: each merge of two, as a pair, then each new
        line through three that no line holds yet, as its mask."""
        out = list(itertools.combinations(group, 2))
        for pick in itertools.combinations(group, 3):
            lmask = pick[0] | pick[1] | pick[2]
            if not any(lmask & ~l == 0 for l in lines):
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
        """Yield every normalized connected state reachable from the seed
        classes with no lines that has mandatory covered."""
        start = (tuple(sorted(seed_classes)), ())
        full = self.support
        if (len(start[0]) < 3 or not self._guards_ok(*start)
                or not _connected(full, full, *start)):
            return
        seen = {start}
        stack = [start]
        while stack:
            classes, lines = stack.pop()
            uncovered = self._scan(classes, lines)
            if uncovered:
                # every uncovered triple has four moves: take the first
                t = self.tri.masks[(uncovered & -uncovered).bit_length() - 1]
                picks = self._picks(lines, [c for c in classes if c & t])
            else:
                yield classes, lines
                picks = self._picks(lines, classes)
            for pick in picks:
                state = self._child(classes, lines, pick)
                if state is not None and state not in seen:
                    seen.add(state)
                    if _connected(full, full, *state):
                        stack.append(state)


def search_profiles(m, constraints=None):
    """Yield the Rank3Profile of every connected matroid on the ground
    of m, with B(M') inside B(m), that the engine reaches and that meets
    all constraints, in search order.

    The search starts from the closure of the constraints under
    propagate: its rank-1 sets are merged into the seed classes, the
    triples of its rank-2 sets become dependent, and the require_facet
    entries are certified flats that every state keeps; a
    ContradictionError there means nothing is yielded.  A require_facet
    inequality (A, k)<= must be facet-defining for the result, (A, k)
    one of its facet_keys, and not for m; if it is one for m, or has
    bound 2 on fewer than 3 elements, nothing is yielded and the engine
    does not run.  No matroid is built.
    """
    ground = m.ground
    full = ground.full_mask
    if constraints is None:
        constraints = closure = InclusionConstraints()
    else:
        try:
            closure = propagate(m, constraints)
        except ContradictionError:
            return
    # a facet flat of rank 2 is a long line: 3 or more elements
    if any(is_facet_inequality(m, c.support, c.bound)
           or c.bound == 2 and c.support.bit_count() < 3
           for c in constraints.require_facet):
        return
    mandatory = {t for t in ksubsets(full, 3) if t not in m.bases}
    for a in closure.forced_rank2:
        mandatory.update(ksubsets(a, 3))
    cert1 = [c.support for c in constraints.require_facet if c.bound == 1]
    cert2 = [c.support for c in constraints.require_facet if c.bound == 2]
    required = {(c.support, c.bound) for c in constraints.require_facet}
    engine = _Engine(full, mandatory, cert1, cert2)
    # an empty forced set joins nothing and is no class
    seed = [c for c in merge_overlapping(
        [1 << i for i in bits(full)] + list(closure.forced_rank1)) if c]
    for classes, lines in engine.run(seed):
        profile = Rank3Profile(ground, classes, lines)
        if not required or required.issubset(profile.facet_keys()):
            yield profile
