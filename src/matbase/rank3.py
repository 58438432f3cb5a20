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
    left, or E-C is a long line (Oxley, Matroid Theory, ch. 4), which
    is read as a line whose complement is a class.
    """
    if support != full or len(classes) == 3:
        return False
    for l in lines:
        if support & ~l in classes:
            return False
    return True


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


def _pairs(mandatory, p, placed):
    """The pairs of placed points that make a mandatory triple with p."""
    bit = 1 << p
    return [t & ~bit for t in mandatory if t & bit and not t & ~placed & ~bit]


def _line_through(classes, lines, pair):
    """The line of a rank-3 state through the two points of pair: the
    long line holding both, or the union of their two classes; None
    when they are parallel."""
    ends = [c for c in classes if c & pair]
    if len(ends) == 1:
        return None
    line = ends[0] | ends[1]
    return next((l for l in lines if not line & ~l), line)


def _on_line(classes, pairs):
    """Whether some pair has its points in two classes of a rank-2 state;
    a later point p with a mandatory triple {p} | pair then lies on the
    state's line, as p is parallel to one of them or on their line."""
    return any(all(pair & ~c for c in classes) for pair in pairs)


def _alive(classes, ahead):
    """The look-ahead of a rank-2 state: False when every later point
    lies on its line (_on_line), so every leaf below it has rank 2."""
    return not all(_on_line(classes, pairs) for pairs in ahead)


def _may_join(classes, lines, c, pairs):
    """Whether a point parallel to the class c of a rank-3 state makes a
    dependent triple with each pair: one that meets c, a parallel one,
    or one whose line holds c."""
    for pair in pairs:
        line = None if pair & c else _line_through(classes, lines, pair)
        if line is not None and not line & c:
            return False
    return True


def _place(state, bit, pairs, anchor, ahead):
    """The children of a (classes, lines, rank) state for its next point
    bit, by the rules of search_profiles: pairs are its mandatory pairs,
    anchor the placed points it must be parallel to, and ahead the
    mandatory pairs of each later point among the points then placed."""
    classes, lines, rank = state
    kids = []
    for k, c in enumerate(classes):
        if anchor & ~c or rank == 3 and not _may_join(classes, lines, c,
                                                      pairs):
            continue
        kids.append((classes[:k] + (c | bit,) + classes[k + 1:],
                     tuple(l | bit if l & c else l for l in lines), rank))
    if not anchor and rank < 3:
        kids.append((classes + (bit,), (), min(rank + 1, 2)))
        if rank == 2 and not _on_line(classes, pairs):
            kids.append((classes + (bit,),
                         (sum(classes),) if len(classes) >= 3 else (), 3))
    for kid in kids:
        if kid[2] != 2 or _alive(kid[0], ahead):
            yield kid
    if anchor or rank < 3:
        return
    forced, used = [], 0
    for pair in pairs:
        line = _line_through(classes, lines, pair)
        if line is None or line in forced:
            continue
        if line & used:
            return  # two lines through bit would share a class
        forced.append(line)
        used |= line
    free = [l for l in lines if not l & used]
    free += [a | b for a, b in itertools.combinations(classes, 2)
             if not (a | b) & used and all((a | b) & ~l for l in lines)]
    picks = [(used, forced)]
    for line in free:
        picks += [(u | line, chosen + [line]) for u, chosen in picks
                  if not u & line]
    for _, chosen in picks:
        yield (classes + (bit,), tuple([l for l in lines if l not in chosen]
                                       + [l | bit for l in chosen]), 3)


def _walk(full, mandatory, forced_rank1):
    """Yield the sorted (classes, lines) of every connected loopless
    rank-3 state on full that makes each mandatory triple dependent and
    holds each forced_rank1 set in one class, each once, depth first.
    The next point placed is the one with the most mandatory triples
    into the placed points, the lowest on a tie; the path holds one
    _place iterator per placed point."""
    steps, placed = [], 0
    while placed != full:
        e = max(bits(full & ~placed), key=lambda p: (
            len(_pairs(mandatory, p, placed)), -p))
        placed |= 1 << e
        anchor = next((a & placed & ~(1 << e) for a in forced_rank1
                       if a >> e & 1), 0)
        steps.append((1 << e, _pairs(mandatory, e, placed), anchor,
                      [_pairs(mandatory, p, placed)
                       for p in bits(full & ~placed)]))
    path = [iter([((), (), 0)])]
    while path:
        state = next(path[-1], None)
        if state is None:
            path.pop()
        elif len(path) <= len(steps):
            path.append(_place(state, *steps[len(path) - 1]))
        elif state[2] == 3 and _connected(full, full, *state[:2]):
            yield tuple(sorted(state[0])), tuple(sorted(state[1]))


def search_profiles(m, constraints=None):
    """Yield the Rank3Profile of every connected matroid M' on the ground
    of m with B(M') inside B(m), m itself included, that meets all
    constraints, each once.

    The search places the points one at a time (_walk), holding one path
    of (classes, long lines, rank) states on the placed points.  It is
    complete with no record of the states met: when B(M') lies in B(m)
    at rank 3, every independent set of M' is one of m, so for each
    prefix S of the point order M'|S is a weak-map image of m|S, of
    rank at most 3 (Oxley, Matroid Theory, 2011).  So M' has one path
    of restrictions, and each of its steps is a child of _place, which
    lists every state on S + e that restricts to the state on S and
    makes each mandatory triple through e dependent; a triple is
    dependent when it meets a class twice or lies on a long line.
    - e joins a class; at rank 3 the lines through the class gain e, and
      the class must lie on the line through each mandatory pair of e.
    - At rank 0 or 1, e is a new class and the rank grows by one.
    - At rank 2, e is a new class on the line, or off it when each
      mandatory pair of e is parallel; three or more old classes then
      form a long line.
    - At rank 3, e is a new class on a set of pairwise class-disjoint
      lines, each a long line or two classes no long line holds; the
      line through each mandatory pair of e that is not parallel is
      among them, and two of those that share a class kill the branch.
    A rank-2 state whose later points p each have a mandatory triple
    {p, x, y} with x and y placed in two classes is dropped: p is
    parallel to x or y or on their line, which holds every placed point,
    so each leaf below has rank 2.  The leaves kept have rank 3 and are
    connected (_connected).

    Constraints start from their closure under propagate: a placed
    point of one of its rank-1 sets makes the later points of that set
    join its class, and the triples of its rank-2 sets are mandatory,
    as are the non-bases of m; a ContradictionError there means nothing
    is yielded.  A require_facet inequality (A, k)<= must be
    facet-defining for the result, (A, k) one of its facet_keys, and not
    for m; if it is one for m, or has bound 2 on fewer than 3 elements,
    nothing is yielded and the search does not run.  No matroid is
    built.
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
    required = {(c.support, c.bound) for c in constraints.require_facet}
    for classes, lines in _walk(full, sorted(mandatory),
                                closure.forced_rank1):
        profile = Rank3Profile(ground, classes, lines)
        if not required or required.issubset(profile.facet_keys()):
            yield profile
