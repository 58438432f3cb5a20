"""Brute-force oracles and matroid generators shared by the test suite.

Everything here recomputes answers from definitions, independently of
the library's own algorithms, so tests can compare the two.
count_searches counts the rank-3 engine runs and matroid builds,
count_engine_steps the engine's pops, move lists and connectivity
tests, and count_beams the census's full canonical-key beams.
"""

import functools
import itertools
import random
from collections import Counter

from matbase import census, rank3
from matbase.census import _candidate_lines, canonical_key, census_rank3
from matbase.decomp import three_partitions
from matbase.errors import (EmptyFamilyError, ExchangeAxiomError,
                            MixedCardinalityError)
from matbase.facets import (FacetReport, is_facet_defining_base,
                            is_facet_inequality)
from matbase.matroid import (matroid_from_bases, merge_overlapping,
                             uniform_matroid)
from matbase.setfam import ElementSet, GroundSet, bits, ksubsets, submasks

LETTERS = "abcdefghijkl"


def ground(n):
    return GroundSet(LETTERS[:n])


def exchange_ok_brute(masks):
    """Definition-level basis exchange check on a set of bitmasks."""
    fam = set(masks)
    for b1 in fam:
        for b2 in fam:
            for x in bits(b1 & ~b2):
                ex = 1 << x
                if not any((b1 & ~ex) | (1 << y) in fam
                           for y in bits(b2 & ~b1)):
                    return False
    return True


def exchange_witness_pairs(masks, base_set):
    """First (B1, B2, x) breaking the exchange axiom, or None, by the
    pair loop over members in masks order; the twin of
    matroid._exchange_witness."""
    for b1 in masks:
        for b2 in masks:
            if b1 == b2:
                continue
            swap_in = b2 & ~b1
            for x in bits(b1 & ~b2):
                bx = b1 ^ (1 << x)
                for y in bits(swap_in):
                    if bx | (1 << y) in base_set:
                        break
                else:
                    return (b1, b2, x)
    return None


def splits_by_halves(m, amask, a):
    """Whether (A,a)= splits B(m) by the definition: both strict sides
    are nonempty and both closed halves pass exchange_ok_brute."""
    bases = list(m.bases)
    low = [b for b in bases if (b & amask).bit_count() <= a]
    up = [b for b in bases if (b & amask).bit_count() >= a]
    return (len(low) < len(bases) and len(up) < len(bases)
            and exchange_ok_brute(low) and exchange_ok_brute(up))


def two_decompose_by_halves(m):
    """First (A,a)= splitting B(m) over all masks, in (mask, bound) order
    with 0 < a < rank, by splits_by_halves, as (A, a, lower half, upper
    half) on the side with the larger support (the smaller mask on a
    tie), the halves as frozensets of bases; None when no hyperplane
    splits B(m).  The twin of decomp.two_decompose."""
    full = m.ground.full_mask
    for amask in range(1, full):
        for a in range(1, m.rank):
            if not splits_by_halves(m, amask, a):
                continue
            low = frozenset(b for b in m.bases if (b & amask).bit_count() <= a)
            up = frozenset(b for b in m.bases if (b & amask).bit_count() >= a)
            comp = full & ~amask
            if (comp.bit_count(), -comp) > (amask.bit_count(), -amask):
                return comp, m.rank - a, up, low
            return amask, a, low, up
    return None


def split_families(split):
    """A two_decompose result in the form two_decompose_by_halves
    returns."""
    if split is None:
        return None
    hyp, low, up = split
    assert hyp.dir == "=="
    return hyp.support, hyp.bound, frozenset(low.bases), frozenset(up.bases)


def rank3_split_by_flat_rule(m, amask):
    """Whether (A,2)= splits B(m) of a connected simple rank-3 matroid,
    by the facet-flat rule: E - A keeps two elements, A has rank 3, and
    every facet rank-2 flat meets A in at most one element, lies inside
    A, or fills the ground together with A.  The twin of
    decomp.rank3_two_decomposable_by."""
    full = m.ground.full_mask
    if (full & ~amask).bit_count() < 2 or m.rank_of(amask) != 3:
        return False
    return all((f & amask).bit_count() <= 1 or not (f & ~amask)
               or (amask | f) == full for f in rank3.facet_rank2_flats(m))


def weak_leq_by_ranks(m2, m1):
    """Rank dominance r2(A) <= r1(A) for every A; the twin of
    order.weak_leq on a common ground and rank."""
    return all(m2.rank_of(a) <= m1.rank_of(a)
               for a in submasks(m1.ground.full_mask))


def triple_dependent(t, cls_of, lines):
    """Whether a 3-set meets a class twice or lies inside a line;
    cls_of maps each element to its class."""
    i, j, k = bits(t)
    ci, cj, ck = cls_of[i], cls_of[j], cls_of[k]
    if ci == cj or ci == ck or cj == ck:
        return True
    return any(t & ~l == 0 for l in lines)


@functools.lru_cache(maxsize=None)
def linear_spaces(k):
    """Every linear space of rank 3 on the points 0..k-1, as the sorted
    tuple of its lines of three or more points, each a bitmask: every
    pair of points lies on exactly one line, and not all points lie on
    one.  The line through the first pair no line holds yet is chosen
    among all sets of points whose pairs no line holds, so each space is
    listed once.  There are 1, 5, 31, 352 and 8,389 for k = 3..7."""
    out = []

    def extend(open_pairs, lines):
        if not open_pairs:
            out.append(tuple(sorted(lines)))
            return
        pair = min(open_pairs)
        i, j = bits(pair)
        cands = [x for x in range(k) if (1 << i | 1 << x) in open_pairs
                 and (1 << j | 1 << x) in open_pairs]
        for r in range(len(cands) + 1):
            for extra in itertools.combinations(cands, r):
                line = pair | sum(1 << x for x in extra)
                pairs = set(ksubsets(line, 2))
                if pairs <= open_pairs:
                    extend(open_pairs - pairs, lines + [line] * bool(extra))

    extend(frozenset(ksubsets((1 << k) - 1, 2)), [])
    return tuple(sp for sp in out if sp != ((1 << k) - 1,))


def set_partitions(elems):
    """Every set partition of the list elems, as a list of bitmask
    blocks."""
    if not elems:
        yield []
        return
    first = 1 << elems[0]
    for part in set_partitions(elems[1:]):
        yield [first] + part
        for i in range(len(part)):
            yield part[:i] + [part[i] | first] + part[i + 1:]


@functools.lru_cache(maxsize=None)
def rank3_systems(n, loops):
    """Every rank-3 matroid on ground(n) whose loops are exactly the mask
    loops, as (classes, lines, dependent): a set partition of the other
    elements into three or more classes, a linear space of rank 3 on the
    classes with its long lines as unions of classes, and the bitmask,
    over the 3-subsets of the ground in ksubsets order, of the dependent
    ones (meeting a loop, meeting a class twice, or inside a line).  No
    engine is involved; the definitional twin of the rank-3 searches."""
    full = (1 << n) - 1
    index = {t: k for k, t in enumerate(ksubsets(full, 3))}

    @functools.lru_cache(maxsize=None)
    def dependent(mask, meets):
        # the triples with at least `meets` elements in mask
        return sum(1 << k for t, k in index.items()
                   if (t & mask).bit_count() >= meets)

    out = []
    for part in set_partitions(list(bits(full & ~loops))):
        if len(part) < 3:
            continue
        classes = tuple(sorted(part))
        base = dependent(loops, 1)
        for c in classes:
            base |= dependent(c, 2)
        for space in linear_spaces(len(classes)):
            lines = tuple(sorted(sum(classes[x] for x in bits(pl))
                                 for pl in space))
            dep = base
            for l in lines:
                dep |= dependent(l, 3)
            out.append((classes, lines, dep))
    return tuple(out)


def dependent_bits(m):
    """The bitmask, over the 3-subsets of the ground of a rank-3 m in
    ksubsets order, of those that are no base: rank3_systems' form."""
    return sum(1 << k for k, t in enumerate(ksubsets(m.ground.full_mask, 3))
               if t not in m.bases)


def systems_below(m, loops):
    """The rank3_systems entries with the given loops whose bases all
    are bases of m."""
    dep_m = dependent_bits(m)
    return [s for s in rank3_systems(m.ground.n, loops)
            if s[2] & dep_m == dep_m]


def scan_per_triple(support, mandatory, classes, lines):
    """The uncovered mandatory triples of an _Engine state by testing
    every 3-subset of the support on its own; the twin of
    _Engine._scan."""
    cls_of = {i: c for c in classes for i in bits(c)}
    return [t for t in ksubsets(support, 3)
            if t in mandatory and not triple_dependent(t, cls_of, lines)]


def normalize_cascade(engine, classes, lines):
    """An _Engine state normalized by the cascade, or None when dead:
    lines absorb every class they meet, lines meeting <= 2 classes are
    dropped, and two lines sharing >= 2 whole classes are merged, over
    and over until nothing changes.  The twin of _Engine._child."""
    classes = list(classes)
    lines = list(lines)
    while True:
        changed = False
        for idx, l in enumerate(lines):
            for c in classes:
                if c & l and c & ~l:
                    lines[idx] = l = l | c
                    changed = True
        kept = [l for l in lines if sum(1 for c in classes if c & l) >= 3]
        if len(kept) != len(lines):
            changed = True
        lines = kept
        merged = True
        while merged:
            merged = False
            for a in range(len(lines)):
                for b in range(a + 1, len(lines)):
                    common = lines[a] & lines[b]
                    if sum(1 for c in classes if c & common == c) >= 2:
                        lines[a] |= lines[b]
                        del lines[b]
                        merged = changed = True
                        break
                if merged:
                    break
        if not changed:
            break
    if len(classes) < 3 or engine.support in lines:
        return None
    if not engine._guards_ok(classes, lines):
        return None
    return tuple(sorted(classes)), tuple(sorted(lines))


def run_by_fewest_picks(engine, seed_classes):
    """The states an _Engine yields from the seed classes, by the rule
    it had before it took the first uncovered triple: each uncovered
    triple's moves are built and the first with the fewest kept, and a
    state is tested for connectivity when it is popped, not before it is
    pushed.  The twin of _Engine.run."""
    start = (tuple(sorted(seed_classes)), ())
    if len(start[0]) < 3 or not engine._guards_ok(*start):
        return
    seen = {start}
    stack = [start]
    while stack:
        classes, lines = stack.pop()
        if not rank3._connected(engine.support, engine.support, classes,
                                lines):
            continue
        uncovered = engine._scan(classes, lines)
        if uncovered:
            picks = None
            for t in engine.tri.masks_of(uncovered):
                moves = engine._picks(lines, [c for c in classes if c & t])
                if picks is None or len(moves) < len(picks):
                    picks = moves
        else:
            yield classes, lines
            picks = engine._picks(lines, classes)
        for pick in picks:
            state = engine._child(classes, lines, pick)
            if state is not None and state not in seen:
                seen.add(state)
                stack.append(state)


def included_by_first_round(m, constraints):
    """The profiles iter_included_rank3(m, constraints) yields, in search
    order, by an engine seeded with the first round of the forcing rules
    alone: the forced rank-1 sets and the components of g(E-Z, Z) for
    each required rank-2 facet Z join the seed classes, and the triples
    of each forced rank-2 set, of each Z and of A | C for each component
    C of g(A, E-A) of each required rank-1 facet A must be dependent.
    Each require_facet entry is decided by a fresh facet report on the
    profile's matroid.  The twin of rank3.search_profiles seeded from
    propagate's closure; the constraints must fit the ground of m."""
    rank3.check_rank3_input(m)
    own = rank3.rank3_profile(m)
    full = m.ground.full_mask
    if any(is_facet_inequality(m, c.support, c.bound)
           or c.bound == 2 and c.support.bit_count() < 3
           for c in constraints.require_facet):
        return
    groups = [1 << i for i in bits(full)] + list(constraints.forced_rank1)
    mandatory = {t for t in ksubsets(full, 3) if t not in m.bases}
    for a in constraints.forced_rank2:
        mandatory.update(ksubsets(a, 3))
    cert1, cert2 = [], []
    for c in constraints.require_facet:
        a = c.support
        if c.bound == 1:
            cert1.append(a)
            groups.append(a)
            comps, _ = rank3.facet_graph_components(m, a, full & ~a)
            for comp in comps:
                mandatory.update(ksubsets(a | comp, 3))
        else:
            cert2.append(a)
            mandatory.update(ksubsets(a, 3))
            comps, _ = rank3.facet_graph_components(m, full & ~a, a)
            groups.extend(comps)
    seed = [c for c in merge_overlapping(groups) if c]
    engine = rank3._Engine(full, mandatory, cert1, cert2)
    for classes, lines in engine.run(seed):
        profile = rank3.Rank3Profile(m.ground, classes, lines)
        if profile == own:
            continue
        mat = profile.matroid()
        if all(facet_inequality_by_report(mat, c.support, c.bound)
               for c in constraints.require_facet):
            yield profile


def children(classes, lines, picks):
    """The unnormalized child of an _Engine state for each of its picks:
    a merge of classes a and b puts a | b last, a new line goes last."""
    out = []
    for pick in picks:
        if isinstance(pick, tuple):
            a, b = pick
            out.append(([c for c in classes if c != a and c != b]
                        + [a | b], list(lines)))
        else:
            out.append((list(classes), list(lines) + [pick]))
    return out


def moves_pairwise(classes, lines, t=None):
    """Children of an _Engine state by the pairwise rules: every merge of
    two classes, and every line through three classes that no line
    holds.  With a triple t, the moves of the three classes it meets, as
    the cover phase made them; without, every grow move.  The twin of
    the children of _Engine._picks."""
    out = []
    if t is not None:
        cls_of = {i: c for c in classes for i in bits(c)}
        i, j, k = bits(t)
        cs = sorted({cls_of[i], cls_of[j], cls_of[k]})
        for a in range(len(cs)):
            for b in range(a + 1, len(cs)):
                nc = [c for c in classes if c not in (cs[a], cs[b])]
                nc.append(cs[a] | cs[b])
                out.append((nc, list(lines)))
        if len(cs) == 3:
            out.append((list(classes), list(lines) + [cs[0] | cs[1] | cs[2]]))
        return out
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            nc = [c for x, c in enumerate(classes) if x not in (a, b)]
            nc.append(classes[a] | classes[b])
            out.append((nc, list(lines)))
    for cm in ksubsets((1 << len(classes)) - 1, 3):
        pick = [classes[x] for x in bits(cm)]
        lmask = pick[0] | pick[1] | pick[2]
        if not any(lmask & ~l == 0 for l in lines):
            out.append((list(classes), list(lines) + [lmask]))
    return out


def face_components_by_minors(m, amask):
    """Components of the face (A, r(A))= of B(m) from the minors M|A and
    M/A, mapped back to masks over the ground of m; the twin of
    facets._face_components."""
    comps = []
    for minor in (m.restrict(amask), m.contract(amask)):
        for cmask in minor.connected_components():
            comps.append(m.ground.mask(minor.ground.labels_of(cmask)))
    return tuple(sorted(comps))


def facet_reports_by_counting(m):
    """{(flat, rank_at_flat): FacetReport} over the facets of B(m) of a
    connected m, in mask order, by counting the components of the minors
    on every proper nonempty flat of flats_by_closure and every set
    E - e; trivial by the range of |B & A| over all rank-size sets B.
    The twin of the facet table (Rank3Profile.facet_keys at rank 3) and
    of base_facets."""
    full = m.ground.full_mask
    cands = {f for f in flats_by_closure(m) if 0 < f < full}
    cands.update(full & ~(1 << i) for i in range(m.ground.n))
    points = list(ksubsets(full, m.rank))
    out = {}
    for amask in sorted(cands - {0}):
        comps = face_components_by_minors(m, amask)
        if len(comps) != 2:
            continue
        ra = rank_brute(m, amask)
        sizes = {(x & amask).bit_count() for x in points}
        out[(amask, ra)] = FacetReport(
            flat=ElementSet(m.ground, amask), rank_at_flat=ra,
            facet_of_base=True,
            trivial=not (max(sizes) > ra and min(sizes) < ra),
            components_on_face=comps)
    return out


def rank3_profile_by_flats(m):
    """The profile of a loopless rank-3 matroid with its long lines taken
    from the rank-2 flats that span three or more classes; the twin of
    rank3.rank3_profile."""
    classes = tuple(sorted(m.parallel_classes()))
    lines = [f for f in m.flats_of_rank(2)
             if sum(1 for c in classes if c & f) >= 3]
    return rank3.Rank3Profile(m.ground, classes, tuple(sorted(lines)))


def facet_inequality_by_report(m, amask, bound):
    """Whether (A, bound)<= is facet-defining for B(m), by a fresh facet
    report on A; the twin of the facet-table lookup
    facets.is_facet_inequality."""
    return (m.rank_of(amask) == bound
            and is_facet_defining_base(m, amask).facet_of_base)


def facet_rank2_flats_by_reports(m):
    """The rank-2 flats whose fresh facet report is a facet; the twin of
    rank3.facet_rank2_flats."""
    return [f for f in m.flats_of_rank(2)
            if is_facet_defining_base(m, f).facet_of_base]


def supporting_face(bases, amask):
    """The bases meeting A in the most elements: the face of the base
    polytope where the one inequality x(A) <= r(A) is tight."""
    mx = max((b & amask).bit_count() for b in bases)
    return frozenset(b for b in bases if (b & amask).bit_count() == mx)


def face_by_levels(piece, target):
    """Whether target is a face of B(piece): the faces of a base polytope
    are the greedy maximizer families over ordered partitions of the
    ground, so this recurses over them, maximizing |B & level| level by
    level."""
    full = piece.ground.full_mask
    seen = set()

    def rec(cands, remaining):
        if cands == target:
            return True
        if not remaining or not (target <= cands) or (cands, remaining) in seen:
            return False
        seen.add((cands, remaining))
        sub = remaining
        while True:
            sub = (sub - 1) & remaining
            level = remaining & ~sub
            mx = max((b & level).bit_count() for b in cands)
            nxt = frozenset(b for b in cands if (b & level).bit_count() == mx)
            if rec(nxt, remaining & ~level):
                return True
            if sub == 0:
                return False

    return rec(frozenset(piece.bases), full)


def is_proper_face_by_levels(piece, fam):
    """Whether fam is a proper face of B(piece), the empty family
    counting as one: a scan of the supporting faces of single
    inequalities, then the recursion over ordered partitions; the twin
    of decomp._is_proper_face."""
    bases = frozenset(piece.bases)
    if not fam:
        return True
    if fam == bases:
        return False
    for amask in range(1, piece.ground.full_mask + 1):
        if supporting_face(bases, amask) == fam:
            return True
    return face_by_levels(piece, frozenset(fam))


def seed_pieces_by_partitions(m, nonorig):
    """The seed pieces of the decomposition search found by enumerating
    the 3-partitions: piece qi seeds when, for some ordered pair (Ai, Aj)
    of blocks, (Ai,1)<= and (Ai|Aj,2)<= are among its non-original
    facets, nonorig being the per-piece decomp._facet_partners lists.
    The twin of decomp._seed_pieces, as a set."""
    keys = [{(f, b) for f, b, _ in facets} for facets in nonorig]
    out = set()
    for tp in three_partitions(m):
        for ai, aj in itertools.permutations(tp.parts, 2):
            out.update(qi for qi, k in enumerate(keys)
                       if (ai, 1) in k and (ai | aj, 2) in k)
    return out


def merge_by_union_find(masks):
    """Sorted unions of the masks linked by overlap, by a union-find over
    element bits that joins every pair of elements sharing a mask; each
    empty mask comes out as its own 0.  The twin of
    matroid.merge_overlapping."""
    parent = {}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    empties = 0
    for mask in masks:
        elems = list(bits(mask))
        if not elems:
            empties += 1
        for i in elems:
            parent.setdefault(i, i)
        for i, j in itertools.combinations(elems, 2):
            parent[find(i)] = find(j)
    comps = {}
    for i in parent:
        comps[find(i)] = comps.get(find(i), 0) | 1 << i
    return sorted([0] * empties + list(comps.values()))


def relabel_mask(mask, perm):
    """The mask with each element i moved to perm[i]."""
    return sum(1 << perm[i] for i in bits(mask))


def line_key_by_permutations(n, lines):
    """The least sorted tuple of relabeled line masks over all n!
    permutations of the points.  The twin of census.canonical_key."""
    points = [list(bits(mask)) for mask in lines]
    return min(tuple(sorted(sum(weight[i] for i in line) for line in points))
               for weight in itertools.permutations([1 << i for i in range(n)]))


def line_extensions(fam, candidates):
    """The sorted families one candidate line larger than fam, with the
    new line meeting each old one in at most one point (a line of fam
    meets itself in at least three)."""
    for line in candidates:
        if all((line & old).bit_count() <= 1 for old in fam):
            yield tuple(sorted(fam + (line,)))


def line_families_by_keys(n):
    """One line family per class on n points, by the level loop that
    keys every raw extension of every representative: the least raw
    family of each key, each level in key order.  The twin of
    census.iter_line_families."""
    candidates = _candidate_lines(n)
    out = [()]
    level = [()]
    while level:
        raw = {ext for fam in level for ext in line_extensions(fam, candidates)}
        nxt = {}
        for fam in sorted(raw):
            nxt.setdefault(canonical_key(fam), fam)
        level = [nxt[k] for k in sorted(nxt)]
        out += level
    return out


def automorphisms(n, lines):
    """The permutations of the n points that map the line family onto
    itself, by trying all n! of them."""
    family = set(lines)
    return [perm for perm in itertools.permutations(range(n))
            if all(relabel_mask(line, perm) in family for line in lines)]


def try_matroid(g, masks):
    try:
        return matroid_from_bases(g, masks)
    except (ExchangeAxiomError, EmptyFamilyError, MixedCardinalityError):
        return None


def rank_brute(m, xmask):
    """Rank via the independence family spanned by the bases."""
    best = 0
    for b in m.bases:
        best = max(best, (b & xmask).bit_count())
    return best


def flats_by_closure(m):
    """All flats of m, ascending, by a closure walk up from cl(empty):
    the flats covering a flat F are the closures cl(F + e), and they
    partition E - F, so one closure is taken per covering flat.  The
    twin of Matroid.flats."""
    full = m.ground.full_mask
    bottom = m.closure_of(0)
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        nxt = []
        for f in frontier:
            rest = full & ~f
            while rest:
                g = m.closure_of(f | (rest & -rest))
                rest &= ~g
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return tuple(sorted(seen))


def closure_by_rank(m, xmask):
    """X together with every e outside it with r(X + e) = r(X), by
    rank_brute; the twin of Matroid.closure_of."""
    r = rank_brute(m, xmask)
    out = xmask
    for i in bits(m.ground.full_mask & ~xmask):
        if rank_brute(m, xmask | 1 << i) == r:
            out |= 1 << i
    return out


def independent_sets(m):
    """All subsets of bases, as a frozenset of masks."""
    out = set()
    for b in m.bases:
        for s in submasks(b):
            out.add(s)
    return frozenset(out)


def label_sets(m):
    """Base family as frozenset of frozensets of labels; survives
    any reground."""
    g = m.ground
    return frozenset(frozenset(g.labels_of(b)) for b in m.bases)


def relabel(m, perm):
    """Image of m under a permutation given as a label->label dict."""
    g = m.ground
    bases = [[perm[lab] for lab in g.labels_of(b)] for b in m.bases]
    return matroid_from_bases(g, bases)


def random_matroid(rng, n, r, removals=8):
    """A matroid obtained from U_{r,n} by greedily deleting random
    bases while the exchange axiom survives."""
    g = ground(n)
    masks = set(ksubsets(g.full_mask, r))
    order = sorted(masks)
    rng.shuffle(order)
    dropped = 0
    for cand in order:
        if dropped == removals or len(masks) == 1:
            break
        rest = masks - {cand}
        if exchange_ok_brute(rest):
            masks = rest
            dropped += 1
    return matroid_from_bases(g, sorted(masks))


def pool_small(n_max=6):
    """Deterministic mix of uniform, census, dual, and minor matroids
    with at most n_max elements."""
    out = []
    for n in range(2, n_max + 1):
        for r in range(1, n):
            out.append(uniform_matroid(r, n, LETTERS[:n]))
    for n in range(4, n_max + 1):
        out.extend(census_rank3(n))
    rng = random.Random(20230817)
    for n in range(4, n_max + 1):
        for r in (2, 3):
            if r < n:
                out.append(random_matroid(rng, n, r))
    out.extend(m.dual() for m in list(out) if 0 < m.rank < m.ground.n)
    return out


def pool_rank3(n_max=6, simple_only=False, connected_only=False):
    out = [m for m in pool_small(n_max) if m.rank == 3 and not m.loops()]
    if simple_only:
        out = [m for m in out
               if all(c.bit_count() == 1 for c in m.parallel_classes())]
    if connected_only:
        out = [m for m in out if m.is_connected()]
    return out


def affine_dim(vectors):
    """Dimension of the affine hull of 01-vectors, via numpy rank."""
    import numpy as np
    arr = np.array(vectors, dtype=float)
    return int(np.linalg.matrix_rank(arr - arr[0]))


def indicators(g, masks):
    return [[(mask >> i) & 1 for i in range(g.n)] for mask in masks]


def duplicate_element(m, label, new_label):
    """m with a parallel copy of label appended as new_label."""
    g = m.ground
    gd = GroundSet(g.labels + (new_label,))
    bases = [set(g.labels_of(b)) for b in m.bases]
    extra = [b - {label} | {new_label} for b in bases if label in b]
    return matroid_from_bases(gd, [sorted(b) for b in bases + extra])


def all_families(n, r):
    """Every nonempty family of r-subsets of an n-ground, as mask tuples."""
    g = ground(n)
    subs = sorted(ksubsets(g.full_mask, r))
    for bitsel in range(1, 1 << len(subs)):
        yield g, tuple(subs[i] for i in bits(bitsel))


def set_partitions_3(items):
    """All unordered partitions of items into exactly 3 nonempty blocks."""
    items = list(items)
    first, rest = items[0], items[1:]
    for asel in range(1 << len(rest)):
        block_a = [first] + [rest[i] for i in bits(asel)]
        remaining = [rest[i] for i in range(len(rest)) if not asel >> i & 1]
        if len(remaining) < 2:
            continue
        head, tail = remaining[0], remaining[1:]
        for bsel in range(1 << len(tail)):
            block_b = [head] + [tail[i] for i in bits(bsel)]
            block_c = [tail[i] for i in range(len(tail)) if not bsel >> i & 1]
            if block_c:
                yield block_a, block_b, block_c


def count_searches(monkeypatch):
    """Count engine runs and profile matroid builds from now on."""
    counts = Counter()
    run, build = rank3._Engine.run, rank3.Rank3Profile.matroid

    def counted_run(self, *args):
        counts["runs"] += 1
        return run(self, *args)

    def counted_build(self):
        counts["builds"] += 1
        return build(self)

    monkeypatch.setattr(rank3._Engine, "run", counted_run)
    monkeypatch.setattr(rank3.Rank3Profile, "matroid", counted_build)
    return counts


def count_beams(monkeypatch):
    """Count the census's full canonical-key beams from now on."""
    counts = Counter()
    beam = census._beam

    def counted_beam(lines):
        counts["beams"] += 1
        return beam(lines)

    monkeypatch.setattr(census, "_beam", counted_beam)
    return counts


def count_engine_steps(monkeypatch):
    """Count what the rank-3 engine does from now on, as a Counter:
    - popped: states popped (each goes to _scan first);
    - picks: _picks calls;
    - disconnected_popped: popped states whose matroid is disconnected;
    - tested: connectivity tests made while a run advances, late_tests:
      those not made on the start state or on the state the last _child
      call returned, that is, not made before the state was pushed."""
    counts = Counter()
    run, scan, picks, child = (rank3._Engine.run, rank3._Engine._scan,
                               rank3._Engine._picks, rank3._Engine._child)
    connected = rank3._connected
    now = {"running": False, "child": None}

    def counted_run(self, *args):
        states = run(self, *args)
        now["child"] = None
        while True:
            now["running"] = True
            try:
                state = next(states)
            except StopIteration:
                return
            finally:
                now["running"] = False
            yield state

    def counted_scan(self, classes, lines):
        counts["popped"] += 1
        if not connected(self.support, self.support, classes, lines):
            counts["disconnected_popped"] += 1
        return scan(self, classes, lines)

    def counted_picks(self, *args):
        counts["picks"] += 1
        return picks(self, *args)

    def counted_child(self, *args):
        now["child"] = out = child(self, *args)
        return out

    def counted_connected(full, support, classes, lines):
        if now["running"]:
            counts["tested"] += 1
            if now["child"] is not None and now["child"] != (classes, lines):
                counts["late_tests"] += 1
        return connected(full, support, classes, lines)

    monkeypatch.setattr(rank3._Engine, "run", counted_run)
    monkeypatch.setattr(rank3._Engine, "_scan", counted_scan)
    monkeypatch.setattr(rank3._Engine, "_picks", counted_picks)
    monkeypatch.setattr(rank3._Engine, "_child", counted_child)
    monkeypatch.setattr(rank3, "_connected", counted_connected)
    return counts
