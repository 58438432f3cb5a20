"""Census of connected simple rank-3 matroids on a small ground set.

A simple rank-3 matroid is determined by its long lines, the rank-2
flats with at least three points, and any family of >= 3-point subsets
pairwise meeting in at most one point arises this way.  Connectivity is
exactly the condition that every line keeps two points outside it, so
the census enumerates such line families with line sizes in [3, n-2],
one representative per relabeling class, and builds the matroids.

Classes are ordered by a canonical key: the lexicographically least
sorted line-mask tuple over all label permutations.  It is found by a
beam over ordered partitions of the points, one key entry at a time,
instead of listing the n! permutations.  The representative of a class
is its least raw family: the least sorted family one line larger than
a representative of the level below.

The key is computed once per class.  Its beam ends in every least
relabeling of the family P, and so it gives Aut(P); each level then
extends P by one line per Aut(P)-orbit only, and matches a raw family
against the keys of the classes already found by a walk over the beam's
states that stops at the first line below the key.  Neither step changes
a representative or the order; iter_line_families says why (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998; McKay &
Piperno, "Practical graph isomorphism II", J. Symbolic Comput. 2014).
"""

from .errors import ConstraintError, EmptyFamilyError
from .matroid import Matroid
from .setfam import GroundSet, bits, ksubsets
from .decomp import two_decompose

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _value(line, cells, los):
    """The least mask line takes under the relabelings of a state.

    A state is an ordered partition of the points into cells, cell c
    taking the labels [lo_c, lo_c + |c|), and stands for the relabelings
    that map each cell onto its interval.  The intervals are disjoint, so
    the least mask is reached exactly when each line & c takes the lowest
    labels of its cell: in the state _refine(cells, line)."""
    val = 0
    for c, lo in zip(cells, los):
        val |= ((1 << (line & c).bit_count()) - 1) << lo
    return val


def _refine(cells, line):
    """The state refined by line, every cell c split into c & line
    followed by c & ~line, and the refined cells' lowest labels."""
    refined = []
    for c in cells:
        if c & line:
            refined.append(c & line)
        if c & ~line:
            refined.append(c & ~line)
    los = [0]
    for c in refined[:-1]:
        los.append(los[-1] + c.bit_count())
    return tuple(refined), tuple(los)


def _beam(lines):
    """canonical_key(lines) and the cells of the beam's final states.

    The key grows one entry at a time; the beam keeps every (state,
    placed lines) pair that reaches the least entry so far, so its final
    states are all the least relabelings.  Cell k of one final state maps
    onto cell k of any other by an automorphism, and the points of one
    final cell lie on the same lines."""
    support = 0
    for line in lines:
        support |= line
    # (cells, placed line bits) -> the cells' lowest labels
    beam = {((support,), 0): (0,)}
    key = []
    for _ in lines:
        best = None
        hits = []
        for (cells, used), los in beam.items():
            for j, line in enumerate(lines):
                if used >> j & 1:
                    continue
                val = _value(line, cells, los)
                if best is None or val < best:
                    best = val
                    hits = [(cells, used, j)]
                elif val == best:
                    hits.append((cells, used, j))
        key.append(best)
        beam = {}
        for cells, used, j in hits:
            refined, los = _refine(cells, lines[j])
            beam.setdefault((refined, used | 1 << j), los)
    return tuple(key), list(dict.fromkeys(cells for cells, _ in beam))


def canonical_key(lines):
    """The least sorted tuple of relabeled line masks over every
    relabeling of the points."""
    return _beam(lines)[0]


def _matches(lines, key):
    """Whether canonical_key(lines) == key, by a depth-first walk over
    the beam's states that takes only lines whose value is the next key
    entry.  A full path relabels the lines onto the key's, and the beam
    of an equal key is such a path; a line of smaller value means
    canonical_key(lines) < key."""
    support = 0
    for line in lines:
        support |= line
    full = (1 << len(lines)) - 1
    stack = [((support,), (0,), 0)]
    visited = set()
    while stack:
        cells, los, used = stack.pop()
        if used == full:
            return True
        want = key[used.bit_count()]
        for j, line in enumerate(lines):
            if used >> j & 1:
                continue
            val = _value(line, cells, los)
            if val < want:
                return False
            if val == want:
                refined, rlos = _refine(cells, line)
                state = (refined, used | 1 << j)
                if state not in visited:
                    visited.add(state)
                    stack.append((refined, rlos, state[1]))
    return False


def _invariant(n, lines):
    """The sorted point colours after two rounds of refinement on the
    point-line incidence, starting from the point degrees: equal on
    isomorphic families."""
    points = [list(bits(line)) for line in lines]
    colour = [0] * n
    for ps in points:
        for p in ps:
            colour[p] += 1
    for _ in range(2):
        around = [[] for _ in range(n)]
        for ps in points:
            line_colour = tuple(sorted(colour[p] for p in ps))
            for p in ps:
                around[p].append(line_colour)
        colour = [(colour[p], tuple(sorted(around[p]))) for p in range(n)]
    return tuple(sorted(colour))


def _candidate_lines(n):
    """Every line a connected census class on n points can have: the
    subsets of 3 to n - 2 points."""
    full = (1 << n) - 1
    return [mask for size in range(3, n - 1) for mask in ksubsets(full, size)]


def _pairs(n, line):
    """The 2-subsets {p, q}, p < q, of line as the bits p * n + q: two
    lines meet in two points exactly when their pairs meet."""
    out = 0
    for p in bits(line):
        out |= (line >> p + 1) << (p * n + p + 1)
    return out


def _orbit_lines(n, fam, finals, candidates):
    """The least line of each Aut(fam)-orbit among the candidates, an
    ascending list of (line, _pairs(n, line)), that meet every line of
    fam in at most one point.

    finals are the cells of the final states of fam's beam.  Two lines lie
    in one orbit exactly when they have the same size and the same least
    tuple (|L & c|)_c over the final states; the points on no line form
    one more cell, whose count the size fixes.  Lines with the same tuple
    in the first final state are one orbit already, so the least is
    taken once per such tuple."""
    covered = 0
    for old in fam:
        covered |= _pairs(n, old)
    first = finals[0]
    orbit_of = {}
    orbits = set()
    out = []
    for line, pairs in candidates:
        if not pairs & covered:
            counts = (line.bit_count(),) + tuple(
                (line & c).bit_count() for c in first)
            orbit = orbit_of.get(counts)
            if orbit is None:
                orbit = orbit_of[counts] = (counts[0], min(
                    tuple((line & c).bit_count() for c in cells)
                    for cells in finals))
            if orbit not in orbits:
                orbits.add(orbit)
                out.append(line)
    return out


def iter_line_families(n):
    """Yield one line family per isomorphism class, by line count
    ascending and by canonical key within a count, starting with the
    empty family.  Each is the least raw family of its class, a raw
    family being a representative of the level below plus one line.

    Three rules keep the work to one beam per class, with the output of
    keying every raw family:
    - A representative P is extended only by the least line of each
      Aut(P)-orbit (_orbit_lines; for P = () the group is S_n, one line
      per size).  sorted(P + (L,)) increases with L, and P + (a(L),) is
      an image of P + (L,) for an automorphism a, so a line that is not
      the least of its orbit never gives the least raw family of a class.
    - The raw families go in ascending order, and each is matched by
      _matches against the keys of the classes found so far that share
      its _invariant.  The first raw family to match none is the least of
      a new class, and only it gets the full beam.
    - That beam's key orders the level, and its final states give the
      orbits of the next one."""
    if not isinstance(n, int):
        raise ConstraintError("census ground size must be an int, not %r"
                              % (n,))
    if not 4 <= n <= 9:
        raise ConstraintError("census supports ground sizes 4 through 9")
    candidates = [(line, _pairs(n, line))
                  for line in sorted(_candidate_lines(n))]
    level = [((), [()])]
    yield ()
    while level:
        raw = set()
        for fam, finals in level:
            for line in _orbit_lines(n, fam, finals, candidates):
                raw.add(tuple(sorted(fam + (line,))))
        buckets = {}
        found = []
        for fam in sorted(raw):
            keys = buckets.setdefault(_invariant(n, fam), [])
            if not any(_matches(fam, key) for key in keys):
                key, finals = _beam(fam)
                keys.append(key)
                found.append((key, fam, finals))
        found.sort(key=lambda item: item[0])
        level = [(fam, finals) for _, fam, finals in found]
        for fam, _ in level:
            yield fam


def matroid_of_lines(n, lines):
    """The simple rank-3 matroid on the first n letters whose long lines
    are the given masks: its bases are the 3-subsets inside no line."""
    if n < 3:
        raise ConstraintError("a rank-3 matroid needs at least 3 points")
    ground = GroundSet(_LETTERS[:n])
    masks = [ground.mask(line) for line in lines]
    dependent = set()
    for line in masks:
        dependent.update(ksubsets(line, 3))
    bases = [t for t in ksubsets(ground.full_mask, 3) if t not in dependent]
    if not bases:
        raise EmptyFamilyError("the rank bounds leave no base")
    return Matroid(ground, bases)


def neither_binary_nor_two_decomposable(m):
    return not m.is_binary() and two_decompose(m) is None


def census_rank3(n, predicate=None):
    """Canonical representatives of connected simple rank-3 matroids on
    n elements, optionally filtered."""
    out = []
    for fam in iter_line_families(n):
        m = matroid_of_lines(n, fam)
        if predicate is None or predicate(m):
            out.append(m)
    return out
