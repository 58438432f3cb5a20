"""Census of connected simple rank-3 matroids on a small ground set.

A simple rank-3 matroid is determined by its long lines, the rank-2
flats with at least three points, and any family of >= 3-point subsets
pairwise meeting in at most one point arises this way.  Connectivity is
exactly the condition that every line keeps two points outside it, so
the census enumerates such line families with line sizes in [3, n-2],
one representative per relabeling class, and builds the matroids.

Classes are deduplicated by a canonical key: the lexicographically
least sorted line-mask tuple over all label permutations.  It is found
by refining ordered partitions of the points, one key entry at a time,
instead of listing the n! permutations.
"""

from .errors import ConstraintError
from .matroid import matroid_from_flat_constraints
from .setfam import GroundSet, ksubsets
from .decomp import two_decompose

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def canonical_key(lines):
    """The least sorted tuple of relabeled line masks over every
    relabeling of the points.

    A state is an ordered partition of the points into cells, cell c
    taking the labels [lo_c, lo_c + |c|), and stands for the relabelings
    that map each cell onto its interval.  The intervals are disjoint, so
    the least mask a line L takes under them is the sum over the cells of
    ((1 << |L & c|) - 1) << lo_c, reached exactly when each L & c takes
    the lowest labels of its cell: in the state refined by L, which splits
    every cell c into c & L followed by c & ~L.  The key grows one entry
    at a time; the beam keeps every (state, placed lines) pair that
    reaches the least entry so far.
    """
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
                val = 0
                for c, lo in zip(cells, los):
                    val |= ((1 << (line & c).bit_count()) - 1) << lo
                if best is None or val < best:
                    best = val
                    hits = [(cells, used, j)]
                elif val == best:
                    hits.append((cells, used, j))
        key.append(best)
        beam = {}
        for cells, used, j in hits:
            line = lines[j]
            refined = []
            for c in cells:
                if c & line:
                    refined.append(c & line)
                if c & ~line:
                    refined.append(c & ~line)
            state = (tuple(refined), used | 1 << j)
            if state not in beam:
                los = [0]
                for c in refined[:-1]:
                    los.append(los[-1] + c.bit_count())
                beam[state] = tuple(los)
    return tuple(key)


def _candidate_lines(n):
    """Every line a connected census class on n points can have: the
    subsets of 3 to n - 2 points."""
    full = (1 << n) - 1
    return [mask for size in range(3, n - 1) for mask in ksubsets(full, size)]


def _extensions(fam, candidates):
    """The sorted families one candidate line larger than fam, with the
    new line meeting each old one in at most one point (a line of fam
    meets itself in at least three)."""
    for line in candidates:
        if all((line & old).bit_count() <= 1 for old in fam):
            yield tuple(sorted(fam + (line,)))


def iter_line_families(n):
    """Yield one line family per isomorphism class, by line count
    ascending, starting with the empty family."""
    if not 4 <= n <= 9:
        raise ConstraintError("census supports ground sizes 4 through 9")
    candidates = _candidate_lines(n)
    level = [()]
    yield ()
    while level:
        raw = set()
        for fam in level:
            raw.update(_extensions(fam, candidates))
        nxt = {}
        for fam in sorted(raw):
            key = canonical_key(fam)
            if key not in nxt:
                nxt[key] = fam
        level = [nxt[k] for k in sorted(nxt)]
        for fam in level:
            yield fam


def matroid_of_lines(n, lines):
    """The simple rank-3 matroid on the first n letters whose long lines
    are the given masks."""
    ground = GroundSet(_LETTERS[:n])
    return matroid_from_flat_constraints(
        ground, 3, [(mask, 2) for mask in lines])


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
