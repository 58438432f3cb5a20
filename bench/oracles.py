"""Independent oracles for checking matbase outputs.

Nothing here imports matbase.  A family is an iterable of int bitmasks
over the positions 0..n-1 of a ground list, and every test follows its
textbook definition, so a fault in the program cannot hide in a shared
helper.
"""

import itertools

# a prime above every minor of a 0/1 difference matrix with at most 16
# columns (Hadamard: 16**8 < 2**61), so ranks mod P equal ranks over Q
_P = (1 << 61) - 1


def bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(positions):
    m = 0
    for i in positions:
        m |= 1 << i
    return m


def family_from_flats(n, rank, flats):
    """The r-subsets B of range(n) with |B & F| <= bound for each
    (F, bound) in flats."""
    return frozenset(mask_of(c) for c in itertools.combinations(range(n), rank)
                     if all((mask_of(c) & f).bit_count() <= r for f, r in flats))


def exchange_ok(family):
    """Basis exchange axiom, through one swap table per (base, element):
    swaps[b][x] is the mask of the y with b - x + y in the family, and the
    axiom asks every b2 missing x to meet it outside b."""
    fam = frozenset(family)
    if not fam or len({b.bit_count() for b in fam}) != 1:
        return False
    universe = 0
    for b in fam:
        universe |= b
    members = sorted(fam)
    for b1 in members:
        outside = bits(universe & ~b1)
        for x in bits(b1):
            bx = b1 ^ (1 << x)
            swaps = 0
            for y in outside:
                if bx | (1 << y) in fam:
                    swaps |= 1 << y
            for b2 in members:
                if not (b2 >> x) & 1 and not (b2 & ~b1 & swaps):
                    return False
    return True


def rank_fn(family):
    members = tuple(family)
    return lambda a: max((b & a).bit_count() for b in members)


def is_connected(n, family):
    """No proper nonempty separator A, r(A) + r(E - A) = r(E)."""
    r = rank_fn(family)
    full = (1 << n) - 1
    total = r(full)
    # every separator pair has a side containing element 0
    return all(r(a) + r(full & ~a) != total for a in range(1, full, 2))


def is_simple(n, family):
    """No loop and no parallel pair: every pair lies in some base."""
    covered = 0
    pairs = set()
    for b in family:
        covered |= b
        for i, j in itertools.combinations(bits(b), 2):
            pairs.add((i, j))
    return (covered == (1 << n) - 1
            and len(pairs) == n * (n - 1) // 2)


def split_halves(family, amask, a):
    """Closed halves (|B & A| <= a, |B & A| >= a) when both strict sides
    are nonempty, else None."""
    sizes = [((b & amask).bit_count(), b) for b in family]
    if not (any(s < a for s, _ in sizes) and any(s > a for s, _ in sizes)):
        return None
    low = frozenset(b for s, b in sizes if s <= a)
    up = frozenset(b for s, b in sizes if s >= a)
    return low, up


def first_split(n, family):
    """First (A, a), in (mask, bound) order, whose two closed halves both
    satisfy the exchange axiom; None when no hyperplane splits."""
    fam = frozenset(family)
    rank = next(iter(fam)).bit_count()
    for amask in range(1, (1 << n) - 1):
        for a in range(1, rank):
            halves = split_halves(fam, amask, a)
            if halves and exchange_ok(halves[0]) and exchange_ok(halves[1]):
                return amask, a
    return None


def _gf2_independent(vectors):
    """No vector lies in the GF(2) span of the ones before it."""
    span = {0}
    for v in vectors:
        if v in span:
            return False
        span |= {s ^ v for s in span}
    return True


def embeds_in_pg(n, family):
    """Whether a simple rank-r matroid embeds in PG(r-1, 2): an injective
    map to the nonzero vectors of GF(2)^r under which an r-set is a base
    exactly when its images are linearly independent.  At rank 3 this is
    the embedding in the Fano plane PG(2,2)."""
    bases = frozenset(family)
    r = next(iter(bases)).bit_count()
    image = [0] * n

    def fits(i):
        for rest in itertools.combinations(range(i), r - 1):
            independent = _gf2_independent([image[i]] + [image[j] for j in rest])
            if independent != ((1 << i | mask_of(rest)) in bases):
                return False
        return True

    def place(i, used):
        if i == n:
            return True
        for v in range(1, 1 << r):
            if v in used:
                continue
            image[i] = v
            if fits(i) and place(i + 1, used | {v}):
                return True
        return False

    return n < 1 << r and place(0, frozenset())


def long_lines(n, family):
    """Rank-2 flats with at least three points of a simple rank-3
    matroid: the line through p, q gathers every x with pqx dependent."""
    bases = frozenset(family)
    lines = set()
    for p, q in itertools.combinations(range(n), 2):
        line = 1 << p | 1 << q
        for x in range(n):
            if x not in (p, q) and (1 << p | 1 << q | 1 << x) not in bases:
                line |= 1 << x
        if line.bit_count() >= 3:
            lines.add(line)
    return frozenset(lines)


def incidence_graph(n, lines):
    import networkx as nx
    g = nx.Graph()
    g.add_nodes_from((("p", i) for i in range(n)), kind="point")
    for j, line in enumerate(sorted(lines)):
        g.add_node(("l", j), kind="line")
        g.add_edges_from((("l", j), ("p", i)) for i in bits(line))
    return g


def isomorphic_pairs(structures):
    """Index pairs (i, j) of isomorphic (n, lines) point-line incidence
    structures, bucketed by a colour-refinement hash before the exact
    test."""
    import networkx as nx
    graphs = [incidence_graph(n, lines) for n, lines in structures]
    buckets = {}
    for i, g in enumerate(graphs):
        key = nx.weisfeiler_lehman_graph_hash(g, node_attr="kind")
        buckets.setdefault(key, []).append(i)
    match = nx.algorithms.isomorphism.categorical_node_match("kind", None)
    return [(i, j) for idx in buckets.values()
            for i, j in itertools.combinations(idx, 2)
            if nx.is_isomorphic(graphs[i], graphs[j], node_match=match)]


def tight_family(family, amask):
    """{B : |B & A| = r(A)}, the face cut out by (A, r(A))<=."""
    top = max((b & amask).bit_count() for b in family)
    return frozenset(b for b in family if (b & amask).bit_count() == top)


def tight_families(n, family):
    """(A, tight family) for every proper nonempty A."""
    return [(a, tight_family(family, a)) for a in range(1, (1 << n) - 1)]


def affine_dim(family):
    """Dimension of the convex hull of the incidence vectors."""
    members = sorted(family)
    b0 = members[0]
    n = max(b.bit_length() for b in members)
    rows = [[((b >> i) & 1) - ((b0 >> i) & 1) for i in range(n)]
            for b in members[1:]]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % _P), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], _P - 2, _P)
        for r in range(len(rows)):
            if r != rank and rows[r][col] % _P:
                f = rows[r][col] * inv % _P
                rows[r] = [(x - f * y) % _P for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def facet_faces(n, family):
    """The facets of the base polytope, as base families: tight families
    one dimension below the whole.  Every facet has this form, since the
    polytope is cut out by the rank inequalities."""
    fam = frozenset(family)
    top = affine_dim(fam)
    dims = {}
    for _, face in tight_families(n, fam):
        if face != fam and face not in dims:
            dims[face] = affine_dim(face)
    return frozenset(face for face, d in dims.items() if d == top - 1)
