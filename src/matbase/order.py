"""Weak-map order on equal-rank matroids and rank-3 inclusion searches."""

import itertools

from .errors import ConstraintError, GroundMismatchError, RankError
from .setfam import bits
from .rank3 import (InclusionConstraints, Rank3Profile, _Triples,
                    check_rank3_input, rank3_profile, search_profiles)

__all__ = [
    "InclusionConstraints", "Rank3Profile", "rank3_profile", "weak_leq",
    "enumerate_included_rank3", "is_weak_minimal_rank3",
    "no_strict_intermediate_rank3",
]


def weak_leq(m2, m1):
    """True when B(m2) is contained in B(m1).

    Requires equal ground sets and equal rank.
    """
    if m2.ground != m1.ground:
        raise GroundMismatchError("weak_leq needs a common ground set")
    if m2.rank != m1.rank:
        raise RankError("weak_leq compares matroids of equal rank")
    return m2.bases.issubset(m1.bases)


def _included_profiles(m, constraints):
    """Profiles of the connected matroids properly included in B(m) that
    meet the constraints, in search order."""
    check_rank3_input(m)
    own = rank3_profile(m)
    for profile in search_profiles(m, constraints):
        if profile != own:
            yield profile


def enumerate_included_rank3(m, constraints=None):
    """Every connected matroid M' with B(M') properly inside B(m) that
    meets the constraints (search_profiles), canonically ordered by
    profile (sorted classes, then sorted lines)."""
    found = sorted(_included_profiles(m, constraints), key=Rank3Profile.key)
    return [profile.matroid() for profile in found]


def _first_included(m):
    """The matroid of the first profile _included_profiles(m, None)
    yields, or None; the search stops there.  A binary m includes none,
    and is answered without a search."""
    check_rank3_input(m)
    if m.is_binary():
        return None
    first = next(_included_profiles(m, None), None)
    return None if first is None else first.matroid()


def is_weak_minimal_rank3(m):
    """No connected matroid base system sits properly inside B(m).

    Binary matroids short-circuit to True; otherwise the inclusion
    search stops at the first system it finds.
    """
    return _first_included(m) is None


def no_strict_intermediate_rank3(m_low, m_high):
    """True when no rank-3 matroid M3 on the same ground, connected or
    not, satisfies B(m_low) properly inside B(M3) properly inside
    B(m_high).  Establishes cover relations in the weak-map order.

    Exact, by this argument.  A strict M3 has fewer dependent triples
    than m_low and more than m_high.
    1. For a loop e of m_low that m_high lacks, the bases of m_high
       avoiding e are a rank-3 system between the two; unless it is
       B(m_low) it is a strict M3.  If every such deletion is B(m_low),
       an M3 with a loop outside the loops L of m_high would lie inside
       one of them, so every strict M3 has the loops L exactly.
    2. Elements parallel in m_high are parallel in M3, so the classes of
       M3 are unions of the classes of m_high.  A union is a class of M3
       only when every triple meeting it twice is dependent in m_low,
       that is, when it has rank at most 1 there (_joined_classes).
    3. Fix such a partition into three or more classes.  A dependent
       triple of m_high meeting three classes puts them on one line of
       M3, and two lines through two distinct classes are one line.  So
       each line of the least state that makes every dependent triple of
       m_high dependent lies on a line of M3 (_closure, line by line
       with _join_line), and so do its dependent triples.
       - If it dies (all classes on one line) or leaves the dependent
         triples of m_low, no M3 has these classes.
       - If it lies strictly between the two, it is an M3.
       - If it is m_low, so is every M3 with these classes.
       - If it is m_high, the classes are those of m_high, and M3 has a
         line holding three classes that no line of m_high holds; the
         closure with that line added lies below M3.  So if no one-line
         closure is strict, no M3 has these classes.
    4. If no partition gives a strict system, there is none.
    """
    if not weak_leq(m_low, m_high):
        raise ConstraintError(
            "no_strict_intermediate expects weak_leq(m_low, m_high)")
    if m_low.rank != 3:
        raise RankError("expected rank 3, got %d" % m_low.rank)
    if m_low.bases == m_high.bases:
        return True
    loops = m_high.loops()
    for e in bits(m_low.loops() & ~loops):
        kept = sum(1 for b in m_high.bases.masks if not b >> e & 1)
        if kept != len(m_low.bases):
            return False
    support = m_high.ground.full_mask & ~loops
    tri = _Triples(support)
    high = tri.bitset(t for t in tri.masks if t not in m_high.bases)
    low = tri.bitset(t for t in tri.masks if t not in m_low.bases)
    for classes in _joined_classes(m_high.parallel_classes(), m_low):
        closed = _closure(tri, high, low, (classes, ()))
        if closed is None or closed[1] == low:
            continue
        if closed[1] != high:
            return False
        classes, lines = closed[0]
        for pick in itertools.combinations(classes, 3):
            line = pick[0] | pick[1] | pick[2]
            if all(line & ~l for l in lines):
                closed = _closure(tri, high, low,
                                  _join_line(support, classes, lines, line))
                if closed and closed[1] != low:
                    return False
    return True


def _joined_classes(classes, m_low):
    """Every partition of the given classes into three or more blocks of
    rank at most 1 in m_low, each as the sorted tuple of its blocks'
    unions.  A union has rank at most 1 exactly when, with the loops of
    m_low removed, it lies inside one parallel class of m_low."""
    loops = m_low.loops()
    low = m_low.parallel_classes()
    parts = [()]
    for c in classes:
        parts = [p[:i] + (b | c,) + p[i + 1:]
                 for p in parts for i, b in enumerate(p)
                 if any(not (b | c) & ~loops & ~k for k in low)
                 ] + [p + (c,) for p in parts]
    return [tuple(sorted(p)) for p in parts if len(p) >= 3]


def _join_line(support, classes, lines, line):
    """The state (classes, lines) with one more line, a union of three or
    more classes, or None when the result has rank 2.  Two lines that
    share two classes are one line, so the new line absorbs each line it
    meets in more than one class (lines are unions of classes), until it
    shares no more; each absorption is forced, so the order does not
    matter.  A line holding the whole support puts every class on it."""
    kept = list(lines)
    k = 0
    while k < len(kept):
        common = kept[k] & line
        if common and common not in classes:
            line |= kept.pop(k)
            k = 0
        else:
            k += 1
    if line == support:
        return None
    return classes, tuple(sorted(kept + [line]))


def _closure(tri, high, bound, state):
    """(state, its dependent triples) for the least state at or above
    state that makes every triple of the bitset high dependent, adding
    the line through the classes of the first uncovered one at a time
    (_join_line); None when state is None, or when it dies or its
    dependent triples leave the bitset bound, tested at each step as
    they only grow.  Bitsets are over the triples of tri."""
    while state is not None:
        dep = tri.dependent(*state)
        if dep & ~bound:
            return None
        uncovered = high & ~dep
        if not uncovered:
            return state, dep
        t = tri.masks[(uncovered & -uncovered).bit_length() - 1]
        state = _join_line(tri.support, *state,
                           sum(c for c in state[0] if c & t))
    return None
