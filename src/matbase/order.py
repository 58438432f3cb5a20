"""Weak-map order on equal-rank matroids and rank-3 inclusion searches."""

from .errors import ConstraintError, GroundMismatchError, RankError
from .setfam import bits, ksubsets, submasks
from .rank3 import (InclusionConstraints, Rank3Profile, check_rank3_input,
                    rank3_profile, search_profiles)

__all__ = [
    "InclusionConstraints", "Rank3Profile", "rank3_profile", "weak_leq",
    "iter_included_rank3", "enumerate_included_rank3",
    "is_weak_minimal_rank3", "no_strict_intermediate_rank3",
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


def _dependent_triples(m):
    return frozenset(t for t in ksubsets(m.ground.full_mask, 3)
                     if t not in m.bases)


def _included_profiles(m, constraints):
    """Profiles of the connected matroids properly included in B(m) that
    meet the constraints, in search order."""
    check_rank3_input(m)
    own = rank3_profile(m)
    for profile in search_profiles(m, constraints,
                                   mandatory=_dependent_triples(m)):
        if profile != own:
            yield profile


def iter_included_rank3(m, constraints=None):
    """Lazily yield the connected matroids M' with B(M') properly inside
    B(m) that satisfy the given constraints, in search order."""
    for profile in _included_profiles(m, constraints):
        yield profile.matroid()


def enumerate_included_rank3(m, constraints=None):
    """All properly included connected matroids, canonically ordered by
    profile (sorted classes, then sorted lines)."""
    found = sorted(_included_profiles(m, constraints), key=Rank3Profile.key)
    return [profile.matroid() for profile in found]


def _first_included(m):
    """The first matroid iter_included_rank3(m) yields, or None.  A
    binary m includes none, and is answered without a search."""
    check_rank3_input(m)
    if m.is_binary():
        return None
    return next(iter_included_rank3(m), None)


def is_weak_minimal_rank3(m):
    """No connected matroid base system sits properly inside B(m).

    Binary matroids short-circuit to True.
    """
    return _first_included(m) is None


def no_strict_intermediate_rank3(m_low, m_high):
    """True when no rank-3 matroid M3 on the same ground, connected or
    not, satisfies B(m_low) properly inside B(M3) properly inside
    B(m_high).  Establishes cover relations in the weak-map order."""
    if not weak_leq(m_low, m_high):
        raise ConstraintError(
            "no_strict_intermediate expects weak_leq(m_low, m_high)")
    if m_low.rank != 3:
        raise RankError("expected rank 3, got %d" % m_low.rank)
    if m_low.bases == m_high.bases:
        return True
    full = m_high.ground.full_mask
    dep_high = _dependent_triples(m_high)
    dep_low = _dependent_triples(m_low)
    lo_loops = m_low.loops()
    hi_loops = m_high.loops()
    # loops of any sandwiched matroid sit between the two loop sets
    for extra in submasks(lo_loops & ~hi_loops):
        lset = hi_loops | extra
        support = full & ~lset
        if support.bit_count() < 3:
            continue
        mandatory = frozenset(t for t in dep_high if not t & lset)
        dep_max = frozenset(t for t in dep_low if not t & lset)
        looped = frozenset(t for t in ksubsets(full, 3) if t & lset)
        for profile in search_profiles(
                m_high, None, mandatory=mandatory, dep_max=dep_max,
                support=support, connected_only=False):
            dep_full = profile.dependent_triples() | looped
            if dep_full != dep_high and dep_full != dep_low:
                return False
    return True
