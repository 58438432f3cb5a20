"""Ground sets, bitmask subsets, and 01-linear constraints on set families.

Subsets of a ground set are stored as integer bitmasks: bit i corresponds to
the i-th label in the ground ordering, so the canonical order on subsets is
plain integer order on masks.  All heavy loops work on raw masks; ElementSet
is a thin wrapper kept for presentation and interactive use.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import ConstraintError, FormatError, GroundMismatchError

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_CONSTRAINT_RE = re.compile(r"\{([A-Za-z0-9_,]*)\}(<=|>=|==)(\d+)\Z")


def bits(mask):
    """Yield the positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask):
    """Yield every submask of mask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def ksubsets(mask, k):
    """Yield the submasks of mask having exactly k set bits."""
    idx = list(bits(mask))
    if k < 0 or k > len(idx):
        return
    for combo in itertools.combinations(idx, k):
        m = 0
        for i in combo:
            m |= 1 << i
        yield m


class GroundSet:
    """An ordered ground set of up to 64 distinct labels."""

    __slots__ = ("labels", "n", "full_mask", "_index")

    def __init__(self, labels):
        labels = tuple(str(x) for x in labels)
        if len(labels) > 64:
            raise FormatError("ground set capped at 64 elements, got %d" % len(labels))
        for lab in labels:
            if not _LABEL_RE.match(lab):
                raise FormatError("bad label %r" % (lab,))
        if len(set(labels)) != len(labels):
            raise FormatError("duplicate labels in ground set")
        self.labels = labels
        self.n = len(labels)
        self.full_mask = (1 << self.n) - 1
        self._index = {lab: i for i, lab in enumerate(labels)}

    def index(self, label):
        i = self._index.get(label)
        if i is None:
            raise GroundMismatchError("label %r not in ground set" % (label,))
        return i

    def mask(self, elems):
        """Bitmask of an iterable of labels.  A plain string is read per character
        unless the whole string is itself a label; ints pass through checked,
        bools are refused, and anything with an int mask attribute
        contributes its mask unless its ground attribute is another ground.
        A non-iterable, or a label repeated within one iterable, is refused."""
        if isinstance(elems, int):
            if isinstance(elems, bool):
                raise GroundMismatchError("a bool names no subset of a ground")
            return self.check_mask(elems)
        if isinstance(getattr(elems, "mask", None), int):
            if getattr(elems, "ground", self) != self:
                raise GroundMismatchError("set lives on another ground set")
            return self.check_mask(elems.mask)
        if isinstance(elems, str) and elems in self._index:
            return 1 << self._index[elems]
        try:
            labs = iter(elems)
        except TypeError:
            raise GroundMismatchError(
                "%r names no subset of a ground" % (elems,)) from None
        m = 0
        for lab in labs:
            bit = 1 << self.index(lab)
            if m & bit:
                raise GroundMismatchError("label %r repeated" % (lab,))
            m |= bit
        return m

    def check_mask(self, mask):
        if mask & ~self.full_mask:
            raise GroundMismatchError("mask %#x has bits outside the ground set" % mask)
        return mask

    def labels_of(self, mask):
        self.check_mask(mask)
        return tuple(self.labels[i] for i in bits(mask))

    def show(self, mask):
        """Compact printable form of a subset mask."""
        labs = self.labels_of(mask)
        if not labs:
            return "{}"
        if all(len(lab) == 1 for lab in self.labels):
            return "".join(labs)
        return "{" + ",".join(labs) + "}"

    def subsets_of_size(self, k):
        """All k-element subsets of the ground set, as masks in ascending order."""
        return ksubsets(self.full_mask, k)

    def __len__(self):
        return self.n

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self._index

    def __eq__(self, other):
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return "GroundSet(%s)" % ",".join(self.labels)


def _same_ground(a, b):
    if a.ground != b.ground:
        raise GroundMismatchError("objects live on different ground sets")


@dataclass(frozen=True)
class ElementSet:
    """A subset of a ground set, wrapping a bitmask."""

    ground: GroundSet
    mask: int

    def __post_init__(self):
        self.ground.check_mask(self.mask)

    @classmethod
    def of(cls, ground, elems):
        return cls(ground, ground.mask(elems))

    def complement(self):
        return ElementSet(self.ground, self.ground.full_mask & ~self.mask)

    def issubset(self, other):
        _same_ground(self, other)
        return self.mask & ~other.mask == 0

    def __or__(self, other):
        _same_ground(self, other)
        return ElementSet(self.ground, self.mask | other.mask)

    def __and__(self, other):
        _same_ground(self, other)
        return ElementSet(self.ground, self.mask & other.mask)

    def __sub__(self, other):
        _same_ground(self, other)
        return ElementSet(self.ground, self.mask & ~other.mask)

    def __len__(self):
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.ground.labels_of(self.mask))

    def __contains__(self, label):
        return bool(self.mask >> self.ground.index(label) & 1)

    def __bool__(self):
        return self.mask != 0

    def __str__(self):
        return self.ground.show(self.mask)


@dataclass(frozen=True)
class LinearConstraint:
    """A 01-linear constraint |B & support| dir bound on same-size families.

    dir is one of "<=", ">=", "==".  The text form is "{a,b,c}<=2"; inside the
    braces a comma-free run of single characters is read per character.
    """

    ground: GroundSet
    support: int
    dir: str
    bound: int

    def __post_init__(self):
        self.ground.check_mask(self.support)
        if self.dir not in ("<=", ">=", "=="):
            raise ConstraintError("bad direction %r" % (self.dir,))
        if not isinstance(self.bound, int) or self.bound < 0:
            raise ConstraintError("bad bound %r" % (self.bound,))
        if self.dir == "==":
            # an equality (A,a)= needs 0 <= a <= |A| on a nonempty support
            if self.support == 0:
                raise ConstraintError("equality constraint on empty support")
            if self.bound > self.support.bit_count():
                raise ConstraintError(
                    "equality bound %d exceeds support size %d"
                    % (self.bound, self.support.bit_count()))

    @classmethod
    def parse(cls, ground, text):
        s = "".join(str(text).split())
        m = _CONSTRAINT_RE.match(s)
        if not m:
            raise FormatError("cannot parse constraint %r" % (text,))
        body, op, bound = m.groups()
        if "," in body:
            elems = [p for p in body.split(",") if p]
        else:
            elems = body
        try:
            support = ground.mask(elems)
        except GroundMismatchError as exc:
            raise FormatError("constraint %r: %s" % (text, exc)) from exc
        return cls(ground, support, op, int(bound))

    def satisfied(self, mask):
        c = (mask & self.support).bit_count()
        if self.dir == "<=":
            return c <= self.bound
        if self.dir == ">=":
            return c >= self.bound
        return c == self.bound

    def tight(self, mask):
        """True when the constraint holds with equality on this member."""
        return (mask & self.support).bit_count() == self.bound

    def implies(self, other):
        """Sufficient containment test between two like-directed constraints.

        True means every set satisfying self satisfies other, regardless of
        member size.  For effective bounds on same-size families the test is
        also necessary."""
        _same_ground(self, other)
        if self.dir == "<=" and other.dir == "<=":
            return (other.support & ~self.support).bit_count() <= other.bound - self.bound
        if self.dir == ">=" and other.dir == ">=":
            return (self.support & ~other.support).bit_count() <= self.bound - other.bound
        raise ConstraintError("implies() needs matching <= or >= directions")

    def complement_form(self, rank):
        """The equivalent constraint on rank-size members, written on the
        complement support with the direction reversed."""
        if rank < self.bound:
            raise ConstraintError("rank %d below bound %d" % (rank, self.bound))
        comp = self.ground.full_mask & ~self.support
        flip = {"<=": ">=", ">=": "<=", "==": "=="}[self.dir]
        return LinearConstraint(self.ground, comp, flip, rank - self.bound)

    def __str__(self):
        return "{%s}%s%d" % (",".join(self.ground.labels_of(self.support)),
                             self.dir, self.bound)


class SetFamily:
    """An immutable family of subsets of a common ground set.

    Members are deduplicated and kept in ascending mask order.
    """

    __slots__ = ("ground", "masks", "_set")

    def __init__(self, ground, masks):
        self.ground = ground
        ms = sorted({int(m) for m in masks})
        for m in ms:
            ground.check_mask(m)
        self.masks = tuple(ms)
        self._set = frozenset(ms)

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return iter(self.masks)

    def __contains__(self, mask):
        return mask in self._set

    def __eq__(self, other):
        return (isinstance(other, SetFamily)
                and self.ground == other.ground and self.masks == other.masks)

    def __hash__(self):
        return hash((self.ground, self.masks))

    def issubset(self, other):
        _same_ground(self, other)
        return self._set <= other._set

    def __repr__(self):
        return "SetFamily(%d members on %r)" % (len(self.masks), self.ground)


def _coerce_constraints(ground, constraints):
    out = []
    for c in constraints:
        if isinstance(c, str):
            c = LinearConstraint.parse(ground, c)
        if not isinstance(c, LinearConstraint):
            raise ConstraintError("not a constraint: %r" % (c,))
        if c.ground != ground:
            raise GroundMismatchError("constraint on a different ground set")
        out.append(c)
    return out


def family_from_constraints(ground, constraints):
    """All subsets of the ground set satisfying every constraint.

    A constraint {whole ground}==k restricts the enumeration to k-element
    subsets; otherwise all 2^n subsets are scanned.
    """
    cons = _coerce_constraints(ground, constraints)
    sizes = {c.bound for c in cons
             if c.dir == "==" and c.support == ground.full_mask}
    if len(sizes) == 1:
        size = sizes.pop()
        rest = [c for c in cons
                if not (c.dir == "==" and c.support == ground.full_mask
                        and c.bound == size)]
        pool = ground.subsets_of_size(size)
    else:
        rest = cons
        pool = submasks(ground.full_mask)
    members = [m for m in pool if all(c.satisfied(m) for c in rest)]
    return SetFamily(ground, members)
