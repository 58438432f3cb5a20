"""Ground sets, bitmask helpers, 01-linear constraints, set families."""

import itertools
import random

import pytest

from matbase.errors import ConstraintError, FormatError, GroundMismatchError
from matbase.facets import is_facet_defining_base
from matbase.matroid import Matroid, uniform_matroid
from matbase.rank3 import InclusionConstraints
from matbase.setfam import (ElementSet, GroundSet, LinearConstraint,
                            SetFamily, bits, family_from_constraints,
                            ksubsets, submasks)

from util import ground


def test_ground_set_basics():
    g = GroundSet("abcde")
    # [TRIVIAL] label/mask round trips
    assert g.n == 5 and g.full_mask == 0b11111
    assert g.mask("ace") == 0b10101
    assert g.labels_of(0b10101) == ("a", "c", "e")
    assert g.show(0b10101) == "ace"
    assert g.index("d") == 3
    assert "d" in g and "z" not in g


def test_ground_set_errors():
    with pytest.raises(FormatError):
        GroundSet("aab")
    with pytest.raises(FormatError):
        GroundSet(str(i) for i in range(65))
    g = GroundSet("abc")
    with pytest.raises(GroundMismatchError):
        g.mask("axe")
    # a bool is an int to Python, but it names no subset
    for flag in (True, False):
        with pytest.raises(GroundMismatchError):
            g.mask(flag)
    # an unhashable member is no label
    for bad in ([["a"]], [{"a"}], ("a", ["b"])):
        with pytest.raises(GroundMismatchError):
            g.mask(bad)
    with pytest.raises(GroundMismatchError):
        g.index(["a"])
    # membership asks for one label: any other query is no member, an
    # unhashable one included
    for query in (["a"], {"a"}, ("a",), 0, None, b"a", "ab"):
        assert query not in g
    assert "a" in g


def test_set_over_another_ground_rejected():
    # the mask of vwxy over vwxyz fits abcde too, as abcd, a facet of
    # U(3,5), but it names no subset of abcde
    m = uniform_matroid(3, 5, "abcde")
    g = m.ground
    other = ElementSet.of(GroundSet("vwxyz"), "vwxy")
    assert other.mask == g.mask("abcd")
    for read in (lambda: is_facet_defining_base(m, other),
                 lambda: ElementSet.of(g, other),
                 lambda: InclusionConstraints.of(g, forced_rank1=[other])):
        with pytest.raises(GroundMismatchError):
            read()
    same = ElementSet.of(g, "abcd")
    assert ElementSet.of(g, same) == same
    assert is_facet_defining_base(m, same).facet_of_base


def test_malformed_subset_rejected():
    # a non-iterable names no subset, and a repeated label is no set:
    # {a,a} used to be read as {a}
    m = uniform_matroid(3, 5, "abcde")
    g = m.ground
    for bad in (None, 1.5, ["a", "a"], "aa", ("b", "c", "b")):
        for read in (lambda: ElementSet.of(g, bad),
                     lambda: is_facet_defining_base(m, bad),
                     lambda: InclusionConstraints.of(g, forced_rank1=[bad])):
            with pytest.raises(GroundMismatchError):
                read()
    for text in ("{a,a}<=1", "{aba}<=2", "{c,b,c}>=1"):
        with pytest.raises(FormatError):
            LinearConstraint.parse(g, text)
    with pytest.raises(FormatError):
        InclusionConstraints.of(g, require_facet=["{a,a}<=1"])
    # the plain-int path and well-formed iterables are unchanged
    assert ElementSet.of(g, 0b101).mask == g.mask(["a", "c"]) == 0b101
    assert g.mask(iter("ab")) == 0b11
    # a bool or non-int mask or support names no subset, and a bool is no
    # bound: True would otherwise read as {a}, or as the bound 1
    for bad in (True, False, 1.5, "a", None):
        for read in (lambda: ElementSet(g, bad),
                     lambda: LinearConstraint(g, bad, "<=", 1)):
            with pytest.raises(GroundMismatchError):
                read()
    for bad in (True, False):
        with pytest.raises(ConstraintError):
            LinearConstraint(g, 0b11, "<=", bad)
    assert str(LinearConstraint(g, 0b11, "<=", 1)) == "{a,b}<=1"


def test_multichar_labels():
    g = GroundSet(["e1", "e2", "e10"])
    assert g.mask(["e1", "e10"]) == 0b101
    assert g.show(0b101) == "{e1,e10}"


def test_bit_helpers_against_itertools():
    # [DERIVED] oracle: itertools.combinations over bit positions
    for mask in (0, 0b1011, 0b111111, 0b1010101):
        positions = [i for i in range(8) if mask >> i & 1]
        assert list(bits(mask)) == positions
        assert sorted(submasks(mask)) == sorted(
            sum(1 << i for i in c)
            for k in range(len(positions) + 1)
            for c in itertools.combinations(positions, k))
        for k in range(len(positions) + 2):
            assert sorted(ksubsets(mask, k)) == sorted(
                sum(1 << i for i in c)
                for c in itertools.combinations(positions, k))


def test_constraint_parse_and_str():
    g = GroundSet("abcde")
    c = LinearConstraint.parse(g, "{a,b,c}<=2")
    assert (c.support, c.dir, c.bound) == (0b111, "<=", 2)
    assert str(c) == "{a,b,c}<=2"
    # whitespace-insensitive, comma-free runs read per character
    assert LinearConstraint.parse(g, " { a b c } <= 2 ") == c
    assert LinearConstraint.parse(g, "{abc}<=2") == c
    ge = LinearConstraint.parse(g, "{d,e}>=1")
    assert (ge.support, ge.dir, ge.bound) == (0b11000, ">=", 1)
    eq = LinearConstraint.parse(g, "{a,b,c,d,e}==3")
    assert eq.dir == "==" and eq.bound == 3


def test_constraint_errors():
    g = GroundSet("abcde")
    with pytest.raises(ConstraintError):
        LinearConstraint(g, 0b111, "<", 1)
    with pytest.raises(ConstraintError):
        LinearConstraint(g, 0b111, "<=", -1)
    # [TRIVIAL] equality bound above its support size is unsatisfiable
    with pytest.raises(ConstraintError):
        LinearConstraint(g, 0b11, "==", 6)
    with pytest.raises(ConstraintError):
        LinearConstraint(g, 0, "==", 0)


def test_constraint_satisfied_tight_by_count():
    g = GroundSet("abcde")
    c = LinearConstraint.parse(g, "{a,b,c}<=2")
    for s in range(32):
        k = (s & 0b111).bit_count()
        assert c.satisfied(s) == (k <= 2)
        assert c.tight(s) == (k == 2)


def test_implies_vs_brute_force_inclusion():
    # implication of <= constraints, checked against direct containment
    # of the satisfying-set families over every subset of the ground
    for n in (4, 5):
        g = ground(n)
        cons = [(a, bnd) for a in range(1, 1 << n) for bnd in range(n + 1)]
        sat = {}
        for a, bnd in cons:
            fam = 0
            for s in range(1 << n):
                if (s & a).bit_count() <= bnd:
                    fam |= 1 << s
            sat[a, bnd] = fam
        for a1, b1 in cons:
            c1 = LinearConstraint(g, a1, "<=", b1)
            for a2, b2 in cons:
                c2 = LinearConstraint(g, a2, "<=", b2)
                brute = sat[a1, b1] & ~sat[a2, b2] == 0
                got = c1.implies(c2)
                # a positive answer is always sound
                assert not got or brute, (str(c1), str(c2))
                # for effective bounds the test is exact
                if b1 < a1.bit_count() and b2 < a2.bit_count():
                    assert got == brute, (str(c1), str(c2))


def test_complement_form_on_rank_hyperplane():
    # (A,a)<= and its complement form agree on every equal-size family
    # member, exhaustively on 5 elements
    g = ground(5)
    for a in range(1, g.full_mask):
        for bnd in range(4):
            c = LinearConstraint(g, a, "<=", bnd)
            for r in range(bnd, 5):
                comp = c.complement_form(r)
                for s in ksubsets(g.full_mask, r):
                    assert c.satisfied(s) == comp.satisfied(s), (str(c), r)


def test_family_from_constraints_line_example():
    # [DERIVED] two excluded triples leave 8 of the C(5,3)=10; the
    # brute-force filter is the oracle
    g = ground(5)
    cs = [LinearConstraint.parse(g, "{a,b,c,d,e}==3"),
          LinearConstraint.parse(g, "{a,b,c}<=2"),
          LinearConstraint.parse(g, "{c,d,e}<=2")]
    fam = family_from_constraints(g, cs)
    brute = [t for t in ksubsets(g.full_mask, 3)
             if all(c.satisfied(t) for c in cs)]
    assert sorted(fam.masks) == sorted(brute)
    assert len(fam.masks) == 8
    assert g.mask("abc") not in fam.masks and g.mask("cde") not in fam.masks


def test_family_from_constraints_monotone():
    # adding a constraint never enlarges the family
    rng = random.Random(998877)
    g = ground(6)
    for _ in range(60):
        cs = [LinearConstraint(g, g.full_mask, "==", 3)]
        prev = family_from_constraints(g, cs)
        for _ in range(4):
            supp = rng.randrange(1, g.full_mask)
            bnd = rng.randrange(0, supp.bit_count() + 1)
            cs.append(LinearConstraint(g, supp, "<=", bnd))
            cur = family_from_constraints(g, cs)
            assert set(cur.masks) <= set(prev.masks)
            prev = cur


def test_set_family_canonical_order():
    g = ground(4)
    fam = SetFamily(g, [0b1100, 0b0011, 0b1010])
    # [TRIVIAL] ascending bitmask order, deduplicated
    assert fam.masks == (0b0011, 0b1010, 0b1100)
    assert SetFamily(g, [0b0011, 0b0011]).masks == (0b0011,)


def test_set_family_membership_reads_sets():
    # an int mask is looked up as it is; a label string, a label list or
    # an ElementSet is read as the set it names: "ab" used to answer
    # False although {a,b} is a base
    m = uniform_matroid(2, 4, "abcd")
    g = m.ground
    assert 0b11 in m.bases and 0b111 not in m.bases and -1 not in m.bases
    assert "ab" in m.bases and ["b", "d"] in m.bases
    assert ElementSet.of(g, "cd") in m.bases
    assert "abc" not in m.bases and "a" not in m.bases
    # a bool names no subset, and neither does a set on another ground
    # or a label outside the ground
    for bad in (True, False, ElementSet.of(GroundSet("wxyz"), "wx"),
                "az", [["a"]], None):
        with pytest.raises(GroundMismatchError):
            bad in m.bases


@pytest.mark.parametrize("bad", [True, 1.0, "1", "ab", None, -1, 8])
def test_set_family_members_are_plain_ints(bad):
    # each member is a mask, a plain int within the ground: True, 1.0 and
    # "1" used to be read as {a}, so [bad, 2, 4] built U(1,3), and "ab"
    # raised a bare ValueError
    g = GroundSet("abc")
    with pytest.raises(GroundMismatchError):
        SetFamily(g, [bad, 2, 4])
    with pytest.raises(GroundMismatchError):
        Matroid(g, [bad, 2, 4])
    assert SetFamily(g, [4, 1, 2, 1]).masks == (1, 2, 4)
