"""Tests of the benchmark's oracles on small cases with known answers.

    python3 -m pytest -q bench
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402

FANO_LINES = ("abd", "bce", "cdf", "deg", "efa", "fgb", "gac")


def masks(n, sets, labels="abcdefghijk"):
    pos = {lab: i for i, lab in enumerate(labels[:n])}
    return frozenset(oracles.mask_of(pos[x] for x in s) for s in sets)


def mask(n, s):
    return next(iter(masks(n, [s])))


def uniform(r, n):
    return frozenset(oracles.mask_of(c)
                     for c in itertools.combinations(range(n), r))


def lines_family(n, lines):
    return oracles.family_from_flats(n, 3, [(m, 2) for m in masks(n, lines)])


def test_exchange_accepts_matroids_and_rejects_others():
    assert oracles.exchange_ok(uniform(2, 4))
    assert oracles.exchange_ok(lines_family(7, FANO_LINES))
    # a cannot leave ab for anything in cd
    assert not oracles.exchange_ok(masks(4, ["ab", "cd"]))
    assert not oracles.exchange_ok(masks(4, ["ab", "ac", "bd", "cd", "a"]))
    assert not oracles.exchange_ok(frozenset())


def test_binary_embedding():
    assert not oracles.embeds_in_pg(4, uniform(2, 4))
    assert oracles.embeds_in_pg(3, uniform(2, 3))
    assert oracles.embeds_in_pg(7, lines_family(7, FANO_LINES))
    # the non-Fano plane drops one line of F7
    assert not oracles.embeds_in_pg(7, lines_family(7, FANO_LINES[:-1]))
    # U(3,5) needs five points in general position in PG(2,2)
    assert not oracles.embeds_in_pg(5, uniform(3, 5))


def test_split_scan_on_the_2decomp_fixture():
    fam = lines_family(5, ["abc"])
    # the first split in (mask, bound) order is (ab,1)=, which is (cde,2)=
    # written on the complement
    assert oracles.first_split(5, fam) == (mask(5, "ab"), 1)
    low, up = oracles.split_halves(fam, mask(5, "cde"), 2)
    assert oracles.exchange_ok(low) and oracles.exchange_ok(up)
    assert low | up == fam and low & up
    # the octahedron splits into two pyramids; binary F7 does not split
    assert oracles.first_split(4, uniform(2, 4)) == (mask(4, "ab"), 1)
    assert oracles.first_split(7, lines_family(7, FANO_LINES)) is None


def test_connected_and_simple():
    assert oracles.is_connected(4, uniform(2, 4))
    assert not oracles.is_connected(4, masks(4, ["ac", "ad", "bc", "bd"]))
    assert oracles.is_simple(7, lines_family(7, FANO_LINES))
    assert not oracles.is_simple(4, masks(4, ["ac", "ad", "bc", "bd"]))


def test_incidence_isomorphism():
    fano = (7, masks(7, FANO_LINES))
    relabelled = (7, masks(7, ["".join("gfedcba"["abcdefg".index(x)] for x in l)
                               for l in FANO_LINES]))
    non_fano = (7, masks(7, FANO_LINES[:-1]))
    assert oracles.isomorphic_pairs([fano, non_fano, relabelled]) == [(0, 2)]
    assert oracles.long_lines(7, lines_family(7, FANO_LINES)) == fano[1]


def test_tight_families_and_facets():
    fam = uniform(2, 4)
    assert oracles.affine_dim(fam) == 3
    # the hypersimplex: x_i >= 0 and x_i <= 1 for each of four coordinates
    assert len(oracles.facet_faces(4, fam)) == 8
    assert oracles.tight_family(fam, 0b0011) == masks(4, ["ab"])
    sub = masks(4, ["ab", "ac", "ad"])
    assert any(face == sub for _, face in oracles.tight_families(4, fam))
    assert all(face != masks(4, ["ab", "cd"])
               for _, face in oracles.tight_families(4, fam))
