"""Worked fixtures: small rank-3 matroids with known structure.

Each entry bundles the matroids of one worked example under stable names.
Where a published constraint display is internally inconsistent, the
fixture stores the corrected family and a note says what was adjusted;
the verification suites assert the corrected data.
"""

from dataclasses import dataclass

from .setfam import GroundSet
from .matroid import matroid_from_flat_constraints


@dataclass(frozen=True)
class ExampleData:
    id: str
    matroids: dict
    notes: tuple = ()

    def __getitem__(self, name):
        return self.matroids[name]


def _flats(gs, rank, spec):
    """spec: 'abc:2 cde:2' style rank bounds."""
    pairs = []
    for item in spec.split():
        elems, bound = item.split(":")
        pairs.append((elems, int(bound)))
    return matroid_from_flat_constraints(gs, rank, pairs)


def _lines(gs, spec):
    """Simple rank-3 matroid given by its rank-2 flats of size >= 3."""
    return _flats(gs, 3, " ".join("%s:2" % w for w in spec.split()))


def _ex_m2():
    g = GroundSet("abcde")
    return ExampleData("m2", {"M": _lines(g, "abc cde")})


def _ex_csmis():
    g = GroundSet("abcdef")
    return ExampleData("csmis", {"M": _lines(g, "abcd abef")})


def _ex_2decomp():
    g = GroundSet("abcde")
    return ExampleData("2decomp", {
        "M": _lines(g, "abc"),
        "M1": _lines(g, "abc cde"),
        "M2": _flats(g, 3, "ab:1"),
    })


def _ex_twopoints():
    g = GroundSet("abcdef")
    return ExampleData("twopoints", {
        "M": _lines(g, "abc cdef"),
        "M1": _flats(g, 3, "abc:2 cdef:2 ef:1"),
        "M2": _lines(g, "cdef abcd"),
    })


def _ex_triangle():
    g = GroundSet("abcdef")
    return ExampleData("triangle", {
        "M": _lines(g, "abc cde efa"),
        "M1": _flats(g, 3, "abc:2 cde:2 efa:2 bdf:2"),
        "M2": _flats(g, 3, "ace:1"),
    }, notes=(
        "M2 corrected: the bound of rank 1 must cover all of {a,c,e}, "
        "not just {a,c}, for the two pieces to cover the whole",
    ))


def _ex_notall():
    g = GroundSet("abcdefgh")
    return ExampleData("notall", {
        "M": _lines(g, "abc ade afg bdf ceg bgh cfh"),
    }, notes=(
        "line list corrected: ceg in place of ceh, matching the drawn "
        "configuration and the stated witness ({a,d,e},h)",
    ))


def _ex_twelve():
    g = GroundSet("abcdefghijkl")
    return ExampleData("twelve", {
        "M": _lines(g, "adgi bcei abhj cdfj acl bdl egl fhl ijl aek bfk cgk dhk"),
    }, notes=(
        "the flat-plus-point pattern does apply here: ijl with isolated "
        "point k yields the sound split (ijkl,2)=, alongside the stated "
        "(efghl,2)=",
    ))


def _ex_seven_typed():
    g = GroundSet("abcdefg")
    m = _lines(g, "abc ade afg bdf ceg")
    m1 = _flats(g, 3, "abcde:2 afg:2 bd:1 ce:1")
    m12 = _flats(g, 3, "abcde:2 bd:1 ce:1 fg:1")
    m2 = _flats(g, 3, "abc:2 ade:2 cefg:2 bdfg:2 fg:1")
    m3 = _flats(g, 3, "abdfg:2 ceg:2 abd:1")
    m4 = _flats(g, 3, "acefg:2 bdf:2 ace:1")
    return ExampleData("seven_typed", {
        "M": m, "M1": m1, "M12": m12, "M2": m2, "M3": m3, "M4": m4,
    }, notes=(
        "M2 corrected: (bdfg,2)<= added; without it bdf would be a base "
        "of M2 but not of M",
    ))


def _ex_minimal():
    g = GroundSet("abcdefgh")
    return ExampleData("minimal", {
        "M": _lines(g, "afd ebh abg efc egd ach bcd fgh"),
    })


def _ex_nonminimal():
    g = GroundSet("abcdefghi")
    return ExampleData("nonminimal", {
        "M": _lines(g, "bdfh abc ade afg ahi bgi cdi cef egh"),
        "M1": _flats(g, 3, "abdi:1 gh:1 abdfghi:2 cef:2"),
    })


def _ex_lucascon():
    g = GroundSet("abcdefghijk")
    m1 = _lines(g, "abk bce cdi adf bdh acj efi fgc ghj hea egd fhk ijb jke kig")
    m2 = _flats(g, 3, "abcd:1 efgh:1 efghijk:2 ij:1")
    return ExampleData("lucascon", {"M1": m1, "M2": m2}, notes=(
        "fixture uses the full fifteen-item flat list; a twelve-edge "
        "description of the same configuration undercounts it and is "
        "ignored",
    ))


_BUILDERS = {
    "m2": _ex_m2,
    "csmis": _ex_csmis,
    "2decomp": _ex_2decomp,
    "twopoints": _ex_twopoints,
    "triangle": _ex_triangle,
    "notall": _ex_notall,
    "twelve": _ex_twelve,
    "seven_typed": _ex_seven_typed,
    "minimal": _ex_minimal,
    "nonminimal": _ex_nonminimal,
    "lucascon": _ex_lucascon,
}

_CACHE = {}


def example_ids():
    return sorted(_BUILDERS)


def get_example(example_id):
    if example_id not in _BUILDERS:
        raise KeyError("unknown example id %r" % example_id)
    if example_id not in _CACHE:
        _CACHE[example_id] = _BUILDERS[example_id]()
    return _CACHE[example_id]
