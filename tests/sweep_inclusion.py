"""The rank-3 inclusion search against its partition twin, on every
census class with 4 <= n <= 8 and on the n = 9 classes that classify
sends to the search (neither binary nor 2-decomposable).

For each class M, the connected systems rank3.search_profiles yields
must equal, as a set, the connected ones of
util.systems_below_by_partitions.  Each class prints one line: its
label, the count and the seconds both sides took.  The script exits 1
on any difference.  It takes minutes, so it is no part of the test
suite (pytest does not collect it); run it from the root of the
checkout as

    PYTHONPATH=src python tests/sweep_inclusion.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from matbase.census import census_rank3, neither_binary_nor_two_decomposable  # noqa: E402
from matbase.rank3 import Rank3Profile, search_profiles  # noqa: E402

from util import systems_below_by_partitions  # noqa: E402


def sweep_cases():
    for n in range(4, 9):
        for i, m in enumerate(census_rank3(n)):
            yield "n=%d #%d" % (n, i), m
    for i, m in enumerate(census_rank3(9)):
        if neither_binary_nor_two_decomposable(m):
            yield "n=9 #%d" % i, m


def main():
    differ = 0
    for label, m in sweep_cases():
        start = time.perf_counter()
        got = {p.key() for p in search_profiles(m)}
        mid = time.perf_counter()
        want = {s for s in systems_below_by_partitions(m)
                if Rank3Profile(m.ground, *s).is_connected()}
        end = time.perf_counter()
        same = got == want
        differ += not same
        print("%s %d %.3f s, twin %.3f s%s"
              % (label, len(got), mid - start, end - mid,
                 "" if same else " DIFFER: %d missed, %d extra"
                 % (len(want - got), len(got - want))), flush=True)
    print("%d classes differ" % differ)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
