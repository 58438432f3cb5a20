"""Combinatorics of matroid base systems: facet structure, the weak-map
order, and polytopal decompositions, with a focus on rank 3."""

from .errors import (ConstraintError, ContradictionError, EmptyFamilyError,
                     ExchangeAxiomError, FormatError, GroundMismatchError,
                     InconclusiveError, LoopError, MatbaseError,
                     MixedCardinalityError, NotConnectedError, NotSimpleError,
                     RankError)
from .setfam import (ElementSet, GroundSet, LinearConstraint, SetFamily, bits,
                     family_from_constraints, ksubsets, submasks)
from .matroid import (Matroid, matroid_from_bases,
                      matroid_from_flat_constraints, uniform_matroid)
from .facets import (FacetReport, base_dimension, base_facets,
                     check_intersecting_submodularity, face_split,
                     is_facet_defining_base, is_facet_defining_ind,
                     minimum_flat_representation)
from .order import (enumerate_included_rank3, is_weak_minimal_rank3,
                    no_strict_intermediate_rank3, weak_leq)
from .rank3 import (InclusionConstraints, Rank3Profile, facet_graph_components,
                    facet_rank2_flats, propagate, rank3_profile)
from .decomp import (CLASS_LABELS, CorollaryWitness, Decomposition,
                     DecompositionReport, FacetGraph, MatroidClass,
                     ThreePartition, classify, facet_graph,
                     find_decomposition_rank3, rank3_quick_witnesses,
                     rank3_two_decomposable_by, three_partitions,
                     two_decompose, verify_decomposition)
from .io import (load_matroid, matroid_from_dict, matroid_from_json,
                 matroid_to_dict, matroid_to_json, save_matroid)
from .census import (census_rank3, iter_line_families, matroid_of_lines,
                     neither_binary_nor_two_decomposable)
from .examples import example_ids, get_example
from .verify import SUITE_IDS, run_all, run_example

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
