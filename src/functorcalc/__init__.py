"""functorcalc: exact rational calculus of polynomial functors.

Functors of graded rational vector spaces built from symmetric-group
representation cells, their Taylor towers, homogeneous layers and
derivatives, and the composition product on symmetric sequences that
governs derivatives of composites.  All arithmetic is exact (integers and
fractions); every identity the package claims is checked against an
independent second computation path in the test suite.

Layers, bottom up:

* ``partitions``  integer partitions, set partitions, the refinement poset,
                  the shared cycle-index kernel ``class_sum``
* ``exactpoly``   Laurent polynomials over the rationals (graded dimensions)
                  and marked traces, on the additive base ``Sparse`` that
                  ``symfun.PSPoly`` shares
* ``characters``  symmetric-group class functions graded by degree
* ``symfun``      the characteristic map to symmetric functions; plethysm
* ``symseq``      symmetric sequences, the composition product, evaluation
* ``trace``       derivatives of a composite measured by twisted traces
* ``functor``     cross effects, towers, layers, partition summands
* ``holim``       exact (co)chain-level limits; the excisive-approximation
                  oracle built directly from cell realizations
* ``generate``    seeded random instances for the verification battery
* ``verify``      the battery: every claimed identity, two routes, exact
* ``cli``         the ``functorcalc`` command
"""

from .characters import (
    GradedCharacter,
    character_table,
    induce_young,
    induce_young_many,
)
from .exactpoly import TPoly, dims_poly
from .holim import (
    BudgetError,
    Cell,
    cells_from_json,
    cells_sequence,
    cells_to_json,
    t_n_oracle,
)
from .partitions import bell_number, multinomial, partition, partitions_of
from .symfun import RationalSeries, egf_compose
from .symseq import (
    SymSeq,
    TruncationError,
    compose,
    compose_plethysm,
    composition_summand,
    evaluate,
    seq_from_json,
    seq_to_json,
    shift_base,
    space_from_json,
    space_to_json,
    unit_seq,
)
from .trace import composite_derivatives
from .verify import RunConfig, run_battery

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Cell",
    "GradedCharacter",
    "RationalSeries",
    "RunConfig",
    "SymSeq",
    "TPoly",
    "TruncationError",
    "bell_number",
    "cells_from_json",
    "cells_sequence",
    "cells_to_json",
    "character_table",
    "compose",
    "compose_plethysm",
    "composite_derivatives",
    "composition_summand",
    "dims_poly",
    "egf_compose",
    "evaluate",
    "induce_young",
    "induce_young_many",
    "multinomial",
    "partition",
    "partitions_of",
    "run_battery",
    "seq_from_json",
    "seq_to_json",
    "shift_base",
    "space_from_json",
    "space_to_json",
    "t_n_oracle",
    "unit_seq",
    "__version__",
]
