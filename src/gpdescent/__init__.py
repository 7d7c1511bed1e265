"""Exact combinatorics of descent bases for graded quotient modules.

The package enumerates and cross-verifies, with exact arithmetic only:

- partitions, shuffles, ordered set partitions (:mod:`gpdescent.core`);
- permutation statistics, major index tables, and the shape-indexed
  families of descent compositions (:mod:`gpdescent.descent`);
- parking functions with the dinv/area/doff statistics
  (:mod:`gpdescent.parking`);
- tuples of ribbon-shaped fillings, the height-vector bijection, and its
  inverse reconstruction algorithms (:mod:`gpdescent.ribbon`);
- modified Hall-Littlewood monomial expansions via two independent
  combinatorial routes (:mod:`gpdescent.symfunc`);
- Tanisaki ideals, graded quotient dimensions, and brute-force
  verification of the descent basis, its parabolic antisymmetrizations,
  and the splitting map (:mod:`gpdescent.tanisaki`).
"""

from .core import (
    check_partition,
    conjugate,
    dominates,
    multinomial,
    n_stat,
    ordered_set_partitions,
    partitions,
    reverse_shuffles,
    shuffles,
)
from .descent import (
    descent_compositions,
    descent_compositions_lambda,
    inv,
    invt,
    j_maj,
    maj,
    majt,
    majt_inverse,
)
from .parking import ParkingFunction, minimal_parking_functions, parking_functions
from .ribbon import minimal_ribbon_tuples, reconstruct, ribbon_tuples, verify_minimal_ribbons
from .symfunc import (
    TPoly,
    hall_littlewood_by_descents,
    hall_littlewood_by_ribbons,
    hall_littlewood_omega_by_descents,
    q_factorial,
)
from .tanisaki import (
    hilbert_series,
    tanisaki_ideal,
    verify_descent_basis,
    verify_parabolic_basis,
    verify_phi_injective,
)

__version__ = "0.1.0"
