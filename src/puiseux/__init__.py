"""Exact arithmetic for Puiseux monoids (additive submonoids of the
nonnegative rationals): membership, atoms and factorizations, difference
groups and root closures, conductors, and topological density
classification, all validated against brute-force enumeration oracles.
"""

from .closures import (
    ClosureDescription,
    ConductorKind,
    ConductorResult,
    CyclicScaled,
    GpDensity,
    GpDensityVerdict,
    LocalizedScaled,
    UnknownGroup,
    conductor,
    difference_group,
    fg_lattice_step,
    gp_density,
    root_closure,
)
from .constructions import (
    CantorShiftResult,
    DenseAtomsResult,
    build_cantor_shift,
    build_dense_atoms,
    build_increasing,
)
from .density import (
    DensityClass,
    DensityVerdict,
    ProbeReport,
    ProbeResult,
    classify_density,
    eventual_window_check,
    point_set_report,
    probe_density,
    right_isolation,
)
from .errors import BudgetError
from .factorizations import (
    AtomicityKind,
    AtomicityVerdict,
    Factorization,
    FactorizationSet,
    LengthSet,
    atoms,
    factorizations,
    length_set,
)
from .families import (
    AffineTail,
    CanonicalFG,
    CantorShift,
    DenseAtoms,
    FiniteGenerators,
    Geometric,
    HarmonicTail,
    IncreasingSequence,
    Membership,
    MembershipResult,
    MonoidSpec,
    PrimeHarmonicTail,
    PrimeReciprocalShift,
    UnitFractionPowers,
    canonical_fg,
    canonicalize,
    dumps_spec,
    generator_count,
    generator_stream,
    is_finitely_generated,
    loads_spec,
    spec_member,
)
from .numerical import NumericalMonoid, reachable_bitmask
from .rationals import format_rational, parse_rational

__version__ = "0.1.0"
