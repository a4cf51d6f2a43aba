"""Integer tilings of Z^n by the scaled half-cross, from binary and ternary perfect codes."""

from .geometry import (
    Point,
    UpsilonShape,
    covers,
    cross_distance,
    cross_weight,
    hamming_distance,
    manhattan_distance,
    torus_cross_distance,
    upsilon_offsets,
)
from ._fileformat import FormatError
from .codes import (
    BlockCode,
    binary_hamming,
    decode_within_1,
    is_perfect,
    min_hamming_distance,
    puncture,
    read_code,
    ternary_hamming,
    weight_split,
    write_code,
)
from .lattice import (
    IntegerLattice,
    contains,
    is_lattice_tiling,
    lambda_lattice,
    read_lattice,
    volume,
    window,
    write_lattice,
)
from .tiling import (
    AuditReport,
    NonexistenceCertificate,
    PeriodicTiling,
    VerificationReport,
    admissible_dimension,
    is_periodic_with,
    nonexistence_certificate,
    normalize,
    permute,
    read_tiling,
    reflect,
    spencer_bound,
    structural_audit,
    verify,
    write_tiling,
)
from .constructions import (
    from_binary_perfect,
    from_ternary_perfect,
    locate_tile_binary,
    locate_tile_ternary,
    phi,
    psi,
    punctured_construction,
    to_binary_perfect,
)
from .search import SearchConfig, divisibility_precheck, search_tilings

__version__ = "0.1.0"
