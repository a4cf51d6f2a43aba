"""Integer tilings of Z^n by the scaled half-cross, from binary and ternary perfect codes."""

from .geometry import (
    Point,
    UpsilonShape,
    covers,
    cross_distance,
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
    is_lattice_tiling,
    lambda_lattice,
    volume,
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
    read_tiling,
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
    punctured_construction,
    to_binary_perfect,
)
from .search import SearchConfig, search_tilings

__version__ = "0.1.0"
