"""Spectra, zero sets and near-Parseval frames for self-affine fractal measures."""

__version__ = "0.1.0"

from . import errors
from .frames import (
    FrameReport,
    frame_matrix_bounds,
    residues_distinct,
    select_subset,
    tower_frame,
)
from .intlat import (
    IntMatrix,
    Lattice,
    canonical_residue,
    complete_representatives,
    reduce_to_full,
    smallest_invariant_lattice,
)
from .measure import (
    DiscreteMeasure,
    FourierEval,
    attractor_box,
    discrete_approximant,
    render_attractor,
)
from .quasiprod import SpectrumReport, full_spectrum, report_frequencies
from .spectra import (
    SpectrumTree,
    canonical_tree,
    completeness_partial,
    corrected_tree,
    cover_constants,
    orthogonality_check,
)
from .triples import (
    AffinePair,
    HadamardTriple,
    affine_pair,
    digit_sums,
    hadamard_triple,
    tower,
    validate_triple,
)
from .zeroset import (
    EmptinessEvidence,
    ZeroCertificate,
    certify_zero,
    replay_certificate,
    scan_zero_set,
    zero_set_empty_evidence,
)

__all__ = [
    "__version__",
    "errors",
    "AffinePair",
    "DiscreteMeasure",
    "EmptinessEvidence",
    "FourierEval",
    "FrameReport",
    "HadamardTriple",
    "IntMatrix",
    "Lattice",
    "SpectrumReport",
    "SpectrumTree",
    "ZeroCertificate",
    "affine_pair",
    "attractor_box",
    "canonical_residue",
    "canonical_tree",
    "completeness_partial",
    "complete_representatives",
    "corrected_tree",
    "cover_constants",
    "certify_zero",
    "digit_sums",
    "discrete_approximant",
    "frame_matrix_bounds",
    "full_spectrum",
    "hadamard_triple",
    "orthogonality_check",
    "reduce_to_full",
    "render_attractor",
    "replay_certificate",
    "report_frequencies",
    "residues_distinct",
    "scan_zero_set",
    "select_subset",
    "smallest_invariant_lattice",
    "tower",
    "tower_frame",
    "validate_triple",
    "zero_set_empty_evidence",
]
