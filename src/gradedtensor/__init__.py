"""Exact combinatorics of graded O(N)/Sp(N) tensor models.

Brauer-algebra diagrams, Young symmetrizers, traceless projectors,
stranded-graph Gaussian expectations and the N -> -N duality, all in
exact rational arithmetic.
"""

from .combinatorics import (
    DirectedPairing,
    FaceCycle,
    FaceDecomposition,
    all_pairings,
    canonical_orientation,
    disjoint_union,
    face_decomposition,
    pairing_sign,
)
from .brauer import (
    BrauerDiagram,
    BrauerElement,
    beta_ij,
    casimir_ad,
    compose_diagrams,
    embed_group_algebra,
    eta_sign,
    generator_beta,
    generator_sigma,
    identity_diagram,
    multiply,
    sigma_ij,
)
from .errors import CapExceededError
from .model import (
    DualityReport,
    Interaction,
    ModelSpec,
    Propagator,
    PropagatorTerm,
    StrandedGraph,
    TwoColoredGraph,
    count_faces,
    count_invariants,
    disjoint_union_graphs,
    duality_check,
    enumerate_invariants,
    gaussian_expectation,
    graph_amplitude,
    invariant_sign_normal_form,
    invariant_strands,
    perturbative_expansion,
    wick_expand,
)
from .oracle import (
    ExplicitCovariance,
    ExteriorElement,
    berezin_expectation,
    bosonic_moment,
    numeric_invariant_expectation,
)
from .polynomial import Poly
from .representation import (
    GradedForm,
    ProjectorReport,
    TensorMap,
    ad_nonzero_eigenvalues,
    decompose_projector_as_propagator,
    diagram_to_map,
    element_to_map,
    irreducible_projector,
    symmetric_traceless_projector,
    traceless_component_occurs,
    traceless_projector,
)
from .young import (
    GroupAlgebraElement,
    YoungDiagram,
    dimension_duality_check,
    gl_dimension_poly,
    hook_length,
    partitions,
    row_group,
    column_group,
    transpose,
    young_symmetrizer,
)

__version__ = "0.1.0"
