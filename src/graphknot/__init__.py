"""Knotted graph diagrams: rotation systems, moves, tangles, and crossing
number machinery for deciding when a graph has no flat embedding."""

from .criterion import (
    AdditivityReport,
    NonPlanarCertificate,
    Section3Report,
    additivity_check,
    certificate_from_json,
    check_nonplanar,
    condition_i,
    condition_ii,
    section3_crossing_number,
    verify_certificate,
)
from .diagram import (
    Crossing,
    Diagram,
    Vertex,
    connected_sum_diagrams,
    crossing_assignments,
    diagram_to_text,
    disjoint_union_diagrams,
    extract_sublink,
    parse_diagram,
)
from .errors import (
    DisconnectedError,
    FormatError,
    GraphKnotError,
    InvalidVertexError,
    MoveNotApplicable,
    NotALinkError,
    SizeLimitExceeded,
    TopologyError,
    WrongDegreeError,
)
from .invariants import (
    LaurentPoly,
    crossing_number,
    kauffman_bracket,
    span_lower_bound,
    writhe,
)
from .invariants import (
    Obstruction,
    component_span_lower_bound,
    linking_numbers,
    lower_bound_obstructions,
    simple_cycles,
)
from .layout import base_diagram
from .moves import (
    Budget,
    ISOTOPY_KINDS,
    MOVE_KINDS,
    MoveSite,
    apply_move,
    cc_equivalent_within,
    descending_diagram,
    enumerate_moves,
    equivalent_within,
    replay_path,
    search_min_crossings,
    simplify,
)
from .multigraph import (
    AutGroup,
    Multigraph,
    Minimalizability,
    Permutation,
    automorphisms,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    graph_to_text,
    minimalizability,
    one_point_union,
    parse_graph,
    path_graph,
    symmetric_product_orbits,
)
from .tangle import RationalTangle, VertexOrientation, parse_conway, substitute
from . import gallery

__all__ = [name for name in dir() if not name.startswith("_")]
