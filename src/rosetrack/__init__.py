"""Train track maps on roses: invariants, certificates, and constructions.

The package computes train-track and Whitehead-graph invariants of free-group
outer automorphisms given as sequences of standard Nielsen generators,
certifies the absence of periodic Nielsen paths, builds ideal-decomposition
diagrams, and glues certified examples into every higher rank.
"""

from .catalog import example, rank3_base
from .diagrams import (
    GeneratingTriple,
    IdDiagram,
    admissible_composition_check,
    build_id_diagram,
    check_representative_loop,
    enumerate_admissible_structures,
    extend_composition,
    extension,
    loop_of_decomposition,
    loop_through,
    switch,
)
from .errors import (
    InvalidLetter,
    MissingCertificate,
    NotTrainTrack,
    RankError,
    RosetrackError,
    SpecError,
)
from .graphs import (
    ColoredPairLabeledGraph,
    connected_components,
    cut_vertices,
    is_isomorphic,
    to_dot,
)
from .ltt import LttStructure, build_ltt, is_birecurrent, validate, validate_ltt
from .nielsen import (
    PnpCertificate,
    SearchOutcome,
    certify_pnp_free,
    is_legalizing_prevention_sequence,
    search_inps,
)
from .synthesis import (
    GluedSide,
    GluingSpec,
    glue_graphs,
    normalize_achieved,
    realize_glued,
    theorem_a_pipeline,
)
from .whitehead import (
    TurnClosure,
    ideal_whitehead_graph,
    index_list,
    is_train_track,
    local_whitehead_graph,
    stable_whitehead_graph,
    turn_closure,
)
from .words import (
    Decomposition,
    GraphMap,
    NielsenGenerator,
    compose,
    is_cyclically_admissible,
    is_expanding,
    is_illegal,
    is_irreducible,
    is_strictly_irreducible,
    parse_word,
    format_word,
    reduce_word,
    rotationless_power,
    taken_turns,
    turn,
)

__version__ = "0.1.0"
