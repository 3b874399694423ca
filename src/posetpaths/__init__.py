"""Monotone numberings of posets, their symmetry groups, and central measures.

The library materializes four layers:

* finite posets and windows of the canonical infinite families, with
  ideal operations and numbering validation (`posets`, `ideals`);
* the graded graph of finite ideals with exact path counts, whose root
  paths are the numberings it enumerates (`graded_graph`);
* the adjacent-swap involutions on numberings and the permutation group
  they generate, with relation verification (`symmetry`);
* central measures: exact endpoint-conditioned kernels, centrality
  checks, Plancherel and row-insertion growth samplers, and frequency
  estimation (`measures`, `young`).
"""

from .graded_graph import (
    GradedGraph,
    LevelVertex,
    build_graph,
    dimension,
    enumerate_numberings,
    numbering_of,
    path_of,
    up_dimension,
    up_dimension_table,
)
from .ideals import (
    AxisRaysIdeal,
    FiniteSetIdeal,
    FullIdeal,
    HookIdeal,
    IdealSpec,
    finite_set_ideal,
    ideal_mask,
    parse_ideal,
)
from .measures import (
    CentralityReport,
    ComparisonTable,
    ExplicitMarkov,
    FrequencyReport,
    Thoma,
    compare_frequency_profiles,
    endpoint_measure,
    estimate_frequency,
    growth_to_numbering,
    is_central,
    kernel_centrality,
    parse_markov_kernel,
    path_measure,
    perturb_fiber,
    plancherel_transition,
    sample_markov,
    sample_plancherel,
    sample_rsk_thoma,
    uniform_path_measure,
)
from .posets import (
    CapExceeded,
    Poset,
    PosetFormatError,
    PosetWindow,
    ROOT,
    addable_elements,
    build_antichain_poset,
    build_box_poset,
    build_chain_poset,
    build_young_poset,
    parse_poset,
    serialize_poset,
    validate_numbering,
)
from .symmetry import (
    GroupHandle,
    LocalGroupReport,
    RelationReport,
    apply_sigma,
    classify_local,
    generate_group,
    group_order,
    local_indices,
    verify_relations,
)
from .young import GrowthPath, tableau_count

__version__ = "0.1.0"
