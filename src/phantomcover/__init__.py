"""Exact computer algebra for finite Z/n-modules: phantom morphisms,
covers and precovers, arrow-category representations, and filtrations."""

from .errors import (
    IllDefinedMorphismError,
    InputError,
    InternalConsistencyError,
    PhantomcoverError,
)
from .finmod import (
    Diagram,
    FiniteModule,
    ModuleMorphism,
    Ring,
    Submodule,
    cokernel,
    compose,
    direct_sum,
    directed_colimit,
    hom_group,
    is_projective,
    is_pure_submodule,
    kernel,
    pure_closure,
    pushout,
)
from .ideals import (
    MorphismIdeal,
    SystemMorphism,
    closed_under_direct_limits_check,
    factors_through_projective,
    ideal_membership,
    is_phantom,
)
from .rep_a2 import (
    RepA2,
    RepDiagram,
    RepMorphism,
    SubRep,
    extension_counterexample,
    in_ideal_class,
    is_pure_subrep,
    quotient_rep,
    rep_colimit,
    restrict_rep,
)
from .approx import (
    extract_retract,
    is_cover,
    is_precover,
    phantom_cover,
    phantom_probe_set,
    projective_cover,
    pushout_transport,
    universal_maps,
)
from .filtration import (
    Filtration,
    FiltrationConfig,
    build_filtration,
    phantom_pure_subrep,
    pure_subrep_containing,
    verify_filtration,
)
from .manifest import Manifest, parse, serialize
from .oracles import (
    IntMatrix,
    SmithDecomposition,
    smith_normal_form,
    solution_space_mod,
    solve_mod,
)
from .samplers import random_phantom_rep

__all__ = [name for name in dir() if not name.startswith("_")]
