"""chainscope: chain structure, shadowing and chaos hierarchy analysis for
finite and symbolic dynamical systems."""

__version__ = "0.1.0"

from .basins import BasinAssignment, assign_basins, verify_partition_laws
from .chains import (ChainAnalysis, ChainDigraph, build_chain_digraph, chain_analysis,
                     chain_components, chain_recurrent_set, complete_lyapunov,
                     critical_deltas)
from .chaos import (ClassifyParams, ComponentChaosReport, Condition3Verdict, TupleStats,
                    check_condition3, classify_finite_component, classify_sft,
                    compute_delta_n, construct_witness, profile_extremes, sft_delta_n,
                    tuple_stats)
from .corpus import corpus_names, load_corpus
from .cyclic import (CyclicDecomposition, LadderWalk, ProximalPartition, component_period,
                     cyclic_classes, proximal_partition, transient_index)
from .families import (EventuallyPeriodicSet, FamilyVerdict, TimeSetWindow, WindowParams,
                       family_member, inclusion_audit, rotation_time_set, upper_density,
                       window_family_member)
from .sft import (SftGraph, SftPoint, full_shift, graph_period, is_irreducible,
                  sft_distance, sft_entropy, vertex_classes)
from .shadowing import (PseudoOrbit, ShadowResult, find_shadowing_point, limit_rank,
                        limit_shadowed, sft_shadow, slimit_modulus, slimit_splice,
                        validate_pseudo_orbit)
from .systems import (FiniteSystem, GridMapSpec, compile_finite, discretize,
                      finite_system)
