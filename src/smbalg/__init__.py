"""Finite-algebra toolkit for semilattices of Mal'cev blocks."""

from .core import (AlgebraError, App, CapExceeded, Const, FalsificationError,
                   FiniteAlgebra, Identity, OperationFlags, OperationTable,
                   PreconditionError, Quasiidentity, Term, Var, Verdict,
                   check_identities, materialize_term, table_flags,
                   term_table, term_variables)
from .partitions import Partition, all_partitions
from .relations import (CongruenceLattice, GeneratedSet, commutator,
                        congruence_generated, congruence_lattice,
                        congruence_violation, d_rels, generate_subpower,
                        matrix_set, polynomial_image_pairs,
                        principal_congruence, product_algebra, push_partition,
                        quotient_algebra, subalgebra)
from .analyzer import (BaseReport, ClassOrder, RegularityReport, SmbReport,
                       TaylorReport, check_cgvsim, check_regular,
                       check_regular_base, check_smb_over, check_undersim,
                       cgvsim_below, commutator_below_sim,
                       count_biconditional, find_smb_congruences,
                       join_membership_chain, alternating_chain_fold,
                       recovered_sim, smb_axioms, taylor_check,
                       verify_cg_d3_pairs)
from .pipeline import (PipelineResult, RepresentativeInconsistency,
                       circ_table, class_order_from_circ, idempotent_power,
                       iterate_wnu, regularize, run_pipeline,
                       semilattice_term, special_circ)
from .constructions import (CorpusEntry, CorpusSpec, affine_block,
                            build_corpus, chain_semilattice, example_b2,
                            example_e3, example_n4, example_s2,
                            exhaustive_enumerate, extend_simple_type5,
                            glue_layout, glue_smb, random_algebra,
                            random_semilattice, trivial_algebra)
from .dsl import (ParseError, format_algebra, format_term, parse_algebra,
                  parse_identity, parse_quasiidentity, parse_term)
