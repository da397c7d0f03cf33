"""Workbench for classical semigroup questions: reversibility laws on
finite tables, group extensions of presented monoids with embeddability
probing, and rank <= 1 matrix semigroups over exact fields."""

from .embedding import (CollisionWitness, EmbeddingReport, MalcevReport,
                        ProbeError, check_malcev_condition, probe_embedding,
                        quadruple_presentation)
from .fields import GF, QQ, FieldError, PrimeField, RationalField
from .finite import (CayleyTable, DecompositionError, LawReport,
                     RightGroupDecomposition, TableError, check_laws, closure,
                     decompose_right_group, enumerate_semigroups,
                     identity_of, is_associative, is_group,
                     semigroup_representatives, table_from_product)
from .presentations import (EMPTY, GROUP_COMPLETION, PLAIN, Letter,
                            ParseError, Presentation, PresentationError,
                            Relation, bar_copy, build_gm, format_presentation,
                            free_product, parse_presentation_file,
                            parse_presentation_text, presentation_to_json,
                            reverse)
from .rank1 import (GabGroup, MatrixError, Rank1Matrix, Rank1Universe,
                    from_dense, gab_group, idempotent, make_rank1, multiply,
                    rank1_universe, to_dense, zero_matrix)
from .rewriting import (BUDGET_EXHAUSTED, CONFLUENT, DISTINCT, EQUAL, UNKNOWN,
                        DerivationCertificate, EqualityVerdict,
                        NormalFormCertificate, RewriteSystem, RewritingError,
                        Rule, derivation_certificate, derive_equal,
                        enumerate_elements, equal_words, kb_complete, reduce,
                        reduce_with_trace, replay_derivation, rule_derivation,
                        shortlex_less, traces_derivation, verify_confluence)

__all__ = [name for name in dir() if not name.startswith("_")]
