"""A workbench for the Galois theory of finite first-order structures.

Loads finite relational structures, evaluates first-order formulas with
exact-count quantifiers over them, computes automorphism groups and their
stabilizer chains, and mechanically verifies the correspondence between
subgroups of a relative automorphism group and intermediate definably closed
sets, including where and why it fails.
"""

from .errors import (CapError, DslError, EvalError, FieldEncodingError,
                     FormulaError, GalbenchError, GroupError, HypothesisError,
                     InconclusiveError, InternalCheckError, NotInvariantError,
                     StructureError)
from .structure import (DEFAULT_UNIVERSE_CAP, Signature, Structure,
                        dump_structure, load_structure)
from .formula import (Formula, evaluate, format_formula, free_variables,
                      parameters, parse_formula, solution_set)
from .perm import (DEFAULT_ELEMENT_CAP, DEFAULT_SUBGROUP_CAP, ElementTable, Perm,
                   PermGroup, is_normal_subgroup, orbit,
                   restrict_to_invariant_set, stabilizer_pointwise)
from .aut import (automorphism_group, automorphism_group_fixing,
                  relative_restriction, search_automorphism_generators)
from .galois import (DEFAULT_MAX_LEN, CodesReport, DualityFailure, FieldOps,
                     GaloisReport, TowerCheck, TowerReport, acl,
                     codes_finite_sets, dcl, degree_of_extension,
                     extension_aut_order, find_code, find_generator,
                     fix_of_set, fix_of_subgroup, is_irreducible_formula,
                     is_normal_extension, is_splitting_extension,
                     multisymmetric_code, multisymmetric_monomials, orbit_over,
                     verify_galois_correspondence, verify_tower)
from .corpus import CORPUS, CorpusEntry, corpus_names, load_corpus
from .suite import SuiteReport, run_full_verification, run_law_suite
from .cli import run_command

__version__ = "0.1.0"
