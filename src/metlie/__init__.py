"""Exact computations with metric Lie algebras as quadratic extensions.

Rational linear algebra, Lie algebras by structure constants, module
socle/radical filtrations, Chevalley-Eilenberg and quadratic cohomology,
standard-model metric Lie algebras with balancedness and admissibility
decision procedures, and the index-3 classification catalog.
"""

from .linalg import (Matrix, Q, Subspace, SymmetricForm, orthogonal_complement,
                     signature, solve_affine, subspace_ops)
from .lie import (IdealChain, InternalCheckError, JacobiError, LieAlgebra,
                  abelian, center, derived_subalgebra, direct_sum,
                  killing_form, nilpotency_radical, solvable_radical,
                  structure_report)
from .modules import (ModuleFiltration, Representation,
                      adjoint_representation, direct_sum_representations,
                      dual_representation, filtration, invariant_split,
                      is_semisimple, module_radical, module_socle,
                      quotient_representation, sub_representation,
                      submodule_generated, trivial_representation)
from .cohomology import (Cochain, CochainComplex, PairMorphism,
                         QuadraticCochain, QuadraticCocycle, cocycle_defect,
                         equivalent_cocycles, fiber_structure,
                         inner_automorphism, pullback, q_action, q_inverse,
                         q_star, sum_classes, sum_pairs)
from .metric import (CanonicalIdeals, ExtensionData, MetricLieAlgebra,
                     SimpleIdealError, canonical_extension, canonical_ideals,
                     extension_from_ideal, extract_cocycle, find_simple_ideal,
                     metric_violation)
from .quadext import (AdmissibilityReport, IndecomposabilityVerdict,
                      StandardModel, admissibility, alpha0_kernel_image,
                      bk_system_solvable, build_model, build_modified,
                      is_balanced, is_indecomposable_class, psi_map)
from .catalog import (CatalogRow, RepFamilySpec, SweepBounds, base_algebra,
                      build_rep, casimir, catalog_row, k_index_sets,
                      non_isomorphism_certificate, su2_odd_irrep,
                      su2_quaternionic_irrep, sweep)

__version__ = "0.1.0"
