"""Lattice decompositions, L1 kernel-operator inequalities, projective
tensor norms and minimal-norm operator extensions on finite atomic measure
spaces."""

from .core import (COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn,
                   argmax_partition, d_norm, l1_norm, lattice_max, point_mass,
                   pos_neg_split, zero_fn)
from .decompose import (CellDecomposition, Decomposition, decompose_complex,
                        decompose_real, eps_net_coeffs, optimal_k_search,
                        preprune_count, prune, refine_to_constant_coeffs,
                        verify_cell_decomposition, verify_decomposition)
from .extension import (ExtensionResult, RestrictedOperator, Subspace,
                        alpha_via_lp, check_condition_b,
                        verify_extension_theorem)
from .lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LPSolution,
                 solve)
from .operators import (InequalityReport, KernelOperator, ProofTrace, apply,
                        apply_family, check_domination, check_grothendieck,
                        dominate, identity_operator, modulus, op_norm,
                        proof_trace_complex, proof_trace_real, zero_operator)
from .tensor import (CanonicalRep, TensorElement, attain_max_functional,
                     canonical_rep, pair_operator_tensor, proof_trace_tensor,
                     tensor_norm, verify_min_representation)

__version__ = "0.1.0"
