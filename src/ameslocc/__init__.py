"""k-uniform and AME states of minimal support, combinatorial designs, and
finite local-equivalence decision procedures with replayable certificates."""

from .phases import Amp, Phase, get_tolerance, nth_roots, root_of_unity, set_tolerance
from .states import (MinimalSupportState, SparseState, StateError,
                     ame64_phi, ame_linear_5, construct_ame43, construct_ame44,
                     construct_ame5_phased, construct_ame64, construct_ghz,
                     construct_linear, is_k_uniform, is_minimal_support,
                     reduced_density, states_equal_up_to_global_phase,
                     support_count, tensor_compose, uniformity, with_phases)
from .designs import (DesignError, LatinHypercube, OrthogonalArray, check_molh,
                      check_oa, extension_bound, find_sub_molh,
                      molh_existence_bound, molh_to_state, mols3, no_molh_exists,
                      oa_to_state, parse_oa_text, small_regime, state_to_molh,
                      state_to_oa, tensor_molh)
from .butson import (ButsonError, ButsonMatrix, dephase, enumerate_bh, fourier,
                     is_butson, monomially_equivalent, tensor_butson)
from .operators import LocalOperator, OperatorError, SiteOperator
from .equivalence import (EquivalenceCertificate, EquivalenceError, automorphisms,
                          butson_match, compute_w, cond_butson, cond_monomial,
                          decide_slocc, family_classes, lm_match)
from .reductions import (ReductionError, TriangularMatrixPair, build_u4_u5, lu_witness,
                         verify_ame5_nonequivalence, verify_rho345_lemma)

__version__ = "0.1.0"

# the CLI (argparse, json) loads on first use, not with the library
_CLI_NAMES = ("cli", "reproduce", "run_cli")

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_CLI_NAMES))


def __getattr__(name):
    if name not in _CLI_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    cli = import_module(".cli", __name__)  # binds ameslocc.cli as it loads
    return cli if name == "cli" else getattr(cli, name)
