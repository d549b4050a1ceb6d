"""Exact computations with finite subgroups of PGL(2, F_p).

The package certifies pairs of subgroups sharing a regular orbit with
trivial intersection (each passing pair witnesses a plane rational curve
of degree |G| with two outer Galois points), replays the bundled reference
computations for characteristics 11, 23 and 59, searches for new pairs,
and emits explicit quotient-map parametrizations of the curves.
"""

from .cases import LABELS, PRIMES, case_subgroups
from .criterion import (PairCertificate, check_pair, check_pair_all_basepoints,
                        reverify, subgroups_from_dict)
from .errors import (ClosureCapExceeded, DegenerateInvariant, EvaluationAtPole,
                     GaloisPairsError, IrregularOrbit, ModulusMismatch,
                     SingularMatrix, UnknownCase)
from .field import is_prime, primitive_root
from .polys import Poly, RationalFunction
from .projline import (ProjectiveLine, ProjectiveMatrix, ProjectivePoint,
                       projective_line)
from .quotient import (CurveParametrization, emit_parametrization,
                       invariant_generator, moebius_adjust)
from .search import (SearchConfig, find_cyclic_regular, find_scaling_conjugates,
                     run_search)
from .subgroups import (GroupKind, Subgroup, conjugate, generate_closure,
                        intersect, orbit, orbit_partition, parse_kind, recognize)
from .verify import VerificationReport, verify_prime

__version__ = "0.1.0"
