"""The degree of a certified pair's plane curve, read off its certificate.

emit_parametrization turns a passing certificate for (G1, G2), of order d,
into t -> (A : B : D) with x = A/D and y = B/D the invariants of G1 and G2
anchored at the base point. The image of that map is a curve of degree
exactly d, and the certificate's checks are all the proof needs:

- Birational. x is G1-invariant of degree d = |G1|, so F_p(x) is the fixed
  field F_p(t)^G1 (Artin's theorem) and F_p(t)/F_p(x) is Galois with group
  G1; likewise F_p(y) = F_p(t)^G2. Every field between F_p(x) and F_p(t) is
  F_p(t)^H for some H <= G1, and F_p(t)/F_p(t)^H is Galois of degree |H|.
  K = F_p(x, y) is such a field, and H fixes y, so H <= G2 too. The
  certificate checks G1 ∩ G2 = 1, so H = 1, K = F_p(t), and the map is
  birational onto its image.
- No base point. Each invariant is coprime by construction: _top_ratio
  reads it in lowest terms off its residues, so gcd(A, D) = gcd(B, D) = 1.
  invariant_generator checks its polar set and its degree d through
  moebius_adjust before returning it, so max(deg A, deg B, deg D) = d: the
  three forms of degree d share no zero on P^1, (0:1) included.
- So a general line pulls back to d parameters, one over each of its d
  points on the image, and the image has degree d.

An image degree counted from the fibers of the map over points of P^1,
which needs no certificate, is the test suite's oracle for this one.
"""

from __future__ import annotations

from .criterion import PairCertificate
from .errors import DegenerateInvariant
from .quotient import CurveParametrization


def implicit_degree(cert: PairCertificate, param: CurveParametrization) -> int:
    """The degree of the image curve of `param`, the parametrization that
    emit_parametrization makes of `cert`: param.degree, by the argument of
    the module docstring. Raises DegenerateInvariant unless cert passes and
    param has the certificate's degree."""
    if cert.verdict != "pass" or param.degree != cert.degree:
        raise DegenerateInvariant(
            f"no degree proof: the certificate's verdict is {cert.verdict} and its "
            f"degree {cert.degree}, the parametrization's degree {param.degree}")
    return param.degree
