"""Implicit degree of a plane parametrization by a fiber count.

For t -> (A : B : D) with gcd(A, B, D) = 1 and d = max(deg A, deg B, deg D),
the image curve has degree d / k, where k is the degree of the map onto its
image (the tracing index of Sendra, Winkler and Perez-Diaz, *Rational
Algebraic Curves*, Springer 2008). The fiber over the image of a point t0
of P^1 is cut out by the 2x2 minors of the matrix with rows (A, B, D) and
(a0, b0, d0) = the image of t0:

    A b0 - B a0,    A d0 - D a0,    B d0 - D b0.

Its size, counted with multiplicity, is the degree of the gcd of the
minors plus the multiplicity of t = infinity, which is the least gap
d - deg M over the non-zero minors M (a minor of degree below d vanishes
at infinity once homogenized to degree d). The scan reads line.points(),
(0:1) first, through polys.point_values.

The map factors as a birational map after one of degree k, so every fiber
size is k times a fiber size of the birational map, which is 1 except over
the singular points of the image. The gcd of d and the fiber sizes over
P^1(F_p), infinity included, is therefore a multiple of k. The scan stops
as soon as that gcd is 1, which certifies a birational map and image
degree d. A rational curve of degree e has at most (e - 1)(e - 2)
parameters over its singular points, so the whole map, of degree d = k e,
has at most k (e - 1)(e - 2) <= (d - 1)(d - 2) parameters with a fiber
above k. The gcd equals k, and the result is exact, whenever
p + 1 > (d - 1)(d - 2). Below that bound every rational parameter can lie
over a singular point, and the result is then a lower bound: at p = 5, a
map of degree 2 onto a quartic can have all six rational fibers of size 4.
Every curve of emit_parametrization at p >= 3 lies below it, and there the
scan can fail. d = p + 1, so the polar orbit is all of P^1(F_p) and every
rational parameter maps to the line at infinity D = 0; where those points
coincide in pairs, the scan reads d/2 for a birational map. It does so on
the C6 self-pair of search --p 5 --kind1 C6 --kind2 C6, which reads 3, not
6. An exact count needs fibers over F_{p^m}.
"""

from __future__ import annotations

from math import gcd

from .errors import ResultantVanishes
from .polys import point_values
from .projline import projective_line
from .quotient import CurveParametrization


def _fiber_size(A, B, D, d: int, a0, b0, d0) -> int:
    minors = [m for m in (A.scale(b0) - B.scale(a0), A.scale(d0) - D.scale(a0),
                          B.scale(d0) - D.scale(b0)) if not m.is_zero]
    g = minors[0]
    for m in minors[1:]:
        g = g.gcd(m)
    return g.degree + min(d - m.degree for m in minors)


def implicit_degree(param: CurveParametrization) -> int:
    """Total degree of the image curve of (A : B : D).

    Equals param.degree exactly when the parametrization is birational
    onto its image; a smaller value is exact when p + 1 > (d - 1)(d - 2)
    and a lower bound otherwise. Returns 0 for a constant map and raises
    ResultantVanishes when the three components share a factor.
    """
    A, B, D = param.A, param.B, param.D
    d = max(A.degree, B.degree, D.degree)
    if d <= 0:
        return 0
    if A.gcd(B).gcd(D).degree > 0:
        raise ResultantVanishes("the components A, B, D share a factor")
    k = d
    for Q in projective_line(param.p).points():
        k = gcd(k, _fiber_size(A, B, D, d, *point_values((A, B, D), d, Q)))
        if k == 1:
            break
    return d // k
