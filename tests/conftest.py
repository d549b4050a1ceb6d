"""Shared exhaustive checkers and seeded samplers for the test suite."""

from __future__ import annotations

import argparse
import contextlib
import io
import random
from collections import Counter
from functools import lru_cache
from math import gcd
from typing import Iterator

import numpy as np

from galoispairs import (LABELS, PRIMES, ClosureCapExceeded, CurveParametrization,
                         GroupKind, PairCertificate, Poly, ProjectiveLine, ProjectiveMatrix,
                         ProjectivePoint, RationalFunction, SearchConfig, Subgroup,
                         check_pair_all_basepoints, generate_closure, intersect, orbit,
                         orbit_partition, projective_line, recognize)
from galoispairs.cli import (_cmd_check_pair, _cmd_emit_curve, _cmd_search,
                             _cmd_verify_paper, main)
from galoispairs.search import STRATEGIES, _transitive_group
from galoispairs.subgroups import DEFAULT_CLOSURE_CAP

# the (kind1, kind2) the paper states for each bundled case (p, label)
CASE_KINDS = {
    (11, "a"): (GroupKind.alt4(), GroupKind.cyclic(12)),
    (11, "b"): (GroupKind.alt4(), GroupKind.dihedral(12)),
    (11, "c"): (GroupKind.alt4(), GroupKind.alt4()),
    (23, "a"): (GroupKind.sym4(), GroupKind.cyclic(24)),
    (23, "b"): (GroupKind.sym4(), GroupKind.dihedral(24)),
    (23, "c"): (GroupKind.sym4(), GroupKind.sym4()),
    (59, "a"): (GroupKind.alt5(), GroupKind.cyclic(60)),
    (59, "b"): (GroupKind.alt5(), GroupKind.dihedral(60)),
    (59, "c"): (GroupKind.alt5(), GroupKind.alt5()),
}


def iterated_order(line: ProjectiveLine, A: ProjectiveMatrix) -> int:
    """Oracle for ProjectiveLine.element_order: compose A with itself until
    the identity class comes back."""
    M, n = A, 1
    while M != line.identity:
        M = line.compose(M, A)
        n += 1
        assert n <= line.p ** 3 - line.p, "order exceeded |PGL(2, p)|"
    return n


def count_element_orders(monkeypatch) -> list:
    """Record the argument of every ProjectiveLine.element_order call from
    here on; the list grows as calls are made."""
    calls = []
    element_order = ProjectiveLine.element_order

    def counted(self, A):
        calls.append(A)
        return element_order(self, A)

    monkeypatch.setattr(ProjectiveLine, "element_order", counted)
    return calls


def recognize_by_element_orders(G: Subgroup) -> GroupKind:
    """Oracle for subgroups.recognize: the ladder over the order of every
    element. C_n if some element has order n, else D_n if at least n/2
    elements have order 2, else A4, S4 or A5 if n is 12, 24 or 60, else
    other."""
    n = len(G)
    orders = Counter(map(G.line.element_order, G.elements))
    if orders[n]:
        return GroupKind.cyclic(n)
    if 2 * orders[2] >= n:
        return GroupKind.dihedral(n)
    return {12: GroupKind.alt4(), 24: GroupKind.sym4(),
            60: GroupKind.alt5()}.get(n, GroupKind.other(n))


def canonical_matrices(p: int) -> Iterator[ProjectiveMatrix]:
    """Every canonical PGL(2, F_p) class, in lexicographic (a, b, c, d)
    order: (0, 1, c, d) with c != 0, then (1, b, c, d) with d != bc."""
    for c in range(1, p):
        for d in range(p):
            yield ProjectiveMatrix(0, 1, c, d)
    for b in range(p):
        for c in range(p):
            for d in range(p):
                if d != b * c % p:
                    yield ProjectiveMatrix(1, b, c, d)


def scanned_cyclic_regular(line: ProjectiveLine) -> Subgroup:
    """Oracle for search.find_cyclic_regular: the first class of order p+1
    in a scan of all of PGL(2, p) whose closure acts transitively."""
    full = frozenset(line.points())
    for M in canonical_matrices(line.p):
        if line.element_order(M) == line.p + 1:
            G = generate_closure(line, [M])
            if orbit(G, line.points()[0]) == full:
                return G
    raise AssertionError(f"no regular cyclic subgroup at p={line.p}")


@lru_cache(maxsize=None)
def reference_transitive_group(line: ProjectiveLine, kind: GroupKind) -> Subgroup | None:
    """Oracle for search._transitive_group, from scans of all of PGL(2, p):
    None unless |kind| = p + 1. C_{p+1} is scanned_cyclic_regular's <r>;
    D_{p+1} is the first transitive <r^2, t> over the involutions t with
    t r t = r^-1 in canonical order, which has the same elements as the
    package's group, though not always its generators (the transitive
    dihedral group over <r^2> is unique); A4, S4 and A5 are <a, b> for the
    first a of order 2 and b of order 3 in canonical order whose product
    has order 3, 4 or 5 (iterated_order)."""
    p = line.p
    if kind.order != p + 1:
        return None
    full = frozenset(line.points())
    if kind.family == "C":
        return scanned_cyclic_regular(line)
    if kind.family == "D":
        (r,) = scanned_cyclic_regular(line).generators
        r_inv = line.inverse(r)
        for t in canonical_matrices(p):
            if (t != line.identity and line.compose(t, t) == line.identity
                    and line.compose(line.compose(t, r), t) == r_inv):
                G = generate_closure(line, [line.compose(r, r), t])
                if orbit(G, line.points()[0]) == full:
                    return G
        raise AssertionError(f"no transitive D{p + 1} at p={p}")
    k = {"A4": 3, "S4": 4, "A5": 5}[kind.family]
    twos, threes = ([M for M in canonical_matrices(p) if line.element_order(M) == n]
                    for n in (2, 3))
    for a in twos:
        for b in threes:
            if iterated_order(line, line.compose(a, b)) == k:
                return generate_closure(line, [a, b])
    raise AssertionError(f"no {kind} at p={p}")


def b_element(p: int, i: int) -> ProjectiveMatrix:
    """The i-th element of B = {(α, β, 0, 1) : α != 0} in (α, β) order."""
    return ProjectiveMatrix(1 + i // p, i % p, 0, 1)


def raw_conjugate(G: Subgroup, b: ProjectiveMatrix) -> Subgroup:
    """b^-1 G b by 2x2 integer products: the adjugate of b as its inverse,
    each product reduced to canonical form by line.matrix."""
    line = G.line
    al, be, ga, de = b
    b_inv = (de, -be, -ga, al)

    def mul(X, Y):
        return (X[0] * Y[0] + X[1] * Y[2], X[0] * Y[1] + X[1] * Y[3],
                X[2] * Y[0] + X[3] * Y[2], X[2] * Y[1] + X[3] * Y[3])

    def conj(A):
        a, b_, c, d = mul(mul(b_inv, A), b)
        return line.matrix([[a, b_], [c, d]])

    return Subgroup(line, tuple(map(conj, G.generators)),
                    frozenset(map(conj, G.elements)))


def reference_b_walk(cfg: SearchConfig) -> PairCertificate | None:
    """Oracle for the B walk behind search --strategy random and
    exhaustive-cyclic: the groups of search._transitive_group, conjugated by
    raw_conjugate, in the documented visiting order (B in (α, β) order, or
    cfg.limit draws of random.Random(cfg.seed).randrange(p(p - 1)))."""
    line = projective_line(cfg.p)
    G1 = _transitive_group(line, cfg.kind1)
    G2 = _transitive_group(line, cfg.kind2)
    if G1 is None or G2 is None:
        return None
    n = cfg.p * (cfg.p - 1)
    if cfg.strategy == "random":
        rng = random.Random(cfg.seed)
        visits = [rng.randrange(n) for _ in range(cfg.limit)]
    else:
        visits = range(min(cfg.limit, n))
    for i in visits:
        cert = check_pair_all_basepoints(G1, raw_conjugate(G2, b_element(cfg.p, i)))
        if cert.verdict == "pass":
            return cert
    return None


@lru_cache(maxsize=None)
def all_subgroups(p: int) -> frozenset[Subgroup]:
    """Every subgroup of PGL(2, p), as closures <C, h> of a cyclic subgroup C
    and one more element h; at p <= 5 every subgroup is 2-generated."""
    line = projective_line(p)
    elements = list(canonical_matrices(p))
    cyclic = {generate_closure(line, [g]) for g in elements}
    return frozenset(generate_closure(line, list(C.generators) + [h])
                     for C in cyclic for h in elements)


def reference_closure(line: ProjectiveLine, generators, cap: int | None = None) -> Subgroup:
    """Oracle for generate_closure: breadth-first closure under right
    multiplication by each generator, k products and k probes per element,
    raising ClosureCapExceeded as soon as more than `cap` elements appear."""
    gens = [line.matrix(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator required")
    if cap is None:
        cap = max(DEFAULT_CLOSURE_CAP, 2 * (line.p + 1))
    if cap < 1:
        raise ValueError("cap must be >= 1")
    els = {line.identity}
    frontier = [line.identity]
    while frontier:
        new = []
        for B in frontier:
            for A in gens:
                C = line.compose(B, A)
                if C not in els:
                    els.add(C)
                    if len(els) > cap:
                        raise ClosureCapExceeded(
                            f"closure of {len(gens)} generators exceeded cap {cap}")
                    new.append(C)
        frontier = new
    return Subgroup(line, gens, frozenset(els))


def per_point_certificate(G1: Subgroup, G2: Subgroup, base: ProjectivePoint,
                          points) -> PairCertificate:
    """Oracle for check_pair and check_pair_all_basepoints: both orbits
    rebuilt from the element sets at each of `points`, failures kept in
    first-occurrence order, orbit data at `base`."""
    line = G1.line
    d, inter_size = len(G1), len(intersect(G1, G2))
    failures = []
    if G1.elements == G2.elements:
        failures.append("groups not different")
    if len(G2) != d:
        failures.append("orders differ")
    if inter_size != 1:
        failures.append("intersection not trivial")
    for Q in points:
        o1, o2 = orbit(G1, Q), orbit(G2, Q)
        if len(o1) != d:
            failures.append(f"orbit of G1 at {Q} has length {len(o1)} != {d}")
        if len(o2) != len(G2):
            failures.append(f"orbit of G2 at {Q} has length {len(o2)} != {len(G2)}")
        if o1 != o2:
            failures.append(f"orbits at {Q} differ")
    return PairCertificate(
        p=line.p, g1_generators=G1.generators, g2_generators=G2.generators,
        kind1=recognize(G1), kind2=recognize(G2), degree=d, base_point=base,
        intersection_size=inter_size, orbit_length=len(orbit(G1, base)),
        orbit_equal=orbit(G1, base) == orbit(G2, base), failures=tuple(failures))


def counted_certificate(G1: Subgroup, G2: Subgroup, base: int, indices) -> PairCertificate:
    """Oracle twin for criterion._certificate, with the same arguments: the
    orbit sizes counted off the labels with Counter, and split built by a
    pass over every pair of labels, tori and equal partitions included;
    the failure loop runs at each of `indices`, never skipped."""
    points = G1.line.points()
    inter_size = len(intersect(G1, G2))
    d1, d2 = len(G1), len(G2)
    failures = []
    if inter_size == d1 == d2:
        failures.append("groups not different")
    if d2 != d1:
        failures.append("orders differ")
    if inter_size != 1:
        failures.append("intersection not trivial")
    lab1, lab2 = orbit_partition(G1)[0], orbit_partition(G2)[0]
    size1, size2 = Counter(lab1), Counter(lab2)
    split = {r for r1, r2 in zip(lab1, lab2) if r1 != r2 for r in (r1, r2)}
    for i in indices:
        r1, r2 = lab1[i], lab2[i]
        if size1[r1] != d1:
            failures.append(f"orbit of G1 at {points[i]} has length {size1[r1]} != {d1}")
        if size2[r2] != d2:
            failures.append(f"orbit of G2 at {points[i]} has length {size2[r2]} != {d2}")
        if r1 in split:
            failures.append(f"orbits at {points[i]} differ")
    return PairCertificate(
        p=G1.line.p, g1_generators=G1.generators, g2_generators=G2.generators,
        kind1=recognize(G1), kind2=recognize(G2), degree=d1, base_point=points[base],
        intersection_size=inter_size, orbit_length=size1[lab1[base]],
        orbit_equal=lab1[base] not in split, failures=tuple(failures))


def trivial_subgroup(line: ProjectiveLine) -> Subgroup:
    return Subgroup(line, (line.identity,), frozenset({line.identity}))


def stabilizer(G: Subgroup, Q: ProjectivePoint) -> Subgroup:
    """{A in G : Q·A = Q}; satisfies |orbit| * |stabilizer| = |G|."""
    line = G.line
    els = frozenset(A for A in G.elements if line.apply(Q, A) == Q)
    return Subgroup(line, tuple(sorted(els)), els)


def torus_by_powers(line: ProjectiveLine, A: ProjectiveMatrix) -> frozenset[ProjectiveMatrix]:
    """Oracle for the torus <A> of subgroups.Subgroup: the powers of A, one
    product each, until the identity class comes back."""
    els, M = {line.identity}, A
    while M != line.identity:
        els.add(M)
        M = line.compose(M, A)
    return frozenset(els)


def listed_twin(G: Subgroup) -> Subgroup:
    """G with its element set given, a torus listed by torus_by_powers: the
    twin reads every fact off its elements, as a non-torus group does."""
    els = G.elements if G.torus is None else torus_by_powers(G.line, G.torus)
    return Subgroup(G.line, G.generators, frozenset(els))


def made_subgroups(monkeypatch) -> list[Subgroup]:
    """Record every Subgroup built from here on; the list grows as they are
    made."""
    made = []
    init = Subgroup.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Subgroup, "__init__", recorded)
    return made


def conjugated(line: ProjectiveLine, A: ProjectiveMatrix, C: ProjectiveMatrix) -> ProjectiveMatrix:
    """C^-1 A C as a class."""
    return line.compose(line.compose(line.inverse(C), A), C)


@lru_cache(maxsize=None)
def singer_documents(p: int, seed: int) -> dict[str, dict]:
    """A passing and a failing pair document on one Singer cycle x at p, as
    perfbench/gen.py's singer_cycle and scale_jobs build them: x is the
    companion matrix (0, 1, -n, t) of an irreducible z^2 - tz + n, of order
    p + 1, and f the Frobenius (1, 0, t, -1), both conjugated by one random
    class. "fail" pairs x with x^f = x^-1; "pass" pairs it with the first
    conjugate of x by a random class whose powers meet those of x in I
    alone, which passes as both groups act regularly."""
    line = projective_line(p)
    rng = random.Random(seed)

    def random_class():
        while True:
            a, b, c, d = (rng.randrange(p) for _ in range(4))
            if (a * d - b * c) % p:
                return line.matrix([[a, b], [c, d]])

    while True:
        t, n = rng.randrange(p), rng.randrange(1, p)
        if pow((t * t - 4 * n) % p, (p - 1) // 2, p) == p - 1:
            M = line.matrix([[0, 1], [-n, t]])
            if line.element_order(M) == p + 1:
                break
    P = random_class()
    x, f = conjugated(line, M, P), conjugated(line, line.matrix([[1, 0], [t, -1]]), P)
    assert conjugated(line, x, f) == line.inverse(x)
    powers = torus_by_powers(line, x)
    while True:
        x_pass = conjugated(line, x, random_class())
        if len(powers & torus_by_powers(line, x_pass)) == 1:
            break
    return {verdict: {"p": p, "g1": {"generators": [x.rows()]},
                      "g2": {"generators": [g2.rows()]}}
            for verdict, g2 in (("pass", x_pass), ("fail", conjugated(line, x, f)))}


def compose_frac(P: Poly, m: int, abcd: tuple) -> Poly:
    """(a + c t)**m * P((b + d t)/(a + c t)) for m >= deg P.

    This is the cleared substitution matching the row action, where
    the matrix [[a,b],[c,d]] moves the affine coordinate t of (1:t)
    to (b + d t)/(a + c t).
    """
    p = P.p
    if m < P.degree:
        raise ValueError("clearing exponent below degree")
    a, b, c, d = abcd
    num = Poly(p, [b, d])
    den = Poly(p, [a, c])
    den_pows = [Poly.const(p, 1)]
    for _ in range(m):
        den_pows.append(den_pows[-1] * den)
    coeffs = list(P.coeffs) + [0] * (m + 1 - len(P.coeffs))
    acc = Poly.const(p, coeffs[m])
    for k in range(m - 1, -1, -1):
        acc = acc * num + Poly.const(p, coeffs[k]) * den_pows[m - k]
    return acc


def vanishing_poly(p: int, roots) -> Poly:
    """Oracle for the denominator check of quotient.moebius_adjust: the
    monic polynomial with the given simple roots, one linear factor at a
    time."""
    out = Poly.const(p, 1)
    for t in roots:
        out = out * Poly(p, [-t, 1])
    return out


POLE = "pole"


def power_sum(P: Poly, t: int) -> int:
    """P(t) mod p as the sum of c_k t^k, one power at a time."""
    return sum(c * pow(t, k, P.p) for k, c in enumerate(P.coeffs)) % P.p


def value_at(f: RationalFunction, Q: ProjectivePoint):
    """Oracle for evaluating f at a canonical point Q: num/den at t for
    (1:t); at (0:1), the same at t = 0 for f(1/t), with num and den cleared
    by t^deg f (compose_frac); POLE where the denominator vanishes."""
    p = f.den.p
    num, den, t = f.num, f.den, Q.t
    if not Q.s:
        swap = (0, 1, 1, 0)  # t -> 1/t
        num, den = (compose_frac(P, f.degree, swap) for P in (num, den))
        t = 0
    vd = power_sum(den, t)
    if not vd:
        return POLE
    return power_sum(num, t) * pow(vd, -1, p) % p


def is_invariant_under(f: RationalFunction, M: ProjectiveMatrix) -> bool:
    """Exact identity f((b+dt)/(a+ct)) == f(t) after clearing (a+ct)^deg."""
    m = f.degree
    num_sub = compose_frac(f.num, m, M)
    den_sub = compose_frac(f.den, m, M)
    return num_sub * f.den == f.num * den_sub


def expanded_orbit_product(G: Subgroup) -> list[Poly]:
    """prod_{g in G} (D_g X - N_g) expanded one linear factor at a time,
    O(|G|^3) coefficient operations: its rows X^(|G|-1) over X^|G| are the
    oracle for quotient._top_ratio on G's own elements."""
    # cleared product prod (D_g X - N_g) with N_g = b + d t, D_g = a + c t:
    # coeffs[i] is the t-polynomial multiplying X^i
    p = G.line.p
    coeffs = [[1]]
    for (a, b, c, d) in sorted(G.elements):
        nb, nd = -b % p, -d % p
        new = []
        for i in range(len(coeffs) + 1):
            lo = coeffs[i] if i < len(coeffs) else None
            hi = coeffs[i - 1] if i >= 1 else None
            ln = len(lo) if lo else 0
            lh = len(hi) if hi else 0
            row = [0] * (max(ln, lh) + 1)
            if lo:
                for k, v in enumerate(lo):
                    row[k] = (row[k] + v * nb) % p
                    row[k + 1] = (row[k + 1] + v * nd) % p
            if hi:
                for k, v in enumerate(hi):
                    row[k] = (row[k] + v * a) % p
                    row[k + 1] = (row[k + 1] + v * c) % p
            new.append(row)
        coeffs = new
    return [Poly(p, row) for row in coeffs]



def reduced_fraction(num: Poly, den: Poly) -> RationalFunction:
    """Oracle for the coprime pairs that the package builds its
    RationalFunctions from: num/den in lowest terms, the monic Poly.gcd
    (Euclid's algorithm by %) divided out, with the denominator made monic."""
    g = num.gcd(den)
    if g.degree > 0:
        num, den = num // g, den // g
    return RationalFunction(num, den)


def anchored_invariant(G: Subgroup, Q: ProjectivePoint) -> RationalFunction:
    """Oracle for quotient.invariant_generator: -sum_g Phi(g(t)), one term at
    a time by reduced_fraction, with Phi(x) = 1/(x - P.t) for
    the first point P of the orbit of Q in line.points() order, or the
    identity when P is (0:1)."""
    line = G.line
    p = line.p
    pts = orbit(G, Q)
    P = next(R for R in line.points() if R in pts)
    acc = reduced_fraction(Poly.zero(p), Poly.const(p, 1))
    for a, b, c, d in G.elements:
        num, den = Poly(p, [b, d]), Poly(p, [a, c])  # g(t)
        if P.s:
            num, den = den, num - den.scale(P.t)
        acc = reduced_fraction(acc.num * den - num * acc.den, acc.den * den)
    return acc

class CubicField:
    """F_{p^3} = F_p[w]/(w^3 - a w - b) for the first (a, b) in lexicographic
    order whose cubic has no root in F_p, and is therefore irreducible.

    Element i is x0 + x1 w + x2 w^2 with (x0, x1, x2) the base-p digits of
    i, lowest first: elements 0 to p - 1 are F_p, and element p is w. A
    polynomial over the field is an int64 array of shape (3, n) whose
    column j is its coefficient of t^j. Values of polynomials of degree d
    are sums of d + 1 products of residues, exact while (d + 1) p^2 < 2^63.
    """

    def __init__(self, p: int):
        self.p = p
        for a in range(p):
            values = {(w * w - a) * w % p for w in range(p)}
            if len(values) < p:
                self.a, self.b = a, min(set(range(p)) - values)
                break
        # three blocks of rows: the matrices of multiplication by 1, w, w^2
        self.basis = np.vstack([self.times(e) for e in np.eye(3, dtype=np.int64)])

    def element(self, i: int) -> tuple:
        p = self.p
        return i % p, i // p % p, i // p ** 2

    def times(self, x) -> np.ndarray:
        """The matrix of multiplication by x, from w^3 = a w + b."""
        a, b = self.a, self.b
        x0, x1, x2 = (int(c) for c in x)
        return np.array([[x0, b * x2, b * x1], [x1, x0 + a * x2, a * x1 + b * x2],
                         [x2, x1, x0 + a * x2]], dtype=np.int64) % self.p

    def inverse(self, x) -> list:
        """adj(M) e0 / det M for M = times(x)."""
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = self.times(x).tolist()
        adj = (m11 * m22 - m12 * m21, m12 * m20 - m10 * m22, m10 * m21 - m11 * m20)
        u = pow(m00 * adj[0] + m01 * adj[1] + m02 * adj[2], -1, self.p)
        return [c * u for c in adj]

    def powers(self, x, n: int) -> np.ndarray:
        """x^0, ..., x^(n - 1) as the rows of an (n, 3) array, by doubling."""
        p = self.p
        out, X = np.array([[1, 0, 0]], dtype=np.int64), self.times(x)
        while len(out) < n:
            out = np.vstack([out, out @ X.T % p])
            X = X @ X % p
        return out[:n]

    def gcd(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """A gcd of f and g by Euclid's algorithm, with g made monic before
        it divides; f is overwritten."""
        p = self.p
        while g.shape[1]:
            n = g.shape[1]
            g = self.times(self.inverse(g[:, -1])) @ g % p
            # row k is w^k g, flattened: lead(f) g is their combination
            multiples = (self.basis @ g % p).reshape(3, 3 * n)
            while f.shape[1] >= n:
                f[:, -n:] = (f[:, -n:] - (f[:, -1] @ multiples).reshape(3, n)) % p
                f = _trim_columns(f)
            f, g = g, f
        return f


def _trim_columns(f: np.ndarray) -> np.ndarray:
    nonzero = np.flatnonzero(f.any(axis=0))
    return f[:, :nonzero[-1] + 1] if len(nonzero) else f[:, :0]


def fiber_size(param: CurveParametrization, F: CubicField, t=None) -> int:
    """The size, with multiplicity, of the fiber of t -> (A : B : D) over the
    image of the point (1 : t) of P^1(F_{p^3}), or of (0 : 1) if t is None.

    With d = max(deg A, deg B, deg D) and (a0, b0, d0) the image, the fiber
    is cut out by the 2x2 minors of the matrix with rows (A, B, D) and
    (a0, b0, d0): A b0 - B a0, A d0 - D a0 and B d0 - D b0. The two that
    take a non-zero coordinate of the image span the third. The size is the
    degree of their gcd plus the multiplicity of t = infinity, the least gap
    d - deg M over the non-zero minors M (a minor of degree below d vanishes
    at infinity once homogenized to degree d).
    """
    polys = (param.A, param.B, param.D)
    d = max(P.degree for P in polys)
    rows = np.zeros((3, d + 1), dtype=np.int64)
    for row, P in zip(rows, polys):
        row[:len(P.coeffs)] = P.coeffs
    if t is None:  # the coefficients of t^d
        image = np.zeros((3, 3), dtype=np.int64)
        image[:, 0] = rows[:, d]
    else:
        image = rows @ F.powers(t, d + 1) % F.p
    j = next(j for j in range(3) if image[j].any())
    minors = [_trim_columns((np.outer(image[i], rows[j]) - np.outer(image[j], rows[i])) % F.p)
              for i in range(3) if i != j]
    minors = [M for M in minors if M.shape[1]]
    g = F.gcd(*minors) if len(minors) == 2 else minors[0]
    return g.shape[1] - 1 + min(d + 1 - M.shape[1] for M in minors)


def image_degree(param: CurveParametrization) -> int:
    """Oracle for implicitize.implicit_degree: the degree of the image curve
    of t -> (A : B : D), read off fibers of the map (the tracing index of
    Sendra, Winkler and Perez-Diaz, *Rational Algebraic Curves*, Springer
    2008). 0 for a constant map; a ValueError if A, B and D share a factor.

    The map factors as a birational map after one of degree k, and the image
    has degree d / k. Every fiber size is k times the multiplicity of the
    image point, which is 1 except at the singular points of the image. A
    rational curve of degree e has at most (e - 1)(e - 2) parameters over
    its singular points, so the map has at most (d - 1)(d - 2) parameters
    whose fiber is larger than k. The scan takes the gcd of d and the fiber
    sizes over the points of P^1(F_{p^3}): (0 : 1), the rest of P^1(F_p),
    then the other points in the order of CubicField.element. It stops when
    the gcd is 1, or after (d - 1)(d - 2) + 1 points, when the gcd is k.
    P^1(F_p) alone can fall short: at p = 5 a map of degree 2 onto a
    quartic can have all six rational fibers of size 4.
    """
    A, B, D = param.A, param.B, param.D
    d = max(A.degree, B.degree, D.degree)
    if d <= 0:
        return 0
    if A.gcd(B).gcd(D).degree > 0:
        raise ValueError("the components A, B, D share a factor")
    F = CubicField(param.p)
    k = d
    for n in range(param.p ** 3 + 1):
        k = gcd(k, fiber_size(param, F, F.element(n - 1) if n else None))
        if k == 1 or n == (d - 1) * (d - 2):
            return d // k
    raise AssertionError(f"P^1(F_{{p^3}}) has fewer than (d - 1)(d - 2) + 1 points at d = {d}")


def canonical_matrix_array(p: int) -> np.ndarray:
    """canonical_matrices(p) as an (N, 4) int64 array."""
    return np.array(list(canonical_matrices(p)), dtype=np.int64)


def _inverse_table(p: int) -> np.ndarray:
    inv = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        inv[a] = pow(a, -1, p)
    return inv


def _canonicalize(mats: np.ndarray, p: int, inv: np.ndarray) -> np.ndarray:
    a, b, c, d = mats[..., 0], mats[..., 1], mats[..., 2], mats[..., 3]
    lead = np.where(a != 0, a, np.where(b != 0, b, np.where(c != 0, c, d)))
    mult = inv[lead]
    return mats * mult[..., None] % p


def _point_permutations(mats: np.ndarray, p: int, inv: np.ndarray) -> np.ndarray:
    """perm[i, q] = index of the image of point q under matrix i, where
    point 0 is (0:1) and point 1+t is (1:t)."""
    N = mats.shape[0]
    perm = np.empty((N, p + 1), dtype=np.int64)
    a, b, c, d = mats[:, 0], mats[:, 1], mats[:, 2], mats[:, 3]
    for q in range(p + 1):
        s, t = (0, 1) if q == 0 else (1, q - 1)
        u = (s * a + t * c) % p
        v = (s * b + t * d) % p
        perm[:, q] = np.where(u != 0, v * inv[u] % p + 1, 0)
    return perm


@lru_cache(maxsize=None)
def exhaustive_projline_checks(p: int) -> dict:
    """Exhaustively verify, for every pair of classes and every point:
    the right-action law, normalize scalar-invariance, and that every
    class acts bijectively. Returns the tallies that were checked."""
    mats = canonical_matrix_array(p)
    N = mats.shape[0]
    assert N == p ** 3 - p
    inv = _inverse_table(p)

    # scalar invariance: canonical(c*M) == M for every class and scalar
    for c in range(2, p):
        assert (_canonicalize(mats * c % p, p, inv) == mats).all()

    perms = _point_permutations(mats, p, inv)
    # bijectivity: every row is a permutation of the point indices
    assert (np.sort(perms, axis=1) == np.arange(p + 1)).all()

    # right-action law over all N^2 pairs: perm(A*B) == perm(B) o perm(A)
    key_of = ((mats[:, 0] * p + mats[:, 1]) * p + mats[:, 2]) * p + mats[:, 3]
    lookup = np.full(p ** 4, -1, dtype=np.int64)
    lookup[key_of] = np.arange(N)
    chunk = max(1, (1 << 22) // (N * 4))
    for start in range(0, N, chunk):
        A = mats[start : start + chunk]
        a, b, c, d = A[:, 0, None], A[:, 1, None], A[:, 2, None], A[:, 3, None]
        e, f, g, h = mats[:, 0], mats[:, 1], mats[:, 2], mats[:, 3]
        prod = np.stack([(a * e + b * g) % p, (a * f + b * h) % p,
                         (c * e + d * g) % p, (c * f + d * h) % p], axis=-1)
        prod = _canonicalize(prod, p, inv)
        keys = ((prod[..., 0] * p + prod[..., 1]) * p + prod[..., 2]) * p + prod[..., 3]
        idx_ab = lookup[keys]
        assert (idx_ab >= 0).all()
        for i in range(A.shape[0]):
            lhs = perms[idx_ab[i]]            # perm of A_i * B for all B
            rhs = perms[:, perms[start + i]]  # apply A_i first, then B
            assert (lhs == rhs).all()
    return {"p": p, "classes": int(N), "pairs": int(N) ** 2}


@lru_cache(maxsize=None)
def seeded_random_subgroups(p: int, count: int, seed: int,
                            cap: int = 120) -> tuple[Subgroup, ...]:
    """Deterministic sample of `count` two-generator subgroups with
    closure at most `cap`."""
    line = projective_line(p)
    rng = random.Random(seed)
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        assert tries < 400 * count, "sampling budget exhausted"
        gens = []
        while len(gens) < 2:  # four rng.randrange(p) entries, redrawn while singular
            a, b, c, d = (rng.randrange(p) for _ in range(4))
            if (a * d - b * c) % p:
                gens.append(line.matrix([[a, b], [c, d]]))
        try:
            out.append(reference_closure(line, gens, cap=cap))
        except ClosureCapExceeded:
            continue
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    """Oracle for cli.parse_args: the argparse tree the CLI was built on."""
    parser = argparse.ArgumentParser(
        prog="galois-pairs",
        description="Exact engine for finite subgroups of PGL(2, F_p): "
                    "verify the bundled reference computations, check and "
                    "search subgroup pairs, and emit plane-curve "
                    "parametrizations.")
    sub = parser.add_subparsers(dest="command", required=True)

    vp = sub.add_parser("verify-paper",
                        help="re-run the bundled reference computations")
    vp.add_argument("--p", type=int, required=True,
                    help=f"characteristic, one of {PRIMES}")
    vp.add_argument("--case", choices=LABELS, default=None,
                    help="restrict the pair propositions to one case")
    vp.add_argument("--json", action="store_true", help="emit the JSON report")
    vp.set_defaults(func=_cmd_verify_paper)

    cp = sub.add_parser("check-pair", help="evaluate the pair criterion on a "
                                           "JSON pair document")
    cp.add_argument("input", help="path to the pair document")
    cp.add_argument("--all-basepoints", action="store_true",
                    help="quantify the orbit conditions over every base point")
    cp.set_defaults(func=_cmd_check_pair)

    se = sub.add_parser("search", help="search for a new certified pair")
    se.add_argument("--p", type=int, required=True)
    se.add_argument("--kind1", required=True, help="A4, S4, A5, C<n> or D<n>")
    se.add_argument("--kind2", required=True)
    se.add_argument("--strategy", choices=STRATEGIES, default="random")
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--limit", type=int, default=1000)
    se.set_defaults(func=_cmd_search)

    ec = sub.add_parser("emit-curve", help="emit a plane-curve parametrization "
                                           "for a passing pair")
    ec.add_argument("input", help="pair document or certificate JSON path")
    ec.add_argument("--out", default=None, help="also write the curve JSON here")
    ec.set_defaults(func=_cmd_emit_curve)
    return parser


def argparse_reading(argv: list[str]):
    """What build_parser() makes of argv: "help" for a help request (exit 0),
    "error" for a rejected command line (exit 2), else the parsed values."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return "help" if exc.code in (0, None) else "error"


def run_main(argv):
    """main(argv) with its stdout and stderr captured: (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()
