"""Shared exhaustive checkers and seeded samplers for the test suite."""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from galoispairs import (ClosureCapExceeded, GroupKind, Poly, ProjectiveLine,
                         ProjectiveMatrix, ProjectivePoint, RationalFunction,
                         Subgroup, generate_closure, projective_line, recognize)


def iterated_order(line: ProjectiveLine, A: ProjectiveMatrix) -> int:
    """Oracle for ProjectiveLine.element_order: compose A with itself until
    the identity class comes back."""
    M, n = A, 1
    while M != line.identity:
        M = line.compose(M, A)
        n += 1
        assert n <= line.p ** 3 - line.p, "order exceeded |PGL(2, p)|"
    return n


def scanned_elements_of_order(line: ProjectiveLine, n: int,
                              cap: int | None = None) -> list[ProjectiveMatrix]:
    """Oracle for search._order_pools: the first `cap` canonical classes of
    order n, found by scanning all of PGL(2, p) in line.matrices() order."""
    out = []
    for M in line.matrices():
        if line.element_order(M) == n:
            out.append(M)
            if len(out) == cap:
                break
    return out


def randrange_matrix_entries(rng: random.Random, p: int) -> tuple[int, ...]:
    """Oracle for search._sample_matrix: four rng.randrange(p) entries,
    redrawn while singular, as drawn."""
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            return a, b, c, d


def randrange_sample_matrix(rng: random.Random,
                            line: ProjectiveLine) -> ProjectiveMatrix:
    """randrange_matrix_entries in canonical form."""
    a, b, c, d = randrange_matrix_entries(rng, line.p)
    return line.matrix([[a, b], [c, d]])


def randrange_sample_subgroup(rng: random.Random, line: ProjectiveLine,
                              kind: GroupKind) -> Subgroup | None:
    """Oracle for search._sample_subgroup: one canonical generator for a
    cyclic kind and two otherwise, closed under cap |kind| and kept only if
    recognized as `kind`.

    The order screen is left out. It is sound (a tuple it rejects would
    exceed the cap or be recognized as another kind), so it changes no
    result, and without it this oracle depends neither on search._orders_fit
    nor on element orders of non-canonical matrices.
    """
    n_gens = 1 if kind.family == "C" else 2
    gens = [randrange_sample_matrix(rng, line) for _ in range(n_gens)]
    try:
        G = generate_closure(line, gens, cap=kind.order)
    except ClosureCapExceeded:
        return None
    return G if recognize(G) == kind else None


def trivial_subgroup(line: ProjectiveLine) -> Subgroup:
    return Subgroup(line, (line.identity,), frozenset({line.identity}))


def stabilizer(G: Subgroup, Q: ProjectivePoint) -> Subgroup:
    """{A in G : Q·A = Q}; satisfies |orbit| * |stabilizer| = |G|."""
    line = G.line
    els = frozenset(A for A in G.elements if line.apply(Q, A) == Q)
    return Subgroup(line, tuple(sorted(els)), els)


def compose_frac(P: Poly, m: int, abcd: tuple) -> Poly:
    """(a + c t)**m * P((b + d t)/(a + c t)) for m >= deg P.

    This is the cleared substitution matching the row action, where
    the matrix [[a,b],[c,d]] moves the affine coordinate t of (1:t)
    to (b + d t)/(a + c t).
    """
    f = P.field
    if m < P.degree:
        raise ValueError("clearing exponent below degree")
    a, b, c, d = abcd
    num = Poly(f, [b, d])
    den = Poly(f, [a, c])
    den_pows = [Poly.const(f, 1)]
    for _ in range(m):
        den_pows.append(den_pows[-1] * den)
    coeffs = list(P.coeffs) + [0] * (m + 1 - len(P.coeffs))
    acc = Poly.const(f, coeffs[m])
    for k in range(m - 1, -1, -1):
        acc = acc * num + Poly.const(f, coeffs[k]) * den_pows[m - k]
    return acc


def vanishing_poly(field, roots) -> Poly:
    """Oracle for the denominator check of quotient.moebius_adjust: the
    monic polynomial with the given simple roots, one linear factor at a
    time."""
    out = Poly.const(field, 1)
    for t in roots:
        out = out * Poly(field, [-t, 1])
    return out


def is_invariant_under(f: RationalFunction, M: ProjectiveMatrix) -> bool:
    """Exact identity f((b+dt)/(a+ct)) == f(t) after clearing (a+ct)^deg."""
    m = f.degree
    num_sub = compose_frac(f.num, m, M)
    den_sub = compose_frac(f.den, m, M)
    return num_sub * f.den == f.num * den_sub


def expanded_orbit_product(G: Subgroup) -> list[Poly]:
    """Oracle for quotient._orbit_product: prod_{g in G} (D_g X - N_g)
    expanded one linear factor at a time, O(|G|^3) coefficient operations."""
    line = G.line
    field = line.field
    # cleared product prod (D_g X - N_g) with N_g = b + d t, D_g = a + c t:
    # coeffs[i] is the t-polynomial multiplying X^i
    p = line.p
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
    return [Poly(field, row) for row in coeffs]


def canonical_matrix_array(p: int) -> np.ndarray:
    """All canonical PGL(2, F_p) classes as an (N, 4) int64 array, in the
    same lexicographic order as ProjectiveLine.matrices()."""
    rows = []
    for c in range(1, p):
        for d in range(p):
            rows.append((0, 1, c, d))
    for b in range(p):
        for c in range(p):
            for d in range(p):
                if d != b * c % p:
                    rows.append((1, b, c, d))
    return np.array(rows, dtype=np.int64)


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
        gens = [randrange_sample_matrix(rng, line) for _ in range(2)]
        try:
            out.append(generate_closure(line, gens, cap=cap))
        except ClosureCapExceeded:
            continue
    return tuple(out)
