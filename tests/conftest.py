"""Shared exhaustive checkers and seeded samplers for the test suite."""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from galoispairs import (ClosureCapExceeded, ProjectiveLine, ProjectiveMatrix,
                         Subgroup, generate_closure, projective_line)


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
        gens = []
        while len(gens) < 2:
            a, b, c, d = (rng.randrange(p) for _ in range(4))
            if (a * d - b * c) % p:
                gens.append(line.matrix([[a, b], [c, d]]))
        try:
            out.append(generate_closure(line, gens, cap=cap))
        except ClosureCapExceeded:
            continue
    return tuple(out)
