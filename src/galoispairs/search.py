"""Discovery of new certified pairs: diagonal conjugates screened by
conjugation invariants, seeded random generator search, and deterministic
scans for regular cyclic subgroups of order p+1.

Everything here is reproducible: scans run in a fixed order and random
sampling is driven by an explicit 64-bit seed. The sampler must consume
exactly the stream that random.Random.randrange(p) draws for each matrix
entry, so that a seed keeps its output across versions of this module.

The random sampler draws plain (a, b, c, d) tuples, with getrandbits, k =
p.bit_length() and p bound once per search, and screens their element
orders before any canonical form, ProjectiveMatrix or closure is built:
almost every tick is rejected there. Drawing words in blocks
(getrandbits(32 * n) split by struct.unpack) keeps the stream exact but
is slower under CPython 3.11 on x86-64: decoding 102,400 words took
10.1 ms where 20k inline draws took 6.7 ms.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Callable, Iterable, Sequence

from .criterion import PairCertificate, check_pair_all_basepoints
from .errors import ClosureCapExceeded, NotFound
from .projline import ProjectiveLine, ProjectiveMatrix, projective_line
from .subgroups import (GroupKind, Subgroup, generate_closure, orbit,
                        recognize)

STRATEGIES = ("scaling", "random", "exhaustive-cyclic")


class SearchConfig:
    """Validated search parameters: p must be prime, and limit counts
    candidate generator tuples."""

    __slots__ = ("p", "kind1", "kind2", "strategy", "seed", "limit")

    def __init__(self, p: int, kind1: GroupKind, kind2: GroupKind,
                 strategy: str = "random", seed: int = 0, limit: int = 1000):
        try:
            projective_line(p)  # raises ValueError unless p is prime
        except ValueError:
            raise ValueError(f"p={p} is not prime") from None
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if kind1.order != kind2.order:
            raise ValueError(
                f"kinds must share one group order, got {kind1} vs {kind2}")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        self.p = p
        self.kind1 = kind1
        self.kind2 = kind2
        self.strategy = strategy
        self.seed = seed
        self.limit = limit


def find_scaling_conjugates(G: Subgroup) -> list[int]:
    """All scalars c in F_p \\ {0, 1} whose diagonal conjugate diag(c,1)
    intersects G trivially, in ascending order; [] is a valid result.

    For regular transitive G each such conjugate H certifies a pair: H is
    transitive too (it is conjugate to G), so its orbit of any base point
    is all of P^1(F_p), equal to G's, and check_pair(G, H) passes.

    c is rejected iff conj_c(M) = N for some M != I and N in G, where
    conj_c is conjugation by diag(c, 1) on canonical classes
    (_diagonal_conjugator). conj_c keeps these invariants of (a, b, x, d):
      a = 1, to (1, b/c, xc, d): d, bx, and which of b, x is zero;
      a = 0, to (0, 1, xc^2, dc): whether d = 0 and, if d != 0, x/d^2
      (x != 0 always, as the determinant is -x).
    So M and N lie in one bucket of equal invariants. Each element also
    has a scale coordinate u that conj_c multiplies by c: x when a = 1
    and x != 0, 1/b when a = 1 and x = 0, and d when a = 0 and d != 0.
    So each pair (M, N) pins c to one scalar, u_N/u_M, which is checked
    by applying conj_c(M) == N; c = 1 is never a candidate. Two classes
    need no pair:
      a non-identity diagonal (1, 0, 0, d) commutes with every diag(c, 1),
      so then no c is returned;
      an involution (0, 1, x, 0) goes to (0, 1, xc^2, 0), so c = -1 fixes
      it, and it pins no other c: a second one, (0, 1, x', 0), would make
      the diagonal (1, 0, 0, x/x') with it.
    The cost is O(|G| + sum of squared bucket sizes + p) instead of one
    conjugate of G per scalar.
    """
    if len(G) < 2:
        raise ValueError("need |G| >= 2")
    p = G.line.p
    bad = set()
    # invariants -> [(M, u, 1/u)]
    buckets: dict[tuple, list[tuple[ProjectiveMatrix, int, int]]] = {}
    for M in G.elements:
        a, b, x, d = M
        if a:
            if x:
                u, u_inv = x, pow(x, -1, p)
            elif b:
                u, u_inv = pow(b, -1, p), b
            elif d != 1:  # a diagonal M != I meets every conjugate
                return []
            else:
                continue  # the identity
            key = (1, d, b * x % p, b == 0, x == 0)
        elif d:
            u, u_inv = d, pow(d, -1, p)
            key = (0, x * u_inv * u_inv % p)
        else:
            bad.add(p - 1)  # the involution (0, 1, x, 0)
            continue
        buckets.setdefault(key, []).append((M, u, u_inv))
    for bucket in buckets.values():
        for M, _, u_inv in bucket:
            for N, u, _ in bucket:
                c = u * u_inv % p
                if c != 1 and c not in bad and _diagonal_conjugator(p, c)(M) == N:
                    bad.add(c)
    return [c for c in range(2, p) if c not in bad]


def _diagonal_conjugator(p: int, c: int) -> Callable[[ProjectiveMatrix],
                                                      ProjectiveMatrix]:
    """conj_c: a canonical class M to the canonical class of
    diag(c, 1)^-1 M diag(c, 1), in closed form.

    Conjugating (a, b, x, d) by diag(c, 1) gives (a, b/c, xc, d). A
    canonical class with a = 1 stays canonical; one with a = 0 has b = 1,
    and rescaling by c makes it canonical again: (0, 1, xc^2, dc).
    """
    c_inv = pow(c, -1, p)
    c_sq = c * c % p

    def conj(M):
        a, b, x, d = M
        if a:
            return ProjectiveMatrix(a, b * c_inv % p, x * c % p, d)
        return ProjectiveMatrix(0, 1, x * c_sq % p, d * c % p)

    return conj


def _diagonal_conjugate(G: Subgroup, c: int) -> Subgroup:
    """conjugate(G, diag(c, 1)) in closed form (_diagonal_conjugator)."""
    line = G.line
    conj = _diagonal_conjugator(line.p, c)
    return Subgroup(line, tuple(conj(line.matrix(A)) for A in G.generators),
                    frozenset(map(conj, G.elements)))


def find_cyclic_regular(line: ProjectiveLine | int) -> Subgroup:
    """First cyclic subgroup of order p+1 in scan order; it acts regularly.

    Scans the classes (0, 1, c, d) lexicographically for an element of order
    p+1; transitivity is asserted, never assumed. They are the first block
    of lexicographic canonical order, and the first class of order p+1 lies
    in it: a non-identity class has the order of its tau = tr^2/det
    (ProjectiveLine.element_order), the block's tau = -d^2/c takes every
    nonzero value (d = 1, c = -1/tau), and tau = 0 has order 2 < p+1.
    """
    if isinstance(line, int):
        line = projective_line(line)
    target = line.p + 1
    full = frozenset(line.points())
    for c in range(1, line.p):
        for d in range(line.p):
            M = ProjectiveMatrix(0, 1, c, d)
            if line.element_order(M) == target:
                G = generate_closure(line, [M], cap=target)
                if orbit(G, line.points()[0]) == full:
                    return G
    raise NotFound(f"no regular cyclic subgroup of order {target} found (p={line.p})")


def _sample_matrix(bits: Callable[[int], int], k: int,
                   p: int) -> tuple[int, int, int, int]:
    """A uniform nonsingular matrix as drawn: a plain (a, b, c, d) tuple,
    not in canonical form.

    bits is the seeded generator's getrandbits and k = p.bit_length(), both
    bound once per search. Each entry is rng.randrange(p) inlined:
    bits(k) redrawn while it is >= p, so the stream is the one randrange
    consumes. Singular tuples are redrawn whole. The four entries are
    unrolled; a loop over them costs about a third of the draw.
    """
    while True:
        a = bits(k)
        while a >= p:
            a = bits(k)
        b = bits(k)
        while b >= p:
            b = bits(k)
        c = bits(k)
        while c >= p:
            c = bits(k)
        d = bits(k)
        while d >= p:
            d = bits(k)
        if (a * d - b * c) % p:
            return a, b, c, d


def _orders_fit(line: ProjectiveLine, kind: GroupKind,
                g: ProjectiveMatrix, h: ProjectiveMatrix) -> bool:
    """False when <g, h> cannot be a group of `kind`, judged from the
    orders of four words, before any closure.

    The orders of gh, gh^-1, gh^2 and g^2h must all lie in
    kind.element_orders. Sound: every element of a group of that kind has
    an order in that set, so a rejected pair would have failed at the
    closure cap or at recognize. Its one caller, _group_of_kind, is handed
    g and h of screened orders.
    """
    order = line.element_order
    allowed = kind.element_orders
    compose = line.compose

    def words():
        gh = compose(g, h)
        yield gh
        yield compose(g, line.inverse(h))
        yield compose(gh, h)
        yield compose(g, gh)

    return all(order(w) in allowed for w in words())


def _sample_subgroup(bits: Callable[[int], int], k: int, line: ProjectiveLine,
                     kind: GroupKind) -> Subgroup | None:
    """One candidate subgroup of the requested kind, or None on mismatch.

    Draws one generator for a cyclic kind and two otherwise, as raw tuples
    (_sample_matrix with the search's bits and k). All draws are made
    before any screen, so the seeded stream does not depend on it. The
    first screen reads the orders of the raw draws (element orders do not
    depend on the representative) and rejects almost every tick for the
    cost of its draws and one or two order lookups. Only the survivors are
    put in canonical form and handed to _group_of_kind.
    """
    p = line.p
    order = line.element_order
    g = _sample_matrix(bits, k, p)
    if kind.family == "C":
        if order(g) != kind.order:
            return None
        raw = (g,)
    else:
        h = _sample_matrix(bits, k, p)
        allowed = kind.element_orders
        if order(g) not in allowed or order(h) not in allowed:
            return None
        raw = (g, h)
    gens = [line.matrix(ProjectiveMatrix._make(m)) for m in raw]
    return _group_of_kind(line, gens, kind)


def _group_of_kind(line: ProjectiveLine, gens: Sequence[ProjectiveMatrix],
                   kind: GroupKind) -> Subgroup | None:
    """<gens> if it is a group of `kind`, else None: a pair is screened by
    word orders (_orders_fit), then the closure is capped at |kind| and
    recognized."""
    if len(gens) == 2 and not _orders_fit(line, kind, *gens):
        return None
    try:
        G = generate_closure(line, gens, cap=kind.order)
    except ClosureCapExceeded:
        return None
    return G if recognize(G) == kind else None


def random_pair_search(cfg: SearchConfig) -> PairCertificate | None:
    """Seeded random search; returns the first passing certificate or None.

    Identical configs give identical output: sampling is strictly
    sequential from one seeded generator, one candidate per limit tick.
    """
    line = projective_line(cfg.p)
    bits = random.Random(cfg.seed).getrandbits
    k = line.p.bit_length()
    for _ in range(cfg.limit):
        G1 = _sample_subgroup(bits, k, line, cfg.kind1)
        if G1 is None:
            continue
        G2 = _sample_subgroup(bits, k, line, cfg.kind2)
        if G2 is None:
            continue
        cert = check_pair_all_basepoints(G1, G2)
        if cert.verdict == "pass":
            return cert
    return None


def _order_profiles(kind: GroupKind) -> list[tuple[int, ...]]:
    """Generator order signatures used by the deterministic enumeration."""
    if kind.family == "C":
        return [(kind.order,)]
    if kind.family == "D":
        return [(2, kind.order // 2)]
    if kind.family == "A4":
        return [(2, 3)]
    if kind.family == "S4":
        return [(2, 3), (2, 4)]
    if kind.family == "A5":
        return [(2, 3), (2, 5)]
    raise ValueError(f"cannot enumerate generators for kind {kind}")


def _order_pools(line: ProjectiveLine, orders: Iterable[int],
                 cap: int) -> dict[int, list[ProjectiveMatrix]]:
    """For each n in `orders`, the first `cap` canonical classes of order n,
    in lexicographic (a, b, c, d) order.

    The classes are solved for, not scanned. A non-identity class has the
    order of its tau = tr^2/det (ProjectiveLine.element_order), so one
    companion matrix per tau gives the set T_n of tau values of order n.
    Canonical classes are (s, b, c, d) with prefix (0, 1, c) or (1, b, c);
    for a fixed prefix, tr^2 = tau * det reads
        d^2 + s(2 - tau) d + s + tau m = 0,
    with m = c when s = 0 and m = bc when s = 1 (where d = bc is
    singular). Walking the prefixes in order and emitting each prefix's
    roots d in ascending order costs O(p^2 |T_n|) instead of O(p^3).
    """
    p = line.p
    pools = {n: [] for n in orders}
    if 1 in pools:  # the identity is the only class of order 1
        pools[1] = [line.identity][:cap]
    # companion matrix of x^2 - x + 1/tau, and (0, 1, -1, 0) for tau = 0
    tau_order = [line.element_order(ProjectiveMatrix(0, 1, -pow(t, -1, p) % p, 1)
                                    if t else ProjectiveMatrix(0, 1, p - 1, 0))
                 for t in range(p)]
    taus_of = {n: [t for t in range(p) if tau_order[t] == n] for n in pools if n != 1}
    open_taus = {n: ts for n, ts in taus_of.items() if ts}  # pools still filling
    sqrt = [None] * p
    for r in range(p):
        sqrt[r * r % p] = r
    half = (p + 1) // 2

    def roots(B, C):
        """The roots d of d^2 + B d + C."""
        if p == 2:  # no 1/2 in F_2; try both residues
            return [d for d in (0, 1) if (d * d + B * d + C) % 2 == 0]
        r = sqrt[(B * B - 4 * C) % p]
        if r is None:
            return ()
        return {(r - B) * half % p, (-r - B) * half % p}

    def prefixes():
        """(s, b, c, m) for each prefix, in lexicographic order."""
        for c in range(1, p):
            yield 0, 1, c, c
        for b in range(p):
            for c in range(p):
                yield 1, b, c, b * c % p

    for s, b, c, m in prefixes():
        for n, taus in list(open_taus.items()):
            found = sorted(d for t in taus for d in roots(s * (2 - t), s + t * m)
                           if not (s and d == m))
            pool = pools[n]
            for d in found:
                M = ProjectiveMatrix(s, b, c, d)
                if M != line.identity:
                    pool.append(M)
                    if len(pool) == cap:
                        del open_taus[n]
                        break
        if not open_taus:
            break
    return pools


def exhaustive_cyclic_search(cfg: SearchConfig) -> PairCertificate | None:
    """Deterministic search anchored on the regular cyclic subgroup.

    One target kind must be C(p+1): that side is the Singer-cycle scan
    result Gc. The other side is built from generators of the orders in its
    profiles (_order_profiles): one pool per order, in lexicographic
    canonical order and solved per tau class (_order_pools). A one-order
    profile gives single generators; a two-order one is paired by a
    diagonal sweep (ascending i + j, then i) so that early tuples mix both
    pools. Each tuple goes to _group_of_kind, and a group equal to Gc is
    skipped. Every tuple tried counts against the limit L, screened-out
    ones included.

    Pools capped at L give the same first L tuples as larger pools: before
    (i, j) the sweep yields every (i', j') <= (i, j), so at least max(i, j)
    tuples come first. So among the first L tuples no index reaches L, and
    a later profile only has a smaller budget left. And _order_pools with
    cap L returns a prefix of its pools under any larger cap.
    """
    line = projective_line(cfg.p)
    n = line.p + 1
    cyclic_kind = GroupKind.cyclic(n)
    if cfg.kind1 != cyclic_kind and cfg.kind2 != cyclic_kind:
        raise ValueError("exhaustive-cyclic needs one kind equal to "
                         f"C{n} at p={cfg.p}")
    swap = cfg.kind1 == cyclic_kind and cfg.kind2 != cyclic_kind
    other = cfg.kind2 if swap else cfg.kind1
    Gc = find_cyclic_regular(line)
    profiles = _order_profiles(other)
    pools = _order_pools(line, {o for profile in profiles for o in profile},
                         cap=cfg.limit)

    def tuples():
        for profile in profiles:
            if len(profile) == 1:
                yield from ((M,) for M in pools[profile[0]])
                continue
            a, b = (pools[o] for o in profile)
            for total in range(len(a) + len(b) - 1):
                for i in range(max(0, total + 1 - len(b)), min(total + 1, len(a))):
                    yield a[i], b[total - i]

    for gens in islice(tuples(), cfg.limit):
        G = _group_of_kind(line, gens, other)
        if G is None or G.elements == Gc.elements:
            continue
        cert = check_pair_all_basepoints(*((Gc, G) if swap else (G, Gc)))
        if cert.verdict == "pass":
            return cert
    return None


def scaling_pair_search(cfg: SearchConfig) -> PairCertificate | None:
    """Conjugate a seeded base group of kind1 by diag(c,1) scalars.

    kind1 must equal kind2 (conjugation preserves the type). The base group
    comes from the bundled cases when one matches, otherwise from the
    seeded sampler. Candidates are the p-2 scalars c = 2, ..., p-1 in
    ascending order, each counting against the limit; only those that
    find_scaling_conjugates returns are checked, since every other one
    fails with "intersection not trivial". A trivial base group has no
    scalar that passes: its conjugates equal it.
    """
    if cfg.kind1 != cfg.kind2:
        raise ValueError("scaling strategy needs kind1 == kind2")
    line = projective_line(cfg.p)
    G = _base_group(cfg, line)
    if G is None or len(G) < 2:
        return None
    for c in find_scaling_conjugates(G):
        if c > cfg.limit + 1:  # the limit counts c = 2, 3, ... in turn
            return None
        cert = check_pair_all_basepoints(G, _diagonal_conjugate(G, c))
        if cert.verdict == "pass":
            return cert
    return None


def _base_group(cfg: SearchConfig, line: ProjectiveLine) -> Subgroup | None:
    from .cases import PRIMES, prime_table

    if cfg.p in PRIMES:
        for G in prime_table(cfg.p)["groups"]:
            if recognize(G) == cfg.kind1:
                return G
    if cfg.kind1 == GroupKind.cyclic(line.p + 1):
        return find_cyclic_regular(line)
    bits = random.Random(cfg.seed).getrandbits
    k = line.p.bit_length()
    for _ in range(cfg.limit):
        G = _sample_subgroup(bits, k, line, cfg.kind1)
        if G is not None:
            return G
    return None


def run_search(cfg: SearchConfig) -> PairCertificate | None:
    """Dispatch on cfg.strategy."""
    if cfg.strategy == "random":
        return random_pair_search(cfg)
    if cfg.strategy == "exhaustive-cyclic":
        return exhaustive_cyclic_search(cfg)
    return scaling_pair_search(cfg)
