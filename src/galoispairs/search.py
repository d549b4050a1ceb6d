"""Discovery of new certified pairs: scalar-conjugate sweeps, seeded random
generator search, and deterministic scans for regular cyclic subgroups of
order p+1.

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
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .criterion import PairCertificate, check_pair_all_basepoints
from .errors import ClosureCapExceeded, NotFound
from .projline import ProjectiveLine, ProjectiveMatrix, projective_line
from .subgroups import (GroupKind, Subgroup, generate_closure, intersect,
                        orbit, recognize)

STRATEGIES = ("scaling", "random", "exhaustive-cyclic")


@dataclass(frozen=True)
class SearchConfig:
    """Validated search parameters; limit counts candidate generator tuples."""

    p: int
    kind1: GroupKind
    kind2: GroupKind
    strategy: str = "random"
    seed: int = 0
    limit: int = 1000

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError("limit must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.kind1.order != self.kind2.order:
            raise ValueError(
                f"kinds must share one group order, got {self.kind1} vs {self.kind2}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


def find_scaling_conjugates(G: Subgroup) -> list[int]:
    """All scalars c in F_p \\ {0, 1} whose diagonal conjugate diag(c,1)
    intersects G trivially.

    For regular transitive G each such conjugate H certifies a pair: H is
    transitive too (it is conjugate to G), so its orbit of any base point
    is all of P^1(F_p), equal to G's, and check_pair(G, H) passes.
    Deterministic ascending sweep; an empty list is a valid result.
    """
    if len(G) < 2:
        raise ValueError("need |G| >= 2")
    return [c for c in range(2, G.line.p)
            if len(intersect(G, _diagonal_conjugate(G, c))) == 1]


def _diagonal_conjugate(G: Subgroup, c: int) -> Subgroup:
    """conjugate(G, diag(c, 1)) in closed form.

    Conjugating (a, b, x, d) by diag(c, 1) gives (a, b/c, xc, d). A
    canonical class with a = 1 stays canonical; one with a = 0 has b = 1,
    and rescaling by c makes it canonical again: (0, 1, xc^2, dc).
    """
    line = G.line
    p = line.p
    c_inv = pow(c, -1, p)
    c_sq = c * c % p

    def conj(M):
        a, b, x, d = M
        if a:
            return ProjectiveMatrix(a, b * c_inv % p, x * c % p, d)
        return ProjectiveMatrix(0, 1, x * c_sq % p, d * c % p)

    return Subgroup(line, tuple(conj(line.matrix(A)) for A in G.generators),
                    frozenset(map(conj, G.elements)))


def find_cyclic_regular(line: ProjectiveLine | int) -> Subgroup:
    """First cyclic subgroup of order p+1 in scan order; it acts regularly.

    Scans canonical matrices lexicographically for an element of order p+1;
    transitivity is asserted, never assumed.
    """
    if isinstance(line, int):
        line = projective_line(line)
    target = line.p + 1
    full = frozenset(line.points())
    for M in line.matrices():
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
                gens: Sequence[ProjectiveMatrix]) -> bool:
    """False when <gens> cannot be a group of `kind`, judged from element
    orders alone, before any closure.

    One generator g spans a cyclic group of order ord(g). For a pair
    (g, h), the orders of g, h, gh, gh^-1, gh^2 and g^2h must all lie in
    kind.element_orders. Sound: every element of a group of that kind has
    an order in that set, so a rejected tuple would have failed at the
    closure cap or at recognize.
    """
    order = line.element_order
    if len(gens) == 1:
        return kind.family == "C" and order(gens[0]) == kind.order
    allowed = kind.element_orders
    g, h = gens
    if order(g) not in allowed or order(h) not in allowed:
        return False
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
    put in canonical form, screened by word orders (_orders_fit), closed
    and recognized.
    """
    p = line.p
    order = line.element_order
    g = _sample_matrix(bits, k, p)
    if kind.family == "C":
        if order(g) != kind.order:
            return None
        draws = (g,)
    else:
        h = _sample_matrix(bits, k, p)
        allowed = kind.element_orders
        if order(g) not in allowed or order(h) not in allowed:
            return None
        draws = (g, h)
    gens = [line.matrix(ProjectiveMatrix._make(m)) for m in draws]
    if not _orders_fit(line, kind, gens):
        return None
    try:
        G = generate_closure(line, gens, cap=kind.order)
    except ClosureCapExceeded:
        return None
    if recognize(G) != kind:
        return None
    return G


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
    in line.matrices() order.

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
        """(s, b, c, m) for each prefix, in line.matrices() order."""
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
    result. The other side is built from generators of the orders in its
    profiles (_order_profiles): one pool per order, in line.matrices()
    order and solved per tau class (_order_pools), paired by a diagonal
    sweep. A pair whose word orders rule the kind out (_orders_fit) is
    dropped before any closure. Every generator tuple tried counts against
    the limit, screened-out ones included.
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

    def finish(G_other):
        pair = (Gc, G_other) if swap else (G_other, Gc)
        cert = check_pair_all_basepoints(*pair)
        return cert if cert.verdict == "pass" else None

    if other == cyclic_kind:
        # second regular cyclic subgroup, different from the first
        for M in _order_pools(line, [n], cap=cfg.limit)[n]:
            H = generate_closure(line, [M], cap=n)
            if H.elements == Gc.elements:
                continue
            cert = finish(H)
            if cert:
                return cert
        return None

    profiles = _order_profiles(other)
    pools = _order_pools(line, {o for profile in profiles for o in profile},
                         cap=4 * cfg.limit)
    spent = 0
    for profile in profiles:
        pool_a, pool_b = pools[profile[0]], pools[profile[1]]
        # diagonal sweep so early candidates mix both pools
        for total in range(len(pool_a) + len(pool_b) - 1):
            for i in range(min(total + 1, len(pool_a))):
                j = total - i
                if j >= len(pool_b):
                    continue
                if spent >= cfg.limit:
                    return None
                spent += 1
                gens = (pool_a[i], pool_b[j])
                if not _orders_fit(line, other, gens):
                    continue
                try:
                    G = generate_closure(line, gens, cap=other.order)
                except ClosureCapExceeded:
                    continue
                if recognize(G) != other:
                    continue
                cert = finish(G)
                if cert:
                    return cert
    return None


def scaling_pair_search(cfg: SearchConfig) -> PairCertificate | None:
    """Conjugate a seeded base group of kind1 by diag(c,1) scalars.

    kind1 must equal kind2 (conjugation preserves the type). The base group
    comes from the bundled cases when one matches, otherwise from the
    seeded sampler; candidates are the p-2 scalars, in ascending order.
    """
    if cfg.kind1 != cfg.kind2:
        raise ValueError("scaling strategy needs kind1 == kind2")
    line = projective_line(cfg.p)
    G = _base_group(cfg, line)
    if G is None:
        return None
    spent = 0
    for c in range(2, line.p):
        if spent >= cfg.limit:
            return None
        spent += 1
        H = _diagonal_conjugate(G, c)
        cert = check_pair_all_basepoints(G, H)
        if cert.verdict == "pass":
            return cert
    return None


def _base_group(cfg: SearchConfig, line: ProjectiveLine) -> Subgroup | None:
    from .cases import PRIMES, case_subgroups, load_case

    if cfg.p in PRIMES:
        for label in ("a", "b", "c"):
            case = load_case(cfg.p, label)
            for which, kind in ((0, case.expected_kind1), (1, case.expected_kind2)):
                if kind == cfg.kind1:
                    return case_subgroups(cfg.p, label)[which]
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
