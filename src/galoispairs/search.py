"""Discovery of new certified pairs: scalar-conjugate sweeps, seeded random
generator search, and deterministic scans for regular cyclic subgroups of
order p+1.

Everything here is reproducible: scans run in a fixed order and random
sampling is driven by an explicit 64-bit seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .criterion import (PairCertificate, check_pair, check_pair_all_basepoints)
from .errors import ClosureCapExceeded, NotFound
from .projline import ProjectiveLine, ProjectiveMatrix, projective_line
from .subgroups import (GroupKind, Subgroup, conjugate, generate_closure,
                        intersect, orbit, recognize)

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
    intersects G trivially (and, for regular transitive G, certifies a pair).

    Deterministic ascending sweep; an empty list is a valid result.
    """
    if len(G) < 2:
        raise ValueError("need |G| >= 2")
    line = G.line
    base = line.points()[0]
    regular = (len(G) == line.p + 1
               and orbit(G, base) == frozenset(line.points()))
    out = []
    for c in range(2, line.p):
        H = conjugate(G, line.matrix([[c, 0], [0, 1]]))
        if len(intersect(G, H)) != 1:
            continue
        if regular and check_pair(G, H, base).verdict != "pass":
            continue
        out.append(c)
    return out


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


def _sample_matrix(rng: random.Random, line: ProjectiveLine) -> ProjectiveMatrix:
    p = line.p
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            return line.matrix([[a, b], [c, d]])


def _sample_subgroup(rng: random.Random, line: ProjectiveLine,
                     kind: GroupKind) -> Subgroup | None:
    """One candidate subgroup of the requested kind, or None on mismatch."""
    n_gens = 1 if kind.family == "C" else 2
    gens = [_sample_matrix(rng, line) for _ in range(n_gens)]
    # Lagrange: a generator whose order does not divide |kind| cannot lie
    # in a group of that kind (all draws are made first, so the seeded
    # stream is the same with or without this screen)
    if any(kind.order % line.element_order(g) for g in gens):
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
    rng = random.Random(cfg.seed)
    line = projective_line(cfg.p)
    for _ in range(cfg.limit):
        G1 = _sample_subgroup(rng, line, cfg.kind1)
        if G1 is None:
            continue
        G2 = _sample_subgroup(rng, line, cfg.kind2)
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


def _elements_of_order(line: ProjectiveLine, n: int, cap: int):
    """First `cap` canonical matrices of exact order n, scan order."""
    out = []
    for M in line.matrices():
        if line.element_order(M) == n:
            out.append(M)
            if len(out) >= cap:
                break
    return out


def exhaustive_cyclic_search(cfg: SearchConfig) -> PairCertificate | None:
    """Deterministic search anchored on the regular cyclic subgroup.

    One target kind must be C(p+1): that side is the Singer-cycle scan
    result; the other side is enumerated by generator order profiles.
    Every generator tuple tried counts against the limit.
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
    spent = 0

    def finish(G_other):
        pair = (Gc, G_other) if swap else (G_other, Gc)
        cert = check_pair_all_basepoints(*pair)
        return cert if cert.verdict == "pass" else None

    if other == cyclic_kind:
        # second regular cyclic subgroup, different from the first
        for M in line.matrices():
            if spent >= cfg.limit:
                return None
            if line.element_order(M) != n:
                continue
            spent += 1
            H = generate_closure(line, [M], cap=n)
            if H.elements == Gc.elements:
                continue
            cert = finish(H)
            if cert:
                return cert
        return None

    pools = {}
    for profile in _order_profiles(other):
        for o in profile:
            if o not in pools:
                pools[o] = _elements_of_order(line, o, cap=4 * cfg.limit)
    for profile in _order_profiles(other):
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
                try:
                    G = generate_closure(line, [pool_a[i], pool_b[j]],
                                         cap=other.order)
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
    base = line.points()[0]
    spent = 0
    for c in range(2, line.p):
        if spent >= cfg.limit:
            return None
        spent += 1
        H = conjugate(G, line.matrix([[c, 0], [0, 1]]))
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
    rng = random.Random(cfg.seed)
    for _ in range(cfg.limit):
        G = _sample_subgroup(rng, line, cfg.kind1)
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
