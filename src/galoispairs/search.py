"""Discovery of new certified pairs from their kinds alone.

Every strategy runs one engine, the B walk. B is the stabilizer of (0:1):
the p(p - 1) classes b = (α, β, 0, 1) with α != 0, numbered i = (α - 1)p + β.
The walk conjugates G2 by elements b of B and returns the first pair
(G1, b^-1 G2 b) that passes check_pair_all_basepoints. The strategies are
three visiting orders of B:
  exhaustive-cyclic walks B in (α, β) order, and `limit` counts the
  elements visited;
  random draws b uniformly from random.Random(seed), repeats allowed, and
  `limit` counts the draws;
  scaling visits the diagonals diag(c, 1) = (c, 0, 0, 1) for
  c = 2, ..., p - 1 in turn, and `limit` counts the scalars visited.
Every strategy builds its groups from the kinds alone: G1 is the
transitive group of kind1 and G2 the one of kind2 (_transitive_group), so
scaling, which needs kind1 = kind2, walks from G1 = G2. No visit is
screened: G1 = G2 is regular of order p + 1, so a diagonal conjugate
passes if and only if it meets G1 trivially, and check_pair_all_basepoints
rejects the others itself.

Why B suffices. For transitive G1, PGL(2, p) = B·G1: an x sends (0:1) to
(0:1)·g for some g in G1, so x g^-1 fixes (0:1). For x = bg, the pair
(G1, x^-1 G2 x) is (G1, b^-1 G2 b) conjugated by g, and conjugation keeps
every verdict. So the walk meets every conjugate of G2 up to simultaneous
conjugation by G1, and walking all of B proves that no conjugate of G2
pairs with G1.

The order lemma. A pair passes check_pair_all_basepoints with
d = |G1| >= 1 only if d = p + 1, so a kind of another order finds none at
once. Every G1-orbit O has length d and is a G2-orbit, so H = <G1, G2>
keeps O, and H has at least |G1 G2| = d^2 elements, as G1 ∩ G2 = 1.
  p ∤ |H|: H is transitive on O, so the stabilizer H_Q of a point Q of O
  has at least d elements. It is a p'-subgroup of a Borel subgroup, so it
  is cyclic, fixes Q and one more point Q', and acts semiregularly on the
  other points, with orbits of length |H_Q| >= d. O \\ {Q} is H_Q-stable
  and has d - 1 points, so O \\ {Q} ⊆ {Q'} and d <= 2.
  p | |H|: an element of order p fixes one point and cycles the other p,
  and O is a union of its orbits, so d is 1, p or p + 1. Orbits of length
  p cannot tile the p + 1 points, so d != p.
  d <= 2: d = 1 makes G1 = G2 = 1. For d = 2, G1 = <σ> and G2 = <τ> swap
  the same pairs of points, at least two of them, and two swapped pairs fix
  an involution, so σ = τ. Either way the groups are equal.
"""

from __future__ import annotations

import random

from .criterion import PairCertificate, check_pair_all_basepoints
from .projline import ProjectiveLine, ProjectiveMatrix, projective_line
from .subgroups import GroupKind, Subgroup, conjugate, generate_closure

STRATEGIES = ("scaling", "random", "exhaustive-cyclic")


class SearchConfig:
    """Validated search parameters, from whose kinds alone every strategy
    builds its groups: p must be a prime below 2**31, the kinds share one
    order, scaling needs kind1 == kind2 (conjugation keeps the kind), and
    limit counts the elements of B visited."""

    __slots__ = ("p", "kind1", "kind2", "strategy", "seed", "limit")

    def __init__(self, p: int, kind1: GroupKind, kind2: GroupKind,
                 strategy: str = "random", seed: int = 0, limit: int = 1000):
        projective_line(p)  # raises ValueError unless p is a prime below 2**31
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if kind1.order != kind2.order:
            raise ValueError(
                f"kinds must share one group order, got {kind1} vs {kind2}")
        if strategy == "scaling" and kind1 != kind2:
            raise ValueError("scaling strategy needs kind1 == kind2")
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
    conj_c is conjugation by diag(c, 1) on canonical classes,
    (a, b, x, d) to (a, b/c, xc, d) rescaled to canonical form
    (subgroups.conjugate). conj_c keeps these invariants of (a, b, x, d):
      a = 1, to (1, b/c, xc, d): d, bx, and which of b, x is zero;
      a = 0, to (0, 1, xc^2, dc): whether d = 0 and, if d != 0, x/d^2
      (x != 0 always, as the determinant is -x).
    So M and N lie in one bucket of equal invariants. Each element also
    has a scale coordinate u that conj_c multiplies by c: x when a = 1
    and x != 0, 1/b when a = 1 and x = 0, and d when a = 0 and d != 0.
    An element is fixed by its bucket key and its scale coordinate: x and
    bx give b; 1/b gives b; d and x/d^2 give x. conj_c keeps the key and
    multiplies the coordinate by c, so conj_c(M) = N exactly when
    c = u_N/u_M, and every pair (M, N) of one bucket rejects that scalar.
    M = N gives c = 1, which lies outside the range returned. Two classes
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
    # invariants -> [(u, 1/u)]
    buckets: dict[tuple, list[tuple[int, int]]] = {}
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
        buckets.setdefault(key, []).append((u, u_inv))
    for bucket in buckets.values():  # c = u_N/u_M for M, N in one bucket
        bad.update(u * u_inv % p for _, u_inv in bucket for u, _ in bucket)
    return [c for c in range(2, p) if c not in bad]


def _singer(line: ProjectiveLine) -> ProjectiveMatrix:
    """The first class (0, 1, c, d) of order p+1, in lexicographic order.
    These classes open canonical order, and the first class of order p+1
    lies among them: a non-identity class has the order of its
    tau = tr^2/det (ProjectiveLine.element_order), their tau = -d^2/c takes
    every nonzero value (d = 1, c = -1/tau), and tau = 0 has order 2 < p+1.

    For odd p the rows c in which -c is a square are skipped: their tau are
    0 or squares, and a class of order p + 1 has a non-square tau. Proof:
    tau = mu^2 + 2 + mu^-2 = (mu + 1/mu)^2 for an eigenvalue ratio
    lambda = mu^2 of order p + 1 (_class_order), so mu has order 2(p + 1),
    mu^(p+1) = -1 and (mu + 1/mu)^p = -(mu + 1/mu). Were mu + 1/mu in F_p it
    would be 0, and tau = 0 has order 2. So neither square root of tau lies
    in F_p, and the first class found is the one the full scan finds.
    """
    p = line.p
    rows = (c for c in range(1, p) if p == 2 or pow(-c % p, (p - 1) // 2, p) != 1)
    block = (ProjectiveMatrix(0, 1, c, d) for c in rows for d in range(p))
    return next(M for M in block if line.element_order(M) == p + 1)


def find_cyclic_regular(line: ProjectiveLine) -> Subgroup:
    """<r> for the first class r of order p+1 in scan order (_singer); it
    acts regularly on the p+1 points.

    The regularity lemma. By ProjectiveLine._class_order, split classes
    have orders dividing p - 1 and parabolic classes have order p. Neither
    is divisible by p + 1, so r has conjugate eigenvalues lambda, lambda^p
    outside F_p. For 0 < j < p + 1, lambda^j lies outside F_p too:
    otherwise lambda^pj = lambda^j, and r^j would be scalar. So r^j has no
    rational eigenvector and fixes no rational point. Hence <r> acts
    freely, and so regularly, on the p + 1 points.

    As r has order p + 1, generate_closure returns <r> unlisted, as the
    torus of r (subgroups.Subgroup), whose orbit partition, kind, conjugates
    and intersections are read off r by the torus, membership and two-tori
    lemmas; its elements are listed in O(p) only when read.
    """
    return generate_closure(line, [_singer(line)])


# (a, b) of A4, S4 and A5, keyed by kind family (_transitive_group)
_POLYHEDRAL_GENERATORS = {
    "A4": (ProjectiveMatrix(0, 1, 2, 0), ProjectiveMatrix(1, 1, 2, 5)),    # p = 11
    "S4": (ProjectiveMatrix(0, 1, 5, 0), ProjectiveMatrix(1, 1, 2, 4)),    # p = 23
    "A5": (ProjectiveMatrix(0, 1, 2, 0), ProjectiveMatrix(1, 1, 10, 27)),  # p = 59
}


def _transitive_group(line: ProjectiveLine, kind: GroupKind) -> Subgroup | None:
    """A transitive subgroup of `kind`, built from the kind alone; None when
    |kind| != p + 1, since then no pair passes (the order lemma).

    C_{p+1} is find_cyclic_regular's <_singer(line)>. D_{p+1} is
    <r^2, s r> for r = _singer(line) = (0, 1, c, d) and s = (1, 0, d, -1),
    which satisfy s r s = r^-1. The D lemma: <r^2, s> is never transitive.
    s has eigenvalues 1 and -1 in F_p, so it fixes (1:0), and a transitive
    group of order p + 1 on the p + 1 points is regular, so it holds no s.
    s normalizes <r^2> and fixes (1:0), so it keeps each of the two
    <r^2>-orbits, and r, so s r, swaps them: <r^2, s r> is transitive.

    A4, S4 and A5 are <a, b> for the tabled (a, b): a of order 2 (tau = 0),
    b of order 3 (tau = 1) and ab of order k = 3, 4 or 5. The group
    <a, b | a^2 = b^3 = (ab)^k = 1> is A4, S4 or A5 (Coxeter and Moser,
    1957), and no proper quotient of it has elements of orders 2, 3 and k.
    Their orders 12, 24 and 60 are p + 1 only at p = 11, 23 and 59, so no
    other prime passes the order check. Each (a, b) is the first a of order
    2 and b of order 3 in canonical order with ab of order k, as
    reference_transitive_group in tests/conftest.py re-derives from a scan
    of all of PGL(2, p). Each group has p + 1 elements, below the
    closure cap, and test_transitive_group_has_its_kind_and_is_transitive
    in tests/test_search.py checks the order, kind and transitivity.
    """
    if kind.order != line.p + 1:
        return None
    if kind.family == "C":
        return find_cyclic_regular(line)  # regular by its lemma
    if kind.family == "D":
        r = _singer(line)
        s = line.matrix([[1, 0], [r.d, -1]])
        return generate_closure(line, [line.compose(r, r), line.compose(s, r)])
    if kind.family in _POLYHEDRAL_GENERATORS:
        return generate_closure(line, _POLYHEDRAL_GENERATORS[kind.family])
    return None  # other: of order p + 1, prime to p, only the kinds above exist


def run_search(cfg: SearchConfig) -> PairCertificate | None:
    """The first passing (G1, b^-1 G2 b) in cfg.strategy's visiting order of
    B, or None (see the module docstring)."""
    line = projective_line(cfg.p)
    G1 = _transitive_group(line, cfg.kind1)
    G2 = G1 if cfg.kind2 == cfg.kind1 else _transitive_group(line, cfg.kind2)
    if G1 is None or G2 is None:
        return None
    p = cfg.p
    if cfg.strategy == "scaling":  # b = diag(c, 1) for c = 2, ..., p - 1
        visits = range(p, min(cfg.limit, p - 2) * p + 1, p)
    elif cfg.strategy == "random":
        draw = random.Random(cfg.seed).randrange
        visits = (draw(p * (p - 1)) for _ in range(cfg.limit))
    else:
        visits = range(min(cfg.limit, p * (p - 1)))
    for i in visits:  # b = (1 + i // p, i % p, 0, 1)
        alpha, beta = divmod(i, p)
        cert = check_pair_all_basepoints(G1, conjugate(G2, [[1 + alpha, beta], [0, 1]]))
        if cert.verdict == "pass":
            return cert
    return None
