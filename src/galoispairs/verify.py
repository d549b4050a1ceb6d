"""Item-by-item verification harness for the bundled reference cases.

Every order, relation, printed class list, partition image, intersection
table, and pair condition is recomputed natively and reported as one
pass/fail item. Words like "h' s h" multiply the named generator matrices
left to right, with a trailing apostrophe marking the class inverse.
"""

from __future__ import annotations

import json

from .cases import LABELS, prime_table
from .criterion import check_pair_all_basepoints
from .errors import UnknownCase
from .field import primitive_root
from .projline import ProjectiveLine, ProjectiveMatrix
from .subgroups import (GroupKind, Subgroup, generate_closure, orbit,
                        point_permutation, recognize)


class CheckItem:
    __slots__ = ("id", "claim", "passed")

    def __init__(self, id: str, claim: str, passed: bool):
        self.id = id
        self.claim = claim
        self.passed = passed


class VerificationReport:
    __slots__ = ("p", "items")

    def __init__(self, p: int, items: tuple[CheckItem, ...]):
        self.p = p
        self.items = items

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "items": [{"id": i.id, "claim": i.claim, "pass": i.passed}
                      for i in self.items],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_text(self) -> str:
        lines = [f"[{'PASS' if i.passed else 'FAIL'}] {self.p}/{i.id}: {i.claim}"
                 for i in self.items]
        n_fail = sum(not i.passed for i in self.items)
        lines.append(f"p={self.p}: {len(self.items) - n_fail}/{len(self.items)} "
                     f"items pass")
        return "\n".join(lines)


def word(line: ProjectiveLine, gen: dict, text: str) -> ProjectiveMatrix:
    """Multiply named generators left to right; trailing ' inverts."""
    M = line.identity
    for tok in text.split():
        A = gen[tok.rstrip("'")]
        if tok.endswith("'"):
            A = line.inverse(A)
        M = line.compose(M, A)
    return M


def _block_action(line: ProjectiveLine, blocks: tuple[frozenset, ...]):
    """A -> the index of each block's image under A, or None when some image
    is not a block.

    Each block is kept once as the frozenset of its points'
    point_permutation indices, keyed to its position, so each image is one
    set of indices and one dict lookup.
    """
    members = [frozenset([P.t + 1 if P.s else 0 for P in block]) for block in blocks]
    index = {block: j for j, block in enumerate(members)}

    def perm(A: ProjectiveMatrix) -> tuple[int, ...] | None:
        image = point_permutation(line, A)
        out = tuple([index.get(frozenset([image[i] for i in block]))
                     for block in members])
        return None if None in out else out

    return perm


class _Harness:
    """The items of one prime, in an order that the verify-paper digests pin;
    G1 pairs with G2 in case "a", with G3 in "b" and with G4 in "c"."""

    def __init__(self, p: int):
        self.tab = prime_table(p)
        self.line: ProjectiveLine = self.tab["line"]
        self.gen: dict = self.tab["gen"]
        self.items: list[CheckItem] = []
        self.G1, self.G2, self.G3, self.G4 = self.tab["groups"]

    def add(self, item_id: str, claim: str, ok: bool):
        self.items.append(CheckItem(item_id, claim, bool(ok)))

    def lemma_items(self, orders):
        """The primitive root, then the order of each (letter, n)."""
        alpha = self.tab["alpha"]
        self.add("alpha", f"{alpha} generates the multiplicative group",
                 primitive_root(self.line.p) == alpha)
        for letter, n in orders:
            ok = self.line.element_order(self.gen[letter]) == n
            self.add(f"order.{letter}", f"{letter} has order {n}", ok)

    def relation(self, item_id: str, lhs: str, rhs: str):
        ok = word(self.line, self.gen, lhs) == word(self.line, self.gen, rhs)
        self.add(item_id, f"{lhs} ~ {rhs}", ok)

    def printed_products(self):
        for i, (lhs, printed) in enumerate(self.tab["printed_products"]):
            self.add(f"products.{i}", f"{lhs} ~ {printed}",
                     word(self.line, self.gen, lhs) == printed)

    def power_class(self, letter: str, e: int, printed: ProjectiveMatrix):
        ok = self.line.power(self.gen[letter], e) == printed
        self.add(f"{letter}.power{e}", f"{letter}^{e} ~ {printed}", ok)

    def x_powers(self):
        for e, printed in sorted(self.tab["x_power_classes"].items()):
            self.power_class("x", e, printed)
            self.add(f"x.power{e}.outside_g1", f"the class of x^{e} is not in g1",
                     self.line.power(self.gen["x"], e) not in self.G1)

    def group_items(self, name: str, G: Subgroup, kind: GroupKind):
        self.add(f"{name}.kind",
                 f"{name} has order {kind.order} and type {kind}",
                 recognize(G) == kind)
        full = frozenset(self.line.points())
        self.add(f"{name}.transitive",
                 f"{name} acts transitively on the {self.line.p + 1} rational points",
                 orbit(G, self.line.points()[0]) == full)

    def g4_kind(self):
        self.add("g4.kind", "g4 has the same type as g1",
                 recognize(self.G4) == recognize(self.G1))

    def element_list(self, item_id: str, G: Subgroup, order: int,
                     printed: list[ProjectiveMatrix]):
        actual = {A for A in G.elements if self.line.element_order(A) == order}
        self.add(item_id,
                 f"the printed {len(printed)} classes are exactly the "
                 f"order-{order} elements",
                 actual == set(printed))

    def pair_items(self, label: str, G2: Subgroup):
        d = self.line.p + 1
        cert = check_pair_all_basepoints(self.G1, G2)
        self.add(f"pair.{label}.intersection",
                 "the two groups intersect trivially",
                 cert.intersection_size == 1)
        self.add(f"pair.{label}.orbits",
                 "both orbits are the full point set for every base point",
                 cert.verdict == "pass")
        self.add(f"pair.{label}.degree",
                 f"the certified pair has degree {d}",
                 cert.verdict == "pass" and cert.degree == d)


def _verify_11(h: _Harness):
    line, gen, tab = h.line, h.gen, h.tab
    h.lemma_items((("s", 2), ("t", 2), ("h", 3), ("x", 12), ("f", 2), ("r", 6)))
    h.relation("g1.commute", "s t", "t s")
    h.relation("g1.conj_s", "h' s h", "t")
    h.relation("g1.conj_t", "h' t h", "s t")

    h.group_items("g1", h.G1, GroupKind.alt4())
    h.element_list("g1.order2_list", h.G1, 2, tab["g1_order2"])
    h.element_list("g1.order3_list", h.G1, 3, tab["g1_order3"])
    h.group_items("g2", h.G2, GroupKind.cyclic(12))
    h.x_powers()
    h.relation("g3.dihedral", "f' r f", "r'")
    h.group_items("g3", h.G3, GroupKind.dihedral(12))
    for e, printed in sorted(tab["r_power_classes"].items()):
        h.power_class("r", e, printed)
    h.add("r.power2.outside_g1", "the class of r^2 is not in g1",
          line.power(gen["r"], 2) not in h.G1)
    h.printed_products()
    for i, (lhs, rhs) in enumerate((("s r r r", "r r r s"),
                                    ("t r r r", "r r r t"),
                                    ("s t r r r", "r r r s t"))):
        h.add(f"products.differ.{i}", f"{lhs} and {rhs} are different classes",
              word(line, gen, lhs) != word(line, gen, rhs))
    h.element_list("g4.order2_list", h.G4, 2, tab["g4_order2"])
    h.element_list("g4.order3_list", h.G4, 3, tab["g4_order3"])
    h.g4_kind()
    h.pair_items("a", h.G2)
    h.pair_items("b", h.G3)
    h.pair_items("c", h.G4)


def _verify_23(h: _Harness):
    line, gen, tab = h.line, h.gen, h.tab
    h.lemma_items((("s", 2), ("m", 2), ("t", 3), ("h", 4), ("x", 24),
                   ("f", 2), ("r", 12)))
    h.relation("g1.m_is_h2", "m", "h h")
    h.relation("g1.commute", "s m", "m s")
    h.relation("g1.conj_ts", "t' s t", "m")
    h.relation("g1.conj_tm", "t' m t", "s m")
    h.relation("g1.conj_hs", "h' s h", "s m")
    h.relation("g1.conj_hm", "h' m h", "m")
    h.relation("g1.conj_ht", "h' t h", "s m t t")
    h.relation("g1.conj_ht2", "h' t t h", "m t")

    sub = generate_closure(line, [gen["s"], gen["m"], gen["t"]])
    h.add("g1.sub_kind", "⟨s,m,t⟩ has order 12 and type A4",
          recognize(sub) == GroupKind.alt4())

    h.group_items("g1", h.G1, GroupKind.sym4())

    O = tab["o_partition"]
    T = tab["t_partition"]
    o_perm, t_perm = _block_action(line, O), _block_action(line, T)
    h.add("blocks.o.sizes", "the four blocks each contain 6 points",
          [len(b) for b in O] == [6, 6, 6, 6])
    for letter, perm in sorted(tab["o_block_images"].items()):
        h.add(f"blocks.o.{letter}",
              f"{letter} permutes the four blocks as {perm}",
              o_perm(gen[letter]) == perm)
    # faithful: every element permutes the blocks, no two alike
    perms = [o_perm(A) for A in h.G1.elements]
    h.add("blocks.o.faithful", "g1 acts faithfully on the four blocks",
          None not in perms and len(set(perms)) == len(perms))

    h.group_items("g2", h.G2, GroupKind.cyclic(24))
    h.x_powers()
    for e, at, P, expected, block in tab["x_point_images"]:
        img = line.apply(P, line.power(gen["x"], e))
        h.add(f"x.power{e}.at.{at}",
              f"x^{e} sends {P} to {expected}, which lies in block {block + 1}",
              img == expected and img in O[block])
    h.pair_items("a", h.G2)

    h.relation("g3.dihedral", "f' r f", "r'")
    h.group_items("g3", h.G3, GroupKind.dihedral(24))
    h.add("blocks.t.sizes", "the two blocks each contain 12 points",
          [len(b) for b in T] == [12, 12])
    for letter, perm in sorted(tab["t_block_images"].items()):
        h.add(f"blocks.t.{letter}",
              f"{letter} permutes the two blocks as {perm}",
              t_perm(gen[letter]) == perm)
    h.add("blocks.t.preserved", "every element of g3 permutes the two blocks",
          all(t_perm(A) is not None for A in h.G3.elements))

    cells = tab["o_t_intersections"]
    for (i, j), expected in sorted(cells.items()):
        h.add(f"cells.{i + 1}{j + 1}",
              f"block O{i + 1} meets T{j + 1} in exactly {len(expected)} points",
              O[i] & T[j] == expected)
    singletons = [(i, j) for (i, j) in cells
                  if len(O[i] & T[j]) == 1]
    # the table's O2 ∩ T1 cell is the one token 9, the point (1:alpha^9)
    h.add("cells.unique_singleton",
          "the unique single-point cell is O2 ∩ T1, at (1:alpha^9)",
          singletons == [(1, 0)] and
          O[1] & T[0] == cells[(1, 0)])
    h.pair_items("b", h.G3)

    conj_blocks = tab["conjugated_o_blocks"]
    for j, expected in enumerate(conj_blocks):
        image = frozenset(line.apply(Q, gen["c"]) for Q in O[j])
        h.add(f"conj_blocks.{j + 1}",
              f"the conjugator maps O{j + 1} onto the printed 6-point set",
              image == expected)
    empty = [(i, j) for i in range(4) for j in range(4)
             if not (O[i] & conj_blocks[j])]
    h.add("conj_blocks.unique_empty",
          "O_i misses the conjugated O_j only for (i, j) = (2, 1)",
          empty == [(1, 0)])
    h.printed_products()
    h.g4_kind()
    h.pair_items("c", h.G4)


def _verify_59(h: _Harness):
    h.lemma_items((("s", 2), ("t", 3), ("x", 60), ("f", 2), ("r", 30)))
    h.group_items("g1", h.G1, GroupKind.alt5())
    h.group_items("g2", h.G2, GroupKind.cyclic(60))
    h.pair_items("a", h.G2)
    h.relation("g3.dihedral", "f' r f", "r'")
    h.group_items("g3", h.G3, GroupKind.dihedral(60))
    h.pair_items("b", h.G3)
    h.g4_kind()
    h.pair_items("c", h.G4)


def verify_prime(p: int, case: str | None = None) -> VerificationReport:
    """Re-run every bundled claim for characteristic p.

    With `case` in {"a", "b", "c"} only that pair's proposition items are
    kept; the shared lemma items always run (every case depends on them).
    """
    h = _Harness(p)  # prime_table raises UnknownCase for an unbundled p
    if case is not None and case not in LABELS:
        raise UnknownCase(f"no reference case label {case!r}")
    {11: _verify_11, 23: _verify_23, 59: _verify_59}[p](h)
    items = h.items
    if case is not None:
        items = [i for i in items
                 if not i.id.startswith("pair.") or i.id.startswith(f"pair.{case}.")]
    return VerificationReport(p, tuple(items))
