"""Galois-pair criterion: certificates for pairs of subgroups sharing a
regular orbit with trivial intersection.

A passing certificate witnesses the existence of a plane rational curve of
degree d = |G1| = |G2| with two distinct outer Galois points whose groups
are G1 and G2; the quotient module turns it into an explicit parametrization.

One function, _certificate, makes every certificate: it reads the orbit
conditions off the orbit partition of each group (subgroups.orbit_partition),
at the one base point of check_pair or at every point for
check_pair_all_basepoints. The two orbits of a point are equal iff its
G1-label is not among the labels of the points whose two labels differ.
"""

from __future__ import annotations

import json

from .errors import ModulusOutOfRange
from .projline import ProjectiveMatrix, ProjectivePoint, projective_line
from .subgroups import (GroupKind, Subgroup, generate_closure, intersect,
                        orbit_partition, recognize)

DEFAULT_BASE_POINT = ProjectivePoint(0, 1)


class PairCertificate:
    """Machine-checkable evidence for one subgroup pair.

    verdict == "pass" iff the groups differ as element sets, share the
    order d, intersect trivially, and both orbits of the base point are
    regular (length d) and equal.
    """

    __slots__ = ("p", "g1_generators", "g2_generators", "kind1", "kind2", "degree",
                 "base_point", "intersection_size", "orbit_length", "orbit_equal",
                 "failures")

    def __init__(self, p: int, g1_generators: tuple[ProjectiveMatrix, ...],
                 g2_generators: tuple[ProjectiveMatrix, ...], kind1: GroupKind,
                 kind2: GroupKind, degree: int, base_point: ProjectivePoint,
                 intersection_size: int, orbit_length: int, orbit_equal: bool,
                 failures: tuple[str, ...]):
        self.p = p
        self.g1_generators = g1_generators
        self.g2_generators = g2_generators
        self.kind1 = kind1
        self.kind2 = kind2
        self.degree = degree
        self.base_point = base_point
        self.intersection_size = intersection_size
        self.orbit_length = orbit_length
        self.orbit_equal = orbit_equal
        self.failures = failures

    @property
    def verdict(self) -> str:
        return "fail" if self.failures else "pass"

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "g1": [M.rows() for M in self.g1_generators],
            "g2": [M.rows() for M in self.g2_generators],
            "kind1": str(self.kind1),
            "kind2": str(self.kind2),
            "degree": self.degree,
            "base_point": [self.base_point.s, self.base_point.t],
            "intersection_size": self.intersection_size,
            "orbit_equal": self.orbit_equal,
            "orbit_length": self.orbit_length,
            "verdict": self.verdict,
            "failures": list(self.failures),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _certificate(G1: Subgroup, G2: Subgroup, base: int,
                 indices: range | tuple[int, ...]) -> PairCertificate:
    """Certificate with orbit data at the point of index `base` and failures
    at each of `indices` in turn (indexed like line.points()), every
    condition evaluated (no short-circuiting).

    Beyond the two orbit partitions and one compare of their label lists,
    the orbit conditions cost O(number of orbits) when the partitions are
    equal and regular, and O(p) otherwise. split holds both labels of each
    point whose two labels differ; it is empty, and not built, when the
    label lists are equal. As labels are least indices, the two orbits of
    i are equal iff m = lab1[i] is not in split: if they are equal, each j
    with either label m lies in that one orbit, so both its labels are m;
    if m is not in split, lab2[i] = m, and each point of either orbit has
    label m in both labelings. The scan reads labels by index, builds a
    point only to name a failure, and is skipped when the partitions are
    equal and regular. The groups are equal as element sets iff their
    intersection has the order of both.
    """
    inter_size = len(intersect(G1, G2))
    d1, d2 = len(G1), len(G2)
    failures = []
    if inter_size == d1 == d2:
        failures.append("groups not different")
    if d2 != d1:
        failures.append("orders differ")
    if inter_size != 1:
        failures.append("intersection not trivial")
    (lab1, size1), (lab2, size2) = orbit_partition(G1), orbit_partition(G2)
    split = (set() if lab1 == lab2 else
             {r for r1, r2 in zip(lab1, lab2) if r1 != r2 for r in (r1, r2)})
    if split or d2 != d1 or set(size1.values()) != {d1}:
        for i in indices:
            r1, r2 = lab1[i], lab2[i]
            if size1[r1] != d1:
                failures.append(f"orbit of G1 at {_point(i)} has length {size1[r1]} != {d1}")
            if size2[r2] != d2:
                failures.append(f"orbit of G2 at {_point(i)} has length {size2[r2]} != {d2}")
            if r1 in split:
                failures.append(f"orbits at {_point(i)} differ")
    return PairCertificate(
        p=G1.line.p,
        g1_generators=G1.generators,
        g2_generators=G2.generators,
        kind1=recognize(G1),
        kind2=recognize(G2),
        degree=d1,
        base_point=_point(base),
        intersection_size=inter_size,
        orbit_length=size1[lab1[base]],
        orbit_equal=lab1[base] not in split,
        failures=tuple(failures),
    )


def _point(i: int) -> ProjectivePoint:
    """The point of index i in line.points(): (0:1), then (1:i - 1)."""
    return ProjectivePoint(1, i - 1) if i else DEFAULT_BASE_POINT


def check_pair(G1: Subgroup, G2: Subgroup,
               Q: ProjectivePoint = DEFAULT_BASE_POINT) -> PairCertificate:
    """Certificate for (G1, G2) at the single base point Q."""
    Q = G1.line.point(Q.s, Q.t)
    i = Q.t + 1 if Q.s else 0
    return _certificate(G1, G2, i, (i,))


def check_pair_all_basepoints(G1: Subgroup, G2: Subgroup) -> PairCertificate:
    """Certificate quantified over every rational base point.

    Recorded orbit data refers to the default base point (0:1); failures
    name the base points at which a condition breaks, in the order that
    check_pair at each point of line.points() would first report them.
    """
    return _certificate(G1, G2, 0, range(G1.line.p + 1))


def _is_int_pair(value) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in value))


def subgroups_from_dict(doc: dict) -> tuple[Subgroup, Subgroup, ProjectivePoint]:
    """Rebuild (G1, G2, base point) from certificate or pair-document JSON.

    Accepts both shapes: {"g1": [[..]..], ...} (certificate) and
    {"g1": {"generators": [...]}, ...} (pair input document). reverify, and
    with it the CLI, makes these checks in this order before any group is
    closed; the first that fails raises a ValueError naming it:
    the document is an object; it has the fields p, g1 and g2; p is an
    int below 2**31, then a prime; g1, then g2, holds a non-empty list of
    generators, each [[a, b], [c, d]] with int entries; the base point, if
    given, is [s, t] with int entries, not both divisible by p.
    """
    if not isinstance(doc, dict):
        raise ValueError("top-level value must be an object")
    for key in ("p", "g1", "g2"):
        if key not in doc:
            raise ValueError(f"missing required field {key!r}")
    try:
        if not isinstance(doc["p"], int):
            raise ValueError
        line = projective_line(doc["p"])  # raises ValueError unless p is prime
    except ModulusOutOfRange:
        raise ValueError("field 'p' must be below 2**31") from None
    except ValueError:
        raise ValueError("field 'p' must be a prime integer") from None
    gens = {}
    for key in ("g1", "g2"):
        entry = doc[key]
        raw = entry.get("generators") if isinstance(entry, dict) else entry
        if not (isinstance(raw, (list, tuple)) and raw):
            raise ValueError(f"{key} must hold a non-empty list of generators")
        for i, rows in enumerate(raw, 1):
            if not (isinstance(rows, (list, tuple)) and len(rows) == 2
                    and all(map(_is_int_pair, rows))):
                raise ValueError(f"{key} generator {i} must be "
                                 "[[a, b], [c, d]]; entries must be integers")
        gens[key] = raw
    Q = doc.get("base_point", DEFAULT_BASE_POINT)
    if not _is_int_pair(Q):
        raise ValueError("base_point must be [s, t]; entries must be integers")
    if not (Q[0] % line.p or Q[1] % line.p):
        raise ValueError("base_point (0:0) is not a projective point")
    G1 = generate_closure(line, gens["g1"])
    G2 = generate_closure(line, gens["g2"])
    return G1, G2, line.point(*Q)


def reverify(cert_dict: dict, all_basepoints: bool = False) -> PairCertificate:
    """Re-run closure and every check from the stored generators alone."""
    G1, G2, Q = subgroups_from_dict(cert_dict)
    if all_basepoints:
        return check_pair_all_basepoints(G1, G2)
    return check_pair(G1, G2, Q)
