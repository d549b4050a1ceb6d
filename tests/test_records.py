"""The package's six records against frozen-dataclass twins.

GroupKind, PairCertificate, CurveParametrization, SearchConfig, CheckItem
and VerificationReport are plain classes with __slots__. Each twin below
is the record as a @dataclass(frozen=True), with the same methods; on
random field values the two must agree on every output the package reads:
str, to_dict, to_json, to_text and the verdicts, and SearchConfig's
validation. Only GroupKind is compared and hashed, so only it must keep
value equality, hashing and immutability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galoispairs import (CurveParametrization, GroupKind, PairCertificate, Poly,
                         ProjectiveMatrix, ProjectivePoint, SearchConfig,
                         VerificationReport, is_prime)
from galoispairs.search import STRATEGIES
from galoispairs.verify import CheckItem


@dataclass(frozen=True)
class TwinGroupKind:
    family: str
    order: int

    def __str__(self):
        if self.family in ("C", "D"):
            return f"{self.family}{self.order}"
        if self.family == "other":
            return f"Other({self.order})"
        return self.family


@dataclass(frozen=True)
class TwinPairCertificate:
    p: int
    g1_generators: tuple
    g2_generators: tuple
    kind1: TwinGroupKind
    kind2: TwinGroupKind
    degree: int
    base_point: ProjectivePoint
    intersection_size: int
    orbit_length: int
    orbit_equal: bool
    failures: tuple

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


@dataclass(frozen=True)
class TwinCurveParametrization:
    p: int
    A: Poly
    B: Poly
    D: Poly
    degree: int

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "degree": self.degree,
            "A": list(self.A.coeffs),
            "B": list(self.B.coeffs),
            "D": list(self.D.coeffs),
        }


@dataclass(frozen=True)
class TwinSearchConfig:
    p: int
    kind1: GroupKind
    kind2: GroupKind
    strategy: str = "random"
    seed: int = 0
    limit: int = 1000

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.limit < 1:
            raise ValueError("limit must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.kind1.order != self.kind2.order:
            raise ValueError(
                f"kinds must share one group order, got {self.kind1} vs {self.kind2}")
        if self.strategy == "scaling" and self.kind1 != self.kind2:
            raise ValueError("scaling strategy needs kind1 == kind2")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class TwinCheckItem:
    id: str
    claim: str
    passed: bool


@dataclass(frozen=True)
class TwinVerificationReport:
    p: int
    items: tuple

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


FAMILIES = ("C", "D", "A4", "S4", "A5", "other")
KIND_FIELDS = st.tuples(st.sampled_from(FAMILIES), st.integers(1, 300))
TEXT = st.text(max_size=12)
SMALL = st.integers(-5, 400)
MATRICES = st.lists(st.builds(ProjectiveMatrix, SMALL, SMALL, SMALL, SMALL),
                    max_size=3).map(tuple)
POINTS = st.builds(ProjectivePoint, SMALL, SMALL)
PRIMES = st.sampled_from([2, 3, 5, 11, 23, 59, 401])


def field_values(twin) -> tuple:
    return tuple(getattr(twin, f.name) for f in fields(twin))


@settings(max_examples=300, deadline=None)
@given(KIND_FIELDS, KIND_FIELDS)
def test_group_kind_matches_its_twin(a, b):
    kind, twin = GroupKind(*a), TwinGroupKind(*a)
    assert (kind.family, kind.order) == field_values(twin)
    assert str(kind) == str(twin)
    # equal fields: equal objects with the twin's hash, so sets and dicts of
    # kinds iterate as they did
    again = GroupKind(*a)
    assert again == kind and not again != kind
    assert hash(again) == hash(kind) == hash(twin)
    # changing either field breaks equality, as it does for the twins
    for changed in ((b[0], a[1]), (a[0], b[1])):
        other = GroupKind(*changed)
        assert (other == kind) == (TwinGroupKind(*changed) == twin) == (changed == a)
        assert (other != kind) == (changed != a)
    # a kind equals no other type, not even its field tuple
    assert kind != a and kind != twin


@settings(max_examples=50, deadline=None)
@given(KIND_FIELDS, st.sampled_from(["family", "order", "tally", "x"]))
def test_group_kind_is_immutable(a, name):
    kind = GroupKind(*a)
    with pytest.raises(AttributeError):
        setattr(kind, name, 1)
    with pytest.raises(AttributeError):
        delattr(kind, name)
    assert (kind.family, kind.order) == a


@settings(max_examples=200, deadline=None)
@given(PRIMES, MATRICES, MATRICES, KIND_FIELDS, KIND_FIELDS, SMALL, POINTS, SMALL,
       SMALL, st.booleans(), st.lists(TEXT, max_size=3).map(tuple))
def test_pair_certificate_matches_its_twin(p, g1, g2, k1, k2, degree, Q, inter,
                                           length, equal, failures):
    cert = PairCertificate(p=p, g1_generators=g1, g2_generators=g2,
                           kind1=GroupKind(*k1), kind2=GroupKind(*k2), degree=degree,
                           base_point=Q, intersection_size=inter, orbit_length=length,
                           orbit_equal=equal, failures=failures)
    twin = TwinPairCertificate(p, g1, g2, TwinGroupKind(*k1), TwinGroupKind(*k2),
                               degree, Q, inter, length, equal, failures)
    assert cert.verdict == twin.verdict
    assert cert.to_dict() == twin.to_dict()
    assert cert.to_json() == twin.to_json()


@settings(max_examples=200, deadline=None)
@given(PRIMES, st.data())
def test_curve_parametrization_matches_its_twin(p, data):
    A, B, D = (Poly(p, data.draw(st.lists(SMALL, max_size=8))) for _ in range(3))
    degree = data.draw(SMALL)
    param = CurveParametrization(p, A, B, D, degree=degree)
    twin = TwinCurveParametrization(p, A, B, D, degree)
    assert param.to_dict() == twin.to_dict()
    assert json.dumps(param.to_dict(), sort_keys=True) == json.dumps(twin.to_dict(),
                                                                     sort_keys=True)


def outcome(cls, *args, **kwargs):
    """The fields of cls(*args, **kwargs), or the text of its ValueError."""
    try:
        config = cls(*args, **kwargs)
    except ValueError as exc:
        return "ValueError", str(exc)
    return tuple(getattr(config, name) for name in
                 ("p", "kind1", "kind2", "strategy", "seed", "limit"))


@settings(max_examples=300, deadline=None)
@given(st.one_of(PRIMES, st.integers(-5, 60)),
       st.sampled_from([(12, 12), (12, 24), (60, 60), (60, 24)]),
       st.sampled_from(STRATEGIES + ("greedy", "")),
       st.one_of(st.integers(-3, 3), st.integers(2 ** 64 - 2, 2 ** 64 + 1),
                 st.integers(0, 2 ** 64 - 1)),
       st.integers(-2, 2000), st.booleans())
def test_search_config_matches_its_twin(p, orders, strategy, seed, limit, by_keyword):
    kinds = GroupKind.cyclic(orders[0]), GroupKind.other(orders[1])
    if by_keyword:
        kwargs = dict(p=p, kind1=kinds[0], kind2=kinds[1], strategy=strategy,
                      seed=seed, limit=limit)
        assert outcome(SearchConfig, **kwargs) == outcome(TwinSearchConfig, **kwargs)
    else:
        args = (p, *kinds, strategy, seed, limit)
        assert outcome(SearchConfig, *args) == outcome(TwinSearchConfig, *args)
    # the defaults
    assert outcome(SearchConfig, p, kinds[0], kinds[0]) == outcome(
        TwinSearchConfig, p, kinds[0], kinds[0])


@settings(max_examples=200, deadline=None)
@given(PRIMES, st.lists(st.tuples(TEXT, TEXT, st.booleans()), max_size=6))
def test_verification_report_matches_its_twin(p, rows):
    items = tuple(CheckItem(*row) for row in rows)
    assert [(i.id, i.claim, i.passed) for i in items] == rows
    report = VerificationReport(p, items)
    twin = TwinVerificationReport(p, tuple(TwinCheckItem(*row) for row in rows))
    assert report.passed == twin.passed
    assert report.to_dict() == twin.to_dict()
    assert report.to_json() == twin.to_json()
    assert report.to_text() == twin.to_text()
