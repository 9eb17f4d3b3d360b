"""The frozen value classes against the dataclasses they were.

Each `Reference*` class below is a program class as it was defined while
it was a frozen dataclass: the reference for equality, hashing, repr,
pickling and copying, the frozen error, and the constructor's arguments
and errors.  `ReferenceLottery` (test_model) and `ReferenceSSBMatrix`
(test_ssb) are kept the same way for the two integer-form classes.
"""

import copy
import dataclasses
import inspect
import itertools
import math
import pickle
import random
from fractions import Fraction
from typing import Callable

import pytest

from ssbchoice import axioms
from ssbchoice.aggregate import utilitarian
from ssbchoice.axioms import (
    AnonymityVerdict,
    ConditionResult,
    DomainDescription,
    IIASuiteReport,
    IIAVerdict,
    ParetoVerdict,
    PCInclusionReport,
    RichnessReport,
    SWFHandle,
    random_lottery,
    random_relation,
    random_ssb_matrix,
)
from ssbchoice.ballots import ProposalMatrix, ShareError, parse_ballots
from ssbchoice.model import (
    BaseRelation,
    FeasiblePolytope,
    Profile,
    Universe,
    UniverseMismatchError,
    UtilityVector,
    _over_common_denominator,
    frac,
    weak_order,
)
from ssbchoice.solver import MaximalityCertificate, maximal_lottery, unique_optimum
from ssbchoice.ssb import SSBMatrix

# -- the dataclass definitions --


@dataclasses.dataclass(frozen=True)
class ReferenceUniverse:
    names: tuple[str, ...]
    _index: dict = dataclasses.field(init=False, repr=False, compare=False)
    _hash = None

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("universe must contain at least one alternative")
        if any(not isinstance(n, str) or not n for n in names):
            raise ValueError("alternative names must be non-empty strings")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate alternative names in {names}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.names,))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return ReferenceUniverse, (self.names,)


@dataclasses.dataclass(frozen=True)
class ReferenceBaseRelation:
    universe: Universe
    strict: frozenset
    _hash = None

    def __post_init__(self):
        object.__setattr__(self, "strict", frozenset(self.strict))
        m = len(self.universe)
        for a, b in self.strict:
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"pair ({a}, {b}) outside universe of size {m}")
            if a == b:
                raise ValueError(f"reflexive pair ({a}, {a}) in strict relation")
            if (b, a) in self.strict:
                raise ValueError(
                    f"asymmetry violated: both ({a},{b}) and ({b},{a}) present"
                )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.universe, self.strict))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return ReferenceBaseRelation, (self.universe, self.strict)


@dataclasses.dataclass(frozen=True)
class ReferenceUtilityVector:
    universe: Universe
    values: tuple

    def __post_init__(self):
        values = self.values
        if type(values) is not tuple or {*map(type, values)} != {Fraction}:
            values = tuple([frac(v) for v in values])
            object.__setattr__(self, "values", values)
        if len(values) != len(self.universe):
            raise ValueError(
                f"{len(values)} utilities for {len(self.universe)} alternatives"
            )


@dataclasses.dataclass(frozen=True)
class ReferenceProfile:
    universe: Universe
    runs: tuple
    _hash = None

    def __init__(self, universe, agents):
        self._set_runs(universe, zip(agents, itertools.repeat(1)))

    @classmethod
    def from_runs(cls, universe, runs):
        profile = cls.__new__(cls)
        profile._set_runs(universe, runs)
        return profile

    def _set_runs(self, universe, runs):
        agents, counts = [], []
        for agent, count in runs:
            if count <= 0 if type(count) is int else (
                    isinstance(count, bool) or not isinstance(count, int) or count <= 0):
                raise ValueError(
                    f"agent multiplicity must be a positive integer, got {count!r}"
                )
            if agents and (agents[-1] is agent or agents[-1] == agent):
                counts[-1] += count
                continue
            agent_universe = getattr(agent, "universe", None)
            if agent_universe is not universe and agent_universe != universe:
                raise UniverseMismatchError(
                    "agent universe differs from profile universe"
                )
            agents.append(agent)
            counts.append(count)
        if not agents:
            raise ValueError("profile needs at least one agent")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "runs", tuple(zip(agents, counts)))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.universe, self.runs))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return ReferenceProfile.from_runs, (self.universe, self.runs)


@dataclasses.dataclass(frozen=True)
class ReferenceFeasiblePolytope:
    universe: Universe
    vertices: tuple

    def __post_init__(self):
        vertices = tuple(self.vertices)
        if not vertices:
            raise ValueError("feasible set needs at least one vertex")
        for v in vertices:
            if v.universe != self.universe:
                raise UniverseMismatchError("vertex universe differs from polytope")
        seen: set = set()
        unique = []
        for v in vertices:
            if v.scaled not in seen:
                seen.add(v.scaled)
                unique.append(v)
        object.__setattr__(self, "vertices", tuple(unique))


@dataclasses.dataclass(frozen=True)
class ReferenceProposalMatrix:
    departments: tuple
    alternatives: tuple
    shares: tuple
    scaled: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.shares) != len(self.departments):
            raise ValueError("one share row per department required")
        scaled = []
        for i, (department, row) in enumerate(zip(self.departments, self.shares)):
            if len(row) != len(self.alternatives):
                raise ValueError("every row needs one share per alternative")
            if not all(isinstance(x, (int, Fraction)) for x in row):
                raise TypeError(f"shares must be ints or Fractions, got {row!r}")
            d, nums = _over_common_denominator(row)
            for j, x in enumerate(nums):
                if x < 0:
                    raise ShareError(f"{department!r} has negative share "
                                     f"{Fraction(x, d)} in column {self.alternatives[j]!r}",
                                     i, j)
            scaled.append((d, tuple(nums)))
        common = math.lcm(*[d for d, _ in scaled])
        factors = [common // d for d, _ in scaled]
        for j, name in enumerate(self.alternatives):
            total = sum([f * nums[j] for f, (_, nums) in zip(factors, scaled)])
            if total != common:
                raise ShareError(f"column {name!r} sums to {Fraction(total, common)}, "
                                 "must be exactly 1", None, j)
        object.__setattr__(self, "scaled", tuple(scaled))


@dataclasses.dataclass(frozen=True)
class ReferenceMaximalityCertificate:
    lottery: object
    slack: tuple


@dataclasses.dataclass(frozen=True, eq=False)
class ReferenceSWFHandle:
    name: str
    fn: Callable
    _cache: dict = dataclasses.field(default_factory=dict, repr=False)


@dataclasses.dataclass(frozen=True)
class ReferenceIIAVerdict:
    passed: bool
    vacuous: bool
    restriction: tuple
    convention: str = "restricted matrices equal up to positive scaling"


@dataclasses.dataclass(frozen=True)
class ReferenceAnonymityVerdict:
    passed: bool
    witness: tuple | None
    mode: str


@dataclasses.dataclass(frozen=True)
class ReferenceParetoVerdict:
    passed: bool
    counterexample: tuple | None
    checked: int
    strict_cases: int
    weak_cases: int


@dataclasses.dataclass(frozen=True)
class ReferenceIIASuiteReport:
    checked: int
    vacuous: int
    violations: tuple


@dataclasses.dataclass(frozen=True)
class ReferenceDomainDescription:
    universe: Universe
    _entries: tuple
    name: str = ""


@dataclasses.dataclass(frozen=True)
class ReferenceConditionResult:
    condition: axioms.RichnessCondition
    passed: bool
    witness: str | None
    mode: str


@dataclasses.dataclass(frozen=True)
class ReferenceRichnessReport:
    domain: str
    results: tuple


@dataclasses.dataclass(frozen=True)
class ReferencePCInclusionReport:
    all_pc: bool
    witness: object
    message: str


# -- seeded constructor arguments, a share of them invalid --

ABC = Universe("abc")
ABCD = Universe("abcd")


def _universe_args(rng):
    cases = [("abcdef"[: rng.randint(1, 6)],) for _ in range(20)]
    cases += [(list("xyz"),), ((),), (("a", "a"),), (("", "b"),), ((1, "b"),), (None,)]
    return cases


def _relation_args(rng):
    cases = []
    for _ in range(40):
        strict = random_relation(rng, ABCD).strict
        cases.append((ABCD, rng.choice([strict, set(strict), sorted(strict)])))
    cases += [(ABC, {(0, 3)}), (ABC, {(1, 1)}), (ABC, [(0, 1), (1, 0)]), (ABC, None),
              (None, set()), (ABC, frozenset()), (Universe("cba"), {(0, 1)})]
    return cases


def _utility_args(rng):
    cases = []
    for _ in range(40):
        values = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        spelled = [rng.choice([x, str(x), x.numerator if x.denominator == 1 else x])
                   for x in values]
        cases.append((ABC, rng.choice([tuple(values), tuple(spelled), spelled])))
    cases += [(ABC, (1, 2)), (ABC, (1, 2, 0.5)), (ABC, (True, 0, 0)), (ABC, ("x", 0, 0)),
              (ABC, ()), (ABC, 5)]
    return cases


def _agents(rng, universe, n):
    pool = [random_relation(rng, universe) for _ in range(3)]
    pool.append(UtilityVector(universe, [rng.randint(0, 3) for _ in universe.names]))
    return [rng.choice(pool) for _ in range(n)]


def _profile_args(rng):
    cases = [(ABC, _agents(rng, ABC, rng.randint(1, 5))) for _ in range(30)]
    cases += [(ABC, ()), (ABC, [random_relation(rng, ABCD)]), (ABC, [None])]
    return cases


def _polytope_args(rng):
    cases = []
    for _ in range(30):
        pool = [random_lottery(rng, ABC) for _ in range(3)]
        cases.append((ABC, [rng.choice(pool) for _ in range(rng.randint(1, 5))]))
    cases += [(ABC, ()), (ABC, [ABCD.pure("a")]), (ABC, 5)]
    return cases


def _proposal_args(rng):
    cases = []
    for _ in range(30):
        k, m = rng.randint(1, 3), rng.randint(1, 3)
        columns = []
        for _ in range(m):
            weights = [rng.randint(0, 4) for _ in range(k)]
            weights[rng.randrange(k)] += 1
            columns.append([Fraction(w, sum(weights)) for w in weights])
        shares = tuple(tuple(col[i] for col in columns) for i in range(k))
        roll = rng.random()
        if roll < 0.15:
            shares = ((-shares[0][0],) + shares[0][1:],) + shares[1:]
        elif roll < 0.3:
            shares = ((shares[0][0] + 1,) + shares[0][1:],) + shares[1:]
        cases.append((tuple(f"d{i}" for i in range(k)), tuple("xyz"[:m]), shares))
    cases += [(("d",), ("x",), ((1,), (0,))), (("d",), ("x", "y"), ((1,),)),
              (("d",), ("x",), ((1.0,),)), (("d",), ("x",), (("1",),))]
    return cases


def _certificate_args(rng):
    cases = []
    for _ in range(15):
        certificate = maximal_lottery(random_ssb_matrix(rng, ABCD))
        cases.append((certificate.lottery, certificate.slack))
    return cases


def _handle_args(rng):
    return [("pairwise-utilitarian", utilitarian), ("constant", axioms._constant_fn),
            ("constant", axioms._constant_fn, {})]


def _profile_pairs(rng, count):
    orders = axioms.weak_orders(ABC)
    return [tuple(Profile(ABC, [rng.choice(orders) for _ in range(2)]) for _ in range(2))
            for _ in range(count)]


def _iia_args(rng):
    cases = []
    for swf in (axioms.pairwise_utilitarian_swf(), axioms.dictatorial_swf()):
        for r1, r2 in _profile_pairs(rng, 8):
            verdict = axioms.check_iia(swf, r1, r2, rng.choice([("a", "b"), ("b", "c"), ("a", "b", "c")]))
            cases.append((verdict.passed, verdict.vacuous, verdict.restriction))
    cases += [(True, False, ("a", "b"), "another convention"), (False, True, ())]
    return cases


def _anonymity_args(rng):
    cases = []
    swfs = (axioms.pairwise_utilitarian_swf(), axioms.dictatorial_swf())
    for _ in range(12):
        profile = Profile(ABC, [random_relation(rng, ABC) for _ in range(rng.randint(2, 8))])
        verdict = axioms.check_anonymity(rng.choice(swfs), profile, seed=rng.randint(0, 3))
        cases.append((verdict.passed, verdict.witness, verdict.mode))
    return cases


def _pareto_args(rng):
    cases = []
    pairs = axioms.pareto_pairs(ABC, samples=4, seed=1)
    for swf in (axioms.pairwise_utilitarian_swf(), axioms.constant_swf(),
                axioms.dictatorial_swf()):
        for r1, _ in _profile_pairs(rng, 4):
            v = axioms.check_pareto(swf, r1, pairs)
            cases.append((v.passed, v.counterexample, v.checked, v.strict_cases,
                          v.weak_cases))
    return cases


def _suite_args(rng):
    cases = []
    for swf in (axioms.pairwise_utilitarian_swf(), axioms.relative_utilitarian_swf()):
        profiles = [p for pair in _profile_pairs(rng, 3) for p in pair]
        if swf.name == "relative-utilitarian":
            before, after, _ = axioms.intensity_flip_fixture()
            profiles = [before, after]
        report = axioms.exhaustive_iia(swf, profiles)
        cases.append((report.checked, report.vacuous, report.violations))
    return cases


DOMAINS = [axioms.pc_domain(Universe("ab")), axioms.pc_transitive_domain(ABC),
           axioms.dichotomous_domain(ABC),
           DomainDescription.of(ABC, [random_ssb_matrix(random.Random(5), ABC)
                                      for _ in range(4)], "drawn")]


def _domain_args(rng):
    cases = [(d.universe, d._entries, d.name) for d in DOMAINS]
    cases += [(d.universe, d._entries) for d in DOMAINS[:2]]
    return cases


def _condition_args(rng):
    cases = []
    for domain in DOMAINS:
        report = axioms.audit_richness(domain, axioms.DEFAULT_CONDITIONS,
                                       member_limit=rng.choice([2, 2000]), seed=rng.randint(0, 3))
        cases += [(r.condition, r.passed, r.witness, r.mode) for r in report.results]
    return cases


def _report_args(rng):
    cases = []
    for domain in DOMAINS:
        report = axioms.audit_richness(domain, axioms.DEFAULT_CONDITIONS, seed=0)
        cases.append((report.domain, report.results))
    return cases


def _inclusion_args(rng):
    cases = []
    for domain in DOMAINS:
        report = axioms.pc_inclusion_check(domain)
        cases.append((report.all_pc, report.witness, report.message))
    return cases


CLASSES = [
    (Universe, ReferenceUniverse, _universe_args),
    (BaseRelation, ReferenceBaseRelation, _relation_args),
    (UtilityVector, ReferenceUtilityVector, _utility_args),
    (Profile, ReferenceProfile, _profile_args),
    (FeasiblePolytope, ReferenceFeasiblePolytope, _polytope_args),
    (ProposalMatrix, ReferenceProposalMatrix, _proposal_args),
    (MaximalityCertificate, ReferenceMaximalityCertificate, _certificate_args),
    (SWFHandle, ReferenceSWFHandle, _handle_args),
    (IIAVerdict, ReferenceIIAVerdict, _iia_args),
    (AnonymityVerdict, ReferenceAnonymityVerdict, _anonymity_args),
    (ParetoVerdict, ReferenceParetoVerdict, _pareto_args),
    (IIASuiteReport, ReferenceIIASuiteReport, _suite_args),
    (DomainDescription, ReferenceDomainDescription, _domain_args),
    (ConditionResult, ReferenceConditionResult, _condition_args),
    (RichnessReport, ReferenceRichnessReport, _report_args),
    (PCInclusionReport, ReferencePCInclusionReport, _inclusion_args),
]


# -- the checks --

CHECKED = {Universe, BaseRelation, UtilityVector, Profile, FeasiblePolytope, ProposalMatrix}


def _outcome(build):
    """What a call gives: its value, or its error's type and text with the
    reference class's name made the program class's."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc).replace("Reference", "")


def _built(cls, ref_cls, cases):
    """(new, ref) for each valid case; an invalid one must fail alike."""
    built = []
    for args in cases:
        new, ref = _outcome(lambda: cls(*args)), _outcome(lambda: ref_cls(*args))
        if isinstance(ref, ref_cls):
            built.append((new, ref))
        else:
            assert new == ref
    return built


def _args(value):
    """The constructor arguments that rebuild a value, read from its
    attributes of the parameters' names (a profile's `agents` included)."""
    params = list(inspect.signature(type(value).__init__).parameters)[1:]
    return [getattr(value, name) for name in params]


def _same_value(new, ref):
    assert type(ref).__name__ == "Reference" + type(new).__name__
    assert repr(new) == repr(ref).replace("Reference", "", 1)
    assert set(vars(new)) == set(vars(ref))


@pytest.mark.parametrize("cls, ref_cls, cases", CLASSES, ids=[c[0].__name__ for c in CLASSES])
def test_values_match_the_dataclass(cls, ref_cls, cases):
    rng = random.Random(sum(map(ord, cls.__name__)))
    cases = cases(rng)
    built = _built(cls, ref_cls, cases)
    assert len(built) >= 2
    # every class that checks its arguments met some it refuses
    assert (len(built) < len(cases)) is (cls in CHECKED)
    for new, ref in built:
        _same_value(new, ref)
        if cls is not SWFHandle:
            assert hash(new) == hash(ref)
    # equality and hash agree pair by pair, equal rebuilt values included
    pairs = built + [(cls(*_args(new)), ref_cls(*_args(new))) for new, ref in built]
    for (p, p_ref), (q, q_ref) in itertools.product(pairs[::3], pairs[1::2]):
        assert (p == q) is (p_ref == q_ref)
        assert (p != q) is (p_ref != q_ref)
        if cls is not SWFHandle:
            assert (hash(p) == hash(q)) is (hash(p_ref) == hash(q_ref))
    new, ref = built[0]
    assert new.__eq__(ref) is NotImplemented and ref.__eq__(new) is NotImplemented
    assert (new == ref) is False and (new != ref) is True


@pytest.mark.parametrize("cls, ref_cls, cases", CLASSES, ids=[c[0].__name__ for c in CLASSES])
def test_copies_and_pickles_match_the_dataclass(cls, ref_cls, cases):
    rng = random.Random(sum(map(ord, cls.__name__)) + 1)
    for new, ref in _built(cls, ref_cls, cases(rng)):
        hash(new), hash(ref)  # stored hashes, where a class keeps one
        new_clones = (copy.copy(new), copy.deepcopy(new), pickle.loads(pickle.dumps(new)))
        ref_clones = (copy.copy(ref), copy.deepcopy(ref), copy.deepcopy(ref))
        for clone, ref_clone in zip(new_clones, ref_clones):
            assert type(clone) is cls
            _same_value(clone, ref_clone)
            assert (clone == new) is (ref_clone == ref)
            if cls is not SWFHandle:
                assert hash(clone) == hash(new)


@pytest.mark.parametrize("cls, ref_cls, cases", CLASSES, ids=[c[0].__name__ for c in CLASSES])
def test_frozen_error_matches_the_dataclass(cls, ref_cls, cases):
    rng = random.Random(sum(map(ord, cls.__name__)) + 2)
    new, ref = _built(cls, ref_cls, cases(rng))[0]
    names = [f.name for f in dataclasses.fields(ref_cls)] + ["_hash", "other"]
    for name in names:
        for act in (lambda x: setattr(x, name, 1), lambda x: delattr(x, name)):
            new_error, ref_error = _outcome(lambda: act(new)), _outcome(lambda: act(ref))
            assert new_error == ref_error
            assert new_error[0] is dataclasses.FrozenInstanceError
    assert repr(new) == repr(ref).replace("Reference", "", 1)


@pytest.mark.parametrize("cls, ref_cls, cases", CLASSES, ids=[c[0].__name__ for c in CLASSES])
def test_constructor_arguments_match_the_dataclass(cls, ref_cls, cases):
    rng = random.Random(sum(map(ord, cls.__name__)) + 3)
    params = list(inspect.signature(ref_cls.__init__).parameters)[1:]
    assert list(inspect.signature(cls.__init__).parameters)[1:] == params
    for new, ref in _built(cls, ref_cls, cases(rng))[:6]:
        args = _args(new)
        keywords = dict(zip(params, args))
        for call in (lambda c: c(*args), lambda c: c(**keywords),
                     lambda c: c(*args[:1], **dict(list(keywords.items())[1:]))):
            assert repr(call(cls)) == repr(call(ref_cls)).replace("Reference", "", 1)
        # too many, too few, unknown and repeated arguments
        for call in (lambda c: c(*args, None, None), lambda c: c(*args[:-1]), lambda c: c(),
                     lambda c: c(*args, bogus=1), lambda c: c(*args, **{params[0]: 1})):
            new_outcome, ref_outcome = _outcome(lambda: call(cls)), _outcome(lambda: call(ref_cls))
            if isinstance(ref_outcome, tuple) and ref_outcome[0] is TypeError:
                assert new_outcome == ref_outcome
            else:
                assert repr(new_outcome) == repr(ref_outcome).replace("Reference", "", 1)


def test_defaults_match_the_dataclass():
    verdict = IIAVerdict(True, False, ("a", "b"))
    assert verdict.convention == ReferenceIIAVerdict(True, False, ()).convention
    assert verdict == IIAVerdict(True, False, ("a", "b"), verdict.convention)
    domain = DomainDescription(ABC, DOMAINS[1]._entries)
    assert domain.name == "" and domain == DomainDescription(ABC, DOMAINS[1]._entries, "")
    first, second = SWFHandle("u", utilitarian), SWFHandle("u", utilitarian)
    assert first._cache == {} and first._cache is not second._cache
    assert first != second and first == first
    cache = {}
    assert SWFHandle("u", utilitarian, cache)._cache is cache
    assert SWFHandle("u", utilitarian, _cache=cache)._cache is cache
    assert ReferenceSWFHandle("u", utilitarian, cache)._cache is cache


def test_parsed_utilities_equal_constructed_ones():
    # the parser hands the constructor a tuple of Fractions, which it keeps;
    # from a list of literals it coerces: both give the same vector,
    # exponent literals too
    rng = random.Random(31)
    literals = ["0", "1", "7/3", "-2", "0.25", "1e3", "417e-9", "-3.5E+2", "2/6", "1_000"]
    for _ in range(200):
        names = "abcdef"[: rng.randint(1, 6)]
        universe = Universe(names)
        chosen = rng.sample(names, rng.randint(1, len(names)))
        items = {n: rng.choice(literals) for n in chosen}
        text = f"universe: {', '.join(names)}\n" + "1: util " + ", ".join(
            f"{n}={v}" for n, v in items.items()) + "\n"
        (agent,) = parse_ballots(text).agents
        built = UtilityVector(universe, [items.get(n, 0) for n in names])
        assert agent == built and hash(agent) == hash(built) and repr(agent) == repr(built)
        assert all(type(x) is Fraction for x in agent.values)


# -- a weak order in tier form and in pair form --


def _pairs_of(tiers, universe):
    """The strict pairs of named tiers, best first, the bottom tier included."""
    levels = [[universe.index(name) for name in tier] for tier in tiers]
    return {(a, b) for i, high in enumerate(levels) for low in levels[i + 1:]
            for a in high for b in low}


def _tier_forms(universe):
    """Every weak order on `universe` as `weak_order` builds it, in tier
    form, its bottom tier listed or left out in turn."""
    for k, tiers in enumerate(axioms._ordered_partitions(universe.names)):
        yield weak_order(universe, tiers if k % 2 else tiers[:-1])


@pytest.mark.parametrize("m", range(1, 5))
def test_tier_and_pair_forms_of_a_weak_order_are_one_value(m):
    universe = Universe("abcd"[:m])
    for tiered in _tier_forms(universe):
        paired = BaseRelation(universe, _pairs_of(tiered.tiers(), universe))
        # a built order holds its tiers and no pairs yet
        assert "_tiers" in vars(tiered) and "strict" not in vars(tiered)
        assert tiered == paired and paired == tiered and not tiered != paired
        assert paired.tiers() == tiered.tiers()
        assert hash(tiered) == hash(paired) == hash((universe, paired.strict))
        assert tiered.strict == paired.strict
        # listing the bottom tier or not builds the same canonical tiers
        for tiers in (tiered.tiers(), tiered.tiers()[:-1]):
            listed = weak_order(universe, tiers)
            assert vars(listed)["_tiers"] == vars(tiered)["_tiers"] and listed == paired
        assert paired in {tiered} and tiered in {paired}
        assert {tiered: 1}[paired] == 1 and {paired: 1}[tiered] == 1
        for value in (tiered, paired):
            clone = pickle.loads(pickle.dumps(value))
            # a clone keeps its form and equals both
            assert vars(clone).get("_tiers") == vars(value).get("_tiers")
            assert ("strict" in vars(clone)) is (value is paired)
            assert clone == tiered and clone == paired and hash(clone) == hash(value)


@pytest.mark.parametrize("m", range(1, 5))
def test_a_relation_equals_a_weak_order_only_when_it_is_one(m):
    universe = Universe("abcd"[:m])
    orders = list(_tier_forms(universe))
    hashed = set(orders)
    pairs = list(itertools.combinations(range(m), 2))
    matched = 0
    for signs in itertools.product((-1, 0, 1), repeat=len(pairs)):
        relation = BaseRelation(universe, {(a, b) if s > 0 else (b, a)
                                           for (a, b), s in zip(pairs, signs) if s})
        equal = [order for order in orders if order == relation or relation == order]
        # a tournament with a cycle, or any relation that is no weak order,
        # equals none; a weak order equals its own tier form only
        assert len(equal) == (relation.tiers() is not None)
        assert (relation in hashed) is bool(equal)
        matched += len(equal)
    assert matched == len(orders)


def _solver_certificates(rng):
    """(phi, certificate) from `maximal_lottery` on seeded matrices over a
    denominator d > 1, five from each path: a strict Condorcet winner's
    row, and Bland's simplex."""
    by_path = {True: [], False: []}
    while min(map(len, by_path.values())) < 5:
        d, rows = random_ssb_matrix(rng, ABCD).scaled
        phi = SSBMatrix.from_scaled(ABCD, d * rng.randint(2, 9), rows)
        winner = any(min(row[:c] + row[c + 1:]) > 0 for c, row in enumerate(rows))
        if phi.scaled[0] > 1 and len(by_path[winner]) < 5:
            by_path[winner].append((phi, maximal_lottery(phi)))
    return by_path[True] + by_path[False]


def test_solver_certificates_match_the_dataclass():
    # a certificate the solver builds from its integer form is the value
    # the constructor and the dataclass build from its Fractions
    names = [f.name for f in dataclasses.fields(ReferenceMaximalityCertificate)]
    for phi, solved in _solver_certificates(random.Random(34)):
        built = MaximalityCertificate(solved.lottery, solved.slack)
        ref = ReferenceMaximalityCertificate(solved.lottery, solved.slack)
        assert all(type(s) is Fraction for s in solved.slack)
        for new in (solved, built):
            _same_value(new, ref)
            assert new == solved and hash(new) == hash(ref)
            for clone in (copy.copy(new), copy.deepcopy(new), pickle.loads(pickle.dumps(new))):
                _same_value(clone, ref)
                assert clone == new and hash(clone) == hash(new)
            for name in names + ["_hash", "other"]:
                for act in (lambda x: setattr(x, name, 1), lambda x: delattr(x, name)):
                    assert _outcome(lambda: act(new)) == _outcome(lambda: act(ref))
        assert unique_optimum(phi, solved) is unique_optimum(phi, built)
        # the certificate with one slack moved, built either way, is refused alike
        d, nums = solved.scaled
        moved = [x + d * (b == 1) for b, x in enumerate(nums)]
        for wrong in (MaximalityCertificate._from_scaled(solved.lottery, d, moved),
                      MaximalityCertificate(solved.lottery,
                                            tuple([Fraction(x, d) for x in moved]))):
            assert _outcome(lambda: unique_optimum(phi, wrong)) == (
                ValueError, "certificate does not belong to phi")
