"""Brute-force and randomized verification of aggregation axioms.

Everything here treats a social welfare function as a black box from
profiles to SSB matrices and checks its behaviour on enumerable or
sampled instances: independence of irrelevant alternatives, anonymity,
Pareto optimality, and richness conditions on closed-world preference
domains.  Deliberately broken rules (dictatorial, constant, the
intensity-summing vNM rule) live here too, so the checkers can be shown
to reject something.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .aggregate import (
    ParetoDominance,
    approval_aggregate,
    pareto_relation,
    relative_utilitarian_vnm,
    utilitarian,
)
from .model import (
    BaseRelation,
    Lottery,
    Profile,
    Universe,
    UtilityVector,
    weak_order,
)
from .ssb import (
    Comparison,
    SSBMatrix,
    compare,
    normalize,
    pc_extension,
    restrict,
    is_pc,
    separable,
    to_matrix,
)


# ---------------------------------------------------------------------------
# social welfare function handles and fixtures


@dataclass(frozen=True, eq=False)
class SWFHandle:
    """A named, memoized social welfare function (Profile -> SSBMatrix)."""

    name: str
    fn: Callable[[Profile], SSBMatrix]
    _cache: dict = field(default_factory=dict, repr=False)

    def __call__(self, profile: Profile) -> SSBMatrix:
        result = self._cache.get(profile)
        if result is None:
            result = self.fn(profile)
            self._cache[profile] = result
        return result


def _pairwise_utilitarian_fn(profile: Profile) -> SSBMatrix:
    return utilitarian(profile)


def _approval_fn(profile: Profile) -> SSBMatrix:
    return approval_aggregate(profile)[1]


def _relative_utilitarian_fn(profile: Profile) -> SSBMatrix:
    return relative_utilitarian_vnm(profile)


def _dictator_fn(profile: Profile) -> SSBMatrix:
    return normalize(to_matrix(profile.runs[0][0]))


def _constant_fn(profile: Profile) -> SSBMatrix:
    return SSBMatrix.zero(profile.universe)


def pairwise_utilitarian_swf() -> SWFHandle:
    return SWFHandle("pairwise-utilitarian", _pairwise_utilitarian_fn)


def approval_swf() -> SWFHandle:
    return SWFHandle("approval", _approval_fn)


def relative_utilitarian_swf() -> SWFHandle:
    return SWFHandle("relative-utilitarian", _relative_utilitarian_fn)


def dictatorial_swf() -> SWFHandle:
    """Negative fixture: the first agent's preferences, verbatim."""
    return SWFHandle("dictatorial", _dictator_fn)


def constant_swf() -> SWFHandle:
    """Negative fixture: complete collective indifference, always."""
    return SWFHandle("constant", _constant_fn)


# ---------------------------------------------------------------------------
# restriction signatures: relation equality on a sub-simplex


@lru_cache(maxsize=None)
def relation_signature(matrix: SSBMatrix, names: tuple[str, ...]):
    """Canonical form of the preferences induced on the sub-simplex over `names`.

    Two matrices induce identical preferences there iff their restricted
    matrices agree up to a positive scale factor, i.e. iff these
    signatures are equal.
    """
    return normalize(restrict(matrix, names)).entries


@lru_cache(maxsize=None)
def _agent_matrix(agent) -> SSBMatrix:
    return to_matrix(agent)


def signs_match_on(
    m1: SSBMatrix,
    m2: SSBMatrix,
    names: tuple[str, ...],
    rng: random.Random,
    trials: int = 50,
) -> bool:
    """Cross-check of signature equality by sampling comparison signs."""
    a = restrict(m1, names)
    b = restrict(m2, names)
    sub = a.universe
    for _ in range(trials):
        p = random_lottery(rng, sub)
        q = random_lottery(rng, sub)
        if compare(a, p, q) is not compare(b, p, q):
            return False
    return True


# ---------------------------------------------------------------------------
# axiom checks


@dataclass(frozen=True)
class IIAVerdict:
    passed: bool
    vacuous: bool
    restriction: tuple[str, ...]
    convention: str = "restricted matrices equal up to positive scaling"


def check_iia(
    f: SWFHandle, r1: Profile, r2: Profile, names: Iterable[str]
) -> IIAVerdict:
    """Independence of irrelevant alternatives, one hypothesis pair at a time.

    Hypothesis: each agent's preferences restricted to the sub-simplex
    over `names` coincide across the two profiles.  Conclusion: so do the
    collective preferences.  Both sides are decided by signature equality
    (exact, complete for SSB relations); a failed hypothesis passes
    vacuously.
    """
    if r1.universe != r2.universe or r1.n != r2.n:
        raise ValueError("profiles must share universe and agent count")
    x = r1.universe.subset(names)
    for a1, a2 in zip(r1.agents, r2.agents):
        if relation_signature(_agent_matrix(a1), x) != relation_signature(
            _agent_matrix(a2), x
        ):
            return IIAVerdict(passed=True, vacuous=True, restriction=x)
    hold = relation_signature(f(r1), x) == relation_signature(f(r2), x)
    return IIAVerdict(passed=hold, vacuous=False, restriction=x)


@dataclass(frozen=True)
class AnonymityVerdict:
    passed: bool
    witness: tuple[int, ...] | None
    mode: str


def check_anonymity(
    f: SWFHandle,
    profile: Profile,
    permutation_limit: int = 6,
    samples: int = 24,
    seed: int = 0,
) -> AnonymityVerdict:
    """Whether renaming agents ever changes the output matrix (entrywise)."""
    base = f(profile)
    if profile.n <= permutation_limit:
        perms: Iterable[tuple[int, ...]] = itertools.permutations(range(profile.n))
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        pool = list(range(profile.n))
        perms = [tuple(rng.sample(pool, profile.n)) for _ in range(samples)]
        mode = f"sampled({samples}, seed={seed})"
    for pi in perms:
        if f(profile.permuted(pi)).entries != base.entries:
            return AnonymityVerdict(passed=False, witness=pi, mode=mode)
    return AnonymityVerdict(passed=True, witness=None, mode=mode)


@dataclass(frozen=True)
class ParetoVerdict:
    passed: bool
    counterexample: tuple[Lottery, Lottery, ParetoDominance, Comparison] | None
    checked: int
    strict_cases: int
    weak_cases: int


def check_pareto(
    f: SWFHandle,
    profile: Profile,
    pairs: Iterable[tuple[Lottery, Lottery]] | None = None,
    samples: int = 200,
    seed: int = 0,
) -> ParetoVerdict:
    """Unanimity must be respected: strict dominance forces strict collective
    preference, unanimous indifference forces collective indifference.

    Checks the supplied lottery pairs, or by default all pure pairs plus
    seeded random pairs.  Reports the first counterexample.
    """
    if pairs is None:
        rng = random.Random(seed)
        universe = profile.universe
        pure = [universe.pure(n) for n in universe.names]
        pairs = [(p, q) for p in pure for q in pure]
        pairs += [
            (random_lottery(rng, universe), random_lottery(rng, universe))
            for _ in range(samples)
        ]
    collective = f(profile)
    checked = strict_cases = weak_cases = 0
    for p, q in pairs:
        checked += 1
        dominance = pareto_relation(profile, p, q)
        if dominance is ParetoDominance.NONE:
            continue
        outcome = compare(collective, p, q)
        if dominance is ParetoDominance.STRICT_DOMINANCE:
            strict_cases += 1
            if outcome is not Comparison.PREFERRED:
                return ParetoVerdict(False, (p, q, dominance, outcome), checked,
                                     strict_cases, weak_cases)
        else:
            weak_cases += 1
            if outcome is not Comparison.INDIFFERENT:
                return ParetoVerdict(False, (p, q, dominance, outcome), checked,
                                     strict_cases, weak_cases)
    return ParetoVerdict(True, None, checked, strict_cases, weak_cases)


# ---------------------------------------------------------------------------
# exhaustive IIA sweeps


@dataclass(frozen=True)
class IIASuiteReport:
    checked: int
    vacuous: int
    violations: tuple[tuple[int, int, tuple[str, ...]], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _signature_tables(f, profiles, subsets):
    hyp = []
    con = []
    for profile in profiles:
        agent_matrices = [_agent_matrix(a) for a in profile.agents]
        hyp.append(
            tuple(
                tuple(relation_signature(m, x) for m in agent_matrices)
                for x in subsets
            )
        )
        out = f(profile)
        con.append(tuple(relation_signature(out, x) for x in subsets))
    return hyp, con


def exhaustive_iia(
    f: SWFHandle,
    profiles: Sequence[Profile],
    subsets: Sequence[tuple[str, ...]] | None = None,
    max_violations: int = 5,
) -> IIASuiteReport:
    """check_iia over every ordered pair of profiles and every restriction set.

    Precomputes per-profile restriction signatures once, then, for each
    restriction set x, groups the profiles by their hypothesis signature
    on x.  A pair in different groups is vacuous; a pair in one group
    violates IIA iff its conclusion signatures on x differ, so only groups
    whose conclusions differ are searched.  The first `max_violations`
    violations are reported in (i, j, subset) order, the order of the
    pairwise loop over profile i, then profile j, then restriction set.
    """
    universe = profiles[0].universe
    if subsets is None:
        subsets = restriction_sets(universe)
    subsets = tuple(tuple(x) for x in subsets)
    hyp, con = _signature_tables(f, profiles, subsets)
    n = len(profiles)
    vacuous = 0
    suspects: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    for x in range(len(subsets)):
        groups: dict = {}
        for i in range(n):
            groups.setdefault(hyp[i][x], []).append(i)
        vacuous += n * n - sum(len(g) ** 2 for g in groups.values())
        for g in groups.values():
            if len({con[i][x] for i in g}) > 1:
                for i in g:
                    suspects[i].append((x, g))
    violations: list[tuple[int, int, tuple[str, ...]]] = []
    for i in range(n):
        if len(violations) >= max_violations:
            break
        hits = sorted(
            (j, x)
            for x, g in suspects[i]
            for j in g
            if con[j][x] != con[i][x]
        )
        violations += ((i, j, subsets[x]) for j, x in hits)
    return IIASuiteReport(
        n * n * len(subsets), vacuous, tuple(violations[:max_violations])
    )


def restriction_sets(universe: Universe, min_size: int = 1) -> tuple[tuple[str, ...], ...]:
    """All alternative subsets of at least `min_size`, in a fixed order."""
    out = []
    for size in range(min_size, len(universe) + 1):
        out.extend(itertools.combinations(universe.names, size))
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration of small preference domains


def weak_orders(universe: Universe) -> list[BaseRelation]:
    """Every weak order (ordered partition into indifference tiers)."""
    return [weak_order(universe, tiers) for tiers in _ordered_partitions(universe.names)]


def _ordered_partitions(items: tuple[str, ...]):
    """All ordered set partitions, deterministic order."""
    if not items:
        yield []
        return
    indices = range(len(items))
    for r in range(1, len(items) + 1):
        for head_idx in itertools.combinations(indices, r):
            head = tuple(items[i] for i in head_idx)
            rest = tuple(items[i] for i in indices if i not in head_idx)
            for tail in _ordered_partitions(rest):
                yield [head] + tail


def dichotomous_relations(universe: Universe) -> list[BaseRelation]:
    """Every dichotomous relation, one per approved set (full set = empty set)."""
    out = []
    names = universe.names
    for r in range(len(names)):  # r == len(names) duplicates the empty relation
        for approved in itertools.combinations(names, r):
            if approved:
                out.append(weak_order(universe, [approved]))
            else:
                out.append(weak_order(universe, [names]))
    return out


def pc_matrices(universe: Universe) -> list[SSBMatrix]:
    """Every pairwise-comparison matrix (all sign patterns on ordered pairs)."""
    names = universe.names
    pairs = list(itertools.combinations(range(len(names)), 2))
    out = []
    for signs in itertools.product((-1, 0, 1), repeat=len(pairs)):
        strict = frozenset(
            (a, b) if s > 0 else (b, a)
            for (a, b), s in zip(pairs, signs)
            if s != 0
        )
        out.append(pc_extension(BaseRelation(universe, strict)))
    return out


def profiles_over(relations: Sequence, n: int, universe: Universe) -> list[Profile]:
    """All n-agent profiles with agents drawn from the given list, in order."""
    return [
        Profile(universe, agents)
        for agents in itertools.product(relations, repeat=n)
    ]


# ---------------------------------------------------------------------------
# closed-world domains and richness


class RichnessCondition(enum.Enum):
    NEUTRALITY = "R1"            # closed under relabeling alternatives
    FULL_INDIFFERENCE = "R2"     # the zero matrix is available
    INVERSION = "R3"             # closed under reversing preferences
    BOTTOM_EXTENSION = "R4"      # any small pattern extends above a fresh alternative
    DICHOTOMOUS_PATTERNS = "R5"  # all two-tier patterns on small sets realized

    @classmethod
    def parse(cls, token: str) -> "RichnessCondition":
        for member in cls:
            if member.value == token.upper() or member.name == token.upper():
                return member
        raise ValueError(f"unknown richness condition {token!r}")


DEFAULT_CONDITIONS = (
    RichnessCondition.NEUTRALITY,
    RichnessCondition.FULL_INDIFFERENCE,
    RichnessCondition.INVERSION,
    RichnessCondition.BOTTOM_EXTENSION,
)


@dataclass(frozen=True)
class DomainDescription:
    """A finite, closed-world stand-in for a preference domain.

    Membership means "this preference relation is available to agents";
    matrices are stored normalized so membership is scale-free.
    """

    universe: Universe
    matrices: frozenset[SSBMatrix]
    name: str = ""

    @classmethod
    def of(
        cls, universe: Universe, members: Iterable[SSBMatrix], name: str = ""
    ) -> "DomainDescription":
        return cls(universe, frozenset(normalize(m) for m in members), name)

    def __contains__(self, matrix: SSBMatrix) -> bool:
        return normalize(matrix) in self.matrices

    def sorted_members(self) -> list[SSBMatrix]:
        return sorted(self.matrices, key=lambda m: m.entries)


def pc_domain(universe: Universe) -> DomainDescription:
    return DomainDescription.of(universe, pc_matrices(universe), "pc")


def pc_transitive_domain(universe: Universe) -> DomainDescription:
    return DomainDescription.of(
        universe, (pc_extension(r) for r in weak_orders(universe)), "pc-transitive"
    )


def dichotomous_domain(universe: Universe) -> DomainDescription:
    return DomainDescription.of(
        universe,
        (pc_extension(r) for r in dichotomous_relations(universe)),
        "dichotomous",
    )


@dataclass(frozen=True)
class ConditionResult:
    condition: RichnessCondition
    passed: bool
    witness: str | None
    mode: str


@dataclass(frozen=True)
class RichnessReport:
    domain: str
    results: tuple[ConditionResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _permutations_of(universe: Universe):
    for perm in itertools.permutations(universe.names):
        yield dict(zip(universe.names, perm))


def _column_positive(matrix: SSBMatrix, xs: tuple[str, ...], a: str) -> bool:
    return all(matrix[x, a] > 0 for x in xs)


def _find_bottom_extension(
    domain: DomainDescription, member: SSBMatrix, xs: tuple[str, ...]
) -> SSBMatrix | None:
    """A member agreeing with `member` on xs and placing xs above a fresh
    alternative, or None.

    Probes the cheap candidate first: `member` itself with the fresh
    column overwritten by the domain's strongest entry.  That candidate is
    a member whenever the domain is closed under this surgery (true for
    the pairwise-comparison domains used in practice); otherwise fall back
    to scanning the domain.
    """
    target = relation_signature(member, xs)
    outside = [a for a in domain.universe.names if a not in xs]
    scale = member.max_entry() if not member.is_zero() else Fraction(1)
    for a in outside:
        grid = [list(row) for row in member.entries]
        ia = domain.universe.index(a)
        for x in xs:
            ix = domain.universe.index(x)
            grid[ix][ia] = scale
            grid[ia][ix] = -scale
        candidate = normalize(SSBMatrix(domain.universe, tuple(map(tuple, grid))))
        if candidate in domain and relation_signature(candidate, xs) == target:
            return candidate
    for candidate in domain.sorted_members():
        if relation_signature(candidate, xs) != target:
            continue
        for a in outside:
            if _column_positive(candidate, xs, a):
                return candidate
    return None


def audit_richness(
    domain: DomainDescription,
    conditions: Sequence[RichnessCondition] = DEFAULT_CONDITIONS,
    member_limit: int = 2000,
    seed: int = 0,
) -> RichnessReport:
    """Check closure conditions of a closed-world domain, with witnesses.

    Universally quantified conditions run exhaustively when the domain has
    at most `member_limit` members and otherwise over a seeded sample of
    members (the report records which).  PASS under sampling means "no
    violation found among the sampled members".
    """
    members = domain.sorted_members()
    if len(members) > member_limit:
        rng = random.Random(seed)
        scope = rng.sample(members, member_limit)
        mode = f"sampled({member_limit} of {len(members)}, seed={seed})"
    else:
        scope = members
        mode = "exhaustive"

    m = len(domain.universe)
    results = []
    for condition in conditions:
        witness: str | None = None
        passed = True

        if condition is RichnessCondition.NEUTRALITY:
            for member in scope:
                for mapping in _permutations_of(domain.universe):
                    if member.relabel(mapping) not in domain:
                        passed, witness = False, (
                            f"relabeling {mapping} of a member leaves the domain"
                        )
                        break
                if not passed:
                    break

        elif condition is RichnessCondition.FULL_INDIFFERENCE:
            if SSBMatrix.zero(domain.universe) not in domain:
                passed, witness = False, "zero matrix (complete indifference) missing"

        elif condition is RichnessCondition.INVERSION:
            for member in scope:
                if -member not in domain:
                    passed, witness = False, "inverse of a member is missing"
                    break

        elif condition is RichnessCondition.BOTTOM_EXTENSION:
            top = min(4, m - 1)
            subsets = [
                xs
                for size in range(1, top + 1)
                for xs in itertools.combinations(domain.universe.names, size)
            ]
            for member in scope:
                for xs in subsets:
                    if _find_bottom_extension(domain, member, xs) is None:
                        passed, witness = False, (
                            f"no member matches a member on {xs} while ranking "
                            f"{xs} above a fresh alternative"
                        )
                        break
                if not passed:
                    break

        elif condition is RichnessCondition.DICHOTOMOUS_PATTERNS:
            passed, witness = _audit_dichotomous_patterns(domain)

        results.append(ConditionResult(condition, passed, witness, mode))
    return RichnessReport(domain.name, tuple(results))


def _audit_dichotomous_patterns(domain: DomainDescription):
    """Every two-tier pattern on every set of up to four alternatives must be
    the restriction of some member."""
    names = domain.universe.names
    for size in range(1, min(4, len(names)) + 1):
        for xs in itertools.combinations(names, size):
            realized = {relation_signature(member, xs) for member in domain.matrices}
            for r in range(size + 1):
                for approved in itertools.combinations(xs, r):
                    values = tuple(
                        Fraction(1 if n in approved else 0) for n in xs
                    )
                    wanted = normalize(
                        separable(UtilityVector(Universe(xs), values))
                    ).entries
                    if wanted not in realized:
                        return False, (
                            f"pattern approving {approved or '(nothing)'} on {xs} "
                            "is not any member's restriction"
                        )
    return True, None


@dataclass(frozen=True)
class PCInclusionReport:
    """Whether every member of a domain is a pairwise-comparison matrix."""

    all_pc: bool
    witness: SSBMatrix | None
    message: str


def pc_inclusion_check(domain: DomainDescription) -> PCInclusionReport:
    """Contrapositive smoke test for rich domains.

    Anonymous aggregation satisfying both Pareto optimality and IIA forces
    every admissible preference into the pairwise-comparison class, so a
    rich domain with a non-PC member admits no such rule.  This checks the
    set inclusion only; it does not (and cannot) verify nonexistence.
    """
    for member in domain.sorted_members():
        if not is_pc(member):
            return PCInclusionReport(
                False,
                member,
                "domain leaves the pairwise-comparison class; if it is rich, "
                "no anonymous aggregation rule satisfies Pareto optimality "
                "and independence of irrelevant alternatives on it",
            )
    return PCInclusionReport(
        True, None, "domain lies inside the pairwise-comparison class"
    )


# ---------------------------------------------------------------------------
# fixtures and random instance generators


def intensity_flip_fixture() -> tuple[Profile, Profile, tuple[str, str]]:
    """Two vNM profiles whose pairwise preferences on (a, b) agree while the
    intensity-summing rule flips the collective verdict on that pair.

    Agent 1 moves their utility for b from 0 to 1/2, which changes no
    ordinal comparison between a and b for anyone, yet the summed scores
    go from (4/3, 1) to (4/3, 3/2): an independence violation.
    """
    universe = Universe(("a", "b", "c"))
    before = Profile(
        universe,
        (
            UtilityVector.of(universe, {"a": 1, "b": 0, "c": 0}),
            UtilityVector.of(universe, {"a": Fraction(1, 3), "b": 1, "c": 0}),
        ),
    )
    after = Profile(
        universe,
        (
            UtilityVector.of(universe, {"a": 1, "b": Fraction(1, 2), "c": 0}),
            UtilityVector.of(universe, {"a": Fraction(1, 3), "b": 1, "c": 0}),
        ),
    )
    return before, after, ("a", "b")


def random_fraction(rng: random.Random, max_abs: int = 4, max_den: int = 5) -> Fraction:
    return Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_den))


def random_lottery(rng: random.Random, universe: Universe, max_weight: int = 8) -> Lottery:
    weights = [rng.randint(0, max_weight) for _ in universe.names]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    return Lottery(universe, tuple(Fraction(w, total) for w in weights))


def random_weak_order(rng: random.Random, universe: Universe) -> BaseRelation:
    labels = {n: rng.randrange(len(universe)) for n in universe.names}
    tiers = [
        [n for n in universe.names if labels[n] == level]
        for level in sorted(set(labels.values()))
    ]
    return weak_order(universe, tiers)


def random_relation(rng: random.Random, universe: Universe) -> BaseRelation:
    """A uniformly random tournament-with-ties (may be intransitive)."""
    strict = set()
    m = len(universe)
    for a in range(m):
        for b in range(a + 1, m):
            roll = rng.randrange(3)
            if roll == 1:
                strict.add((a, b))
            elif roll == 2:
                strict.add((b, a))
    return BaseRelation(universe, frozenset(strict))


def random_ssb_matrix(rng: random.Random, universe: Universe, max_abs: int = 4) -> SSBMatrix:
    m = len(universe)
    grid = [[Fraction(0)] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            value = random_fraction(rng, max_abs=max_abs)
            grid[a][b] = value
            grid[b][a] = -value
    return SSBMatrix(universe, tuple(map(tuple, grid)))


def random_pc_profile(
    rng: random.Random, universe: Universe, n: int, transitive: bool = True
) -> Profile:
    maker = random_weak_order if transitive else random_relation
    return Profile(universe, tuple(maker(rng, universe) for _ in range(n)))


def unanimity_case(
    rng: random.Random, universe: Universe, n: int, strict: bool
) -> tuple[Profile, Lottery, Lottery]:
    """A profile plus a lottery pair with unanimity built in.

    Picks two alternatives x, y that every agent ties (so swapping mass
    between them leaves everyone exactly indifferent); in the strict
    variant one agent instead ranks x above y, and the pair is supported
    on {x, y} only, which makes that agent strictly better off under the
    shift and everyone else indifferent.
    """
    names = list(universe.names)
    x, y = rng.sample(names, 2)
    others = [n for n in names if n not in (x, y)]

    def tying_order() -> BaseRelation:
        rest = random_weak_order(rng, Universe(tuple(others))) if others else None
        tiers: list[list[str]] = (
            [list(t) for t in rest.tiers()] if rest is not None else []
        )
        slot = rng.randint(0, len(tiers))
        tiers.insert(slot, [x, y])
        return weak_order(universe, tiers)

    agents: list[BaseRelation] = [tying_order() for _ in range(n)]
    if strict:
        winner = rng.randrange(n)
        tiers = [list(t) for t in agents[winner].tiers()]
        joint = next(i for i, t in enumerate(tiers) if x in t)
        tiers[joint] = [a for a in tiers[joint] if a != x]
        tiers.insert(joint, [x])
        agents[winner] = weak_order(universe, tiers)
        share = Fraction(rng.randint(1, 3), 4)
        p = Lottery.of(universe, {x: share, y: 1 - share})
        q = Lottery.of(universe, {x: share - Fraction(1, 4), y: 1 - share + Fraction(1, 4)})
    else:
        p = random_lottery(rng, universe)
        delta = min(p[x], p[y], Fraction(1, 5))
        moved = dict(zip(universe.names, p.probs))
        moved[x] = p[x] + delta
        moved[y] = p[y] - delta
        q = Lottery.of(universe, moved)
    return Profile(universe, tuple(agents)), p, q
