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

import bisect
import enum
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
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
    UniverseMismatchError,
    UtilityVector,
    ranked_order,
    same_universe,
    weak_order,
)
from .ssb import (
    Comparison,
    SSBMatrix,
    _pc_rows,
    _ray,
    compare,
    normalize,
    pc_extension,
    restrict,
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
            result = self._cache[profile] = self.fn(profile)
        return result


def _approval_fn(profile: Profile) -> SSBMatrix:
    return approval_aggregate(profile)[1]


def _dictator_fn(profile: Profile) -> SSBMatrix:
    return normalize(to_matrix(profile.runs[0][0]))


def _constant_fn(profile: Profile) -> SSBMatrix:
    return SSBMatrix.zero(profile.universe)


def pairwise_utilitarian_swf() -> SWFHandle:
    return SWFHandle("pairwise-utilitarian", utilitarian)


def approval_swf() -> SWFHandle:
    return SWFHandle("approval", _approval_fn)


def relative_utilitarian_swf() -> SWFHandle:
    return SWFHandle("relative-utilitarian", relative_utilitarian_vnm)


def dictatorial_swf() -> SWFHandle:
    """Negative fixture: the first agent's preferences, verbatim."""
    return SWFHandle("dictatorial", _dictator_fn)


def constant_swf() -> SWFHandle:
    """Negative fixture: complete collective indifference, always."""
    return SWFHandle("constant", _constant_fn)


# ---------------------------------------------------------------------------
# restriction signatures: relation equality on a sub-simplex


def relation_signature(matrix: SSBMatrix, names: Iterable[str]):
    """Canonical form of the preferences induced on the sub-simplex over `names`.

    Two matrices induce identical preferences there iff their restricted
    matrices agree up to a positive scale factor, i.e. iff these
    signatures are equal.  Equals `normalize(restrict(matrix, names)).entries`.
    """
    return _signature(matrix.entries, _positions(matrix.universe, names))


def _positions(universe: Universe, names: Iterable[str]) -> list[int]:
    return [universe.index(n) for n in universe.subset(names)]


def _signature(entries, idx: list[int]):
    """`relation_signature` of entry rows on the alternatives at ascending
    positions idx: the ray of the restricted rows (unscaled for PC data)."""
    return _ray(tuple([tuple([entries[a][b] for b in idx]) for a in idx]))


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
    vacuously.  Decided by `exhaustive_iia` over the pair and `names`.
    """
    if r1.universe != r2.universe or r1.n != r2.n:
        raise ValueError("profiles must share universe and agent count")
    x = r1.universe.subset(names)
    report = exhaustive_iia(f, (r1, r2), (x,))
    return IIAVerdict(passed=report.passed, vacuous=report.vacuous > 0, restriction=x)


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
        # the identity, always first, relabels nothing: it is skipped
        perms: Iterable[tuple[int, ...]] = itertools.islice(
            itertools.permutations(range(profile.n)), 1, None)
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        pool = list(range(profile.n))
        perms = [tuple(rng.sample(pool, profile.n)) for _ in range(samples)]
        mode = f"sampled({samples}, seed={seed})"
    for pi in perms:
        # the memo is read, not filled: no relabeling is asked for again
        relabeled = profile.permuted(pi)
        if (f._cache.get(relabeled) or f.fn(relabeled)).entries != base.entries:
            return AnonymityVerdict(passed=False, witness=pi, mode=mode)
    return AnonymityVerdict(passed=True, witness=None, mode=mode)


@dataclass(frozen=True)
class ParetoVerdict:
    passed: bool
    counterexample: tuple[Lottery, Lottery, ParetoDominance, Comparison] | None
    checked: int
    strict_cases: int
    weak_cases: int


def pareto_pairs(
    universe: Universe, samples: int = 200, seed: int = 0
) -> list[tuple[Lottery, Lottery]]:
    """All ordered pure pairs, then `samples` pairs of random lotteries drawn
    with `seed`: the pairs `check_pareto` checks by default.  A caller that
    checks many profiles over one universe builds them once."""
    rng = random.Random(seed)
    pure = [universe.pure(n) for n in universe.names]
    pairs = [(p, q) for p in pure for q in pure]
    pairs += [
        (random_lottery(rng, universe), random_lottery(rng, universe))
        for _ in range(samples)
    ]
    return pairs


def check_pareto(
    f: SWFHandle,
    profile: Profile,
    pairs: Iterable[tuple[Lottery, Lottery]] | None = None,
    samples: int = 200,
    seed: int = 0,
) -> ParetoVerdict:
    """Unanimity must be respected: strict dominance forces strict collective
    preference, unanimous indifference forces collective indifference.

    Checks the supplied lottery pairs, or by default
    `pareto_pairs(profile.universe, samples, seed)`.  Reports the first
    counterexample.
    """
    if pairs is None:
        pairs = pareto_pairs(profile.universe, samples, seed)
    collective = f(profile)
    checked = strict_cases = weak_cases = 0
    for p, q in pairs:
        checked += 1
        dominance = pareto_relation(profile, p, q)
        if dominance is ParetoDominance.NONE:
            continue
        strict = dominance is ParetoDominance.STRICT_DOMINANCE
        strict_cases += strict
        weak_cases += not strict
        outcome = compare(collective, p, q)
        if outcome is not (Comparison.PREFERRED if strict else Comparison.INDIFFERENT):
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
    positions = [_positions(profiles[0].universe, x) for x in subsets]
    known: dict = {}  # agent or output matrix -> its signature on each subset

    def signatures(agent):
        sig = known.get(agent)
        if sig is None:
            entries = to_matrix(agent).entries
            sig = known[agent] = tuple(_signature(entries, idx) for idx in positions)
        return sig

    hyp = []
    con = []
    for profile in profiles:
        hyp.append(tuple(zip(*(signatures(a) for a in profile.agents))))
        con.append(signatures(f(profile)))
    return hyp, con


def exhaustive_iia(
    f: SWFHandle,
    profiles: Sequence[Profile],
    subsets: Sequence[tuple[str, ...]] | None = None,
    max_violations: int = 5,
) -> IIASuiteReport:
    """`check_iia`'s test over every ordered pair of profiles and every
    restriction set; profiles over different universes raise
    `UniverseMismatchError` before any signature is built.

    Precomputes per-profile restriction signatures once, then, for each
    restriction set x, groups the profiles by their hypothesis signature
    on x.  A pair in different groups is vacuous; a pair in one group
    violates IIA iff its conclusion signatures on x differ, so only groups
    whose conclusions differ are searched.  A one-alternative set is
    skipped: every matrix restricts to [[0]] there, so with one agent
    count throughout, each of its pairs holds its hypothesis and its
    conclusion.  The first `max_violations` violations are reported in
    (i, j, subset) order, the order of the pairwise loop over profile i,
    then profile j, then restriction set.
    """
    same_universe(*profiles)
    universe = profiles[0].universe
    if len({profile.n for profile in profiles}) > 1:
        raise ValueError("profiles must share their agent count")
    if subsets is None:
        subsets = restriction_sets(universe)
    subsets = tuple(tuple(x) for x in subsets)
    live = [x for x, names in enumerate(subsets) if len(names) > 1]
    hyp, con = _signature_tables(f, profiles, [subsets[x] for x in live])
    n = len(profiles)
    vacuous = 0
    suspects: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    for x in range(len(live)):
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
        violations += ((i, j, subsets[live[x]]) for j, x in hits)
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
    names = universe.names
    # r == len(names) would duplicate the empty relation
    return [weak_order(universe, [approved or names])
            for r in range(len(names)) for approved in itertools.combinations(names, r)]


def pc_matrices(universe: Universe) -> list[SSBMatrix]:
    """Every pairwise-comparison matrix (all sign patterns), in entry order."""
    return [SSBMatrix(universe, rows) for rows in _sign_patterns(len(universe))]


def _sign_patterns(m: int) -> list[tuple]:
    """The entry rows of every sign pattern on m alternatives, in entry order:
    row a is fixed by the rows above it up to its diagonal, free after it."""
    grids = [()]
    for a in range(m):
        tails = list(itertools.product((-1, 0, 1), repeat=m - a - 1))
        heads = [tuple([-row[a] for row in rows]) + (0,) for rows in grids]
        grids = [rows + (head + tail,) for rows, head in zip(grids, heads) for tail in tails]
    return grids


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

# two-tier relations cannot put a strict pair above a fresh alternative, so
# in the dichotomous setting all-two-tier-patterns replaces bottom extension
DICHOTOMOUS_CONDITIONS = (
    RichnessCondition.NEUTRALITY,
    RichnessCondition.FULL_INDIFFERENCE,
    RichnessCondition.INVERSION,
    RichnessCondition.DICHOTOMOUS_PATTERNS,
)


@dataclass(frozen=True)
class DomainDescription:
    """A finite, closed-world stand-in for a preference domain.

    Membership means "this preference relation is available to agents".
    Members are stored once, as the sorted, distinct entry rows of their
    normalized matrices, so membership is scale-free.  `of` builds them
    from matrices; `matrices` builds the members back.
    """

    universe: Universe
    _rows: tuple  # sorted, distinct and normalized: `of` or `pc_domain` makes it
    name: str = ""

    @classmethod
    def of(
        cls, universe: Universe, members: Iterable[SSBMatrix], name: str = ""
    ) -> "DomainDescription":
        """The domain of `members`, which must all be over `universe`."""
        rows = set()
        for member in members:
            if member.universe != universe:
                raise UniverseMismatchError(f"member over {member.universe.names}, "
                                            f"domain over {universe.names}")
            rows.add(_ray(member.entries))
        return cls(universe, tuple(sorted(rows)), name)

    @property
    def matrices(self) -> list[SSBMatrix]:
        return [SSBMatrix(self.universe, rows) for rows in self._rows]

    def __contains__(self, matrix: SSBMatrix) -> bool:
        rows = _ray(matrix.entries)
        i = bisect.bisect_left(self._rows, rows)
        return matrix.universe == self.universe and self._rows[i:i + 1] == (rows,)

    def __len__(self) -> int:
        return len(self._rows)


def pc_domain(universe: Universe) -> DomainDescription:
    return DomainDescription(universe, tuple(_sign_patterns(len(universe))), "pc")


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


def _neutrality_witness(universe: Universe, members, present: set) -> str | None:
    """R1 through the transposition (a0 a1) and the cycle (a0 ... a_{m-1}),
    which together generate every relabeling of the universe."""
    names = universe.names
    generators = []
    for label, images in (("transposition", names[1:2] + names[:1] + names[2:]),
                          ("cycle", names[1:] + names[:1])):
        # source[pi(a)] = a: entry (pi(a), pi(b)) of an image is entry (a, b)
        source = sorted(range(len(names)), key=lambda a: universe.index(images[a]))
        generators.append((label, dict(zip(names, images)), source))
    for member in members:
        for label, mapping, source in generators:
            # relabeling keeps the largest entry: the image of a normalized
            # member is normalized
            image = tuple(tuple(member[a][b] for b in source) for a in source)
            if image not in present:
                return (f"relabeling {mapping} (the {label} generator) of a "
                        "member leaves the domain")
    return None


_AUDIT_SET_SIZE = 4  # R4 and R5 audit the sets of up to this many alternatives


def _audit_sets(universe: Universe, largest: int) -> list:
    """(xs, positions) for the sets of 1..min(_AUDIT_SET_SIZE, largest) alternatives."""
    sizes = range(1, min(_AUDIT_SET_SIZE, largest) + 1)
    return [(xs, _positions(universe, xs))
            for size in sizes for xs in itertools.combinations(universe.names, size)]


def _unmet(members: Iterable[tuple], idx: list[int], wanted: set) -> set:
    """`wanted` less the members' signatures on idx, scanned in order until none is left."""
    for member in members:
        wanted.discard(_signature(member, idx))
        if not wanted:
            break
    return wanted


def _ranked_above(members, idx: list[int], m: int):
    """Lazily, the members ranking all of idx above one common position outside it."""
    outside = [a for a in range(m) if a not in idx]
    for member in members:
        for a in outside:
            for x in idx:
                if member[x][a] <= 0:
                    break
            else:
                yield member
                break


def _bottom_extension_witness(universe: Universe, members, scope) -> str | None:
    """R4: every scoped member's signature on each audited xs of up to m - 1
    alternatives must be that of a member ranking all of xs above one common
    outside alternative; the first failing (member, xs)."""
    m = len(universe)
    subsets = _audit_sets(universe, m - 1)
    missing = []  # per xs: the scoped signatures left unmet
    for xs, idx in subsets:
        wanted = {_signature(member, idx) for member in scope}
        missing.append(_unmet(_ranked_above(members, idx, m), idx, wanted))
    for member in scope:
        for (xs, idx), wanted in zip(subsets, missing):
            if wanted and _signature(member, idx) in wanted:
                return (f"no member matches a member on {xs} while ranking "
                        f"{xs} above a fresh alternative")
    return None


def _dichotomous_patterns_witness(universe: Universe, members) -> str | None:
    """R5: every two-tier pattern on every audited xs must be some member's
    restriction; the first unmet (xs, approved set).  A pattern's entry
    (a, b) is u_a - u_b, u the 0/1 approval vector: its own signature."""
    for xs, idx in _audit_sets(universe, len(universe)):
        approvals = [ok for r in range(len(xs) + 1) for ok in itertools.combinations(xs, r)]
        patterns = [tuple(tuple((a in ok) - (b in ok) for b in xs) for a in xs)
                    for ok in approvals]
        unmet = _unmet(members, idx, set(patterns))
        for approved, pattern in zip(approvals, patterns):
            if pattern in unmet:
                return (f"pattern approving {approved or '(nothing)'} on "
                        f"{xs} is not any member's restriction")
    return None


def audit_richness(
    domain: DomainDescription,
    conditions: Sequence[RichnessCondition] = DEFAULT_CONDITIONS,
    member_limit: int = 2000,
    seed: int = 0,
) -> RichnessReport:
    """Check closure conditions of a closed-world domain, with witnesses.

    Every condition reads the domain's stored entry rows as they are,
    sorted and normalized; R1, R2 and R3 are lookups in one set of them.
    R1 looks up each member's images under two generators of every
    relabeling, and its FAIL witness names the generator; R2 the zero
    matrix; R3 each member's negation.  R4 and R5 share one scan per
    restriction set xs, which discards members' signatures on xs from a
    set of wanted ones and stops when none is left: R4 wants the checked
    members' signatures and scans the members ranking xs above one outside
    alternative, R5 wants every two-tier pattern and scans all members.
    Only R4 samples: it checks a seeded sample of `member_limit` members
    when the domain is larger, records its mode, and PASS under sampling
    means "no violation found among the sampled members".
    """
    members = domain._rows
    present = set(members)
    if len(members) > member_limit:
        rng = random.Random(seed)
        scope = rng.sample(members, member_limit)
        scope_mode = f"sampled({member_limit} of {len(members)}, seed={seed})"
    else:
        scope = members
        scope_mode = "exhaustive"

    results = []
    for condition in conditions:
        mode = "exhaustive"
        if condition is RichnessCondition.NEUTRALITY:
            witness = _neutrality_witness(domain.universe, members, present)
        elif condition is RichnessCondition.FULL_INDIFFERENCE:
            witness = (None if SSBMatrix.zero(domain.universe).entries in present
                       else "zero matrix (complete indifference) missing")
        elif condition is RichnessCondition.INVERSION:
            witness = next(
                ("inverse of a member is missing" for m in members
                 if tuple(tuple(-x for x in row) for row in m) not in present),
                None,
            )
        elif condition is RichnessCondition.BOTTOM_EXTENSION:
            mode = scope_mode
            witness = _bottom_extension_witness(domain.universe, members, scope)
        else:
            witness = _dichotomous_patterns_witness(domain.universe, members)
        results.append(ConditionResult(condition, witness is None, witness, mode))
    return RichnessReport(domain.name, tuple(results))


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
    for member in domain._rows:
        if not _pc_rows(member):
            return PCInclusionReport(False, SSBMatrix(domain.universe, member), (
                "domain leaves the pairwise-comparison class; if it is rich, "
                "no anonymous aggregation rule satisfies Pareto optimality "
                "and independence of irrelevant alternatives on it"))
    return PCInclusionReport(True, None, "domain lies inside the pairwise-comparison class")


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


def _ranked(universe: Universe, rank: Sequence[int], table: dict) -> BaseRelation:
    """The weak order in which a beats b iff rank[a] < rank[b], from `table`.

    `table` maps the rank pattern (each level renumbered by its place
    among the distinct levels) to its weak order over `universe`; a miss
    builds the order with `model.ranked_order`, the one weak-order
    builder, and stores it, so rank vectors that yield the same weak
    order yield one object.  One table serves one universe.
    """
    levels = sorted(set(rank))
    pattern = tuple([levels.index(r) for r in rank])
    order = table.get(pattern)
    if order is None:
        order = table[pattern] = ranked_order(universe, pattern)
    elif order.universe is not universe and order.universe != universe:
        raise UniverseMismatchError("weak-order table was filled over another universe")
    return order


def random_weak_order(
    rng: random.Random, universe: Universe, table: dict | None = None
) -> BaseRelation:
    """Each alternative draws a level in range(m); lower levels rank higher.

    The order comes from `table` (see `_ranked`), which the caller owns
    and keeps for as long as it wants equal orders to be one object; by
    default a fresh table, which lives for this call only.
    """
    m = len(universe)
    return _ranked(universe, [rng.randrange(m) for _ in range(m)],
                   {} if table is None else table)


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
    rng: random.Random,
    universe: Universe,
    n: int,
    transitive: bool = True,
    table: dict | None = None,
) -> Profile:
    """n agents drawn by `random_weak_order` from `table` (a fresh one,
    living for this call, by default), or by `random_relation`."""
    if not transitive:
        return Profile(universe, tuple(random_relation(rng, universe) for _ in range(n)))
    table = {} if table is None else table
    return Profile(universe, tuple(random_weak_order(rng, universe, table)
                                   for _ in range(n)))


def unanimity_case(
    rng: random.Random,
    universe: Universe,
    n: int,
    strict: bool,
    table: dict | None = None,
) -> tuple[Profile, Lottery, Lottery]:
    """A profile plus a lottery pair with unanimity built in.

    Picks two alternatives x, y that every agent ties (so swapping mass
    between them leaves everyone exactly indifferent); in the strict
    variant one agent instead ranks x above y, and the pair is supported
    on {x, y} only, which makes that agent strictly better off under the
    shift and everyone else indifferent.  The agents' weak orders come
    from `table` as in `random_weak_order`: the caller's, shared across
    calls over one universe, or by default a fresh one for this call.
    """
    m = len(universe)
    x, y = rng.sample(range(m), 2)
    others = [a for a in range(m) if a not in (x, y)]

    def tying_ranks() -> list[int]:
        # the others draw levels as in random_weak_order over their own
        # universe; x and y form one tier inserted at a random slot among
        # the distinct levels, i.e. just above the slot-th of them.
        # Levels are tripled so that the tier fits below that level and
        # the strict variant can still move x just above it.
        levels = [rng.randrange(len(others)) for _ in others]
        distinct = sorted(set(levels))
        slot = rng.randint(0, len(distinct))
        pivot = distinct[slot] if slot < len(distinct) else len(others)
        rank = [0] * m
        for a, level in zip(others, levels):
            rank[a] = 3 * level
        rank[x] = rank[y] = 3 * pivot - 1
        return rank

    ranks = [tying_ranks() for _ in range(n)]
    if strict:
        winner = rng.randrange(n)
        ranks[winner][x] -= 1
        k = rng.randint(1, 3)
        probs = [Fraction(0)] * m
        probs[x], probs[y] = Fraction(k, 4), Fraction(4 - k, 4)
        p = Lottery(universe, tuple(probs))
        probs[x], probs[y] = Fraction(k - 1, 4), Fraction(5 - k, 4)
        q = Lottery(universe, tuple(probs))
    else:
        p = random_lottery(rng, universe)
        delta = min(p.probs[x], p.probs[y], Fraction(1, 5))
        probs = list(p.probs)
        probs[x] += delta
        probs[y] -= delta
        q = Lottery(universe, tuple(probs))
    table = {} if table is None else table
    return Profile(universe, tuple(_ranked(universe, rank, table) for rank in ranks)), p, q
