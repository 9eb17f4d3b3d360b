"""Brute-force and randomized verification of aggregation axioms.

Everything here treats a social welfare function as a black box from
profiles to SSB matrices and checks its behaviour on enumerable or
sampled instances: independence of irrelevant alternatives, anonymity,
Pareto optimality, and richness conditions on closed-world preference
domains.  Deliberately broken rules (dictatorial, constant) live here
too, so the checkers can be shown to reject something, as does the
relative-utilitarian handle: the same utilitarian sum on vNM agents,
where independence fails because vNM utilities are not a
pairwise-comparison domain.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import operator
import random
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
    _FrozenValue,
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
    to_matrix,
)


# ---------------------------------------------------------------------------
# social welfare function handles and fixtures


class SWFHandle(_FrozenValue):
    """A named, memoized social welfare function (Profile -> SSBMatrix).

    Two handles are equal only when they are one object; the memo `_cache`
    (a new dict unless one is given) is no part of the value."""

    _FIELDS = ("name", "fn")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name: str, fn: Callable[[Profile], SSBMatrix],
                 _cache: dict | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "_cache", {} if _cache is None else _cache)

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
# restriction signatures of flat members: relation equality on a sub-simplex


def _getter(positions: list[int]) -> Callable[[tuple], tuple]:
    """The entries at `positions` of a flat member, always as a tuple
    (`operator.itemgetter` of one position returns the bare entry)."""
    if len(positions) == 1:
        return operator.itemgetter(slice(positions[0], positions[0] + 1))
    return operator.itemgetter(*positions)


def _block_getter(idx: list[int], m: int) -> Callable[[tuple], tuple]:
    """The flat block of the entries among the alternatives at positions idx."""
    return _getter([a * m + b for a in idx for b in idx])


def _signature(block: tuple):
    """Canonical form of the preferences a flat restricted block induces on
    its alternatives: the ray of the block, as one row (unscaled for PC
    data).  Two members induce identical preferences on a restriction set
    iff the signatures of their blocks there are equal."""
    return _ray((block,))


# ---------------------------------------------------------------------------
# axiom checks


class IIAVerdict(_FrozenValue):
    _FIELDS = ("passed", "vacuous", "restriction", "convention")

    def __init__(self, passed: bool, vacuous: bool, restriction: tuple[str, ...],
                 convention: str = "restricted matrices equal up to positive scaling"):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "vacuous", vacuous)
        object.__setattr__(self, "restriction", restriction)
        object.__setattr__(self, "convention", convention)


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


class AnonymityVerdict(_FrozenValue):
    _FIELDS = ("passed", "witness", "mode")

    def __init__(self, passed: bool, witness: tuple[int, ...] | None, mode: str):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "mode", mode)


def check_anonymity(
    f: SWFHandle,
    profile: Profile,
    permutation_limit: int = 6,
    samples: int = 24,
    seed: int = 0,
    table: ValueTable | None = None,
) -> AnonymityVerdict:
    """Whether renaming agents ever changes the output matrix (entrywise).

    Each relabeled profile comes from `table` (see `_table`), so a
    relabeling of a profile the caller already holds is that object, and
    the memo lookup for it finds its matrix by identity."""
    table = _table(profile.universe, table)
    base = f(profile)
    agents = profile.agents
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
    # equal agents make relabelings repeat an agent sequence, and each is
    # checked once; at n = 2 the only repeat is the profile itself, a memo hit
    seen = None
    if profile.n >= 3:
        first: dict = {}
        label = [first.setdefault(agent, len(first)) for agent in agents]
        if len(first) < profile.n:
            seen = {tuple(label)}
    for pi in perms:
        if seen is not None:
            sequence = tuple([label[i] for i in pi])
            if sequence in seen:
                continue
            seen.add(sequence)
        # the memo is read, not filled: no relabeling is asked for again
        relabeled = table.profile(tuple([agents[i] for i in pi]))
        if (f._cache.get(relabeled) or f.fn(relabeled)).entries != base.entries:
            return AnonymityVerdict(passed=False, witness=pi, mode=mode)
    return AnonymityVerdict(passed=True, witness=None, mode=mode)


class ParetoVerdict(_FrozenValue):
    _FIELDS = ("passed", "counterexample", "checked", "strict_cases", "weak_cases")

    def __init__(self, passed: bool,
                 counterexample: tuple[Lottery, Lottery, ParetoDominance, Comparison] | None,
                 checked: int, strict_cases: int, weak_cases: int):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "strict_cases", strict_cases)
        object.__setattr__(self, "weak_cases", weak_cases)


def pareto_pairs(
    universe: Universe, samples: int = 200, seed: int = 0
) -> list[tuple[Lottery, Lottery]]:
    """All ordered pure pairs, then `samples` pairs of random lotteries drawn
    with `seed`: lottery pairs for `check_pareto`, built once for the many
    profiles a caller checks over one universe."""
    rng = random.Random(seed)
    pure = [universe.pure(n) for n in universe.names]
    pairs = [(p, q) for p in pure for q in pure]
    pairs += [
        (random_lottery(rng, universe), random_lottery(rng, universe))
        for _ in range(samples)
    ]
    return pairs


def check_pareto(
    f: SWFHandle, profile: Profile, pairs: Iterable[tuple[Lottery, Lottery]]
) -> ParetoVerdict:
    """Unanimity must be respected: strict dominance forces strict collective
    preference, unanimous indifference forces collective indifference.

    Checks the given lottery pairs (see `pareto_pairs`) and reports the
    first counterexample.
    """
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


class IIASuiteReport(_FrozenValue):
    _FIELDS = ("checked", "vacuous", "violations")

    def __init__(self, checked: int, vacuous: int,
                 violations: tuple[tuple[int, int, tuple[str, ...]], ...]):
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "vacuous", vacuous)
        object.__setattr__(self, "violations", violations)

    @property
    def passed(self) -> bool:
        return not self.violations


def _signature_tables(f, profiles, subsets):
    positions = [profiles[0].universe.positions(x) for x in subsets]
    known: dict = {}  # agent or output matrix -> its signature on each subset
    rays: dict = {}  # restricted block -> its ray

    def ray(block):
        sig = rays.get(block)
        if sig is None:
            sig = rays[block] = _ray(block)
        return sig

    def signatures(agent):
        sig = known.get(agent)
        if sig is None:
            entries = to_matrix(agent).entries
            sig = known[agent] = tuple(
                ray(tuple([tuple([entries[a][b] for b in idx]) for a in idx]))
                for idx in positions)
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


def weak_orders(universe: Universe, table: ValueTable | None = None) -> list[BaseRelation]:
    """Every weak order (ordered partition into indifference tiers), in
    `_ordered_partitions` order, each from `table` by its tier levels (see
    `_table`), so that the orders the samplers draw from the same table
    are these objects."""
    table = _table(universe, table)
    orders = []
    for tiers in _ordered_partitions(tuple(range(len(universe)))):
        level = {a: i for i, tier in enumerate(tiers) for a in tier}
        orders.append(table.order([level[a] for a in sorted(level)]))
    return orders


def _ordered_partitions(items: tuple):
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
    m = len(universe)
    return [SSBMatrix(universe, _rows(grid, m)) for grid in _sign_patterns(m)]


def _sign_patterns(m: int) -> list[tuple]:
    """Every sign pattern on m alternatives as flat, row-major entries, in
    entry order: row a is fixed by the rows above it up to its diagonal
    (the negated column a), free after it."""
    grids = [()]
    for a in range(m - 1):
        tails = list(itertools.product((-1, 0, 1), repeat=m - a - 1))
        heads = [tuple([-g[i] for i in range(a, a * m, m)]) + (0,) for g in grids]
        grids = [g + head + tail for g, head in zip(grids, heads) for tail in tails]
    # the last row is all head: write it into each member in place, so that
    # no second list of members is alive at the largest level
    a = m - 1
    for j, g in enumerate(grids):
        grids[j] = g + tuple([-g[i] for i in range(a, a * m, m)]) + (0,)
    return grids


def _rows(flat: tuple, m: int) -> tuple:
    """Flat, row-major entries as m rows."""
    return tuple(flat[i:i + m] for i in range(0, m * m, m))


def _flat(rows) -> tuple:
    """Entry rows as one flat, row-major tuple."""
    return tuple(itertools.chain.from_iterable(rows))


def profiles_over(relations: Sequence, n: int, universe: Universe,
                  table: ValueTable | None = None) -> list[Profile]:
    """All n-agent profiles with agents drawn from the given list, in order,
    each from `table` (see `_table`)."""
    profile = _table(universe, table).profile
    return [profile(agents) for agents in itertools.product(relations, repeat=n)]


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


class DomainDescription(_FrozenValue):
    """A finite, closed-world stand-in for a preference domain.

    Membership means "this preference relation is available to agents".
    Members are stored once, each as one flat, row-major tuple of the m*m
    entries of its normalized matrix, sorted and distinct, so membership
    is scale-free.  Flat tuples sort as their rows do.  `of` builds them
    from matrices; `matrices` builds the members back.
    """

    _FIELDS = ("universe", "_entries", "name")

    def __init__(self, universe: Universe, _entries: tuple, name: str = ""):
        # `_entries` is sorted, distinct, flat and normalized: `of` or
        # `pc_domain` makes it
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "_entries", _entries)
        object.__setattr__(self, "name", name)

    @classmethod
    def of(
        cls, universe: Universe, members: Iterable[SSBMatrix], name: str = ""
    ) -> "DomainDescription":
        """The domain of `members`, which must all be over `universe`."""
        entries = set()
        for member in members:
            if member.universe != universe:
                raise UniverseMismatchError(f"member over {member.universe.names}, "
                                            f"domain over {universe.names}")
            entries.add(_flat(_ray(member.entries)))
        return cls(universe, tuple(sorted(entries)), name)

    @property
    def matrices(self) -> list[SSBMatrix]:
        m = len(self.universe)
        return [SSBMatrix(self.universe, _rows(flat, m)) for flat in self._entries]

    def __contains__(self, matrix: SSBMatrix) -> bool:
        flat = _flat(_ray(matrix.entries))
        i = bisect.bisect_left(self._entries, flat)
        return matrix.universe == self.universe and self._entries[i:i + 1] == (flat,)

    def __len__(self) -> int:
        return len(self._entries)


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


class ConditionResult(_FrozenValue):
    _FIELDS = ("condition", "passed", "witness", "mode")

    def __init__(self, condition: RichnessCondition, passed: bool, witness: str | None,
                 mode: str):
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "mode", mode)


class RichnessReport(_FrozenValue):
    _FIELDS = ("domain", "results")

    def __init__(self, domain: str, results: tuple[ConditionResult, ...]):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "results", results)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _neutrality_witness(universe: Universe, members, present: set) -> str | None:
    """R1 through the transposition (a0 a1) and the cycle (a0 ... a_{m-1}),
    which together generate every relabeling of the universe."""
    names = universe.names
    m = len(names)
    generators = []
    for label, images in (("transposition", names[1:2] + names[:1] + names[2:]),
                          ("cycle", names[1:] + names[:1])):
        mapping = dict(zip(names, images))
        pi = universe.permutation(mapping)
        # source[pi(a)] = a: entry (pi(a), pi(b)) of an image is entry (a, b)
        source = sorted(range(m), key=pi.__getitem__)
        image = _getter([a * m + b for a in source for b in source])
        generators.append((label, mapping, image))
    for member in members:
        for label, mapping, image in generators:
            # relabeling keeps the largest entry: the image of a normalized
            # member is normalized
            if image(member) not in present:
                return (f"relabeling {mapping} (the {label} generator) of a "
                        "member leaves the domain")
    return None


_AUDIT_SET_SIZE = 4  # R4 and R5 audit the sets of up to this many alternatives


def _audit_sets(universe: Universe, largest: int) -> list:
    """(xs, positions) for the sets of 1..min(_AUDIT_SET_SIZE, largest) alternatives."""
    sizes = range(1, min(_AUDIT_SET_SIZE, largest) + 1)
    return [(xs, universe.positions(xs))
            for size in sizes for xs in itertools.combinations(universe.names, size)]


def audit_set_count(m: int) -> int:
    """How many restriction sets R5 audits on m alternatives, as `_audit_sets`
    lists them; R4 audits no more."""
    return sum(math.comb(m, size) for size in range(1, min(_AUDIT_SET_SIZE, m) + 1))


def _unmet(members: Iterable[tuple], get, wanted: set) -> set:
    """`wanted` less the signatures of the members' blocks `get` takes,
    scanned in order until none is left."""
    for member in members:
        wanted.discard(_signature(get(member)))
        if not wanted:
            break
    return wanted


def _ranked_above(members, idx: list[int], m: int):
    """Lazily, the members ranking all of idx above one common position outside it."""
    columns = [_getter([x * m + a for x in idx]) for a in range(m) if a not in idx]
    for member in members:
        for column in columns:
            if min(column(member)) > 0:
                yield member
                break


def _bottom_extension_witness(universe: Universe, members, scope) -> str | None:
    """R4: every scoped member's signature on each audited xs of up to m - 1
    alternatives must be that of a member ranking all of xs above one common
    outside alternative; the first failing (member, xs)."""
    m = len(universe)
    subsets = []  # per xs: its block getter and the scoped signatures left unmet
    for xs, idx in _audit_sets(universe, m - 1):
        get = _block_getter(idx, m)
        wanted = set(map(_signature, set(map(get, scope))))
        subsets.append((xs, get, _unmet(_ranked_above(members, idx, m), get, wanted)))
    for member in scope:
        for xs, get, wanted in subsets:
            if wanted and _signature(get(member)) in wanted:
                return (f"no member matches a member on {xs} while ranking "
                        f"{xs} above a fresh alternative")
    return None


def _dichotomous_patterns_witness(universe: Universe, members) -> str | None:
    """R5: every two-tier pattern on every audited xs must be some member's
    restriction; the first unmet (xs, approved set).  A pattern's entry
    (a, b) is u_a - u_b, u the 0/1 approval vector: its own signature."""
    m = len(universe)
    for xs, idx in _audit_sets(universe, m):
        approvals = [ok for r in range(len(xs) + 1) for ok in itertools.combinations(xs, r)]
        patterns = [_signature(tuple([(a in ok) - (b in ok) for a in xs for b in xs]))
                    for ok in approvals]
        unmet = _unmet(members, _block_getter(idx, m), set(patterns))
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

    Every condition reads the domain's stored flat entry tuples as they
    are, sorted and normalized; R1, R2 and R3 are lookups in one set of
    them.  R1, R4 and R5 read a member's entries through one precomputed
    getter per generator or restriction set.
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
    members = domain._entries
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
            witness = (None if (0,) * len(domain.universe) ** 2 in present
                       else "zero matrix (complete indifference) missing")
        elif condition is RichnessCondition.INVERSION:
            witness = next(
                ("inverse of a member is missing" for member in members
                 if tuple(map(operator.neg, member)) not in present),
                None,
            )
        elif condition is RichnessCondition.BOTTOM_EXTENSION:
            mode = scope_mode
            witness = _bottom_extension_witness(domain.universe, members, scope)
        else:
            witness = _dichotomous_patterns_witness(domain.universe, members)
        results.append(ConditionResult(condition, witness is None, witness, mode))
    return RichnessReport(domain.name, tuple(results))


class PCInclusionReport(_FrozenValue):
    """Whether every member of a domain is a pairwise-comparison matrix."""

    _FIELDS = ("all_pc", "witness", "message")

    def __init__(self, all_pc: bool, witness: SSBMatrix | None, message: str):
        object.__setattr__(self, "all_pc", all_pc)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "message", message)


def pc_inclusion_check(domain: DomainDescription) -> PCInclusionReport:
    """Contrapositive smoke test for rich domains.

    Anonymous aggregation satisfying both Pareto optimality and IIA forces
    every admissible preference into the pairwise-comparison class, so a
    rich domain with a non-PC member admits no such rule.  This checks the
    set inclusion only; it does not (and cannot) verify nonexistence.
    """
    for member in domain._entries:
        if not _pc_rows((member,)):
            witness = SSBMatrix(domain.universe, _rows(member, len(domain.universe)))
            return PCInclusionReport(False, witness, (
                "domain leaves the pairwise-comparison class; if it is rich, "
                "no anonymous aggregation rule satisfies Pareto optimality "
                "and independence of irrelevant alternatives on it"))
    return PCInclusionReport(True, None, "domain lies inside the pairwise-comparison class")


# ---------------------------------------------------------------------------
# fixtures and random instance generators


def intensity_flip_fixture() -> tuple[Profile, Profile, tuple[str, str]]:
    """Two vNM profiles whose pairwise preferences on (a, b) agree while the
    utilitarian sum of the vNM agents flips the collective verdict on that
    pair: vNM utilities are not a pairwise-comparison domain.

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
    return Lottery.from_scaled(universe, sum(weights), weights)


class ValueTable:
    """One object per equal value over one universe, for as long as the
    caller keeps the table: weak orders by rank pattern (`order`), profiles
    by agent tuple (`profile`) and lotteries by unreduced integer form
    (`lottery`).  A miss builds through the validating constructor and
    stores the value, so equal keys yield one object, and a memo lookup
    finds its entry by identity.  There is no global table: a
    `check-axioms` command keeps one for all of its phases."""

    def __init__(self, universe: Universe):
        self.universe = universe
        self._orders: dict = {}
        self._profiles: dict = {}
        self._lotteries: dict = {}

    def order(self, rank: Sequence[int]) -> BaseRelation:
        """The weak order in which a beats b iff rank[a] < rank[b], built by
        `model.ranked_order` and keyed by its rank pattern: each level
        renumbered by its place among the distinct levels."""
        levels = sorted(set(rank))
        pattern = tuple(map(levels.index, rank))
        order = self._orders.get(pattern)
        if order is None:
            order = self._orders[pattern] = ranked_order(self.universe, pattern)
        return order

    def profile(self, agents: tuple) -> Profile:
        profile = self._profiles.get(agents)
        if profile is None:
            profile = self._profiles[agents] = Profile(self.universe, agents)
        return profile

    def lottery(self, d: int, nums: Sequence[int]) -> Lottery:
        """`Lottery.from_scaled(universe, d, nums)`, keyed by (d, *nums) as given."""
        key = (d, *nums)
        lottery = self._lotteries.get(key)
        if lottery is None:
            lottery = self._lotteries[key] = Lottery.from_scaled(self.universe, d, nums)
        return lottery


def _table(universe: Universe, table: ValueTable | None) -> ValueTable:
    """`table`, or for None a fresh table over `universe` that lives for one
    call; a table over another universe raises `UniverseMismatchError`."""
    if table is None:
        return ValueTable(universe)
    if table.universe is not universe and table.universe != universe:
        raise UniverseMismatchError(f"value table over {table.universe.names}, "
                                    f"values over {universe.names}")
    return table


def random_weak_order(
    rng: random.Random, universe: Universe, table: ValueTable | None = None
) -> BaseRelation:
    """Each alternative draws a level in range(m); lower levels rank higher.
    The order comes from `table` (see `_table`)."""
    m = len(universe)
    return _table(universe, table).order([rng.randrange(m) for _ in range(m)])


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
    table: ValueTable | None = None,
) -> Profile:
    """n agents drawn by `random_weak_order` or by `random_relation`; the
    orders and the profile come from `table` (see `_table`)."""
    table = _table(universe, table)
    if not transitive:
        agents = tuple(random_relation(rng, universe) for _ in range(n))
    else:
        agents = tuple(random_weak_order(rng, universe, table) for _ in range(n))
    return table.profile(agents)


def unanimity_case(
    rng: random.Random,
    universe: Universe,
    n: int,
    strict: bool,
    table: ValueTable | None = None,
) -> tuple[Profile, Lottery, Lottery]:
    """A profile plus a lottery pair with unanimity built in.

    Picks two alternatives x, y that every agent ties (so swapping mass
    between them leaves everyone exactly indifferent); in the strict
    variant one agent instead ranks x above y, and the pair is supported
    on {x, y} only, which makes that agent strictly better off under the
    shift and everyone else indifferent.  The agents' weak orders, the
    profile and every lottery built from its integer form come from
    `table` (see `_table`).
    """
    table = _table(universe, table)
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
        p_nums, q_nums = [0] * m, [0] * m
        p_nums[x], p_nums[y] = k, 4 - k
        q_nums[x], q_nums[y] = k - 1, 5 - k
        p = table.lottery(4, p_nums)
        q = table.lottery(4, q_nums)
    else:
        # q moves min(p_x, p_y, 1/5) from y to x, over 5d
        p = random_lottery(rng, universe)
        d, nums = p.scaled
        q_nums = [5 * a for a in nums]
        delta = min(q_nums[x], q_nums[y], d)
        q_nums[x] += delta
        q_nums[y] -= delta
        q = table.lottery(5 * d, q_nums)
    return table.profile(tuple(table.order(rank) for rank in ranks)), p, q
