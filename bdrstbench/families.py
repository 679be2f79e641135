"""Seeded, parametric litmus families for the bdrst benchmark.

Every program the benchmark sends comes from `Draw`: one generator per
run, seeded by the driver's `--seed`. A draw picks a family member of a
fixed size and fills it with fresh stored constants, so each draw has a
distinct cache key at the same cost as every other draw of that size.

Constants are three decimal digits (200..999) and Wide-n location names
are zero-padded (`w007`), so response and cache-entry byte counts do not
depend on the seed: the traced run's byte counts repeat exactly.

Sizes were measured on a 2-core x86-64 container with a release build
(`bdrst check`, wall time); the reasons below quote those measurements.
"""

import random

# Two limits the sizes below stay inside. The benchmark does not hide
# them: a drawn input that hits one gets an error response or a nonzero
# exit, and counts as a failed request.
# - MP-n chains copy each flag through a register; n >= 9 fails axiomatic
#   generation with `value domains did not reach a fixpoint`
#   (GenLimits::max_domain_iterations), so MP stays at n <= 8.
# - Recording MP6's trace tree exceeds the default 10 M trace budget after
#   about 15 s, so trace commands use MP n <= 5. (A cold SB5 check-races
#   takes 6.6 s against SB4's 51 ms, so they use SB4 only.)


def _sb(n, c):
    """SB-n ring: thread i stores to x_i, then loads x_(i+1)."""
    decl = "nonatomic " + " ".join(f"x{i}" for i in range(n)) + ";"
    body = "".join(
        f" thread P{i} {{ x{i} = {c[i]}; r{i} = x{(i + 1) % n}; }}" for i in range(n)
    )
    return decl + body


def _lb(n, c):
    """LB-n ring: thread i loads x_i, then stores to x_(i+1)."""
    decl = "nonatomic " + " ".join(f"x{i}" for i in range(n)) + ";"
    body = "".join(
        f" thread P{i} {{ r{i} = x{i}; x{(i + 1) % n} = {c[i]}; }}" for i in range(n)
    )
    return decl + body


def _mp(n, c):
    """MP-n flag chain: P0 writes data `a` and raises atomic flag f1; each
    middle thread copies f_i to f_(i+1) through a register; the last
    thread reads the final flag, then the data."""
    src = "nonatomic a; atomic " + " ".join(f"f{i}" for i in range(1, n)) + ";"
    src += f" thread P0 {{ a = {c[0]}; f1 = {c[1]}; }}"
    for i in range(1, n - 1):
        src += f" thread P{i} {{ r{i} = f{i}; f{i + 1} = r{i}; }}"
    src += f" thread P{n - 1} {{ r{n - 1} = f{n - 1}; d = a; }}"
    return src


def _iriw(n, c):
    """IRIW-n: n atomic writers, and two readers that read every location
    in opposite orders."""
    src = "atomic " + " ".join(f"X{i}" for i in range(n)) + ";"
    src += "".join(f" thread W{i} {{ X{i} = {c[i]}; }}" for i in range(n))
    src += " thread R0 {" + "".join(f" a{i} = X{i};" for i in range(n)) + " }"
    src += " thread R1 {" + "".join(f" b{i} = X{i};" for i in reversed(range(n))) + " }"
    return src


# Wide-n access pattern: four threads over eight slots. The slots map to
# seeded distinct locations out of n, so the state count (2 480) does not
# depend on n while every state carries n locations.
_WIDE = [
    [("w", 0), ("w", 1), ("r", 2), ("r", 3)],
    [("w", 2), ("r", 0), ("w", 4), ("r", 5)],
    [("w", 5), ("r", 1), ("w", 3), ("r", 4)],
    [("w", 7), ("r", 6), ("w", 6)],
]


def _wide(n, c, slots):
    src = "nonatomic " + " ".join(f"w{i:03d}" for i in range(n)) + ";"
    k = 0
    for t, ops in enumerate(_WIDE):
        src += f" thread P{t} {{"
        for op, s in ops:
            loc = f"w{slots[s]:03d}"
            src += f" {loc} = {c[k]};" if op == "w" else f" r{k} = {loc};"
            k += 1
        src += " }"
    return src


# family -> (builder, racy, closed-form outcome count or None).
# Racy: SB, LB, MP and Wide race on nonatomics in some SC trace; IRIW
# touches only atomics and is race-free. Outcome counts were measured at
# the commit that introduced this benchmark: SB-n 2^n, LB-n 2^n - 1,
# MP-n 2n - 1, Wide-n 64 for every n; IRIW has no closed form, so its
# measured counts are listed per size.
FAMILIES = {
    "sb": (_sb, True, lambda n: 2**n),
    "lb": (_lb, True, lambda n: 2**n - 1),
    "mp": (_mp, True, lambda n: 2 * n - 1),
    "iriw": (_iriw, False, lambda n: {3: 54, 4: 189, 5: 648}.get(n)),
    "wide": (None, True, lambda n: 64),
}


# Each workload's family/size entries, with the reason each was chosen
# (cold `bdrst check` wall times; trace costs are cold `check-races`).
SIZES = {
    "cold_explore": [
        ("sb", 6, "2 702 states, 0.07 s: the small end of the state-exploration path"),
        ("sb", 7, "10 084 states, 0.4 s"),
        ("sb", 8, "37 634 states, 1.2 s; its entry writes 30 MB to the cache dir"),
        ("sb", 8, "the n = 8 rings are drawn twice per round, so the tail rank "
         "(N - 10 of N) falls inside their block of samples"),
        ("lb", 6, "2 701 states, 0.04 s"),
        ("lb", 7, "10 083 states, 0.2 s"),
        ("lb", 8, "37 633 states, 0.8 s; a 30 MB entry"),
        ("lb", 8, "drawn twice per round, like SB8"),
        ("mp", 6, "1 213 states, 0.02 s"),
        ("mp", 7, "3 643 states, 0.07 s"),
        ("mp", 8, "10 933 states, 0.3 s; the largest MP below the axiomatic limit"),
        ("iriw", 4, "3 165 states, 189 outcomes, 0.03 s"),
        ("iriw", 5, "16 061 states, 648 outcomes, 0.2 s: the largest outcome set"),
        ("wide", 64, "2 480 states over 64 locations, 0.12 s"),
        ("wide", 128, "2 480 states over 128 locations"),
        ("wide", 192, "2 480 states over 192 locations; an odd number of draws per "
         "round puts the median inside one class's block of samples"),
        ("wide", 256, "2 480 states over 256 locations, 0.54 s: per-state cost grows "
         "with location count"),
    ],
    # Cold trace checks on which cold_explore's traced run times the
    # trace-mode layers (trace, race, localdrf); small trace trees.
    "trace_probe": [
        ("sb", 4, "3 ms of states, 51 ms cold check-races: recording dominates"),
        ("lb", 4, "16 ms cold check-races"),
        ("lb", 5, "0.8 s cold check-races, 4 290 race events"),
        ("mp", 4, "21 ms cold check-races"),
        ("mp", 5, "1.0 s cold check-races, 132 516 race events; MP6 exceeds the trace budget"),
        ("iriw", 3, "30 ms cold check-races or check-localdrf in the server; "
         "race-free, 30 005 events"),
    ],
    # Programs whose trace tree is small get every command; the rest get
    # `check` and `check-global` (a reduced walk, no trace recording).
    # Listed fewest states first: this order is the popularity rank of
    # the warm mix (run.py, ZIPF_S). Wide64 precedes Wide128 at equal
    # state count because it has fewer locations.
    "warm_mixed": [
        ("mp", 4, "133 states; trace commands"),
        ("lb", 4, "193 states; trace commands"),
        ("sb", 4, "194 states; trace commands: smallest racy ring"),
        ("mp", 5, "403 states; trace commands: 132 516 events replayed per "
         "check-races hit, 41 ms"),
        ("iriw", 3, "585 states; trace commands: race-free replay"),
        ("lb", 5, "723 states; trace commands: 4 290 events replayed per "
         "check-races hit"),
        ("sb", 5, "724 states; check only: its cold check-races takes 6.6 s"),
        ("mp", 6, "1 213 states; check only: past the trace budget"),
        ("wide", 64, "2 480 states; check only: 64-location outcome rows"),
        ("wide", 128, "2 480 states; check only: 128-location outcome rows"),
        ("lb", 6, "2 701 states; check only"),
        ("sb", 6, "2 702 states; check only"),
        ("iriw", 4, "3 165 states; check only: its trace tree holds 860 MB in "
         "the server"),
        ("mp", 7, "3 643 states; check only"),
        ("sb", 7, "10 084 states; check only: 128 outcomes"),
        ("iriw", 5, "16 061 states; check only: 648 outcomes, a 138 KB check "
         "response; rendering dominates"),
    ],
}

TRACE_ELIGIBLE = {("sb", 4), ("lb", 4), ("lb", 5), ("mp", 4), ("mp", 5), ("iriw", 3)}


class Program:
    """One generated program: family, size, source, and what its verdicts
    must be."""

    def __init__(self, family, n, source):
        self.family = family
        self.n = n
        self.source = source
        _, self.racy, count = FAMILIES[family]
        self.outcomes = count(n)

    @property
    def label(self):
        return f"{self.family}{self.n}"


class Draw:
    """The seeded generator. Every call to `program` returns a program the
    run has not produced before (distinct constants, so a distinct cache
    key), deterministically for a given seed and call sequence."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.seen = set()

    def program(self, family, n):
        while True:
            consts = [self.rng.randrange(200, 1000) for _ in range(max(n, 12))]
            if family == "wide":
                slots = sorted(self.rng.sample(range(n), 8))
                self.rng.shuffle(slots)
                src = _wide(n, consts, slots)
            else:
                src = FAMILIES[family][0](n, consts)
            if src not in self.seen:
                self.seen.add(src)
                return Program(family, n, src)
