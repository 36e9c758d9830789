"""
The four benchmark workloads: seeded inputs, the op each input drives, and
the independent check of every output.

Every workload is a closed loop with one caller.  `random-words`,
`index-set` and `counts` draw their inputs in rounds: a round holds one input
from every stratum of the workload's parameter grid, so a run sees the same
mix of sizes whatever the seed, and the seed only picks the concrete words
and numbers inside each stratum.  `sb-table` builds whole tables, and the
seed orders them.

Input generation never touches a cache that the ops measure: `sb-table`
needs `sb_basis` of the ranks it multiplies in, which `reduce_word` does not
read, and `index-set` builds its query words with the samplers below instead
of `fc_forms` or `sb_basis`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from typing import Iterator

from blobcat import algebra, cli, enumeration, grids, triangles
from blobcat.algebra import AlgebraLevel
from blobcat.words import canonical_word, format_word, is_reduced_fc

LEVELS = tuple(AlgebraLevel)


def _rng(name: str, seed: int) -> random.Random:
    # string seeds are hashed with SHA-512, so streams are stable across
    # interpreter runs and independent of PYTHONHASHSEED
    return random.Random(f"{name}/{seed}")


def _monomial_one(scalar: algebra.Scalar) -> bool:
    return scalar.is_monomial() and next(iter(scalar.terms.values())) == 1


# ---------------------------------------------------------------------------
# sb-table


class SbTable:
    """Products of blob-quotient basis words, the way the tables are built:
    the whole rank-3 table in table order, then the whole rank-4 table in
    seeded random order.  That is 119,281 products, 13 to 20 s on a 2-core
    VM; the run ends when they are done or at --seconds, whichever comes
    first.  (A rank-5 product costs about 100 ms, so rank 5 cannot extend the
    stream.)"""

    name = "sb-table"
    RANKS = (3, 4)

    def __init__(self, seed: int):
        self.basis = {n: algebra.sb_basis(n) for n in self.RANKS}
        self._pairs = list(itertools.product(range(len(self.basis[4])), repeat=2))
        _rng(self.name, seed).shuffle(self._pairs)

    def inputs(self) -> Iterator[tuple]:
        small, big = self.basis[3], self.basis[4]
        for x, y in itertools.product(small, repeat=2):
            yield 3, x, y
        for i, j in self._pairs:
            yield 4, big[i], big[j]

    @staticmethod
    def op(inp):
        n, x, y = inp
        return algebra.reduce_word(AlgebraLevel.SYMPLECTIC_BLOB, n, x + y)

    def check(self, inputs, outputs) -> list[str]:
        index = {n: set(words) for n, words in self.basis.items()}
        bad = []
        for (n, x, y), out in zip(inputs, outputs):
            if out is None:
                continue
            scalar, z = out
            if z not in index[n] or not _monomial_one(scalar):
                bad.append(f"n={n} {x}*{y} -> {scalar} {z}: not a basis word times a monomial")
        return bad

    @staticmethod
    def describe(inp) -> str:
        n, x, y = inp
        return f"reduce sb n={n} word={format_word(x + y)}"


# ---------------------------------------------------------------------------
# random-words


class RandomWords:
    """Distinct uniformly random words, one per (level, rank, length) stratum
    and round.  Lengths run 8 to 18 at rank 4 and shrink with the rank,
    because a word's cost grows about tenfold per extra rank at a fixed
    length; wider ranges let a single word dominate a run.  A run is ROUNDS
    rounds (7,440 words, about 19 s today) and ends then or at --seconds; a
    fixed job keeps the reduce cache, and so the memory, the same size from
    run to run."""

    name = "random-words"
    LENGTHS = {4: (8, 18), 5: (8, 16), 6: (8, 12), 7: (8, 10), 8: (8, 10)}
    BUCKETS = ((8, 10), (11, 14), (15, 18))  # word lengths of the scaling view
    ROUNDS = 80
    DEFAULT_SEED = 1
    DIGEST_OPS = 200
    # sha256 of the first DIGEST_OPS outputs at DEFAULT_SEED, recorded at the
    # commit that introduced this benchmark
    DIGEST = "2a9b2a0eb8716dc410dcfc1d1ee868d48e30289e069c2fe7d15fcdc56423d6a1"

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = _rng(self.name, seed)
        self._strata = [
            (level, n, length)
            for level in LEVELS
            for n, (lo, hi) in self.LENGTHS.items()
            for length in range(lo, hi + 1)
        ]

    def inputs(self) -> Iterator[tuple]:
        rng = self._rng
        seen = set()
        for _ in range(self.ROUNDS):
            strata = list(self._strata)
            rng.shuffle(strata)
            for level, n, length in strata:
                while True:
                    word = tuple(rng.randint(0, n) for _ in range(length))
                    if (level, n, word) not in seen:
                        break
                seen.add((level, n, word))
                yield level, n, word

    @staticmethod
    def op(inp):
        level, n, word = inp
        return algebra.reduce_word(level, n, word)

    def check(self, inputs, outputs) -> list[str]:
        bad = []
        for (level, n, word), out in zip(inputs, outputs):
            if out is None:
                continue
            scalar, z = out
            if not is_reduced_fc(n, z) or len(z) > len(word) or not _monomial_one(scalar):
                bad.append(f"{level.name} n={n} {word} -> {scalar} {z}")
        if self.seed == self.DEFAULT_SEED and len(outputs) >= self.DIGEST_OPS:
            got = self.digest(inputs, outputs)
            if got != self.DIGEST:
                bad.append(f"digest of the first {self.DIGEST_OPS} outputs is {got}, recorded {self.DIGEST}")
        return bad

    @classmethod
    def digest(cls, inputs, outputs) -> str:
        h = hashlib.sha256()
        for (level, n, word), out in itertools.islice(zip(inputs, outputs), cls.DIGEST_OPS):
            scalar, z = out if out is not None else ("failed", ())
            h.update(f"{level.name}|{n}|{format_word(word)}|{scalar}|{format_word(z)}\n".encode())
        return h.hexdigest()

    @staticmethod
    def describe(inp) -> str:
        level, n, word = inp
        return f"reduce {level.name} n={n} word={format_word(word)}"

    @classmethod
    def scaling(cls, inputs, latencies) -> dict[str, float]:
        """Mean op time by (rank, length bucket)."""
        sums: dict[str, list[float]] = {}
        for (_, n, word), lat in zip(inputs, latencies):
            sums.setdefault(cls.bucket_name(n, len(word)), []).append(lat)
        return {key: 1e3 * sum(v) / len(v) for key, v in sums.items()}

    @classmethod
    def bucket_name(cls, n: int, length: int) -> str:
        lo, hi = next(b for b in cls.BUCKETS if b[0] <= length <= b[1])
        return f"scaling.reduce_word_ms.n{n}.len{lo}-{hi}"

    @classmethod
    def scaling_names(cls) -> list[str]:
        names = []
        for n, (lo, hi) in cls.LENGTHS.items():
            for blo, bhi in cls.BUCKETS:
                if blo <= hi and bhi >= lo:
                    names.append(cls.bucket_name(n, max(lo, blo)))
        return names


# ---------------------------------------------------------------------------
# index-set


def random_positive_blocks(rng: random.Random, n: int, s: int) -> tuple[tuple[int, int], ...]:
    """A random rigid-block form with s blocks touching the last column,
    under the invariants of `normal_forms.check_blocks`."""
    blocks = []
    l_cap = n
    for _ in range(s):
        l = rng.randint(0, l_cap)
        blocks.append((l, n))
        l_cap = l - 1 if l > 0 else 0
    r_cap = n - 1
    while r_cap >= 0 and rng.random() < 0.8:
        r = rng.randint(0, r_cap)
        l = rng.randint(0, min(l_cap, r))
        blocks.append((l, r))
        l_cap = l - 1 if l > 0 else 0
        r_cap = r - 1
    return tuple(blocks)


def blocks_word(blocks) -> tuple[int, ...]:
    return tuple(x for l, r in blocks for x in range(l, r + 1))


def shuffle_in_class(rng: random.Random, word: tuple[int, ...]) -> tuple[int, ...]:
    """A random member of the commutation class, by swaps of commuting neighbours."""
    w = list(word)
    for _ in range(3 * len(w)):
        if len(w) < 2:
            break
        p = rng.randrange(len(w) - 1)
        if abs(w[p] - w[p + 1]) > 1:
            w[p], w[p + 1] = w[p + 1], w[p]
    return tuple(w)


def extend_fc(rng: random.Random, n: int, word: tuple[int, ...], steps: int) -> tuple[int, ...]:
    """Add up to `steps` letters below n at either end, each kept only if the
    word stays reduced FC; this leaves the positive elements behind."""
    for _ in range(steps):
        letters = list(range(n))
        rng.shuffle(letters)
        front = rng.random() < 0.5
        for x in letters:
            grown = (x,) + word if front else word + (x,)
            if is_reduced_fc(n, grown):
                word = grown
                break
    return word


def break_fc(rng: random.Random, n: int, word: tuple[int, ...]) -> tuple[int, ...]:
    """Double one letter below n: the word is no longer reduced, and its
    affine length is unchanged."""
    spots = [p for p, x in enumerate(word) if x != n]
    if not spots:
        return word + (0, 0)
    p = rng.choice(spots)
    return word[: p + 1] + word[p:]


class IndexSet:
    """`in_index_set` queries at ranks 5-7, affine lengths 0-3 and all three
    levels.  Each (rank, affine length, level) stratum gets a positive word
    (a basis word at SB when blobbed), an FC word grown past positivity, and
    a non-reduced word.  Set-up builds POOL_ROUNDS such rounds; a run asks
    the pool PASSES times and ends when done or at --seconds.  The first
    query at each (rank, affine length) builds `fc_forms`, and all of those
    fall in the first round, so the builds are most of a run; a fixed job
    keeps their share fixed too.  The later passes spread the cheap queries,
    which set the latency percentiles, over seconds instead of a fraction of
    one, so that one moment's machine load does not decide them.  Query cost
    at rank 7 varies widely from word to word, so the pool holds POOL_ROUNDS
    words per stratum: with a third as many, the seed alone moved
    `op_p95_ms` by more than a tenth."""

    name = "index-set"
    RANKS = (5, 6, 7)
    AFFINE = (0, 1, 2, 3)
    KINDS = ("positive", "fc", "non-fc")
    POOL_ROUNDS = 24
    PASSES = 17

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        strata = [
            (n, s, level, kind)
            for n in self.RANKS
            for s in self.AFFINE
            for level in LEVELS
            for kind in self.KINDS
        ]
        self._pool = []
        for _ in range(self.POOL_ROUNDS):
            rng.shuffle(strata)
            for n, s, level, kind in strata:
                word = blocks_word(random_positive_blocks(rng, n, s))
                if kind != "positive":
                    word = extend_fc(rng, n, word, rng.randint(1, 3))
                if kind == "non-fc":
                    word = break_fc(rng, n, word)
                self._pool.append((level, n, shuffle_in_class(rng, word)))

    def inputs(self) -> Iterator[tuple]:
        for _ in range(self.PASSES):
            yield from self._pool

    @staticmethod
    def op(inp):
        level, n, word = inp
        return algebra.in_index_set(level, n, word)

    def check(self, inputs, outputs) -> list[str]:
        oracle = _BlockOracle()
        bad = []
        answers = {}
        for inp, out in zip(inputs, outputs):
            if out is None:
                continue
            if answers.setdefault(inp, out) != out:
                bad.append(f"{self.describe(inp)}: answered both {answers[inp]} and {out}")
        for (level, n, word), got in answers.items():
            want = oracle.answer(level, n, word)
            if got != want:
                bad.append(f"{self.describe((level, n, word))}: got {got}, oracle says {want}")
        return bad

    @staticmethod
    def describe(inp) -> str:
        level, n, word = inp
        return f"in_index_set {level.name} n={n} word={format_word(word)}"

    @classmethod
    def scaling(cls, inputs, latencies) -> dict[str, float]:
        """Latency of the first query at each (rank, affine length)."""
        first = {}
        for (_, n, word), lat in zip(inputs, latencies):
            first.setdefault(cls.stratum_name(n, word.count(n)), 1e3 * lat)
        return first

    @staticmethod
    def stratum_name(n: int, s: int) -> str:
        return f"scaling.first_query_ms.n{n}.s{s}"

    @classmethod
    def scaling_names(cls) -> list[str]:
        return [cls.stratum_name(n, s) for n in cls.RANKS for s in cls.AFFINE]


class _BlockOracle:
    """Index sets from block enumeration, without normal forms: TL takes
    every reduced FC word, the two-boundary level the positive elements
    (the rigid-block forms of `enumeration.iter_positive_blocks`), and the
    blob level those of them that `is_blobbed` accepts, i.e. `sb_basis(n)`
    cut to the affine lengths queried.  Block forms are indexed by their
    letter multiset, so only a handful are compared per query."""

    def __init__(self):
        self._blocks: dict[tuple[int, int], dict[tuple[int, ...], list]] = {}

    def _by_letters(self, n: int, s: int) -> dict[tuple[int, ...], list]:
        if (n, s) not in self._blocks:
            index: dict[tuple[int, ...], list] = {}
            for blocks in enumeration.iter_positive_blocks(n, s):
                index.setdefault(tuple(sorted(blocks_word(blocks))), []).append(blocks)
            self._blocks[n, s] = index
        return self._blocks[n, s]

    def answer(self, level: AlgebraLevel, n: int, word: tuple[int, ...]) -> bool:
        if level == AlgebraLevel.TL:
            return is_reduced_fc(n, word)
        target = canonical_word(n, word)
        for blocks in self._by_letters(n, word.count(n)).get(tuple(sorted(word)), ()):
            if canonical_word(n, blocks_word(blocks)) == target:
                return level == AlgebraLevel.TWO_BOUNDARY or grids.is_blobbed(n, blocks)
        return False


# ---------------------------------------------------------------------------
# counts


class Counts:
    """`count --which a|b|d` and `dim` through `cli.main`, n from 20 to 90.
    A round is two calls of each count command and one `dim`, with n drawn
    from one of eight buckets; the rounds walk the buckets in a fixed order that alternates
    small and large n, so a run of fixed length sees the same spread of sizes
    whatever the seed.  Each command deals the n of a bucket, and the count
    commands s/n, from shuffled decks, so a command meets every n of a bucket
    and every slice of s/n before any of them twice.  The seed then moves
    the op mix, and with it the latency percentiles, as little as it can.
    `dim` at large n is most of the time, and the cheap count calls, twice
    as many as they would be one to one, fill the middle of the latency
    distribution densely enough for a steady median.  A run is ROUNDS rounds
    (eight walks over the buckets, 448 calls, about 16 s today) and ends
    then or at --seconds; a fixed job keeps a slow moment from cutting a
    walk short and so changing the mix."""

    name = "counts"
    COMMANDS = ("a", "b", "d") * 2 + ("dim",)
    N_LO, N_HI = 20, 90
    BUCKETS = 8
    S_SLICES = 8
    ROUNDS = 64

    def __init__(self, seed: int):
        self._rng = _rng(self.name, seed)
        width = (self.N_HI - self.N_LO + 1) / self.BUCKETS
        edges = [self.N_LO + round(width * b) for b in range(self.BUCKETS + 1)]
        self._buckets = [(edges[b], edges[b + 1] - 1) for b in range(self.BUCKETS)]
        order = []
        lo, hi = 0, self.BUCKETS - 1
        while lo <= hi:
            order.append(lo)
            if hi != lo:
                order.append(hi)
            lo, hi = lo + 1, hi - 1
        self._order = order

    def inputs(self) -> Iterator[tuple[str, ...]]:
        rng = self._rng
        decks: dict[object, list[int]] = {}

        def deal(key, cards):
            deck = decks.setdefault(key, [])
            if not deck:
                deck.extend(cards)
                rng.shuffle(deck)
            return deck.pop()

        for b in itertools.islice(itertools.cycle(self._order), self.ROUNDS):
            for which in self.COMMANDS:
                lo, hi = self._buckets[b]
                n = deal((b, which), range(lo, hi + 1))
                if which == "dim":
                    yield ("dim", "--n", str(n))
                else:
                    # s/n is dealt from S_SLICES equal slices of [0, 1] in turn
                    k = deal(which, range(self.S_SLICES))
                    s = min(n, int(n * (k + rng.random()) / self.S_SLICES))
                    yield ("count", "--n", str(n), "--s", str(s), "--which", which)

    @staticmethod
    def op(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"exit status {code}")
        return out.getvalue()

    def check(self, inputs, outputs) -> list[str]:
        bad = []
        for argv, text in zip(inputs, outputs):
            if text is None:
                continue
            lines = text.split("\n")
            try:
                if argv[0] == "dim":
                    total = int(lines[0])
                    coeffs = [int(c) for c in lines[1].strip("[]").split(",")]
                    ok = total == sum(coeffs) and min(coeffs) >= 0
                else:
                    opts = dict(zip(argv[1::2], argv[2::2]))
                    value = int(lines[0])
                    ok = value >= 0
                    if opts["--which"] == "a":
                        n, s = int(opts["--n"]), int(opts["--s"])
                        ok = ok and value == triangles.blobbed_closed(2 * n, 2 * s)
            except (ValueError, IndexError):
                ok = False
            if not ok:
                bad.append(f"{' '.join(argv)} printed {text!r}")
        return bad

    @staticmethod
    def describe(argv) -> str:
        return "blobcat " + " ".join(argv)


WORKLOADS = {w.name: w for w in (SbTable, RandomWords, IndexSet, Counts)}
SCALING_NAMES = RandomWords.scaling_names() + IndexSet.scaling_names()
