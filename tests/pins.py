"""
Pinned outputs: one function per pin, with the value it must produce and
the time limit it must produce it in.

    PYTHONPATH=src python tests/pins.py [NAME ...]

runs the named pins in this process, and prints the sha256 or the line of
each output.  With no name it runs every pin in a fresh child process
under the pin's limit: a child that exits non-zero or runs past its limit
is killed and fails its pin, and the other pins still run.  It exits 1 if
any pin fails and 2 if a name is no pin.  CI runs it with no name.

A pin whose value is a sha256 hashes the whole text of each output; a pin
whose value is a line compares it with the output less its final newline.
A pin that runs `blobcat ARGS` calls `blobcat.cli.main` with the same
argv, captures its stdout and requires exit status 0.  A pin with two
outputs, one per level, holds both to the same value.  The tests import
the values they share with a pin from here, with the seeded words, the
reduce line and the rigid-block round trip.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from blobcat import algebra, cli
from blobcat.algebra import (
    AlgebraElement,
    AlgebraLevel,
    BasisElement,
    Scalar,
    in_index_set,
    reduce_word,
    sb_basis,
)
from blobcat.enumeration import iter_positive_blocks
from blobcat.grids import _blob_step, is_blobbed
from blobcat.normal_forms import Blocks, block_word, blocks_of_word, format_blocks
from blobcat.verify import _quotient_sweep
from blobcat.words import HeapState, Letters, format_word, heap_state
from oracles import blobbed_by_rows, shortening_by_rows


class Mismatch(Exception):
    """A pin's program failed before it produced an output to compare."""


@dataclass(frozen=True)
class Pin:
    """
    A pinned value, the function that yields each output held to it, and
    the seconds its own process may take.
    """

    outputs: Callable[[], Iterator[str]]
    expected: str
    hashed: bool
    seconds: float

    def shown(self, text: str) -> str:
        """The sha256 of `text`, or `text` less its final newline."""
        if self.hashed:
            return hashlib.sha256(text.encode()).hexdigest()
        return text.removesuffix("\n")

    def holds(self, text: str) -> bool:
        return self.shown(text) == self.expected


PINS: dict[str, Pin] = {}


def pin(expected: str, seconds: float, hashed: bool = True):
    """Register the decorated function as the pin of its name."""

    def register(outputs):
        PINS[outputs.__name__] = Pin(outputs, expected, hashed, seconds)
        return outputs

    return register


def seeded_word(n: int, length: int) -> Letters:
    """The seeded word at rank n: `length` letters `randint(0, n)` of `random.Random(n)`."""
    rng = random.Random(n)
    return tuple(rng.randint(0, n) for _ in range(length))


def class_shuffle(rng: random.Random, word: Letters) -> Letters:
    """
    A seeded random walk of commuting swaps: another member of the class.
    A word of at most one letter has no swap to draw and is returned as it is.
    """
    word = list(word)
    for _ in range(4 * len(word) if len(word) > 1 else 0):
        p = rng.randrange(len(word) - 1)
        if abs(word[p] - word[p + 1]) > 1:
            word[p], word[p + 1] = word[p + 1], word[p]
    return tuple(word)


def commuting_pass(rng: random.Random, word: Letters) -> Letters:
    """
    A member of the class in one seeded pass, cheaper than class_shuffle:
    left to right, each adjacent pair of commuting letters is swapped when
    its bit of one `getrandbits` draw is set, so a letter can travel far.
    """
    bits = rng.getrandbits(len(word))
    word = list(word)
    for p in range(len(word) - 1):
        if bits >> p & 1 and abs(word[p] - word[p + 1]) > 1:
            word[p], word[p + 1] = word[p + 1], word[p]
    return tuple(word)


def rigid_block_round_trip(
    rng: random.Random, n: int, blocks: Blocks
) -> tuple[Letters, bool] | None:
    """
    A class_shuffle of the word of `blocks` drawn from `rng`, and whether it
    is blobbed, once its blocks read back as `blocks` and the index sets at
    SB and 2B answer as that blobbedness implies; Mismatch if not.  None,
    with no draw, if the list spells no positive element.
    """
    word = block_word(blocks)
    if heap_state(n, word) != HeapState.POSITIVE:
        return None
    word = class_shuffle(rng, word)
    blobbed = in_index_set(AlgebraLevel.SYMPLECTIC_BLOB, n, word)
    if (
        blocks_of_word(n, word) != blocks
        or blobbed != is_blobbed(n, blocks)
        or not in_index_set(AlgebraLevel.TWO_BOUNDARY, n, word)
    ):
        raise Mismatch(f"the rank-{n} word {format_word(word)} reads back wrong")
    return word, blobbed


def reduce_line(output: tuple[Scalar, Letters]) -> str:
    """The line `blobcat reduce` prints for a (scalar, word) reduction, less its newline."""
    scalar, word = output
    return f"{scalar} * [{format_word(word)}]"


def _blobcat(*argv: str) -> str:
    """The stdout of `blobcat ARGV`, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv))
    if status != 0:
        raise Mismatch(f"blobcat {argv[0]} exited {status}")
    return out.getvalue()


def _reduced_line(level: AlgebraLevel, n: int, word: Letters) -> str:
    """The line `blobcat reduce` prints for `word`."""
    return reduce_line(reduce_word(level, n, word)) + "\n"


ENUMERATE_FIRST_FORM_RANK_10_SHA256 = "9ae23bec490d84032d023d7c8957fe11b8342360d3dc3296e53133eae8e3708e"


@pin(ENUMERATE_FIRST_FORM_RANK_10_SHA256, 20)
def enumerate_first_form_rank_10():
    """
    `enumerate --n 10 --s 3 --limit 1`.  Building the whole affine-length-3
    set at rank 10 takes over a minute, so only a stream that stops at the
    first form ends within the limit; the hash was recorded from that stream.
    """
    yield _blobcat("enumerate", "--n", "10", "--s", "3", "--limit", "1")


ENUMERATE_FIRST_FORM_RANK_12_SHA256 = "bda41666438369a47938640989404492a0ca143247fad2a669b89b41c8f61dcf"


@pin(ENUMERATE_FIRST_FORM_RANK_12_SHA256, 5)
def enumerate_first_form_rank_12():
    """
    `enumerate --n 12 --s 1 --limit 1`.  Listing the rank-12 finite part
    before the first affine-length-1 form takes about 20 s, so only a stream
    that starts at that form ends within the limit; the hash was recorded
    from that stream.
    """
    yield _blobcat("enumerate", "--n", "12", "--s", "1", "--limit", "1")


ENUMERATE_DEEP_SHA256 = "1a9b6a0b5e7d69394b60843417b6c903c6c185f3a6cc5dc7340c8ab930ec6571"


@pin(ENUMERATE_DEEP_SHA256, 10)
def enumerate_deep():
    """
    `enumerate --n 1200 --s 0 --limit 1100`, 7,920,268 bytes.  The k-th form
    has k brackets, so the last lies past the default recursion limit, and a
    bracket DFS that recursed once per bracket refused it with exit 2; the
    hash was recorded from that DFS with the recursion limit at 5,000.
    """
    yield _blobcat("enumerate", "--n", "1200", "--s", "0", "--limit", "1100")


DIM_2000_SHA256 = "5a43fb063ec6344fa6174d6a0b09aa51cdc65ccaf4888b182de1e693fd86a48f"


@pin(DIM_2000_SHA256, 15)
def dim_2000():
    """
    `dim --n 2000`.  The two packed squarings of about 4 million bits take
    about 2 s at this rank, three convolutions took 3.6 s, and one wing-sum
    dot product per affine length, O(N^2) big-integer products, took about
    35 s; the hash was recorded from the dot products.
    """
    yield _blobcat("dim", "--n", "2000")


DIM_3000_SHA256 = "fa6ab8f300d17bc3c30c51ffe73f6089b205b6587e65e50091154f4c6aac6a6c"


@pin(DIM_3000_SHA256, 20)
def dim_3000():
    """
    `dim --n 3000`.  The two squarings of about 9 million bits take about
    6 s; the hash was recorded from the three-convolution blob_polynomial
    that they replaced (now tests/oracles.py), which took 10.8 s at this rank.
    """
    yield _blobcat("dim", "--n", "3000")


COUNT_PAST_DIGIT_LIMIT_SHA256 = "f6b360ec59d6ee621bb73392411f5a3f19b165d73cdabaa3f70a7232c2c4896a"


@pin(COUNT_PAST_DIGIT_LIMIT_SHA256, 10)
def count_past_digit_limit():
    """
    `count --n 7200 --s 3600 --which a`: 4,335 digits, past the 4,300-digit
    int-to-str limit of Python 3.10.7+, which made this exit 2; the hash was
    recorded from a_count with the limit lifted and equals that of
    blobbed_closed(14400, 7200).
    """
    yield _blobcat("count", "--n", "7200", "--s", "3600", "--which", "a")


COUNT_ONE_TERM_SHA256 = "dba92bcca923e2ebfc5e4be28a4dd4556a774394a6a348f988a772b7e81d7a27"


@pin(COUNT_ONE_TERM_SHA256, 5)
def count_one_term_at_scale():
    """
    `count --n 20000 --s 19999 --which a`: 2^40000 - 2, 12,042 digits, one
    term of the binomial sum.  a_count built the whole half row of 20,001
    prefix sums for it, about 0.25 s and 89 MB; the hash is that of the
    decimal 2^40000 - 2 and a newline.
    """
    yield _blobcat("count", "--n", "20000", "--s", "19999", "--which", "a")


COUNT_FAR_BELOW_DIAGONAL_SHA256 = "2255b0d4603617a2f29b76f78c558345b5813a9b9a042697c2358dae2d9b881a"


@pin(COUNT_FAR_BELOW_DIAGONAL_SHA256, 5)
def count_far_below_diagonal():
    """
    `count --n 20000 --s 1 --which a`: the sum of C(40000, k) for k below
    19,999, which a_count took as 19,999 binomial terms, about 0.2 s, and
    now takes as one term past the row's symmetry; the hash was recorded
    from the sum of 19,999 terms.
    """
    yield _blobcat("count", "--n", "20000", "--s", "1", "--which", "a")


DEEP_BLOB_REDUCED = "d*kR*k * [5,4,3,2,1,0,6,5,4,3,2,1,0,6,5,4,3,6]"


@pin(DEEP_BLOB_REDUCED, 20, hashed=False)
def deep_blob_redex():
    """
    A rank-6 blob product whose first blob redex lies so deep in its class
    that a walk to it passes 10^6 members after about 10 s; the row fill
    that meets it, on a 20-letter product, walks len(word) members, takes
    the blob step at once on the rigid blocks it read for the first, and
    folds the 13-letter word that step leaves from the empty row.
    """
    word = "5,4,3,2,1,6,5,4,3,2,6,5,4,6,5,6,0,2,1,0,3,2,1,0,5,4,3,6"
    yield _blobcat("reduce", "--n", "6", "--level", "sb", "--word", word)


# the product of two rank-10 FC normal forms of affine length 3
DEEP_TL_WORD = (
    "0,1,2,3,4,5,6,7,8,9,10,0,1,2,3,4,5,6,7,8,9,10,0,1,2,3,4,5,6,7,8,9,10,0,1,2,3,4,5,"
    "0,3,4,5,6,7,8,9,10,2,3,4,5,6,7,8,9,10,0,1,2,3,4,5,6,7,8,9,10,0,1,2,3,4,5,6,7,8,9,"
    "0,1,2,3,4,5,6,7,8,0,1,2,3,4,0,1,2,3,0"
)
DEEP_TL_REDUCED = (
    "dL*kR * [0,1,0,2,1,0,3,2,1,0,4,3,2,1,0,5,4,3,2,1,0,6,5,4,3,2,1,0,7,6,5,4,3,2,1,0,"
    "8,7,6,5,4,3,2,1,0,9,8,7,6,5,4,3,2,1,0,10,9,8,7,6,5,4,3,2,10,9,8,7,6,5,4,3,10,9,8,7,"
    "6,10,9,8,7,10,9,8]"
)


@pin(DEEP_TL_REDUCED, 20, hashed=False)
def deep_tl_redex():
    """
    DEEP_TL_WORD at TL: a walk of its commutation class to its first TL
    redex passes 10^6 members after about 45 s; the heap witness takes it
    at once.
    """
    yield _blobcat("reduce", "--n", "10", "--level", "tl", "--word", DEEP_TL_WORD)


BASIS_WORD_SHA256 = "7a5717a359557c3391524c89d32ae71ec0b18e211acaedf87c199cd2cad0aa3b"


@pin(BASIS_WORD_SHA256, 3)
def basis_word():
    """
    64 runs of 0, 1, ..., 64 at rank 64 and TL hold no redex: the heap scan
    reads the word once and rewrites nothing, where walking len(word)
    members of its class took about 8.5 s; the hash was recorded from that walk.
    """
    word = format_word(tuple(range(65)) * 64)
    yield _blobcat("reduce", "--n", "64", "--level", "tl", "--word", word)


LONG_BLOB_WORD_LINE = "d^2231*dL^3289*dR^3269*kL^1164*kR^1147*k^2195 * [0,1,0,2]"


@pin(LONG_BLOB_WORD_LINE, 10, hashed=False)
def long_blob_word():
    """
    `reduce --n 2 --level sb` of seeded_word(2, 20_000).  The blob level
    folds the word through its generator action, one table lookup per
    letter; rewriting the whole word recursed once per rewrite and raised
    RecursionError.
    """
    word = format_word(seeded_word(2, 20_000))
    yield _blobcat("reduce", "--n", "2", "--level", "sb", "--word", word)


SEEDED_RANK_5_MILLION_SHA256 = "7b55f6c2a72891699bce62363136e0157ea9460c24adadc0cdaf0cf0392f94a2"


@pin(SEEDED_RANK_5_MILLION_SHA256, 10)
def long_blob_word_rank_5():
    """
    seeded_word(5, 1_000_000) at the blob level, through the library: a
    million letters fold through the rank-5 action rows in about 1 s.  The
    exponents pass 2^16, so the line pins the packed sums across the bytes
    of a field; the hash was recorded from the fold that added exponent tuples.
    """
    yield _reduced_line(AlgebraLevel.SYMPLECTIC_BLOB, 5, seeded_word(5, 1_000_000))


SEEDED_RANK_64_100K_SHA256 = "8cc70b17dd304d1c524c40cc9986a0d0e3dbac0ee14ae3f1688a52fea59e44fc"


@pin(SEEDED_RANK_64_100K_SHA256, 10)
def long_blob_word_rank_64():
    """
    seeded_word(64, 100_000) at the blob level, through the library: the
    heap-scan loop reduces it in chunks in under a second.  The hash was
    recorded from the action rows, where nearly every letter missed and
    rewrote a whole word: about 2 min on a 2-vCPU VM.
    """
    yield _reduced_line(AlgebraLevel.SYMPLECTIC_BLOB, 64, seeded_word(64, 100_000))


BLOB_WORDS_AT_THE_CUTOFF_SHA256 = "2e7ae1fadbcdd71a101dd18abcc75305399ab1a325124058268ce74894c659e6"


@pin(BLOB_WORDS_AT_THE_CUTOFF_SHA256, 10)
def blob_words_at_the_cutoff():
    """
    The reduce lines of seeded_word(n, 1_000) and seeded_word(n, 10_000) at
    the blob level for n = 6, the last rank on the action rows, and n = 7,
    8 and 9, the first that reduce through the heap-scan loop; the hash was
    recorded from the action rows.
    """
    yield "".join(
        _reduced_line(AlgebraLevel.SYMPLECTIC_BLOB, n, seeded_word(n, length))
        for n in (6, 7, 8, 9)
        for length in (1_000, 10_000)
    )


BLOB_ACTION_RANK_6_SHA256 = "bac9fb2e3be421aec8d86424ff6cd9ca3b5684e34579ee188eb80d58bac18c47"


@pin(BLOB_ACTION_RANK_6_SHA256, 15)
def blob_action_rank_6():
    """
    Every entry of the rank-6 action rows, the 5,748 basis words times each
    of the 7 generators, one line b|g|scalar|z each; the hash was recorded
    from a whole-word rewrite of each product that read no rows.
    """
    lines = []
    for b in sb_basis(6):
        for g in range(7):
            scalar, z = reduce_word(AlgebraLevel.SYMPLECTIC_BLOB, 6, b + (g,))
            lines.append(f"{format_word(b)}|{g}|{scalar}|{format_word(z)}\n")
    yield "".join(lines)


def shuffled_fill(rng: random.Random, n: int) -> list[tuple[Letters, int]]:
    """
    Fill every slot of the rank-n action rows from cold rows, one slot at a
    time in an order drawn from `rng`, each with the fills it nests; returns
    the slots in that order.
    """
    algebra._rows.cache_clear()
    algebra._reduce_canonical.cache_clear()
    slots = [(b, g) for b in sb_basis(n) for g in range(n + 1)]
    rng.shuffle(slots)
    rows = algebra._rows(n)
    for b, g in slots:
        row = rows.setdefault(b, [None] * (n + 1) + [b])
        row[g] or algebra._fill(n, row, g)
    return slots


@pin(BLOB_ACTION_RANK_6_SHA256, 15)
def blob_action_rank_6_shuffled():
    """
    `blob_action_rank_6`'s lines, read off rank-6 rows whose every slot was
    filled first in an order drawn from `random.Random(6)` (`shuffled_fill`):
    the order of the fills, and which of them nest, must not change an entry.
    """
    shuffled_fill(random.Random(6), 6)
    lines = []
    for b in sb_basis(6):
        for g in range(7):
            scalar, z = reduce_word(AlgebraLevel.SYMPLECTIC_BLOB, 6, b + (g,))
            lines.append(f"{format_word(b)}|{g}|{scalar}|{format_word(z)}\n")
    yield "".join(lines)


BLOB_FILL_STREAM_SHA256 = "b4409a0f705e6ec479580d66a3993293b1fd875bd38edddaf5f773f32e8850c6"


@pin(BLOB_FILL_STREAM_SHA256, 10)
def blob_fill_stream():
    """
    The reduce lines of 3,000 words at each of ranks 4, 5 and 6 at the blob
    level, each of 8 to 18 letters `randint(0, n)` drawn from one
    `random.Random(4)`, from cold action rows: short words that fill slots
    by every route of `algebra._fill`.  The hash was recorded from a fill
    that reduced every product closing no square through the whole-word
    memo, which handed each word it rewrote to `_blob_loop`.
    """
    algebra._rows.cache_clear()
    algebra._reduce_canonical.cache_clear()
    rng, lines = random.Random(4), []
    for n in (4, 5, 6):
        for _ in range(3_000):
            word = tuple(rng.randint(0, n) for _ in range(rng.randint(8, 18)))
            lines.append(_reduced_line(AlgebraLevel.SYMPLECTIC_BLOB, n, word))
    yield "".join(lines)


ALGEBRA_ELEMENT_SQUARE_RANK_4_SHA256 = "3d9068d6cba6506a4bbee0ca468db9fd7eb27023460d2243ee7f1c5c517963cd"


@pin(ALGEBRA_ELEMENT_SQUARE_RANK_4_SHA256, 10)
def algebra_element_square_rank_4():
    """
    The repr of the square of the sum of the 335 rank-4 blob basis
    elements, each with coefficient 1, as an `AlgebraElement`: 112,225
    basis products, 180,389 characters.  The hash was recorded from the
    product that added one element per pair of terms, which took 16-21 s
    on a 2-vCPU VM.
    """
    sb = AlgebraLevel.SYMPLECTIC_BLOB
    x = AlgebraElement(sb, 4, {BasisElement(sb, 4, b): Scalar.one() for b in sb_basis(4)})
    yield repr(x * x)


RIGID_BLOCKS_RANK_6_SHA256 = "60ab80d4bff2556910d655032a5eb3e686db342fd05815f99b0dd7c8a7f960f8"


@pin(RIGID_BLOCKS_RANK_6_SHA256, 20)
def rigid_blocks_rank_6():
    """
    Every rigid-block list at rank 6, 23,128 elements, read back from a
    class_shuffle of its word drawn from one `random.Random(6)`, one line
    word|blocks|blobbed each, with the index-set answers that its
    blobbedness implies; the hash was recorded from the reader that
    canonicalised the flipped word, which took about 4 s.
    """
    rng, lines = random.Random(6), []
    for s in range(7):
        for blocks in iter_positive_blocks(6, s):
            if (trip := rigid_block_round_trip(rng, 6, blocks)) is None:
                raise Mismatch(f"the rank-6 list {format_blocks(blocks)} is not positive")
            word, blobbed = trip
            lines.append(f"{format_word(word)}|{format_blocks(blocks)}|{int(blobbed)}\n")
    yield "".join(lines)


BLOB_TEST_RANK_7 = "114993 99328"


@pin(BLOB_TEST_RANK_7, 60, hashed=False)
def blob_test_rank_7():
    """
    The blob test by columns against its oracle by rows on every positive
    element of rank 7 with at least as many letters as I J I: its block
    word and a commuting_pass of it drawn from one `random.Random(7)`.  The
    shuffled word must give the block word's `blocks_of_word`, the rows of
    their greatest member, so the oracles by rows run once per element, on
    those blocks.  For each word the index-set query (columns read off its
    heap) answers as `oracles.blobbed_by_rows` on those blocks, and
    `grids._blob_step` (columns read off the word) is None for a blobbed
    word and else the step by rows on those blocks,
    `oracles.shortening_by_rows`; Mismatch if not.  The line is how many
    elements were checked and how many of them are not blobbed.
    """
    rng, checked, unblobbed = random.Random(7), 0, 0
    for s in range(9):
        for blocks in iter_positive_blocks(7, s):
            word = block_word(blocks)
            if len(word) < algebra._iji_length(7) or heap_state(7, word) != HeapState.POSITIVE:
                continue
            read = blocks_of_word(7, word)
            blobbed = blobbed_by_rows(7, read)
            step = None if blobbed else shortening_by_rows(7, read)
            shuffled = commuting_pass(rng, word)
            if blocks_of_word(7, shuffled) != read:
                raise Mismatch(f"the blocks of {format_word(shuffled)} at rank 7 are wrong")
            for member in (word, shuffled):
                if (
                    in_index_set(AlgebraLevel.SYMPLECTIC_BLOB, 7, member) != blobbed
                    or _blob_step(7, member) != step
                ):
                    raise Mismatch(f"the blob test of {format_word(member)} at rank 7 is wrong")
            checked += 1
            unblobbed += not blobbed
    yield f"{checked} {unblobbed}\n"


REPEATED_LETTER_LINE = "d^2999 * [1]"


@pin(REPEATED_LETTER_LINE, 10, hashed=False)
def long_tl_and_2b_words():
    """
    3,000 letters 1 at rank 2, at TL and at the two-boundary level: 2,999
    square rewrites, each dropped as the scanner reads it; a rewrite that
    recursed once per step exited 2 here.
    """
    word = format_word((1,) * 3000)
    for level in ("tl", "2btl"):
        yield _blobcat("reduce", "--n", "2", "--level", level, "--word", word)


SEEDED_3200_LETTERS_SHA256 = "71b3436c32e2ec61dc2d4933a1443c21b11d53301b89d1e591927fe7a8a299a5"


@pin(SEEDED_3200_LETTERS_SHA256, 5)
def ten_thousand_letters():
    """
    `reduce --n 64` of seeded_word(64, 10_000), output not compared, and of
    its first 3,200 letters, hashed, at TL and at the two-boundary level.
    The hash, the same line at both levels, was recorded from the loop of
    kernel steps (oracles.loop_reduce), which took 160 s per level on a
    2-vCPU VM and had not finished the whole word at TL after 10 min.
    """
    long = format_word(seeded_word(64, 10_000))
    head = format_word(seeded_word(64, 3_200))
    for level in ("tl", "2btl"):
        _blobcat("reduce", "--n", "64", "--level", level, "--word", long)
        yield _blobcat("reduce", "--n", "64", "--level", level, "--word", head)


SEEDED_RANK_16_100K_SHA256 = "0848b906bdf5908854f5e2d2e469b35b3049c724f6703db53fcc583f7d85ffa5"


@pin(SEEDED_RANK_16_100K_SHA256, 5)
def hundred_thousand_letters():
    """
    The line `reduce --n 16` would print for seeded_word(16, 100_000), the
    same at TL and at the two-boundary level, through the library, since
    the word's 241 KB of text is more than one argument may hold; the hash
    was recorded from the fold on a run buffer that the two-stack fold
    replaced, which took 0.6-0.7 s per level.
    """
    word = seeded_word(16, 100_000)
    for level in (AlgebraLevel.TL, AlgebraLevel.TWO_BOUNDARY):
        yield _reduced_line(level, 16, word)


SEEDED_RANK_256_100K_SHA256 = "be5cdaa081c84e15ba713b1a636be30e1fae0b5fc821698ff81472912cc1bda4"


@pin(SEEDED_RANK_256_100K_SHA256, 10)
def rank_256_words():
    """
    The line `reduce --n 256` would print for seeded_word(256, 100_000),
    the same at TL and at the two-boundary level, through the library.  At
    this rank the rewrites that drop a piece unread the most letters, about
    11 per letter of the word against 0.8 at rank 16 and 2.9 at rank 64,
    so the fold reads again most here.  The hash was recorded
    from the fold that left its reading loop at every rewrite, which took
    about 0.7 s per level on a 2-vCPU VM.
    """
    word = seeded_word(256, 100_000)
    for level in (AlgebraLevel.TL, AlgebraLevel.TWO_BOUNDARY):
        yield _reduced_line(level, 256, word)


VERIFY_STDOUT_SHA256 = "3d702d506059e52915714f3a3b95428677d3bb7ae51ab08c0461e8a3f44e6426"


@pin(VERIFY_STDOUT_SHA256, 60)
def verify_stdout():
    """
    The whole stdout of `blobcat verify`, every suite at its default ranges:
    a changed check, case count or detail line changes the hash.
    """
    yield _blobcat("verify")


QUOTIENT_COUNTS_RANK_6 = "2256 5385"


@pin(QUOTIENT_COUNTS_RANK_6, 20, hashed=False)
def quotient_identities_rank_6():
    """
    The numbers of non-positive FC forms (TL -> 2B) and of non-blobbed
    positive block lists (2B -> SB) at rank 6 and affine lengths 0-3, each
    checked as enumerated by the sweep that verify runs at ranks 2-3; every
    identity must hold.  The counts were recorded from the per-word check
    that read each word back into its normal form or rigid blocks.
    """
    tb, sb, failed = _quotient_sweep(6, range(4))
    if failed:
        raise Mismatch(f"a quotient identity fails at rank 6 on {format_word(failed[0])}")
    yield f"{tb} {sb}\n"


def run_each_in_a_child() -> int:
    """
    Run every pin in a fresh child process under its limit, each after the
    last whatever it gave; 1 if a child exits non-zero or runs past its limit.
    """
    failed = False
    for name, entry in PINS.items():
        start = time.perf_counter()
        try:
            status = subprocess.run([sys.executable, __file__, name], timeout=entry.seconds).returncode
        except subprocess.TimeoutExpired:
            failed = True
            print(f"FAIL {name}: over its {entry.seconds} s limit", flush=True)
            continue
        if status:
            failed = True
            print(f"FAIL {name}: exited {status}", flush=True)
        print(f"  {time.perf_counter() - start:.2f} s in its process, limit {entry.seconds} s", flush=True)
    return 1 if failed else 0


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in PINS]
    if unknown:
        print(f"error: no pin {', '.join(unknown)}; the pins are {', '.join(PINS)}", file=sys.stderr)
        return 2
    if not names:
        return run_each_in_a_child()
    failed = False
    for name in names:
        entry, start = PINS[name], time.perf_counter()
        try:
            for text in entry.outputs():
                good = entry.holds(text)
                failed |= not good
                print(f"{'ok' if good else 'FAIL'} {name}: {entry.shown(text)}", flush=True)
                if not good:
                    print(f"  pinned: {entry.expected}", flush=True)
        except Mismatch as exc:
            failed = True
            print(f"FAIL {name}: {exc}", flush=True)
        print(f"  {time.perf_counter() - start:.2f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
