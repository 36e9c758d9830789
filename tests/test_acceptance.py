"""
Acceptance gate: one test per criterion, exact arithmetic, hard time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each criterion is a check in blobcat.verify, the same code that
`blobcat verify` runs; here it runs under a time budget and must cover
exactly the stated number of cases, so a check whose range shrinks fails.
Every expected value is frozen in blobcat.verify or blobcat.tables.
"""

import contextlib
import gc
import hashlib
import io
import json
import random
import time
import tracemalloc
from functools import partial

from blobcat import algebra, enumeration, grids, normal_forms, verify
from blobcat.algebra import AlgebraLevel, Scalar, in_index_set, reduce_word, sb_basis
from blobcat.cli import main
from blobcat.words import canonical_word

from oracles import law_mismatch, loop_reduce, walk_reduce
from pins import (
    LONG_BLOB_WORD_LINE,
    SEEDED_3200_LETTERS_SHA256,
    SEEDED_RANK_16_100K_SHA256,
    VERIFY_STDOUT_SHA256,
    class_shuffle,
    reduce_line,
    rigid_block_round_trip,
    seeded_word,
)

SB = AlgebraLevel.SYMPLECTIC_BLOB
TB = AlgebraLevel.TWO_BOUNDARY


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, detail):
        elapsed = time.perf_counter() - self.start
        line = f"{self.name}: {detail} ({elapsed:.2f}s / {self.seconds:g}s budget)"
        assert elapsed < self.seconds, f"FAIL {line}"
        print(f"PASS {line}")


def accept(name, seconds, cases, *checks):
    """Run the checks under one budget; all must pass over exactly `cases` cases."""
    budget = Budget(name, seconds)
    results = [check() for check in checks]
    for result in results:
        assert result.ok, f"{result.name}: {result.detail}"
    assert [r.cases for r in results] == list(cases), [r.name for r in results]
    budget.done(", ".join(f"{r.name} {r.detail}" for r in results))


def test_criterion_1_excluded_table():
    accept("criterion 1 excluded-count table", 1.0, [90], verify.check_excluded)


def test_criterion_2_blobbed_table():
    accept("criterion 2 blobbed-count table", 1.0, [90], verify.check_blobbed)


def test_criterion_3_dimension_sequence():
    accept("criterion 3 dimension sequence", 1.0, [9], verify.check_dimension_sequence)


def test_criterion_4_oracle_vs_formula():
    # affine lengths 0..min(n+1, 6) at ranks 1..5: 25 (n, s) pairs
    checks = [partial(verify.check_oracle, n) for n in range(1, 6)]
    accept("criterion 4 oracle vs formula", 60.0, [3, 4, 5, 6, 7], *checks)


def test_dimension_polynomial_one_pass():
    # blob_polynomial(n) against b_count(n, s) for every s, n = 1..90
    accept("dimension polynomial in one pass", 10.0, [90], verify.check_dim_polynomial)


def test_criterion_5_triangle_coherence():
    accept(
        "criterion 5 triangle coherence",
        5.0,
        [14223, 3241, 495],
        verify.check_triangle_closed_form,
        verify.check_triangle_identities,
        verify.check_triangle_decompositions,
    )


def test_criterion_6_finite_part_generation_counts():
    accept("criterion 6 finite-part generation", 30.0, [8], verify.check_finite_part)


def test_criterion_7_rewriting_confluence():
    accept("criterion 7 rewriting confluence", 60.0, [630], verify.check_confluence)


def test_tower_commutes_on_long_words_at_high_rank():
    # the laws of reduction (oracles.law_mismatch), the tower law first, on
    # seeded 10,000-letter words, where the blob level runs _blob_loop on 40
    # chunks of each
    budget = Budget("tower law on long words at ranks 96-256", 10.0)
    for n in (96, 128, 256):
        rng = random.Random(n)
        for _ in range(2):
            word = tuple(rng.randint(0, n) for _ in range(10_000))
            assert law_mismatch(n, word) is None, (n, word)
    budget.done("2 words of 10,000 letters at each of ranks 96, 128 and 256")


def test_deep_blob_redexes_reduce_at_ranks_6_and_8():
    # The long words of seeds 1-30 at rank 8 and one rank-6 blob product hold
    # blob redexes deep in their classes: a class walk to them takes seconds,
    # or passes 10^6 members (a word of seed 14, and the product).  Positive
    # words take the blob step from the heap.
    budget = Budget("deep blob redexes at ranks 6 and 8", 10.0)
    x = (5, 4, 3, 2, 1, 6, 5, 4, 3, 2, 6, 5, 4, 6, 5, 6)
    y = (0, 2, 1, 0, 3, 2, 1, 0, 5, 4, 3, 6)
    cases = [(6, x + y)]
    for seed in range(1, 31):
        rng = random.Random(seed)
        lengths = (20,) * 10 + (30,) * 10
        cases += [(8, tuple(rng.randint(0, 8) for _ in range(m))) for m in lengths]
    cuts = random.Random(31)
    for n, word in cases:
        for level in AlgebraLevel:
            cut = cuts.randrange(1, len(word))
            assert verify._cut_mismatch(level, n, word, (cut,)) is None, (level, n, word, cut)
    budget.done(f"{len(cases)} words, three levels, one seeded cut")


def _fc_products(n, s):
    """
    Products of 30 consecutive pairs of 60 FC normal forms, drawn by
    `random.Random(5).sample` from the first 200,000 of `iter_fc_forms(n, s)`.
    `sample` draws positions only, so sampling `range(200_000)` picks the
    forms that sampling their list would, without keeping the list.
    """
    picks = random.Random(5).sample(range(200_000), 60)
    wanted, forms = set(picks), {}
    for index, nf in enumerate(normal_forms.iter_fc_forms(n, s)):
        if index in wanted:
            forms[index] = nf
            if len(forms) == len(picks):
                break
    words = [normal_forms._word_of_normal_form(n, forms[index]) for index in picks]
    return [words[p] + words[p + 1] for p in range(0, len(words), 2)]


# sha256 of the outputs of test_deep_tl_and_boundary_redexes_at_ranks_10_and_12
DEEP_REDEX_PRODUCTS_SHA256 = "f51a14e7916e055ec23bc50a6ef4a17c11c68436db099f58368b326de6e5632c"


def test_deep_tl_and_boundary_redexes_at_ranks_10_and_12():
    # Products of two long FC normal forms hold TL or boundary redexes so
    # deep in their classes that a walk to them takes up to a minute or
    # passes 10^6 members; the heap witness takes each in one step.  No
    # walk reduces them all, so each output is checked three ways: it is a
    # basis index, a class shuffle of the input gives it too, and so does
    # reducing a prefix or a suffix of the input first, at a seeded cut.
    TL, TB = AlgebraLevel.TL, AlgebraLevel.TWO_BOUNDARY
    rank_10, rank_12 = _fc_products(10, 3), _fc_products(12, 2)
    rng = random.Random(21)
    records = []
    for name, seconds, level, n, words in (
        ("rank-10 TL products", 2.0, TL, 10, rank_10),
        ("rank-12 TL products", 1.0, TL, 12, rank_12),
        ("rank-12 two-boundary products", 1.0, TB, 12, rank_12),
    ):
        budget = Budget(name, seconds)
        outputs = [reduce_word(level, n, word) for word in words]
        lengths = sorted(map(len, words))
        budget.done(f"{len(words)} products of {lengths[0]}-{lengths[-1]} letters")
        for word, output in zip(words, outputs):
            assert reduce_word(level, n, class_shuffle(rng, word)) == output, (level, n, word)
            cut = rng.randrange(1, len(word))
            assert verify._cut_mismatch(level, n, word, (cut,)) is None, (level, n, word, cut)
            records.append([level.name, n, str(output[0]), list(output[1])])
    blob = json.dumps(records).encode()
    assert hashlib.sha256(blob).hexdigest() == DEEP_REDEX_PRODUCTS_SHA256


def test_enumerate_streams_its_forms(capsys, monkeypatch):
    # the first forms without building a whole FC set: fc_forms(10, 3) holds
    # 966,816 forms and takes over a minute to build, and listing the 2,912,167
    # finite-part forms of rank 12 before the first affine-length-1 form took 20 s
    def refuse(n, s):
        raise AssertionError("enumerate built a whole FC set")

    monkeypatch.setattr(normal_forms, "fc_forms", refuse)
    budget = Budget("enumerate --limit at ranks 10 and 12", 3.0)
    for n, s, limit in ((10, 3, 1), (10, 0, 2), (12, 1, 1)):
        argv = ["enumerate", "--n", str(n), "--s", str(s), "--limit", str(limit)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["count"] == limit
    budget.done("rank 10 s = 3 limit 1 and s = 0 limit 2, rank 12 s = 1 limit 1")


def test_block_reading_scales_with_rank():
    # the descending word is 4,000 one-letter blocks and the staircase 2,000
    # two-letter ones; a reader that rescans the rank per block takes seconds
    n = 4000
    descending = tuple(range(n - 1, -1, -1))
    staircase = tuple(a for k in range(n - 1, 0, -2) for a in (k - 1, k))
    grids.iji_blocks.cache_clear()
    grids.jij_blocks.cache_clear()
    budget = Budget("rigid blocks at rank 4000", 0.25)
    assert normal_forms.blocks_of_word(n, descending) == tuple((a, a) for a in descending)
    assert normal_forms.blocks_of_word(n, staircase) == tuple(
        (k - 1, k) for k in range(n - 1, 0, -2)
    )
    assert in_index_set(AlgebraLevel.SYMPLECTIC_BLOB, n, descending)
    budget.done("descending and staircase words, one cold blob-level query")


def test_rigid_blocks_round_trip_through_a_class_member():
    # every rigid-block list at ranks 1-5 with s <= n, read back from a seeded
    # shuffle of its word within the class, with the index-set answers that
    # its blobbedness implies.  At rank 1 the list 0:1,0:0 spells the boundary
    # triple 0,1,0, which is no positive element
    rng = random.Random(5)
    checked, skipped = 0, []
    budget = Budget("rigid blocks read back at ranks 1-5", 2.0)
    for n in range(1, 6):
        for s in range(n + 1):
            for blocks in enumeration.iter_positive_blocks(n, s):
                if rigid_block_round_trip(rng, n, blocks) is None:
                    skipped.append((n, blocks))
                else:
                    checked += 1
    budget.done(f"{checked} elements")
    assert skipped == [(1, ((0, 1), (0, 0)))]
    assert checked == 5 + 36 + 196 + 1_000 + 4_884


def test_dimension_polynomial_scales_with_rank():
    # three products of the wing complements; one wing-sum dot product per s
    # (O(n^2) big-integer products) took about 3 s on a 2-vCPU VM
    n = 1000
    budget = Budget("dimension polynomial at rank 1000", 1.5)
    coeffs = enumeration.blob_polynomial(n)
    assert len(coeffs) == n + 1 and coeffs[0] == enumeration.a_count(n, 0)
    budget.done(f"{n + 1} coefficients, sum of {sum(coeffs).bit_length()} bits")


def test_basis_word_takes_no_class_walk():
    # 32 runs of 0, 1, ..., 64 hold no redex in any member at TL or 2B; a
    # search that walked len(word) members of the class before its heap pass
    # took about 2.5 s per level on this word on a 2-vCPU VM
    n = 64
    word = tuple(range(n + 1)) * 32
    budget = Budget("a 2,080-letter basis word at rank 64", 0.5)
    for level in (AlgebraLevel.TL, AlgebraLevel.TWO_BOUNDARY):
        assert reduce_word(level, n, word) == (Scalar.one(), canonical_word(n, word)), level
    budget.done(f"{len(word)} letters at TL and 2B")


def test_long_blob_words_reduce_past_the_recursion_limit():
    # The blob level folds the rank-2 word through its generator action,
    # one table lookup per letter, and the rank-8 word in chunks through
    # the heap-scan loop; the whole-word rewrite recursed once per rewrite
    # and raised RecursionError on both words.  The two take about 0.02 s
    # on a 2-vCPU VM.
    words = {2: seeded_word(2, 20_000), 8: seeded_word(8, 5_000)}
    budget = Budget("20,000 letters at rank 2 and 5,000 at rank 8, blob level", 1.0)
    outputs = {n: reduce_word(SB, n, word) for n, word in words.items()}
    budget.done("two words")
    for scalar, out in outputs.values():
        assert list(scalar.terms.values()) == [1], scalar
    assert reduce_line(outputs[2]) == LONG_BLOB_WORD_LINE
    assert outputs[2][1] in sb_basis(2)
    # sb_basis(8), 97,287 words, takes seconds to build; it is the canonical
    # words of the blobbed elements, which is what this asks of the output
    _, out = outputs[8]
    assert in_index_set(SB, 8, out) and canonical_word(8, out) == out
    # one-step rewrites of the whole word (`oracles.loop_reduce`, no
    # recursion and no `_blob_loop`) reach a 2,000-letter prefix at rank 2
    # and a 400-letter one at rank 8 (its class walks grow too fast at
    # rank 8 for more)
    for n, length in ((2, 2_000), (8, 400)):
        prefix = words[n][:length]
        assert reduce_word(SB, n, prefix) == loop_reduce(SB, n, prefix), n


def test_long_two_boundary_word_reduces_at_rank_64():
    # 800 random letters at rank 64 need more rewrites than the default
    # recursion limit would allow a recursive rewrite; the loop of kernel
    # steps took about 2 s on a 2-vCPU VM, the heap scan takes milliseconds
    n, word = 64, seeded_word(64, 800)
    budget = Budget("an 800-letter word at rank 64, two-boundary level", 8.0)
    scalar, out = reduce_word(TB, n, word)
    budget.done(f"{len(word)} letters to {len(out)}")
    assert canonical_word(n, out) == out and in_index_set(TB, n, out)
    # reducing the first half first lands on the same monomial and word
    head_scalar, head = reduce_word(TB, n, word[:400])
    tail_scalar, tail = reduce_word(TB, n, head + word[400:])
    assert (head_scalar * tail_scalar, tail) == (scalar, out)


def test_ten_thousand_letters_reduce_at_rank_64():
    # The heap scan reads each letter once, and a rewrite that drops a
    # piece inside the word read so far reads again only what followed it:
    # about 0.03 s per level on a 2-vCPU VM, where the loop of kernel steps
    # took 1.5-1.8 s on the first 800 letters
    n, word = 64, seeded_word(64, 10_000)
    for level in (AlgebraLevel.TL, TB):
        budget = Budget(f"10,000 letters at rank 64, {level.name}", 1.0)
        scalar, out = reduce_word(level, n, word)
        budget.done(f"to {len(out)} letters")
        assert canonical_word(n, out) == out and in_index_set(level, n, out), level
        # reducing the first half first lands on the same monomial and word
        head_scalar, head = reduce_word(level, n, word[:5_000])
        tail_scalar, tail = reduce_word(level, n, head + word[5_000:])
        assert (head_scalar * tail_scalar, tail) == (scalar, out), level
        # the word's first 3,200 letters reduce as the loop of kernel steps did
        line = reduce_line(reduce_word(level, n, word[:3_200])) + "\n"
        assert hashlib.sha256(line.encode()).hexdigest() == SEEDED_3200_LETTERS_SHA256, level


def test_hundred_thousand_letters_reduce_at_rank_16():
    # The fold keeps the letters read and the letters to come on two stacks,
    # so a rewrite changes only their tops: 0.13-0.30 s per level on a 2-vCPU
    # VM, where the run buffer, which deleted inside its list and copied its
    # tail on every read, took 0.34-0.70 s
    n, word = 16, seeded_word(16, 100_000)
    for level in (AlgebraLevel.TL, TB):
        budget = Budget(f"100,000 letters at rank 16, {level.name}", 1.0)
        scalar, out = reduce_word(level, n, word)
        budget.done(f"to {len(out)} letters")
        line = reduce_line((scalar, out)) + "\n"
        assert hashlib.sha256(line.encode()).hexdigest() == SEEDED_RANK_16_100K_SHA256, level


def test_blob_words_reduce_alike_whichever_factor_goes_first_at_high_rank():
    # From rank 7 the blob level reduces a word in chunks through the
    # heap-scan loop, which is sound only if reduction respects products:
    # reducing word[:cut] or word[cut:] first must land on the same monomial
    # and word (verify._cut_mismatch), at cuts on the chunk boundaries and
    # off them.  Rank 6 folds through the rows, one rank below the cutoff.
    # About 1.5 s on a 2-vCPU VM
    budget = Budget("prefix and suffix first, blob level, ranks 6-64", 15.0)
    chunk, cases = algebra._CHUNK, 0
    for n in (6, 7, 8, 16, 64):
        for length in (100, 1_000, 10_000):
            word = seeded_word(n, length)
            cuts = [c for c in (1, chunk - 1, chunk, 3 * chunk, length // 2 + 1, length - 1) if c < length]
            assert verify._cut_mismatch(SB, n, word, cuts) is None, (n, length)
            cases += len(cuts)
    budget.done(f"{cases} cuts of 15 seeded words")


def test_criterion_8_quotient_identities():
    # 114 non-positive elements (TL -> 2B), 68 non-blobbed positive elements
    # (2B -> SB), the rank-3 descent chain, the rank-1 identity
    accept("criterion 8 quotient identities", 30.0, [184], verify.check_quotient_identities)


def test_blob_step_matches_the_class_walk():
    # verify's 2B -> SB check compares the kernel with itself on the image,
    # which is circular once the kernel takes that step; here a reducer that
    # only walks classes (oracles.walk_reduce) is the reference instead.
    # Every non-blobbed positive block word: ranks 2-3 at affine lengths 0-4,
    # rank 4 at 0-3, rank 5 at 0-1 (rank 4 at length 4 and rank 5 at length
    # 2 would add about 2 s and 55 s); against the walk's leftmost and
    # rightmost orders, 1,474 comparisons.
    budget = Budget("blob step against the class walk", 30.0)
    cases = 0
    for n, max_s in ((2, 4), (3, 4), (4, 3), (5, 1)):
        for s in range(max_s + 1):
            for blocks in enumeration.iter_positive_blocks(n, s):
                if grids.is_blobbed(n, blocks):
                    continue
                word = normal_forms.block_word(blocks)
                for strategy in ("leftmost", "rightmost"):
                    expected = walk_reduce(SB, n, word, strategy)
                    assert reduce_word(SB, n, word) == expected, (n, word, strategy)
                    cases += 1
    assert cases == 1474
    budget.done(f"{cases} reductions at ranks 2-5")


def _soak_pass():
    """
    One pass of a seeded mixed stream, the same operations on every pass:
    40 words of up to 1,000 letters at ranks 2-64 reduced at TL and 2B,
    100 words of up to 200 letters at ranks 2-64 reduced at the blob level,
    `in_index_set` on a prefix of each at each of its levels, and ten
    rounds of `count`, `dim` and `enumerate --limit` through `main`.
    Returns the sha256 of every output.
    """
    rng = random.Random(13)
    digest = hashlib.sha256()
    draws = [(rng.randint(2, 64), 1000, (AlgebraLevel.TL, TB)) for _ in range(40)]
    draws += [(rng.randint(2, 64), 200, (SB,)) for _ in range(100)]
    for n, max_len, levels in draws:
        word = tuple(rng.randint(0, n) for _ in range(rng.randint(0, max_len)))
        prefix = word[: rng.randint(0, len(word))]
        for level in levels:
            digest.update(repr(reduce_word(level, n, word)).encode())
            digest.update(b"%d" % in_index_set(level, n, prefix))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for _ in range(10):
            n, rank, length = rng.randint(1, 90), rng.randint(1, 12), rng.randint(0, 3)
            s, which, limit = rng.randint(0, n), rng.choice("abd"), rng.randint(0, 20)
            for argv in (
                f"count --n {n} --s {s} --which {which}",
                f"dim --n {n}",
                f"enumerate --n {rank} --s {length} --limit {limit}",
            ):
                assert main(argv.split()) == 0, argv
    digest.update(out.getvalue().encode())
    return digest.hexdigest()


def test_mixed_stream_retains_no_memory_across_passes():
    # Every cache the stream touches is filled by the first pass, so three
    # more passes of the same stream must retain nothing more.  The four
    # passes take about 4.5 s under tracemalloc on a 2-vCPU VM
    budget = Budget("a mixed stream, four passes", 15.0)
    tracemalloc.start()
    try:
        digests = [_soak_pass()]
        gc.collect()
        after_one = tracemalloc.get_traced_memory()[0]
        digests += [_soak_pass() for _ in range(3)]
        gc.collect()
        after_four = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    budget.done(f"{after_one} bytes retained after one pass, {after_four} after four")
    assert len(set(digests)) == 1
    assert abs(after_four - after_one) < 64 * 1024, (after_one, after_four)


def test_criterion_9_blob_closure():
    # bases of 5, 19 and 84 elements: tables of 25 + 361 + 7056 products
    accept("criterion 9 blob closure", 120.0, [7442], verify.check_blob_closure)


def test_verify_stdout_is_pinned(capsys):
    # the suites as `run_suites` assembles them, the oracle suite too, with
    # every case count and detail line byte for byte
    budget = Budget("blobcat verify, every suite", 20.0)
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256
    budget.done(f"{len(out.splitlines())} lines")
