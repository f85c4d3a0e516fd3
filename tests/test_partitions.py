import functools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from apgoldbach import partitions, primes
from apgoldbach.partitions import (
    _lifted,
    AdmissiblePair,
    ExceptionalSet,
    exceptional_set,
    exceptional_sets,
    exceptional_sets_for_modulus,
    find_witness,
    verify_conjecture_mod4,
    verify_conjecture_samples,
    verify_ternary,
)
from apgoldbach.primes import MemoryBudgetError, PrimeTable, is_prime, sieve_primes
from apgoldbach.summaries import exceptional_sets_from_double
from oracles import (
    is_prime_trial_division,
    naive_exceptional_set,
    naive_mod4_case_i,
    naive_progression_violations,
    naive_stage1_unresolved,
    naive_ternary_violations,
    stage1_survivor_diagnostic,
)

# published explicit sets, m in {2, 4, 6, 8, 10}, complete below 10^6
EXPLICIT_SETS = {
    (1, 1, 2): (2, 4),
    (1, 1, 4): (2, 6, 14, 38, 62),
    (1, 3, 4): (4,),
    (3, 3, 4): (2,),
    (1, 1, 6): (2, 8),
    (1, 5, 6): (6,),
    (5, 5, 6): (4,),
    (1, 1, 8): (2, 10, 18, 26, 42, 50, 66, 74, 98, 122, 218, 242, 362, 458),
    (1, 3, 8): (4, 12, 68, 188),
    (1, 5, 8): (6, 14, 38, 62),
    (1, 7, 8): (8, 16, 32, 56),
    (3, 3, 8): (),
    (3, 5, 8): (),
    (3, 7, 8): (2,),
    (5, 5, 8): (2,),
    (5, 7, 8): (4,),
    (7, 7, 8): (6, 22, 166),
    (1, 1, 10): (2, 12, 32, 152),
    (1, 3, 10): (4,),
    (7, 7, 10): (4,),
    (1, 7, 10): (8,),
    (1, 9, 10): (10, 20),
    (3, 3, 10): (),
    (3, 7, 10): (),
    (3, 9, 10): (2, 12),
    (7, 9, 10): (6, 16),
    (9, 9, 10): (8, 18, 28, 68),
}


class TestAdmissiblePair:
    def test_rejects_noncoprime_residue(self):
        with pytest.raises(ValueError, match="coprime"):
            AdmissiblePair(2, 1, 4)

    def test_rejects_odd_modulus(self):
        with pytest.raises(ValueError, match="even"):
            AdmissiblePair(1, 2, 3)

    def test_rejects_noncanonical_residue(self):
        with pytest.raises(ValueError):
            AdmissiblePair(5, 1, 4)
        with pytest.raises(ValueError):
            AdmissiblePair(0, 1, 4)


class TestFindWitness:
    def test_smallest_p(self):
        w = find_witness(10, AdmissiblePair(3, 3, 4))
        assert (w.p, w.q) == (3, 7)

    def test_start_skips_smaller_p(self):
        pair = AdmissiblePair(3, 3, 4)
        assert find_witness(22, pair, start=4) == find_witness(22, pair, start=7)
        assert (find_witness(22, pair, start=4).p, find_witness(22, pair, start=12).p) == (11, 19)
        assert find_witness(22, pair, start=20) is None
        assert find_witness(22, pair, start=-10) == find_witness(22, pair)

    def test_no_witness(self):
        assert find_witness(4, AdmissiblePair(1, 3, 4)) is None

    def test_wrong_class_rejected(self):
        with pytest.raises(ValueError, match="congruent"):
            find_witness(6, AdmissiblePair(1, 3, 4))

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            find_witness(9, AdmissiblePair(1, 1, 2))

    def test_witness_soundness_random_sample(self, table_1e6):
        rng = random.Random(7)
        for a, b, m in [(1, 1, 2), (3, 5, 8), (9, 9, 10)]:
            pair = AdmissiblePair(a, b, m)
            exceptions = set(EXPLICIT_SETS[(a, b, m)])
            c = pair.target_residue or m
            for _ in range(100):
                n = c + m * rng.randrange(0, (10**5 - c) // m)
                if n < 2 or n in exceptions:
                    continue
                w = find_witness(n, pair)
                assert w is not None, (pair, n)
                assert w.p + w.q == n
                assert w.p % m == a and w.q % m == b
                assert is_prime_trial_division(w.p)
                assert is_prime_trial_division(w.q)


class TestExceptionalSet:
    @pytest.mark.parametrize("key,expected", sorted(EXPLICIT_SETS.items()))
    def test_explicit_sets(self, key, expected):
        a, b, m = key
        es = exceptional_set(AdmissiblePair(a, b, m), 10**6)
        assert es.elements == expected

    def test_symmetry(self):
        for a, b, m in [(1, 3, 8), (3, 9, 10), (1, 5, 6)]:
            fwd = exceptional_set(AdmissiblePair(a, b, m), 10**5)
            rev = exceptional_set(AdmissiblePair(b, a, m), 10**5)
            assert fwd.elements == rev.elements

    def test_stage1_bound_invariance(self):
        pair = AdmissiblePair(7, 7, 8)
        small = exceptional_set(pair, 10**5, M=500)
        large = exceptional_set(pair, 10**5, M=10**5)
        assert small.elements == large.elements
        assert small.stage1_survivors >= large.stage1_survivors

    @pytest.mark.parametrize("N,M,budget,nonzero", [
        (10**17, None, primes.DEFAULT_MEMORY_BUDGET_BYTES, [True] * 7),
        (10**8, 12_000_000, 4_000_000, [True] * 7),
        (10**8, 12_000_000, 8 * 2**20, [True] * 7),
        (10**17, 2, primes.DEFAULT_MEMORY_BUDGET_BYTES, [False, False] + [True] * 5),
    ])
    def test_budget_message_names_every_part(self, monkeypatch, N, M, budget, nonzero):
        # one count as the plan is built, before anything is sieved or
        # any share dealt: the a-mask, 8 bytes an a-class entry for the
        # prime indices, a window (one segment, the a-class's length and 7
        # entries), its eight copies, one segment's marks, a gather
        # block's scratch, as a sweep counts them, and the sieve; the
        # parts named add up to the bytes needed, and the sieve's strike
        # is sized by the larger of its buffers.  M = 2 < a leaves the
        # a-class empty
        sieved = []
        real = partitions.sieve_progression
        monkeypatch.setattr(partitions, "sieve_progression",
                            lambda *args: sieved.append(args[:2]) or real(*args))
        monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", budget)
        with pytest.raises(MemoryBudgetError) as exc:
            partitions.batch_plan([AdmissiblePair(3, 1, 4)], N, 2, M)
        assert sieved == []
        need, *parts = map(int, re.search(
            r"needs (\d+) bytes \((\d+) of small-prime mask, (\d+) of prime indices, "
            r"(\d+) of window, (\d+) of class copies, (\d+) of marks, (\d+) of gather scratch, "
            r"(\d+) of sieve pattern and base primes\)",
            str(exc.value),
        ).groups())
        assert sum(parts) == need > budget
        assert [part > 0 for part in parts] == nonzero
        M = partitions.default_stage1_bound(4, N) if M is None else M
        entries = max(0, (M - 3) // 4 + 1)  # class 3 up to M
        assert parts[:2] == [entries, 8 * entries]
        window = partitions.SIEVE_SEGMENT_SIZE + max(0, entries - 1) + 7
        assert parts[2:6] == [window, 8 * ((window + 7) // 8), partitions.SIEVE_SEGMENT_SIZE // 8,
                              32 * partitions._GATHER_BLOCK_ELEMENTS]
        assert parts[6] == primes.sieve_overhead_bytes(N, max(entries, window))

    @pytest.mark.parametrize(
        "a,b,m,M", [(1, 3, 4, 13), (3, 1, 4, 19), (1, 1, 4, 29), (7, 11, 30, 37), (5, 1, 6, 5)]
    )
    def test_survivors_match_naive_with_M_prime(self, a, b, m, M):
        # M is itself a prime of class a, so stage 1 must still use p = M
        es = exceptional_set(AdmissiblePair(a, b, m), 3000, M=M)
        naive = naive_stage1_unresolved(a, b, m, 3000, M)
        assert es.stage1_survivors == len(naive) - len(es.elements)

    def test_stage2_skips_survivors_up_to_M(self, monkeypatch):
        # stage 1 tried every class-a prime up to M, so only the survivors
        # above M + 2 reach find_witness
        calls = []
        witness = partitions.find_witness
        monkeypatch.setattr(
            partitions, "find_witness",
            lambda n, pair, **kw: calls.append(n) or witness(n, pair, **kw),
        )
        es = exceptional_set(AdmissiblePair(1, 1, 4), 1000, M=100)
        assert es.elements == (2, 6, 14, 38, 62)
        assert len(calls) == es.stage1_survivors == 5
        assert min(calls) > 102
        calls.clear()
        assert exceptional_set(AdmissiblePair(1, 1, 4), 1000).elements == es.elements
        assert calls == []
        # no class-1 prime is <= 4, so every candidate survives; 8 = 5 + 3
        # lies just above M + 2 and stage 2 finds it
        es = exceptional_set(AdmissiblePair(1, 3, 4), 100, M=4)
        assert es.elements == (4,)
        assert calls[0] == 8

    def test_stage2_tests_no_p_up_to_M(self, monkeypatch):
        # stage 1 ruled out every class-a prime p <= M, so stage 2's scan
        # starts at the first p > M; classes 1 and 49 mod 50 differ, so
        # the primality tests' arguments of class 1 are the p it tried
        pair, N, M = AdmissiblePair(1, 49, 50), 10**5, 300
        tested = []

        def counting(k):
            tested.append(k)
            return is_prime(k)

        monkeypatch.setattr(partitions, "is_prime", counting)
        es = exceptional_set(pair, N, M=M)
        ps = [k for k in tested if k % 50 == 1]
        assert ps and min(ps) == 301
        assert es.elements == tuple(naive_exceptional_set(1, 49, 50, N))
        assert es.stage1_survivors == len(naive_stage1_unresolved(1, 49, 50, N, M)) - len(
            es.elements
        )

    def test_M_larger_than_N_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            exceptional_set(AdmissiblePair(1, 1, 2), 100, M=200)

    @pytest.mark.parametrize("M", [-100, -4, 0])
    def test_M_below_every_prime_leaves_all_candidates(self, M):
        # no p <= M, so stage 1 resolves nothing: the 250 candidates
        # n = 2 (mod 4) up to 1000 all go to stage 2
        es = exceptional_set(AdmissiblePair(1, 1, 4), 1000, M=M)
        assert es.elements == exceptional_set(AdmissiblePair(1, 1, 4), 1000).elements
        assert es.stage1_survivors + len(es.elements) == 250

    def test_oracle_equivalence_small_moduli(self):
        N = 10**4
        for m in (2, 4, 6, 8, 10, 12):
            units = [a for a in range(1, m) if math.gcd(a, m) == 1]
            for a in units:
                for b in units:
                    if a > b:
                        continue
                    staged = exceptional_set(AdmissiblePair(a, b, m), N)
                    naive = naive_exceptional_set(a, b, m, N)
                    assert list(staged.elements) == naive, (a, b, m)


class TestModulusSweep:
    def test_m2_single_pair(self, table_1e6):
        sets = exceptional_sets_for_modulus(2, 10**4, table=table_1e6)
        assert sets == {(1, 1): (2, 4)}

    def test_m6_ordered_pairs(self, table_1e6):
        sets = exceptional_sets_for_modulus(6, 10**6, table=table_1e6)
        assert sets == {
            (1, 1): (2, 8),
            (1, 5): (6,),
            (5, 1): (6,),
            (5, 5): (4,),
        }

    def test_m4_multiplicity_count(self, table_1e6):
        sets = exceptional_sets_for_modulus(4, 10**6, table=table_1e6)
        assert sum(len(v) for v in sets.values()) == 8

    def test_m2_derived_from_m4(self, table_1e6):
        # 2 is in E(1, 1, 4) and E(3, 3, 4), 4 in E(1, 3, 4) and E(3, 1, 4)
        double = exceptional_sets_for_modulus(4, 10**4, table=table_1e6)
        assert exceptional_sets_from_double(2, double) == {(1, 1): (2, 4)}

    def test_odd_modulus_rejected(self, table_1e5):
        with pytest.raises(ValueError, match="double"):
            exceptional_sets_for_modulus(15, 10**4, table=table_1e5)

    @pytest.mark.parametrize(
        "m,N,M",
        [(4, 3000, 3000), (4, 3000, 60), (6, 3000, 150), (10, 2500, 300),
         (12, 3000, 1500), (30, 3000, 400)],
    )
    def test_survivor_counts_match_naive(self, monkeypatch, table_1e5, m, N, M):
        # a short head, which may stop at any shift past it, leaves most
        # small primes to the blocked tail gathers, and short windows cut
        # the candidates into many; every ordered pair runs in its own
        # orientation sieved through the engine, and every unordered pair
        # in the orientation a <= b that the sweep marks
        monkeypatch.setattr(partitions, "_VECTOR_PHASE_PRIMES", 4)
        monkeypatch.setattr(partitions, "_HEAD_GROUP", 1)
        monkeypatch.setattr(partitions, "_GATHER_BLOCK_ELEMENTS", 7)
        monkeypatch.setattr(partitions, "_MARK_BLOCK", 5)
        monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", 3)
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        swept = partitions._sweep_stage1(m, N, M, table_1e5)
        sets = exceptional_sets_for_modulus(m, N, M=M, table=table_1e5)
        for a in units:
            for b in units:
                naive = naive_stage1_unresolved(a, b, m, N, M)
                if a <= b:
                    assert swept[(a, b)] == naive, (a, b)
                assert partitions._pair_share(AdmissiblePair(a, b, m), N, M) == naive, (a, b)
                es = exceptional_set(AdmissiblePair(a, b, m), N, M=M)
                assert es.elements == sets[(a, b)], (a, b)
                assert set(es.elements) <= set(naive), (a, b)
                assert es.stage1_survivors == len(naive) - len(es.elements), (a, b)

    @pytest.mark.parametrize("m", [2, 12, 30])
    def test_one_batched_stage1_mark_per_unordered_pair(self, monkeypatch, table_1e5, m):
        # each window of the sweep runs one stage-1 pass per small-prime
        # class a over the rows b >= a, so every unordered pair is marked
        # once a window, as a <= b
        marked = []
        window = partitions._window

        def counted(a, bs, m, N, pidx, lo, *args):
            marked.extend((lo, a, b) for b in bs)
            return window(a, bs, m, N, pidx, lo, *args)

        monkeypatch.setattr(partitions, "_window", counted)
        monkeypatch.setattr(partitions, "_MARK_BLOCK", 1 << 9)
        sets = exceptional_sets_for_modulus(m, 10**4, table=table_1e5)
        phi = sum(1 for a in range(1, m) if math.gcd(a, m) == 1)
        windows = len(range(0, (10**4 - 2) // m + 1, 8 * max(1, (1 << 9) // (8 * phi))))
        assert windows > 1
        assert len(marked) == len(set(marked)) == windows * phi * (phi + 1) // 2
        assert all(a <= b for _, a, b in marked)
        assert len(sets) == phi * phi
        assert all(sets[(b, a)] is sets[(a, b)] for _, a, b in marked)

    @pytest.mark.parametrize("N", [10**5, 10**6])
    def test_sweep_peak_memory_is_one_window(self, monkeypatch, table_1e6, N):
        # windows of 512 candidates a row: the copies of every class over
        # one window and the 578 entries below it (8.8 KB), the small-prime
        # copies, one pass's marks, a table read's chunk and the gather
        # blocks, whatever N; a class index up to N would take 27 KB at
        # 10^5 and 267 KB at 10^6
        monkeypatch.setattr(partitions, "_MARK_BLOCK", 1 << 12)
        exceptional_sets_for_modulus(30, N, table=table_1e6)
        tracemalloc.start()
        try:
            exceptional_sets_for_modulus(30, N, table=table_1e6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 96 * 2**10

    def test_one_unpack_per_modulus(self, monkeypatch, table_1e5):
        # the table is read once for every class's small primes, then once
        # per window for every class's copies, its only reader
        calls = []
        unpack = PrimeTable.mask

        def counted(self, *args, **kwargs):
            calls.append(kwargs.get("start"))
            return unpack(self, *args, **kwargs)

        monkeypatch.setattr(PrimeTable, "mask", counted)
        monkeypatch.setattr(partitions, "_MARK_BLOCK", 1 << 15)
        for m in (2, 12, 30):
            calls.clear()
            exceptional_sets_for_modulus(m, 10**5, table=table_1e5)
            phi = sum(1 for a in range(1, m) if math.gcd(a, m) == 1)
            starts = range(0, (10**5 - 2) // m + 1, 8 * max(1, (1 << 15) // (8 * phi)))
            assert calls[0] is None and len(calls) == 1 + len(starts), m

    def test_single_pair_peak_memory(self):
        # one sieved window of the b-class, the a-class up to M and
        # block-sized scratch, whatever N: no table, no N/m-entry mask
        for N in (10**7, 4 * 10**7):
            for a, b in ((1, 1), (1, 3)):
                tracemalloc.start()
                try:
                    es = exceptional_set(AdmissiblePair(a, b, 4), N)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert es.elements == EXPLICIT_SETS[(a, b, 4)]
                assert peak <= 4 * 2**20, (N, a, b)

    def test_single_pair_peak_memory_ignores_mark_block(self, monkeypatch):
        # a pair's window is one sieve segment, so a larger sweep window
        # (1 MiB of marks) leaves its memory as it is
        monkeypatch.setattr(partitions, "_MARK_BLOCK", 1 << 23)
        self.test_single_pair_peak_memory()

    @pytest.mark.parametrize("rows", [1, 3, 80])
    def test_each_source_sets_its_window(self, monkeypatch, table_1e5, rows):
        # a pair's window is one sieve segment, and a sweep's one mark
        # block over all phi(m) rows, for the pass over `rows` rows as for
        # every other, whatever the other's constant
        spans = []
        window = partitions._window

        def recorded(a, bs, m, N, pidx, lo, hi, *args):
            spans.append((len(bs), hi - lo))
            return window(a, bs, m, N, pidx, lo, hi, *args)

        monkeypatch.setattr(partitions, "_window", recorded)
        monkeypatch.setattr(partitions, "_MARK_BLOCK", 8)
        monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", 1 << 10)
        exceptional_set(AdmissiblePair(1, 3, 4), 4 * 2**12)
        assert spans[0] == (1, 1 << 10)
        monkeypatch.undo()
        monkeypatch.setattr(partitions, "_window", recorded)
        monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", 8)
        monkeypatch.setattr(partitions, "_MARK_BLOCK", 1 << 12)
        spans.clear()
        exceptional_sets_for_modulus(400, 10**5, table=table_1e5)
        step = 8 * max(1, (1 << 12) // (8 * 160))  # phi(400) = 160 rows
        lengths = [length for n, length in spans if n == rows]
        assert len(lengths) > 1 and set(lengths[:-1]) == {step} and lengths[-1] <= step

    def test_pair_builds_no_table(self, monkeypatch):
        # a single pair reads no table's class masks and sieves no table
        # past sqrt(N)
        limits = []

        def sieve(limit, *args, **kwargs):
            limits.append(limit)
            return sieve_primes(limit, *args, **kwargs)

        def no_mask(*args, **kwargs):
            raise AssertionError("PrimeTable.mask called")

        monkeypatch.setattr(partitions, "sieve_primes", sieve)
        monkeypatch.setattr(primes, "sieve_primes", sieve)
        monkeypatch.setattr(PrimeTable, "mask", no_mask)
        N = 10**6
        for (a, b, m), expected in EXPLICIT_SETS.items():
            assert exceptional_set(AdmissiblePair(a, b, m), N).elements == expected
        assert verify_conjecture_mod4(N)["i"] == ()
        assert all(limit <= math.isqrt(N) for limit in limits)

    def test_index_windows_reach_the_last_entry(self, monkeypatch, table_1e5):
        # 8-candidate windows: the last entry j = 0 (q = 3) of a one-entry
        # window must be in its copies, or 8 = 5 + 3 is left unmarked; and
        # a window's copies start on a byte below lo - span, or the table
        # read and shift i's copy i % 8 fall off their bytes
        monkeypatch.setattr(partitions, "_MARK_BLOCK", 1)
        assert partitions._sweep_stage1(4, 8, 5, table_1e5)[(1, 3)] == [4]
        for N in (8, 40, 200):
            for (a, b), survivors in partitions._sweep_stage1(4, N, 13, table_1e5).items():
                assert survivors == naive_stage1_unresolved(a, b, 4, N, 13), (N, a, b)

    def test_survivor_diagnostic_monotone(self, table_1e6):
        d = stage1_survivor_diagnostic(8, 10**5, M=100, table=table_1e6)
        assert d.ordered_with_multiplicity >= d.unordered_canonical
        assert d.ordered_with_multiplicity >= d.distinct_n >= 0


@pytest.mark.parametrize("verify", [
    verify_conjecture_mod4,
    functools.partial(verify_conjecture_samples, a=7),
    verify_ternary,
], ids=["mod4", "samples", "ternary"])
def test_verifiers_refuse_N_1(verify):
    with pytest.raises(ValueError, match="N=1 must be >="):
        verify(1)


class TestConjectureMod4:
    @pytest.mark.parametrize(
        "case,expected",
        [("i", ()), ("ii", (4,)), ("iii", (2,)), ("iv", (2, 6, 14, 38, 62))],
    )
    def test_cases(self, case, expected):
        assert verify_conjecture_mod4(10**6)[case] == expected

    def test_shared_memo_computes_each_set_once(self, monkeypatch):
        # case (i) reads E(3, 1, 4) = E(1, 3, 4) and E(3, 3, 4), which
        # cases (ii) and (iii) read too: one batch computes each set once
        calls = []
        engine = partitions.exceptional_sets

        def counted(pairs, N, *work):
            calls.append(sorted((pair.a, pair.b) for pair in pairs))
            return engine(pairs, N, *work)

        monkeypatch.setattr(partitions, "exceptional_sets", counted)
        got = verify_conjecture_mod4(10**4)
        assert calls == [[(1, 1), (1, 3), (3, 3)]]
        assert list(got) == ["i", "ii", "iii", "iv"]

    def test_case_i_matches_naive(self):
        got = verify_conjecture_mod4(10**4)["i"]
        assert list(got) == naive_mod4_case_i(10**4)

    def test_case_iv_18_has_representation(self):
        # 18 = 5 + 13 with both primes 1 mod 4; the stated exception list's
        # 18 is a slip for 38
        assert is_prime(5) and is_prime(13) and 5 % 4 == 1 and 13 % 4 == 1


class TestConjectureSamples:
    @pytest.mark.parametrize(
        "item,expected",
        [
            ("i", ((6,),)),
            ("ii", ((), (10, 20))),
            ("iii", ((),)),
            ("iv", ((),)),
            ("v", ((),)),
            ("vi", ((),)),
        ],
    )
    def test_items(self, item, expected):
        reps = verify_conjecture_samples(10**6, a=7)[item]
        assert tuple(r.violations for r in reps) == expected

    def test_item_vii(self):
        reps = verify_conjecture_samples(10**6, a=7)["vii"]
        assert reps[0].violations == ()

    def test_item_vii_excluded_residue(self, monkeypatch):
        # a is checked before any item reaches the engine
        monkeypatch.setattr(partitions, "exceptional_sets", None)
        with pytest.raises(ValueError, match="excluded"):
            verify_conjecture_samples(100, a=11)
        with pytest.raises(ValueError, match="excluded"):
            verify_conjecture_samples(100, a=59)

    def test_item_vii_noncoprime(self):
        with pytest.raises(ValueError, match="coprime"):
            verify_conjecture_samples(100, a=6)

    def test_item_i_matches_progression_set(self):
        # violations mod 3 coincide with the exceptional set for (1, 5) mod 6
        e156 = exceptional_set(AdmissiblePair(1, 5, 6), 10**5)
        reps = verify_conjecture_samples(10**5, a=7)["i"]
        assert reps[0].violations == e156.elements


class TestTernary:
    def test_no_violations_to_1e4(self):
        assert verify_ternary(10**4) == ()

    def test_small_witnesses(self):
        # enumerated by hand: 7 = 2+2+3, 11 = 2+2+7, both 2s are 2 mod 3
        for n, (p, q, r) in [(7, (2, 2, 3)), (11, (2, 2, 7))]:
            assert p + q + r == n
            assert p % 3 == 2 and q % 3 == 2
            assert all(map(is_prime_trial_division, (p, q, r)))

    @pytest.mark.parametrize("N", [7, 8, 9, 100, 1001, 3000])
    def test_matches_naive(self, N):
        assert list(verify_ternary(N)) == naive_ternary_violations(N)

    def test_fallback_scan_matches_naive(self, monkeypatch):
        # pretend every even k = 4 (mod 6) above 4 is a binary violation:
        # each odd n then takes the fallback scan over every prime r, and
        # is p + q + r only as 2 + 2 + r, so n is a violation unless n - 4
        # is prime
        extra = tuple(range(10, 3001, 6))
        real = partitions.exceptional_sets

        def with_extra(pairs, N, *work):
            return [e._replace(elements=tuple(sorted(e.elements + extra)))
                    if pair == AdmissiblePair(5, 5, 6) else e
                    for pair, e in zip(pairs, real(pairs, N, *work))]

        monkeypatch.setattr(partitions, "exceptional_sets", with_extra)
        got = list(verify_ternary(3000))
        assert got == naive_ternary_violations(3000, frozenset(extra))
        assert got == [n for n in range(7, 3001, 2) if not is_prime(n - 4)]

    def test_peak_memory(self):
        # one N/6-entry class mask and block-sized scratch: no N-entry
        # array and no int64 array over the odd n
        N = 5 * 10**6
        tracemalloc.start()
        try:
            assert verify_ternary(N) == ()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= N / 2

    def test_brute_force_agreement(self):
        # independent triple loop up to 500
        primes = [p for p in range(2, 500) if is_prime_trial_division(p)]
        ok = set()
        for p in primes:
            if p % 3 != 2:
                continue
            for q in primes:
                if q % 3 != 2 or p + q > 500:
                    continue
                for r in primes:
                    if p + q + r <= 500:
                        ok.add(p + q + r)
        brute = [n for n in range(7, 501, 2) if n not in ok]
        assert brute == list(verify_ternary(500))


@given(
    m=st.sampled_from([2, 4, 6, 8, 10, 12]),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_symmetry_property(m, data):
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    a = data.draw(st.sampled_from(units))
    b = data.draw(st.sampled_from(units))
    fwd = exceptional_set(AdmissiblePair(a, b, m), 2000)
    rev = exceptional_set(AdmissiblePair(b, a, m), 2000)
    assert fwd.elements == rev.elements


@given(m=st.integers(1, 15).map(lambda k: 2 * k), N=st.integers(2, 2 * 10**4), data=st.data())
@settings(max_examples=25, deadline=None)
def test_elements_do_not_depend_on_M(table_1e5, m, N, data):
    # so the engine alone picks M: any M from below every prime to N
    # gives the elements of the default M, for a whole modulus and a pair
    M = data.draw(st.integers(-2 * m, N))
    assert exceptional_sets_for_modulus(m, N, M=M, table=table_1e5) == (
        exceptional_sets_for_modulus(m, N, table=table_1e5)
    )
    units = [r for r in range(1, m) if math.gcd(r, m) == 1]
    a, b = data.draw(st.sampled_from(units)), data.draw(st.sampled_from(units))
    pair = AdmissiblePair(a, b, m)
    assert exceptional_set(pair, N, M=M).elements == exceptional_set(pair, N).elements


@given(m=st.integers(1, 25).map(lambda k: 2 * k), N=st.integers(2, 2 * 10**4))
@settings(max_examples=40, deadline=None)
def test_derived_from_double_equals_direct(table_1e5, m, N):
    # the same pairs in the same order, and (b, a) shares the tuple of (a, b)
    derived = exceptional_sets_from_double(
        m, exceptional_sets_for_modulus(2 * m, N, table=table_1e5)
    )
    assert list(derived.items()) == list(
        exceptional_sets_for_modulus(m, N, table=table_1e5).items()
    )
    assert all(derived[(a, b)] is derived[(b, a)] for a, b in derived)


@given(m0=st.integers(3, 16), N=st.integers(2, 3000), data=st.data())
@settings(max_examples=60, deadline=None)
def test_progression_reduction_matches_naive(m0, N, data):
    r = data.draw(st.sampled_from([r for r in range(1, m0) if math.gcd(r, m0) == 1]))
    pair = _lifted(m0, r, -r)
    assert list(exceptional_sets([pair], N)[0].elements) == naive_progression_violations(m0, r, N)


@given(
    m=st.sampled_from([2, 4, 6, 8, 10, 12, 30]),
    N=st.integers(2, 4000),
    data=st.data(),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_indexed_stage1_matches_naive(monkeypatch, table_1e5, m, N, data):
    # tiny gather and marking blocks make the tail and the head cross many
    # block boundaries (the gather's first blocks narrower than the rest),
    # and tiny windows make both cross many windows; M
    # spans bounds below every prime of class a and below and above the
    # head's primes, at the default head of 64 primes and at shorter ones.
    # Stage 1 sieves the b-class of the pair in its own orientation, and
    # stage 2 skips the survivors up to M + 2.  The sweep's batched pass,
    # off the table, marks the pair as the row max(a, b) of class
    # min(a, b).
    monkeypatch.setattr(partitions, "_GATHER_BLOCK_ELEMENTS", 7)
    monkeypatch.setattr(partitions, "_GATHER_FIRST_ELEMENTS", data.draw(st.sampled_from([1, 2, 7])))
    monkeypatch.setattr(
        partitions, "_MARK_BLOCK", data.draw(st.sampled_from([partitions._MARK_BLOCK, 1, 5, 64]))
    )
    head = data.draw(st.sampled_from([partitions._VECTOR_PHASE_PRIMES, 1, 8]))
    monkeypatch.setattr(partitions, "_VECTOR_PHASE_PRIMES", head)
    monkeypatch.setattr(
        partitions, "SIEVE_SEGMENT_SIZE",
        data.draw(st.sampled_from([partitions.SIEVE_SEGMENT_SIZE, 1, 7, 64])),
    )
    units = [r for r in range(1, m) if math.gcd(r, m) == 1]
    a = data.draw(st.sampled_from(units))
    b = data.draw(st.sampled_from(units))
    M = data.draw(st.integers(-2 * m, N))
    naive = naive_stage1_unresolved(a, b, m, N, M)
    assert partitions._pair_share(AdmissiblePair(a, b, m), N, M) == naive
    es = exceptional_set(AdmissiblePair(a, b, m), N, M=M)
    assert list(es.elements) == naive_exceptional_set(a, b, m, N)
    assert es.stage1_survivors == len(naive) - len(es.elements)
    small, large = sorted((a, b))
    batched = partitions._sweep_stage1(m, N, M, table_1e5)
    assert batched[(small, large)] == naive_stage1_unresolved(small, large, m, N, M)


def test_gather_past_a_short_share_reads_no_hit(monkeypatch):
    # share 0 of 2 holds only the window [0, 256), 33 bytes a copy, but the
    # prime indices reach 324: a gather at s < 256 reads bit y = s - i, up
    # to 41 bytes before copy 0, where p > n is no hit
    monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", 256)
    a, b, m, N, M = 3, 9, 10, 4962, 3246
    pair = AdmissiblePair(a, b, m)
    parts = [partitions._pair_share(pair, N, M, (k, 2)) for k in (0, 1)]
    assert sorted(parts[0] + parts[1]) == naive_stage1_unresolved(a, b, m, N, M)


@given(
    m=st.sampled_from([2, 4, 6, 8, 10, 12, 30]),
    N=st.integers(2, 4000),
    K=st.integers(1, 4),
    data=st.data(),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_stage1_shares_merge_to_unsplit(monkeypatch, m, N, K, data):
    # share k of K runs windows k, k + K, ...; merged, the K shares' lists
    # are the unsplit stage 1, also where a share has no window.  Through
    # the engine, a pair splits into at most `workers` shares, only while
    # each gets _MIN_SHARE_WINDOWS windows, and gives the unsplit result
    # and survivor count
    window = data.draw(st.sampled_from([1, 7, 64]))
    monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", window)
    units = [r for r in range(1, m) if math.gcd(r, m) == 1]
    a = data.draw(st.sampled_from(units))
    b = data.draw(st.sampled_from(units))
    M = data.draw(st.integers(-2 * m, N))
    pair = AdmissiblePair(a, b, m)
    unsplit = naive_stage1_unresolved(a, b, m, N, M)
    parts = [partitions._pair_share(pair, N, M, (k, K)) for k in range(K)]
    assert all(part == sorted(part) for part in parts)
    assert sorted(n for part in parts for n in part) == unsplit

    calls = [len(partitions.deal(partitions.batch_plan([pair], N, K, M), K, window))]
    es = exceptional_set(pair, N, M, K)
    assert es == exceptional_set(pair, N, M)
    assert es.stage1_survivors + len(es.elements) == len(unsplit)
    if (N - 2) // m + 1 <= (partitions._MIN_SHARE_WINDOWS - 1) * window:
        assert calls == [1]  # the bitset route: a pair that never splits
    else:
        count = len(range(0, (N - a - b) // m + 1, window))
        assert calls == [max(1, min(K, count // partitions._MIN_SHARE_WINDOWS))]


@given(m=st.integers(1, 30).map(lambda k: 2 * k), N=st.integers(2, 5000), data=st.data())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_bitset_and_packed_kernels_match_naive(monkeypatch, m, N, data):
    # the int-bitset kernel over the whole b-class, one row shared by a
    # group of small-prime classes a (b among them or not, repeats
    # allowed), and the packed kernel over windows of a few entries, each
    # leave every a's naive survivors; a short head leaves most primes, up
    # to i = s (q = b), to the tails
    monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", data.draw(st.sampled_from([1, 7])))
    monkeypatch.setattr(partitions, "_VECTOR_PHASE_PRIMES",
                        data.draw(st.sampled_from([partitions._VECTOR_PHASE_PRIMES, 0, 1, 8])))
    units = [r for r in range(1, m) if math.gcd(r, m) == 1]
    b = data.draw(st.sampled_from(units))
    avals = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=4))
    M = data.draw(st.integers(-2 * m, N))
    group = partitions._bitset_group(b, avals, m, N, M)
    assert len(group) == len(avals)
    for a, survivors in zip(avals, group):
        naive = naive_stage1_unresolved(a, b, m, N, M)
        assert survivors == naive, a
        assert partitions._pair_share(AdmissiblePair(a, b, m), N, M) == naive, a


@given(m=st.integers(1, 30).map(lambda k: 2 * k), N=st.integers(2, 5000), data=st.data())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_both_sweep_kernels_agree_pair_by_pair(monkeypatch, table_1e5, flags_1e5, m, N, data):
    # the int-bitset sweep over every row at once, with a head of 0, 1, 8
    # or the default shifts, and the packed sweep over windows of a few
    # candidates leave the same candidates for every pair a <= b, and a
    # drawn pair's are the naive ones
    monkeypatch.setattr(partitions, "_MARK_BLOCK", data.draw(st.sampled_from([1, 5, 64])))
    monkeypatch.setattr(partitions, "_BITSET_HEAD_PRIMES",
                        data.draw(st.sampled_from([partitions._BITSET_HEAD_PRIMES, 0, 1, 8])))
    M = data.draw(st.integers(-2 * m, N))
    bitset = partitions._bitset_sweep(m, N, M, flags_1e5)
    assert bitset == partitions._sweep_stage1(m, N, M, table_1e5)
    a, b = data.draw(st.sampled_from(sorted(bitset)))
    assert bitset[(a, b)] == naive_stage1_unresolved(a, b, m, N, M)


@given(m=st.integers(1, 100).map(lambda k: 2 * k), N=st.integers(3, 3000), data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_int_sweep_reads_flags_that_end_at_the_limit(table_1e5, m, N, data):
    # odd flags sieved only to N or to N - 1 end before the rows of the
    # larger classes do, whose last entries b + j*m pass N; those entries
    # are read as 0, and the int-bitset sweep agrees with the packed one
    flags = sieve_primes(data.draw(st.sampled_from([N - 1, N])), packed=False)
    M = data.draw(st.integers(-2 * m, N))
    assert partitions._bitset_sweep(m, N, M, flags) == partitions._sweep_stage1(m, N, M, table_1e5)


def test_both_sweep_kernels_agree_at_m194(monkeypatch, table_1e6, flags_1e6):
    # a second oracle: the two sweep kernels share no marking, scanning or
    # tail code.  Every unordered pair of m = 194 at 2*10^5 leaves the
    # same candidates through each, the packed one in one window and in
    # 129 windows of 8 candidates (a mark block of 8 * 96 rows), and the
    # engine reads the same sets off the table and off its odd flags
    m, N = 194, 2 * 10**5
    M = partitions.default_stage1_bound(m, N)
    units = [r for r in range(1, m) if math.gcd(r, m) == 1]
    flags = flags_1e6
    bitset = partitions._bitset_sweep(m, N, M, flags)
    assert len(bitset) == 4656
    assert (exceptional_sets_for_modulus(m, N, table=flags)
            == exceptional_sets_for_modulus(m, N, table=table_1e6))
    for mark_block, windows in ((partitions._MARK_BLOCK, 1), (8 * len(units), 129)):
        monkeypatch.setattr(partitions, "_MARK_BLOCK", mark_block)
        starts = range(0, (N - 2) // m + 1, 8 * max(1, mark_block // (8 * len(units))))
        assert len(starts) == windows
        assert partitions._sweep_stage1(m, N, M, table_1e6) == bitset, windows


@pytest.mark.parametrize("bound", [1000, None], ids=["M1000", "default"])
def test_both_pair_kernels_agree_at_verify_scale(bound):
    # the pair-route counterpart of the m = 194 check: at N = 5*10^6 the
    # int-bitset group and the unsplit packed pair leave the same
    # candidates for conj2's groups (m, b, avals) = (4, 3, [1, 3]) and
    # (4, 1, [1]) and ternary's (6, 5, [5]); at M = 1000 the mod-4 pairs
    # keep 85, 15 and 85 candidates through the tails past the 64-shift
    # head, and at each modulus's default bound the few left
    N = 5 * 10**6
    kept = []
    for m, b, avals in ((4, 3, [1, 3]), (4, 1, [1]), (6, 5, [5])):
        M = partitions.default_stage1_bound(m, N) if bound is None else bound
        group = partitions._bitset_group(b, avals, m, N, M)
        assert group == [partitions._pair_share(AdmissiblePair(a, b, m), N, M) for a in avals]
        kept += map(len, group)
    assert kept == ([85, 15, 85, 1] if bound else [1, 1, 5, 1])


def _recorded_head_shifts(monkeypatch) -> list:
    """(classes, head, schedule) of every _head_shifts call from here on."""
    seen, real = [], partitions._head_shifts

    def recorded(classes, head):
        seen.append((classes, head, real(classes, head)))
        return seen[-1][2]

    monkeypatch.setattr(partitions, "_head_shifts", recorded)
    return seen


@pytest.mark.parametrize("M,head", [(2, 64), (10**4, 0)], ids=["M-below-a", "head-0"])
def test_bitset_stage1_without_a_head_shift(monkeypatch, flags_1e5, M, head):
    # no class has a head index, M below every a-class's first prime or a
    # head of 0, so no shift is made and the tails alone mark: a sweep of
    # m = 10 and a group of three a-classes leave the naive survivors
    seen = _recorded_head_shifts(monkeypatch)
    monkeypatch.setattr(partitions, "_BITSET_HEAD_PRIMES", head)
    monkeypatch.setattr(partitions, "_VECTOR_PHASE_PRIMES", head)
    N = 2000
    sweep = partitions._bitset_sweep(10, N, M, flags_1e5)
    for (a, b), survivors in sweep.items():
        assert survivors == naive_stage1_unresolved(a, b, 10, N, M), (a, b)
    group = partitions._bitset_group(3, [1, 3, 7], 10, N, M)
    assert group == [naive_stage1_unresolved(a, 3, 10, N, M) for a in (1, 3, 7)]
    assert [shifts for _, _, shifts in seen] == [{}, {}]


def test_bitset_stage1_classes_with_disjoint_heads(monkeypatch):
    # with a head of one shift, class 1 mod 4 shifts by its index of 5
    # and class 3 by its index of 3: each shift ORs into one class only
    seen = _recorded_head_shifts(monkeypatch)
    monkeypatch.setattr(partitions, "_VECTOR_PHASE_PRIMES", 1)
    N, M = 3000, 100
    group = partitions._bitset_group(3, [1, 3], 4, N, M)
    assert [shifts for _, _, shifts in seen] == [{0: [1], 1: [0]}]
    assert group == [naive_stage1_unresolved(a, 3, 4, N, M) for a in (1, 3)]
    assert group == [partitions._pair_share(AdmissiblePair(a, 3, 4), N, M) for a in (1, 3)]


def test_bitset_stage1_cuts_each_class_to_its_rows(flags_1e5):
    # in a sweep of m = 30 class k runs on rows k to 7 only, its marks cut
    # from the full-length shifts; every pair a <= b leaves the naive
    # survivors, the last class its one row
    N = 5000
    M = partitions.default_stage1_bound(30, N)
    sweep = partitions._bitset_sweep(30, N, M, flags_1e5)
    assert len(sweep) == 36
    for (a, b), survivors in sweep.items():
        assert survivors == naive_stage1_unresolved(a, b, 30, N, M), (a, b)


@pytest.mark.parametrize("chunk", [1, 3, 5])
def test_bitset_stage1_in_chunks(monkeypatch, flags_1e5, chunk):
    # classes run a few at a time, each chunk on the rows of its first
    # class: a sweep of m = 30 (8 classes) and a group of three a-classes
    # mod 10 leave what one chunk of them all does, which is naive
    N = 5000
    M = partitions.default_stage1_bound(30, N)
    whole = partitions._bitset_sweep(30, N, M, flags_1e5)
    group = partitions._bitset_group(3, [1, 3, 7], 10, N, 100)
    budget, count = partitions.check_sweep_budget, partitions._group_budget
    monkeypatch.setattr(partitions, "check_sweep_budget", lambda *args, **kw: (
        *budget(*args, **kw)[:4], chunk, *budget(*args, **kw)[5:]))
    monkeypatch.setattr(partitions, "_group_budget", lambda *args: (chunk, *count(*args)[1:]))
    assert partitions._bitset_sweep(30, N, M, flags_1e5) == whole
    assert partitions._bitset_group(3, [1, 3, 7], 10, N, 100) == group
    assert group == [naive_stage1_unresolved(a, 3, 10, N, 100) for a in (1, 3, 7)]
    for (a, b), survivors in whole.items():
        assert survivors == naive_stage1_unresolved(a, b, 30, N, M), (a, b)


def test_bitset_group_of_one_a_class():
    # a group of one a-class, b among the a-classes or not, at the default
    # head and bound, as the unsplit packed pair leaves it
    N = 20000
    M = partitions.default_stage1_bound(6, N)
    for a, b in ((5, 5), (1, 5)):
        [group] = partitions._bitset_group(b, [a], 6, N, M)
        assert group == partitions._pair_share(AdmissiblePair(a, b, 6), N, M)
        assert group == naive_stage1_unresolved(a, b, 6, N, M)


def _schedule_totals(seen) -> list[int]:
    """[shifts, ORs] over the schedules `seen`, after checking that each
    class's head is listed once under its own indices."""
    for classes, head, shifts in seen:
        held = [[] for _ in classes]
        for i, positions in shifts.items():
            for c in positions:
                held[c].append(i)
        assert [sorted(h) for h in held] == [sorted(pidx[:head]) for _, pidx, _ in classes]
    return [sum(len(shifts) for *_, shifts in seen),
            sum(len(c) for *_, shifts in seen for c in shifts.values())]


def test_head_shift_counts_of_the_benchmark_runs(monkeypatch, flags_1e6):
    # the int kernel's head work as counts, which repeat where time does
    # not: the desk sweep's computed moduli, m = 26-50 at 10^6, shift 2,049
    # times for 200 classes of 48 ORs, and conj2's group (m, b) = (4, 3),
    # a in [1, 3], at 5*10^6 113 times for 2 classes of 64 ORs
    seen = _recorded_head_shifts(monkeypatch)
    N = 10**6
    for m in range(26, 51, 2):
        partitions._bitset_sweep(m, N, partitions.default_stage1_bound(m, N), flags_1e6)
    assert _schedule_totals(seen) == [2049, 9600]
    seen.clear()
    N = 5 * 10**6
    partitions._bitset_group(3, [1, 3], 4, N, partitions.default_stage1_bound(4, N))
    assert _schedule_totals(seen) == [113, 128]


@given(st.integers(0, 64).flatmap(
    lambda n: st.lists(st.sampled_from(b"\0\1"), min_size=8 * n, max_size=8 * n).map(bytes)))
@example(b"")
@example(bytes(512))
@example(b"\1" * 512)
@example(b"\1" + bytes(511))
@example(bytes(511) + b"\1")
@settings(max_examples=200, deadline=None)
def test_bits_from_bytes_reads_the_bytes_as_binary_digits(entries):
    # 0/1 entry bytes up to 512 long, a multiple of 8, read by the eight
    # strided slices: the int whose binary digits they are, the first the
    # top bit, from bytes and from a bytearray
    reference = int(b"0" + entries.translate(bytes.maketrans(b"\0\1", b"01")), 2)
    assert partitions._bits_from_bytes(entries) == reference
    assert partitions._bits_from_bytes(bytearray(entries)) == reference


def test_odd_flags_must_reach_the_limit(flags_1e5):
    flags = flags_1e5
    assert len(exceptional_sets_for_modulus(4, flags.limit + 1, table=flags)) == 4
    with pytest.raises(ValueError, match="does not reach"):
        exceptional_sets_for_modulus(4, flags.limit + 2, table=flags)


@pytest.mark.parametrize("limit", [16, 17, 101, 102])
def test_both_kernels_agree_on_reach(table_1e5, limit):
    # a table reaches N when it is sieved to N - 1, packed or of odd
    # flags alike: both kernels read the same sets off it, and both refuse
    # a larger N with one error
    tables = [sieve_primes(limit), sieve_primes(limit, packed=False)]
    for m in (2, 4, 6):
        expected = exceptional_sets_for_modulus(m, limit + 1, table=table_1e5)
        got = [exceptional_sets_for_modulus(m, limit + 1, table=t) for t in tables]
        assert got == [expected] * 2
        errors = []
        for t in tables:
            with pytest.raises(ValueError) as exc:
                exceptional_sets_for_modulus(m, limit + 2, table=t)
            errors.append(str(exc.value))
        assert errors == [f"table up to {limit} does not reach N - 1 = {limit + 1}"] * 2


class TestKernelSelection:
    @staticmethod
    def record_kernels(monkeypatch, ran):
        # each kernel's entry point appends its name to `ran` as it runs
        for name in ("_bitset_group", "_pair_share"):
            real = getattr(partitions, name)
            monkeypatch.setattr(partitions, name,
                                lambda *args, name=name, real=real: ran.append(name) or real(*args))

    @pytest.mark.parametrize("m", [4, 6, 30])
    @pytest.mark.parametrize("excess,kernel", [(1, "bitset"), (2, "packed"), (64 * 4, "packed")])
    def test_same_elements_across_the_threshold(self, monkeypatch, m, excess, kernel):
        # with 64-entry windows, a modulus whose candidates fit in 2
        # windows (N <= 128m + 1) runs the bitset kernel; one past it, and
        # at 3 windows and more, the packed one
        monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", 64)
        ran = []
        self.record_kernels(monkeypatch, ran)
        N = 128 * m + excess
        units = [r for r in range(1, m) if math.gcd(r, m) == 1]
        for a in units:
            for b in units:
                es = exceptional_set(AdmissiblePair(a, b, m), N)
                assert list(es.elements) == naive_exceptional_set(a, b, m, N), (a, b)
        source = {"bitset": "_bitset_group", "packed": "_pair_share"}[kernel]
        assert ran == [source] * len(units) ** 2

    def test_default_threshold_is_two_segments(self, monkeypatch):
        # 2^21 candidates, two 2^20-entry segments: N = 2^23 + 1 at m = 4
        ran = []
        self.record_kernels(monkeypatch, ran)
        for N in (2**23 + 1, 2**23 + 2):
            assert exceptional_set(AdmissiblePair(1, 3, 4), N).elements == (4,)
        assert ran == ["_bitset_group", "_pair_share"]

    def test_bitset_kernel_peak_memory(self):
        # pairs just below the threshold, 2^21 candidates: the entry
        # bytes, a slice of them and its ints or the scan strings, and a few bitsets stay
        # under 4 bytes an entry, for one a-class and for two sharing the
        # b-class row
        N = 2**23 + 1
        for avals, expected in (([1], [[4]]), ([1, 3], [[4], [2]])):
            tracemalloc.start()
            try:
                survivors = partitions._bitset_group(3, avals, 4, N, 10**4)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert survivors == expected
            assert peak < 4 * 2**21, avals

    def test_bitset_budget_checked_before_allocating(self, monkeypatch):
        # the kernel counts its buffers, about 2.9 bytes an entry, and
        # raises before it sieves anything
        sieved = []
        real = partitions.sieve_progression
        monkeypatch.setattr(partitions, "sieve_progression",
                            lambda *args: sieved.append(args[:2]) or real(*args))
        monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", 2 * 10**6)
        with pytest.raises(MemoryBudgetError, match=r"of entries and their slices"):
            exceptional_set(AdmissiblePair(1, 3, 4), 4 * 10**6)
        assert sieved == []
        assert exceptional_set(AdmissiblePair(1, 3, 4), 10**6).elements == (4,)
        assert sieved == [(1, 4), (3, 4)]


@st.composite
def _pair_lists(draw) -> list[AdmissiblePair]:
    """Shuffled pairs of up to three (m, b) groups, each with up to four
    a-classes (repeats allowed) and, if drawn, a = b; a + b - m >= 2, the
    candidate below a + b, arises for m >= 4."""
    pairs = []
    for m in draw(st.lists(st.sampled_from([2, 4, 6, 10, 12, 30]), min_size=1, max_size=3)):
        units = [r for r in range(1, m) if math.gcd(r, m) == 1]
        b = draw(st.sampled_from(units))
        avals = draw(st.lists(st.sampled_from(units), min_size=1, max_size=4))
        pairs += [AdmissiblePair(a, b, m) for a in avals + [b] * draw(st.booleans())]
    return draw(st.permutations(pairs))


_CONJ2_PAIRS = [AdmissiblePair(1, 3, 4), AdmissiblePair(3, 3, 4), AdmissiblePair(1, 1, 4)]


@given(pairs=_pair_lists(), N=st.integers(2, 2000) | st.integers(5000, 5 * 10**4),
       workers=st.integers(1, 3), segment=st.sampled_from([1 << 6, 1 << 9, 1 << 12]))
# conj2's pairs at 5000, 1,250 candidates each, in groups of 2,500 and
# 1,250: on the packed route, one job a pair, in 2 shares, on the
# int-bitset one in 2 shares, and in 1 below the floor; three packed
# pairs of 3, 3 and 2 window jobs in 3 shares
@example(pairs=_CONJ2_PAIRS, N=5000, workers=2, segment=1 << 9)
@example(pairs=_CONJ2_PAIRS, N=5000, workers=3, segment=1 << 10)
@example(pairs=_CONJ2_PAIRS, N=5000, workers=2, segment=1 << 11)
@example(pairs=[AdmissiblePair(1, 1, 4), AdmissiblePair(1, 3, 4), AdmissiblePair(1, 5, 6)],
         N=20000, workers=3, segment=1 << 9)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_exceptional_sets_equal_one_pair_at_a_time(monkeypatch, pairs, N, workers, segment):
    # the batch gives each pair's elements and stage-1 survivors, in
    # order, whatever runs its shares.  Short segments put a modulus on
    # the packed route (more than two segments of candidates) or the
    # int-bitset one, and the fork floor (a segment of candidates per
    # share) both above and below the drawn work.  The plan dealt on
    # `workers` has each int-bitset (m, b) group as one job, in exactly
    # one share, and each packed pair as its K window jobs, in as many
    # shares as the workers and the floor allow
    monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", segment)
    expected = [_naive_batch_set(pair, N) for pair in pairs]
    assert exceptional_sets(pairs, N) == expected
    assert exceptional_sets(pairs, N, workers) == expected

    def args(job):  # (m, b, avals, share)
        m, b, avals, _, share, *_ = job.args
        return m, b, tuple(avals), share

    plan = partitions.batch_plan(pairs, N, workers)
    ran = [list(map(args, share)) for share in partitions.deal(plan, workers, segment)]
    jobs = []
    for m, b in dict.fromkeys((pair.m, pair.b) for pair in pairs):
        avals = tuple(dict.fromkeys(pair.a for pair in pairs if (pair.m, pair.b) == (m, b)))
        if (N - 2) // m + 1 <= (partitions._MIN_SHARE_WINDOWS - 1) * segment:
            jobs.append((m, b, avals, (0, 1)))
            continue
        for a in avals:
            windows = len(range(0, (N - a - b) // m + 1, segment))
            K = max(1, min(workers, windows // partitions._MIN_SHARE_WINDOWS))
            jobs += [(m, b, (a,), (k, K)) for k in range(K)]
    assert sorted(job for share in ran for job in share) == sorted(jobs)

    def cost(job):  # its candidates
        m, b, avals, (_, K) = job
        return sum(max(0, (N - a - b) // m + 1) for a in avals) / K

    loads = [sum(map(cost, share)) for share in ran]
    assert len(ran) == 1 or min(loads) >= segment
    if len(ran) < min(workers, len(jobs)):  # one more share would fall below the floor
        more = partitions.deal(plan, len(ran) + 1)
        assert min(sum(cost(args(job)) for job in share) for share in more) < segment

    assert exceptional_sets(pairs, N, 2) == expected


# The largest N that _pair_lists' batches are drawn at
_BATCH_LIMIT = 5 * 10**4


@functools.lru_cache(maxsize=None)
def _naive_at_batch_limit(oracle, a: int, b: int, m: int, *M: int) -> list[int]:
    return oracle(a, b, m, _BATCH_LIMIT, *M)


def _naive_batch_set(pair: AdmissiblePair, N: int) -> ExceptionalSet:
    """E_{a,b,m} up to N <= _BATCH_LIMIT and its stage-1 survivors at the
    default bound M, by the naive oracles.  An n <= N is reached only by
    primes below it, so each oracle's list at N is its list at
    _BATCH_LIMIT cut at N; with M >= N, stage 1 leaves only elements."""
    M = partitions.default_stage1_bound(pair.m, N)
    elements = tuple(n for n in _naive_at_batch_limit(naive_exceptional_set, *pair) if n <= N)
    unresolved = elements if M >= N else [
        n for n in _naive_at_batch_limit(naive_stage1_unresolved, *pair, M) if n <= N]
    return ExceptionalSet(elements, len(unresolved) - len(elements))


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_run_one_share(workers):
    # as for one worker: one share for an int-bitset group (at 500, 125
    # candidates in 64-entry segments) and for a packed-route pair (at
    # 5000, 20 windows), for the batch and for its first pair alone
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partitions, "SIEVE_SEGMENT_SIZE", 64)
        mapped = []
        pairs = [AdmissiblePair(1, 3, 4), AdmissiblePair(3, 3, 4)]
        expected = [exceptional_sets(pairs, N) for N in (500, 5000)]
        for N, want in zip((500, 5000), expected):
            got = exceptional_sets(pairs, N, workers)
            assert [e.elements for e in got] == [(4,), (2,)]
            assert got == want
            assert exceptional_set(pairs[0], N, None, workers) == got[0]
            for batch in (pairs, pairs[:1]):
                plan = partitions.batch_plan(batch, N, workers)
                mapped.append(len(partitions.deal(plan, workers, 64)))
        assert mapped == [1] * 4


@pytest.mark.parametrize("pairs,N,held", [
    # 98 windows of 256 candidates: 8 window jobs on 8 workers
    ([AdmissiblePair(1, 3, 4)], 10**5, 3),
    # 500 candidates a pair: two int-bitset groups, b = 3 and b = 1
    ([AdmissiblePair(1, 3, 4), AdmissiblePair(3, 3, 4), AdmissiblePair(1, 1, 4)], 2000, 1),
], ids=["pair-windows", "groups"])
def test_shares_at_once_fit_the_budget_together(monkeypatch, pairs, N, held):
    # every share runs at the same time, so the batch deals to no more
    # shares than the budget holds of its largest job's count.  On 8
    # workers each case gets more shares than `held` under the default
    # budget, and `held` under one that holds that many of its largest
    # job; the sets stay those of one worker
    monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", 256)
    expected = exceptional_sets(pairs, N)
    plan = partitions.batch_plan(pairs, N, 8)
    assert exceptional_sets(pairs, N, 8) == expected
    assert len(partitions.deal(plan, 8, 256)) > held
    need = max(job.need for job in plan)
    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", (held + 1) * need - 1)
    assert exceptional_sets(pairs, N, 8) == expected
    assert len(partitions.deal(plan, 8, 256)) == held


def test_sweep_shares_at_once_fit_the_budget_together(monkeypatch):
    # the long run's moduli, m = 102..200 at 10^7, each count up to
    # 7,100,288 bytes beside the 625,000-byte packed table that all
    # shares read: a budget that holds the table and three of them deals
    # to 3 shares, not to the 50 that 100 workers would get.  Nothing is
    # sieved
    monkeypatch.setattr(partitions, "sieve_primes", lambda N, packed: packed)
    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", 625_000 + 3 * 7_100_288)
    jobs = partitions.sweep_plan(10**7, list(range(102, 201, 2)), None)
    shares = partitions.deal(jobs, 100)
    assert all(job.args[1] for job in jobs) and len(shares) == 3
    assert sorted(job.args[0] for share in shares for job in share) == list(range(102, 201, 2))
    need = max(job.need for job in jobs)
    assert need == 7_100_288 and {job.shared for job in jobs} == {625_000}
    assert 625_000 + len(shares) * need <= primes.DEFAULT_MEMORY_BUDGET_BYTES


def test_sweep_share_cap_leaves_room_for_the_table(monkeypatch):
    # a budget of three of those counts and one byte holds three shares
    # only without the 625,000-byte table that they all read (21,925,864
    # bytes with it): the cap takes the table off the budget first and
    # deals to 2 shares.  Nothing is sieved
    monkeypatch.setattr(partitions, "sieve_primes", lambda N, packed: packed)
    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", 3 * 7_100_288 + 1)
    jobs = partitions.sweep_plan(10**7, list(range(102, 201, 2)), None)
    shares = partitions.deal(jobs, 100)
    assert len(shares) == 2
    assert 625_000 + len(shares) * 7_100_288 <= primes.DEFAULT_MEMORY_BUDGET_BYTES


def test_int_sweep_of_a_large_modulus_fits_its_budget(monkeypatch):
    # m = 1202 at 10^7 (phi(m) = 600, rows of 8,320 candidates) takes the
    # int route and fits the default budget: its classes run 27 at a
    # time, whose marks take at most the bytes of the rest of the count,
    # so the count, 44,840,708 bytes with the 5,000,000 of odd flags, is
    # at most about twice the rest.  Nothing is sieved
    monkeypatch.setattr(partitions, "sieve_primes", lambda N, packed: packed)
    N, m = 10**7, 1202
    [job] = partitions.sweep_plan(N, [m], None)
    assert job.args == (m, False)  # the odd flags' route
    units, *_, chunk, need, table = partitions.check_sweep_budget(
        m, N, partitions.default_stage1_bound(m, N), packed=False)
    assert (len(units), chunk) == (600, 27)
    assert (job.need, job.shared) == (need, table) == (39_840_708, 5_000_000)
    assert need + table <= primes.DEFAULT_MEMORY_BUDGET_BYTES


_DEEP_LIMIT = 2 * 10**8


# the pairs that verify_conjecture_samples lifts to an even modulus
_CONJ3_PAIRS = [AdmissiblePair(*pair) for pair in (
    (1, 5, 6), (7, 3, 10), (1, 9, 10), (3, 11, 14), (3, 19, 22), (3, 5, 8), (3, 13, 16),
    (7, 53, 60))]


@pytest.mark.parametrize("pairs,N,shares", [
    (_CONJ2_PAIRS, 5 * 10**6,
     [[(4, 3, (1, 3), 10000, (0, 1))], [(4, 1, (1,), 10000, (0, 1))]]),
    (_CONJ3_PAIRS, 5 * 10**6,
     [[(6, 5, (1,), 10000, (0, 1)), (10, 9, (1,), 10000, (0, 1)),
       (16, 13, (3,), 10000, (0, 1)), (60, 53, (7,), 50291, (0, 1))],
      [(8, 5, (3,), 10000, (0, 1)), (10, 3, (7,), 10000, (0, 1)),
       (14, 11, (3,), 10000, (0, 1)), (22, 19, (3,), 10510, (0, 1))]]),
    ([AdmissiblePair(5, 5, 6)], 5 * 10**6, [[(6, 5, (5,), 10000, (0, 1))]]),
    *[([AdmissiblePair(a, b, 4)], _DEEP_LIMIT,
       [[(4, b, (a,), 10000, (0, 2))], [(4, b, (a,), 10000, (1, 2))]])
      for a, b in ((1, 1), (1, 3), (3, 1), (3, 3))],
], ids=["conj2", "conj3", "ternary", "deep-1-1", "deep-1-3", "deep-3-1", "deep-3-3"])
def test_benchmark_batches_keep_their_jobs(pairs, N, shares):
    # the shares of (m, b, avals, M, share) that the batches of the verify
    # workload (the pairs of verify_conjecture_mod4,
    # verify_conjecture_samples and verify_ternary) and of the deep
    # workload deal on 2 workers, read off the plan with no job run
    dealt = partitions.deal(partitions.batch_plan(pairs, N, 2), 2, partitions.SIEVE_SEGMENT_SIZE)
    assert [[(m, b, tuple(avals), M, share) for m, b, avals, M, share, *_ in
             (job.args for job in jobs)] for jobs in dealt] == shares


def test_pair_budget_checked_before_any_sieve_or_share(monkeypatch):
    # a packed-route pair of a verifier's batch is counted as the plan is
    # built, before the jobs are dealt: conj2's pairs at 5000 in 64-entry
    # windows, on 2 workers, neither sieve nor deal a share
    sieved = []
    real = partitions.sieve_progression
    monkeypatch.setattr(partitions, "sieve_progression",
                        lambda *args: sieved.append(args[:2]) or real(*args))
    monkeypatch.setattr(partitions, "SIEVE_SEGMENT_SIZE", 64)
    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", 1000)
    with pytest.raises(MemoryBudgetError, match=r"^pair AdmissiblePair\(a=1, b=3, m=4\) at N=5000"):
        partitions.batch_plan(_CONJ2_PAIRS, 5000, 2)
    assert sieved == []


def test_group_shares_one_b_class_row(monkeypatch):
    # E(1, 3, 4) and E(3, 3, 4) sieve the a-classes 1 and 3 up to M and the
    # b-class 3 once, for both
    sieved = []
    real = partitions.sieve_progression
    monkeypatch.setattr(partitions, "sieve_progression",
                        lambda *args: sieved.append(args[:2]) or real(*args))
    pairs = [AdmissiblePair(1, 3, 4), AdmissiblePair(3, 3, 4)]
    assert [e.elements for e in exceptional_sets(pairs, 10**5)] == [(4,), (2,)]
    assert sieved == [(1, 4), (3, 4), (3, 4)]


def test_group_budget_checked_once_before_any_sieve(monkeypatch):
    # one count per group before anything is sieved: every a-mask, the
    # shared row's entries and their eight slices, the marks of both
    # a-classes, the bitset, its pads and a shift, one a-class's scan, and
    # the sieve; the parts named add up to the bytes needed
    sieved = []
    real = partitions.sieve_progression
    monkeypatch.setattr(partitions, "sieve_progression",
                        lambda *args: sieved.append(args[:2]) or real(*args))
    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", 2 * 10**6)
    N = 4 * 10**6
    with pytest.raises(MemoryBudgetError) as exc:
        exceptional_sets([AdmissiblePair(1, 3, 4), AdmissiblePair(3, 3, 4)], N)
    assert sieved == []
    need, *parts = map(int, re.search(
        r"need (\d+) bytes \((\d+) of small-prime masks, (\d+) of entries and their "
        r"slices, (\d+) of marks, (\d+) of bitset, pads and shift, (\d+) of scan, "
        r"(\d+) of sieve pattern and base primes\)",
        str(exc.value),
    ).groups())
    assert sum(parts) == need > 2 * 10**6
    M = partitions.default_stage1_bound(4, N)
    nbytes = ((N - 4) // 4 + 1 + (M - 1) // 4 + 1 + 7) // 8  # the row, past every shift
    assert parts[:5] == [(M - 1) // 4 + 1 + (M - 3) // 4 + 1, 16 * nbytes, 2 * nbytes,
                         3 * nbytes, 2 * nbytes]


@pytest.mark.parametrize("kernel,N,source,route", [
    ("packed sweep", 10**7, 30, "sweep of m = 30 at N=10000000 needs"),
    ("int sweep", 10**6, 46, "sweep of m = 46 at N=1000000 needs"),
    ("packed pair", 2 * 10**8, [(1, 3, 4)], "pair AdmissiblePair(a=1, b=3, m=4) at N="),
    ("int group", 4 * 10**6, [(1, 3, 4), (3, 3, 4)], "pairs (a, 3, 4), a in [1, 3], at N="),
], ids=["packed-sweep", "int-sweep", "packed-pair", "int-group"])
def test_every_count_names_parts_that_add_up(monkeypatch, kernel, N, source, route):
    # each kernel's count, for a sweep of the modulus `source` and for a
    # batch of the pairs `source`, forced over a small budget as its plan
    # is built, before anything is sieved: the parts that its error names
    # add up to the bytes it needs, and a packed count's copies, marks and
    # scratch are _window_count's
    sieved = []
    monkeypatch.setattr(partitions, "sieve_primes", lambda *args: sieved.append(args))
    monkeypatch.setattr(partitions, "sieve_progression", lambda *args: sieved.append(args))
    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", 10**5)
    with pytest.raises(MemoryBudgetError) as exc:
        if "sweep" in kernel:
            partitions.sweep_plan(N, [source], None)
        else:
            partitions.batch_plan([AdmissiblePair(*pair) for pair in source], N, 2)
    assert sieved == []
    text = str(exc.value)
    assert text.startswith(route) and (" of table, " in text) == (kernel == "packed sweep")
    need = int(re.search(r"needs? (\d+) bytes", text).group(1))
    parts = re.search(r"bytes \((.*)\), over", text).group(1)
    assert sum(map(int, re.findall(r"(\d+) of ", parts))) == need > 10**5
    if kernel == "packed sweep":
        monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET_BYTES", need)
        units, span, _, width, *_ = partitions.check_sweep_budget(
            source, N, partitions.default_stage1_bound(source, N))
        assert partitions._window_count(len(units), width, width + span // 8 + 1)[1] in parts
    if kernel == "packed pair":  # one row of one segment, the a-class's length and 7 entries
        size = partitions.SIEVE_SEGMENT_SIZE + (partitions.default_stage1_bound(4, N) - 1) // 4 + 7
        assert partitions._window_count(
            1, partitions.SIEVE_SEGMENT_SIZE // 8, (size + 7) // 8)[1] in parts


def test_deal_heaviest_first_to_the_least_loaded():
    # equal costs keep their order; each item joins the first share of
    # least load, and there are no more shares than items
    cost = {"a": 5, "b": 3, "c": 3, "d": 2, "e": 1}

    def deal(items, workers):
        jobs = [partitions.Job(None, (x,), cost[x], 0) for x in items]
        return [[job.args[0] for job in share] for share in partitions.deal(jobs, workers)]

    assert deal("edcba", 2) == [["a", "d"], ["c", "b", "e"]]
    assert deal("ab", 4) == [["a"], ["b"]]
    assert deal("", 2) == []
