import dataclasses
import functools
import math
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apgoldbach import partitions, primes
from apgoldbach.partitions import (
    _progression_violations,
    _stage1_unresolved,
    AdmissiblePair,
    ResidueIndex,
    exceptional_set,
    exceptional_sets_for_modulus,
    find_witness,
    stage1_survivor_diagnostic,
    verify_conjecture_mod4,
    verify_conjecture_samples,
    verify_ternary,
)
from apgoldbach.primes import MemoryBudgetError, PrimeTable, is_prime, sieve_primes
from oracles import (
    is_prime_trial_division,
    table_primes,
    naive_exceptional_set,
    naive_mod4_case_i,
    naive_progression_violations,
    naive_stage1_unresolved,
    naive_ternary_violations,
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
        # the oracle's arguments of class 1 are the p it tried
        pair, N, M = AdmissiblePair(1, 49, 50), 10**5, 300
        tested = []

        def counting(k):
            tested.append(k)
            return is_prime(k)

        witness = partitions.find_witness
        monkeypatch.setattr(
            partitions, "find_witness",
            lambda n, pair, **kw: witness(n, pair, oracle=counting, **kw),
        )
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

    def test_odd_modulus_rejected(self):
        with pytest.raises(ValueError, match="double"):
            exceptional_sets_for_modulus(15, 10**4)

    @pytest.mark.parametrize(
        "m,N,M",
        [(4, 3000, 3000), (4, 3000, 60), (6, 3000, 150), (10, 2500, 300),
         (12, 3000, 1500), (30, 3000, 400)],
    )
    def test_survivor_counts_match_naive(self, monkeypatch, table_1e5, m, N, M):
        # a short head leaves most small primes to the blocked tail, and
        # short windows cut the candidates into many; every ordered pair
        # runs in its own orientation, on one modulus index and sieved
        # through the engine
        monkeypatch.setattr(partitions, "_VECTOR_PHASE_PRIMES", 4)
        monkeypatch.setattr(partitions, "_GATHER_BLOCK_ELEMENTS", 7)
        monkeypatch.setattr(partitions, "_MARK_BLOCK", 5)
        monkeypatch.setattr(partitions, "_WINDOW", 3)
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        index = ResidueIndex(table_1e5, m, N, units)
        sets = exceptional_sets_for_modulus(m, N, M=M, table=table_1e5)
        for a in units:
            for b in units:
                naive = naive_stage1_unresolved(a, b, m, N, M)
                indexed = partitions._stage1(a, [b], m, N, *index.stage1_source(a, [b], M))[0]
                assert indexed == naive, (a, b)
                es = exceptional_set(AdmissiblePair(a, b, m), N, M=M)
                assert es.elements == sets[(a, b)], (a, b)
                assert set(es.elements) <= set(naive), (a, b)
                assert es.stage1_survivors == len(naive) - len(es.elements), (a, b)

    @pytest.mark.parametrize("m", [2, 12, 30])
    def test_one_batched_stage1_mark_per_unordered_pair(self, monkeypatch, table_1e5, m):
        # the sweep runs one stage-1 pass per small-prime class a over the
        # rows b >= a, so every unordered pair is marked once, as a <= b
        marked = []
        stage1 = partitions._stage1

        def counted(a, bs, *args):
            marked.extend((a, b) for b in bs)
            return stage1(a, bs, *args)

        monkeypatch.setattr(partitions, "_stage1", counted)
        sets = exceptional_sets_for_modulus(m, 10**4, table=table_1e5)
        phi = sum(1 for a in range(1, m) if math.gcd(a, m) == 1)
        assert len(marked) == len(set(marked)) == phi * (phi + 1) // 2
        assert all(a <= b for a, b in marked)
        assert len(sets) == phi * phi
        assert all(sets[(b, a)] is sets[(a, b)] for a, b in marked)

    @pytest.mark.parametrize("m,N", [(2, 10**5), (12, 99_991), (30, 10**5), (50, 2)])
    def test_index_bytes_are_class_mask_bytes(self, table_1e5, m, N):
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        index = ResidueIndex(table_1e5, m, N, units)
        assert index.copies.nbytes == partitions.class_mask_bytes(m, N)

    def test_one_unpack_per_modulus(self, monkeypatch, table_1e5):
        # the table is read by one class-mask pass per modulus, its only
        # reader
        calls = []
        unpack = PrimeTable.mask

        def counted(self, *args, **kwargs):
            calls.append("mask")
            return unpack(self, *args, **kwargs)

        monkeypatch.setattr(PrimeTable, "mask", counted)
        for m in (2, 12, 30):
            calls.clear()
            exceptional_sets_for_modulus(m, 10**5, table=table_1e5)
            assert calls == ["mask"], m

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
        assert verify_conjecture_mod4("i", N) == ()
        assert all(limit <= math.isqrt(N) for limit in limits)

    def test_own_sieve_reserves_class_masks(self, monkeypatch):
        # a sweep that sieves its own table counts the masks of every unit
        # class beside it: at m = 2 they take N/2 bytes, and the table and
        # one segment of it another 656 KB
        N = 10**6
        budget = 2**20
        monkeypatch.setattr(
            partitions, "sieve_primes",
            functools.partial(sieve_primes, memory_budget_bytes=budget),
        )
        assert len(table_primes(sieve_primes(N, memory_budget_bytes=budget))) == 78498
        with pytest.raises(MemoryBudgetError, match="reserved"):
            exceptional_sets_for_modulus(2, N)

    def test_index_windows_reach_the_last_entry(self, monkeypatch, table_1e5):
        # a window of the index off a byte boundary would read shift 0
        # from copy 7, whose last entry j = 1 (q = 5) lies past its bytes,
        # and leave 8 = 3 + 5 unmarked
        monkeypatch.setattr(partitions, "_WINDOW", 1)
        index = ResidueIndex(table_1e5, 4, 8, (1, 3))
        assert partitions._stage1(3, [1], 4, 8, *index.stage1_source(3, [1], 3)) == [[4]]

    def test_survivor_diagnostic_monotone(self, table_1e6):
        d = stage1_survivor_diagnostic(8, 10**5, M=100, table=table_1e6)
        assert d.ordered_with_multiplicity >= d.unordered_canonical
        assert d.ordered_with_multiplicity >= d.distinct_n >= 0


class TestConjectureMod4:
    @pytest.mark.parametrize(
        "case,expected",
        [("i", ()), ("ii", (4,)), ("iii", (2,)), ("iv", (2, 6, 14, 38, 62))],
    )
    def test_cases(self, case, expected):
        assert verify_conjecture_mod4(case, 10**6) == expected

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case"):
            verify_conjecture_mod4("v", 100)

    def test_shared_memo_computes_each_set_once(self, monkeypatch):
        # case (i) reads E(3, 1, 4) = E(1, 3, 4) and E(3, 3, 4), which
        # cases (ii) and (iii) read too
        pairs = []
        engine = partitions.exceptional_set

        def counted(pair, N):
            pairs.append((pair.a, pair.b))
            return engine(pair, N)

        monkeypatch.setattr(partitions, "exceptional_set", counted)
        memo = {}
        got = [verify_conjecture_mod4(case, 10**4, memo) for case in partitions.MOD4_CASES]
        assert sorted(pairs) == [(1, 1), (1, 3), (3, 3)]
        assert got == [verify_conjecture_mod4(case, 10**4) for case in partitions.MOD4_CASES]

    def test_case_i_matches_naive(self):
        got = verify_conjecture_mod4("i", 10**4)
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
        reps = verify_conjecture_samples(item, 10**6)
        assert tuple(r.violations for r in reps) == expected

    def test_item_vii(self):
        reps = verify_conjecture_samples("vii", 10**6, a=7)
        assert reps[0].violations == ()

    def test_item_vii_excluded_residue(self):
        with pytest.raises(ValueError, match="excluded"):
            verify_conjecture_samples("vii", 100, a=11)
        with pytest.raises(ValueError, match="excluded"):
            verify_conjecture_samples("vii", 100, a=59)

    def test_item_vii_noncoprime(self):
        with pytest.raises(ValueError, match="coprime"):
            verify_conjecture_samples("vii", 100, a=6)

    def test_item_i_matches_progression_set(self):
        # violations mod 3 coincide with the exceptional set for (1, 5) mod 6
        e156 = exceptional_set(AdmissiblePair(1, 5, 6), 10**5)
        reps = verify_conjecture_samples("i", 10**5)
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
        real = partitions.exceptional_set

        def with_extra(pair, N, **kwargs):
            es = real(pair, N, **kwargs)
            if pair == AdmissiblePair(5, 5, 6):
                es = dataclasses.replace(es, elements=tuple(sorted(es.elements + extra)))
            return es

        monkeypatch.setattr(partitions, "exceptional_set", with_extra)
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


@given(m0=st.integers(3, 16), N=st.integers(2, 3000), data=st.data())
@settings(max_examples=60, deadline=None)
def test_progression_reduction_matches_naive(m0, N, data):
    r = data.draw(st.sampled_from([r for r in range(1, m0) if math.gcd(r, m0) == 1]))
    report = _progression_violations(m0, r, N)
    assert (report.modulus, report.residue) == (m0, r)
    assert list(report.violations) == naive_progression_violations(m0, r, N)


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
    # Stage 1 reads the b-class off a modulus index or sieves it, and
    # stage 2 skips the survivors up to M + 2.  The sweep's batched pass
    # marks the pair as the row max(a, b) of class min(a, b).
    monkeypatch.setattr(partitions, "_GATHER_BLOCK_ELEMENTS", 7)
    monkeypatch.setattr(partitions, "_GATHER_FIRST_ELEMENTS", data.draw(st.sampled_from([1, 2, 7])))
    monkeypatch.setattr(
        partitions, "_MARK_BLOCK", data.draw(st.sampled_from([partitions._MARK_BLOCK, 1, 5, 64]))
    )
    head = data.draw(st.sampled_from([partitions._VECTOR_PHASE_PRIMES, 1, 8]))
    monkeypatch.setattr(partitions, "_VECTOR_PHASE_PRIMES", head)
    monkeypatch.setattr(
        partitions, "_WINDOW", data.draw(st.sampled_from([partitions._WINDOW, 1, 7, 64]))
    )
    units = [r for r in range(1, m) if math.gcd(r, m) == 1]
    a = data.draw(st.sampled_from(units))
    b = data.draw(st.sampled_from(units))
    M = data.draw(st.integers(-2 * m, N))
    index = data.draw(st.sampled_from([ResidueIndex(table_1e5, m, N, {a, b}), None]))
    if index is None:
        got = _stage1_unresolved(AdmissiblePair(a, b, m), N, M)
    else:
        got = partitions._stage1(a, [b], m, N, *index.stage1_source(a, [b], M))[0]
    assert got == naive_stage1_unresolved(a, b, m, N, M)
    es = exceptional_set(AdmissiblePair(a, b, m), N, M=M)
    assert list(es.elements) == naive_exceptional_set(a, b, m, N)
    small, large = sorted((a, b))
    rows = units[units.index(small) :]
    batched = partitions._stage1(
        small, rows, m, N, *ResidueIndex(table_1e5, m, N, units).stage1_source(small, rows, M)
    )
    assert batched[rows.index(large)] == naive_stage1_unresolved(small, large, m, N, M)


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
def test_stage1_shares_merge_to_unsplit(monkeypatch, table_1e5, m, N, K, data):
    # share k of K runs windows k, k + K, ...; merged, the K shares' lists
    # are the unsplit stage 1, also where a share has no window.  Through
    # the engine, a pair splits into at most `workers` shares, only while
    # each gets _MIN_SHARE_WINDOWS windows, and gives the unsplit result
    monkeypatch.setattr(partitions, "_WINDOW", data.draw(st.sampled_from([1, 7, 64])))
    units = [r for r in range(1, m) if math.gcd(r, m) == 1]
    a = data.draw(st.sampled_from(units))
    b = data.draw(st.sampled_from(units))
    M = data.draw(st.integers(-2 * m, N))
    pair = AdmissiblePair(a, b, m)
    index = data.draw(st.sampled_from([ResidueIndex(table_1e5, m, N, {a, b}), None]))
    unsplit = _stage1_unresolved(pair, N, M)
    assert unsplit == naive_stage1_unresolved(a, b, m, N, M)
    pidx, windows = (
        partitions._sieved_source(pair, N, M) if index is None
        else index.stage1_source(a, [b], M)
    )
    parts = [partitions._stage1(a, [b], m, N, pidx, windows, (k, K))[0] for k in range(K)]
    assert all(part == sorted(part) for part in parts)
    assert sorted(n for part in parts for n in part) == unsplit

    calls = []

    def share_map(fn, shares):
        calls.append(len(shares))
        return [fn(k) for k in reversed(shares)][::-1]

    assert _stage1_unresolved(pair, N, M, K, share_map) == unsplit
    count = len(range(0, (N - a - b) // m + 1, partitions._window_step(pidx)))
    assert calls == [max(1, min(K, count // partitions._MIN_SHARE_WINDOWS))]
