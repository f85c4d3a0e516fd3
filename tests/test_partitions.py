import dataclasses
import math
import random
import tracemalloc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apgoldbach import partitions
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
from apgoldbach.primes import PrimeTable, is_prime, sieve_primes
from oracles import (
    is_prime_trial_division,
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
    def test_explicit_sets(self, table_1e6, key, expected):
        a, b, m = key
        es = exceptional_set(AdmissiblePair(a, b, m), 10**6, table=table_1e6)
        assert es.elements == expected
        assert es.confirmed

    def test_symmetry(self, table_1e6):
        for a, b, m in [(1, 3, 8), (3, 9, 10), (1, 5, 6)]:
            fwd = exceptional_set(AdmissiblePair(a, b, m), 10**5, table=table_1e6)
            rev = exceptional_set(AdmissiblePair(b, a, m), 10**5, table=table_1e6)
            assert fwd.elements == rev.elements

    def test_stage1_bound_invariance(self, table_1e6):
        pair = AdmissiblePair(7, 7, 8)
        small = exceptional_set(pair, 10**5, M=500, table=table_1e6)
        large = exceptional_set(pair, 10**5, M=10**5, table=table_1e6)
        assert small.elements == large.elements
        assert small.stage1_survivors >= large.stage1_survivors

    @pytest.mark.parametrize(
        "a,b,m,M", [(1, 3, 4, 13), (3, 1, 4, 19), (1, 1, 4, 29), (7, 11, 30, 37), (5, 1, 6, 5)]
    )
    def test_survivors_match_naive_with_M_prime(self, table_1e5, a, b, m, M):
        # M is itself a prime of class a, so stage 1 must still use p = M
        es = exceptional_set(AdmissiblePair(a, b, m), 3000, M=M, table=table_1e5)
        naive = naive_stage1_unresolved(a, b, m, 3000, M)
        assert es.stage1_survivors == len(naive) - len(es.elements)

    def test_M_larger_than_N_rejected(self, table_1e6):
        with pytest.raises(ValueError, match="exceeds"):
            exceptional_set(AdmissiblePair(1, 1, 2), 100, M=200, table=table_1e6)

    @pytest.mark.parametrize("M", [-100, -4, 0])
    def test_M_below_every_prime_leaves_all_candidates(self, table_1e6, M):
        # no p <= M, so stage 1 resolves nothing: the 250 candidates
        # n = 2 (mod 4) up to 1000 all go to stage 2
        es = exceptional_set(AdmissiblePair(1, 1, 4), 1000, M=M, table=table_1e6)
        assert es.elements == exceptional_set(AdmissiblePair(1, 1, 4), 1000, table=table_1e6).elements
        assert es.stage1_survivors + len(es.elements) == 250

    def test_oracle_equivalence_small_moduli(self, table_1e6):
        N = 10**4
        for m in (2, 4, 6, 8, 10, 12):
            units = [a for a in range(1, m) if math.gcd(a, m) == 1]
            for a in units:
                for b in units:
                    if a > b:
                        continue
                    staged = exceptional_set(
                        AdmissiblePair(a, b, m), N, table=table_1e6
                    )
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
        # a short head leaves most small primes to the blocked tail; every
        # ordered pair runs in its own orientation on one modulus index
        monkeypatch.setattr(partitions, "_VECTOR_PHASE_PRIMES", 4)
        monkeypatch.setattr(partitions, "_GATHER_BLOCK_ELEMENTS", 7)
        monkeypatch.setattr(partitions, "_MARK_BLOCK", 5)
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        index = ResidueIndex(table_1e5, m, N, units)
        sets = exceptional_sets_for_modulus(m, N, M=M, table=table_1e5)
        for a in units:
            for b in units:
                es = exceptional_set(AdmissiblePair(a, b, m), N, M=M, index=index)
                naive = naive_stage1_unresolved(a, b, m, N, M)
                assert es.elements == sets[(a, b)], (a, b)
                assert set(es.elements) <= set(naive), (a, b)
                assert es.stage1_survivors == len(naive) - len(es.elements), (a, b)

    @pytest.mark.parametrize("m", [2, 12, 30])
    def test_one_stage1_pass_per_unordered_pair(self, monkeypatch, table_1e5, m):
        calls = []
        stage1 = partitions._stage1_unresolved

        def counted(pair, *args):
            calls.append((pair.a, pair.b))
            return stage1(pair, *args)

        monkeypatch.setattr(partitions, "_stage1_unresolved", counted)
        sets = exceptional_sets_for_modulus(m, 10**4, table=table_1e5)
        phi = sum(1 for a in range(1, m) if math.gcd(a, m) == 1)
        assert len(calls) == phi * (phi + 1) // 2
        assert all(a <= b for a, b in calls)
        assert len(sets) == phi * phi
        assert all(sets[(b, a)] is sets[(a, b)] for a, b in calls)

    def test_one_unpack_per_modulus(self, monkeypatch, table_1e5):
        # the table is read by one class-mask pass per modulus, and never
        # unpacked whole
        calls = []
        for name in ("primes", "mask"):
            unpack = getattr(PrimeTable, name)

            def counted(self, *args, _name=name, _unpack=unpack, **kwargs):
                calls.append(_name)
                return _unpack(self, *args, **kwargs)

            monkeypatch.setattr(PrimeTable, name, counted)
        for m in (2, 12, 30):
            calls.clear()
            exceptional_sets_for_modulus(m, 10**5, table=table_1e5)
            assert calls == ["mask"], m

    def test_single_pair_peak_memory(self):
        # one class mask of N/m entries plus block-sized scratch: no
        # N-entry unpack, no int64 prime list, and for a != b the a-class
        # mask reaches only M
        N, m = 10**7, 4
        table = sieve_primes(N)
        for a, b in ((1, 1), (1, 3)):
            tracemalloc.start()
            try:
                es = exceptional_set(AdmissiblePair(a, b, m), N, table=table)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert es.elements == EXPLICIT_SETS[(a, b, 4)]
            assert peak <= 1.5 * N / m, (a, b)

    def test_own_table_dropped_before_stage1(self, monkeypatch):
        # a table exceptional_set sieved itself is freed once the index is
        # built, so stage 1 and stage 2 do not hold it
        tables = []

        def sieve(*args, **kwargs):
            table = sieve_primes(*args, **kwargs)
            tables.append(weakref.ref(table))
            return table

        stage1 = partitions._stage1_unresolved

        def checked_stage1(*args):
            assert tables and tables[0]() is None
            return stage1(*args)

        monkeypatch.setattr(partitions, "sieve_primes", sieve)
        monkeypatch.setattr(partitions, "_stage1_unresolved", checked_stage1)
        es = exceptional_set(AdmissiblePair(1, 3, 4), 10**5)
        assert es.elements == EXPLICIT_SETS[(1, 3, 4)]

    def test_index_must_match_pair(self, table_1e5):
        index = ResidueIndex(table_1e5, 8, 1000, (1, 3))
        with pytest.raises(ValueError, match="does not match"):
            exceptional_set(AdmissiblePair(1, 3, 8), 2000, index=index)
        with pytest.raises(ValueError, match="does not match"):
            exceptional_set(AdmissiblePair(1, 3, 4), 1000, index=index)

    def test_survivor_diagnostic_monotone(self, table_1e6):
        d = stage1_survivor_diagnostic(8, 10**5, M=100, table=table_1e6)
        assert d.ordered_with_multiplicity >= d.unordered_canonical
        assert d.ordered_with_multiplicity >= d.distinct_n >= 0


class TestConjectureMod4:
    @pytest.mark.parametrize(
        "case,expected",
        [("i", ()), ("ii", (4,)), ("iii", (2,)), ("iv", (2, 6, 14, 38, 62))],
    )
    def test_cases(self, table_1e6, case, expected):
        assert verify_conjecture_mod4(case, 10**6, table=table_1e6) == expected

    def test_unknown_case(self, table_1e6):
        with pytest.raises(ValueError, match="unknown case"):
            verify_conjecture_mod4("v", 100, table=table_1e6)

    def test_case_i_matches_naive(self, table_1e5):
        got = verify_conjecture_mod4("i", 10**4, table=table_1e5)
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
    def test_items(self, table_1e6, item, expected):
        reps = verify_conjecture_samples(item, 10**6, table=table_1e6)
        assert tuple(r.violations for r in reps) == expected

    def test_item_vii(self, table_1e6):
        reps = verify_conjecture_samples("vii", 10**6, a=7, table=table_1e6)
        assert reps[0].violations == ()

    def test_item_vii_excluded_residue(self, table_1e6):
        with pytest.raises(ValueError, match="excluded"):
            verify_conjecture_samples("vii", 100, a=11, table=table_1e6)
        with pytest.raises(ValueError, match="excluded"):
            verify_conjecture_samples("vii", 100, a=59, table=table_1e6)

    def test_item_vii_noncoprime(self, table_1e6):
        with pytest.raises(ValueError, match="coprime"):
            verify_conjecture_samples("vii", 100, a=6, table=table_1e6)

    def test_item_i_matches_progression_set(self, table_1e6):
        # violations mod 3 coincide with the exceptional set for (1, 5) mod 6
        e156 = exceptional_set(AdmissiblePair(1, 5, 6), 10**5, table=table_1e6)
        reps = verify_conjecture_samples("i", 10**5, table=table_1e6)
        assert reps[0].violations == e156.elements


class TestTernary:
    def test_no_violations_to_1e4(self, table_1e6):
        assert verify_ternary(10**4, table=table_1e6) == ()

    def test_small_witnesses(self):
        # enumerated by hand: 7 = 2+2+3, 11 = 2+2+7, both 2s are 2 mod 3
        for n, (p, q, r) in [(7, (2, 2, 3)), (11, (2, 2, 7))]:
            assert p + q + r == n
            assert p % 3 == 2 and q % 3 == 2
            assert all(map(is_prime_trial_division, (p, q, r)))

    @pytest.mark.parametrize("N", [7, 8, 9, 100, 1001, 3000])
    def test_matches_naive(self, table_1e5, N):
        assert list(verify_ternary(N, table=table_1e5)) == naive_ternary_violations(N)

    def test_fallback_scan_matches_naive(self, monkeypatch, table_1e5):
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
        got = list(verify_ternary(3000, table=table_1e5))
        assert got == naive_ternary_violations(3000, frozenset(extra))
        assert got == [n for n in range(7, 3001, 2) if not is_prime(n - 4)]

    def test_peak_memory(self):
        # one N/6-entry class mask and block-sized scratch: no N-entry
        # array and no int64 array over the odd n
        N = 5 * 10**6
        table = sieve_primes(N)
        tracemalloc.start()
        try:
            assert verify_ternary(N, table=table) == ()
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
def test_progression_reduction_matches_naive(table_1e5, m0, N, data):
    r = data.draw(st.sampled_from([r for r in range(1, m0) if math.gcd(r, m0) == 1]))
    report = _progression_violations(m0, r, N, table_1e5)
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
    # block boundaries; M spans bounds below every prime of class a and
    # below and above the head's primes, at the default head of 64 primes
    # and at shorter ones
    monkeypatch.setattr(partitions, "_GATHER_BLOCK_ELEMENTS", 7)
    monkeypatch.setattr(
        partitions, "_MARK_BLOCK", data.draw(st.sampled_from([partitions._MARK_BLOCK, 1, 5, 64]))
    )
    head = data.draw(st.sampled_from([partitions._VECTOR_PHASE_PRIMES, 1, 8]))
    monkeypatch.setattr(partitions, "_VECTOR_PHASE_PRIMES", head)
    units = [r for r in range(1, m) if math.gcd(r, m) == 1]
    a = data.draw(st.sampled_from(units))
    b = data.draw(st.sampled_from(units))
    M = data.draw(st.integers(-2 * m, N))
    index = ResidueIndex(table_1e5, m, N, {a, b})
    got = _stage1_unresolved(AdmissiblePair(a, b, m), N, M, index)
    assert got == naive_stage1_unresolved(a, b, m, N, M)
