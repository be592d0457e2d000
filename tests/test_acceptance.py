"""Acceptance criteria, one test per criterion.

Each test prints a PASS line once its assertions hold; a pytest failure on
any test is the corresponding FAIL line.  Corpora and oracle bounds are
fixed by the conftest fixtures.
"""

import itertools

import pytest

from absorb import (
    Agreement,
    GenSpec,
    NaryTable,
    OracleBounds,
    construct_witness,
    derive_power_algebra,
    derived_fact_probes,
    enumerate_tables,
    is_associative,
    is_idempotent,
    run_corpus,
    verify_witness,
)
from test_core import naive_associative

# Regression constants recorded from one-time runs: the exhaustive
# backtracking counts for binary sizes 2/3/4 and ternary size 2, the
# latter three cross-checked against naive filters (fully for the small
# spaces, on a fixed-prefix subspace for size 4).
COUNT_BINARY_2 = 8
COUNT_BINARY_3 = 113
COUNT_BINARY_4 = 3492
COUNT_TERNARY_2 = 8


def _announce(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}", flush=True)


def test_criterion_1_binary_exhaustive_equivalence(binary2, binary3, checked_small_binary):
    assert len(binary2) == COUNT_BINARY_2
    assert len(binary3) == COUNT_BINARY_3
    disagree = [r for r in checked_small_binary if r.agreement is Agreement.DISAGREE]
    unresolved = [r for r in checked_small_binary if r.agreement is Agreement.UNRESOLVED]
    assert disagree == []
    assert unresolved == []
    assert all(r.agreement is Agreement.AGREE for r in checked_small_binary)
    _announce(
        1,
        f"{len(binary2)}+{len(binary3)} binary tables, "
        f"{len(checked_small_binary)} pairs, all Agree",
    )


def test_criterion_2_size4_stress(binary4, checked_binary4):
    assert len(binary4) == COUNT_BINARY_4

    # independent naive-filter spot check on a sampled subspace: all tables
    # whose first two rows are constant 0 and constant 1 (127 continuations)
    prefix = (0, 0, 0, 0, 1, 1, 1, 1)
    naive_subspace = set()
    for suffix in itertools.product(range(4), repeat=8):
        entries = prefix + suffix
        if naive_associative(NaryTable(2, 4, entries)):
            naive_subspace.add(entries)
    backtracked_subspace = {t.entries for t in binary4 if t.entries[:8] == prefix}
    assert naive_subspace == backtracked_subspace
    assert len(naive_subspace) > 0

    disagree = [r for r in checked_binary4 if r.agreement is Agreement.DISAGREE]
    assert disagree == []
    # at bounds (2, k) the oracle classification IS the criterion verdict
    assert all(r.oracle.found == r.verdict.absorbs for r in checked_binary4)
    _announce(
        2,
        f"{len(binary4)} size-4 tables (spot check {len(naive_subspace)} on fixed "
        f"prefix), {len(checked_binary4)} pairs, zero Disagree",
    )


def test_criterion_3_ternary_exhaustive_equivalence(ternary2, checked_ternary2):
    assert len(ternary2) == COUNT_TERNARY_2
    for r in checked_ternary2:
        assert r.table.size - len(r.sub.members) == 1  # every proper sub is a coatom
        assert r.verdict.proof_status.is_proved()
        has_exponent = r.verdict.exponent_k is not None
        cond_1 = r.oracle.found
        cond_2 = r.cond2 and has_exponent
        cond_3 = r.cond3 and has_exponent
        assert cond_1 == cond_2 == cond_3
        assert r.agreement is Agreement.AGREE
        assert r.violations == ()
    _announce(
        3,
        f"{len(ternary2)} ternary tables, {len(checked_ternary2)} coatom pairs, "
        f"(1)<=>(2)<=>(3) holds",
    )


def test_criterion_4_proved_case_nary_validation(proved_corpora, checked_proved):
    assert len(proved_corpora["comm3"]) >= 200
    assert len(proved_corpora["comm4"]) >= 200
    assert len(proved_corpora["idem3"]) >= 200
    found_without_cond2 = 0
    rejected_witnesses = 0
    for r in checked_proved:
        if r.oracle.found and not r.cond2:
            found_without_cond2 += 1
        if r.cond2 and r.verdict.exponent_k is not None:
            witness = construct_witness(r.table, r.verdict.exponent_k)
            if not verify_witness(r.table, r.sub, witness):
                rejected_witnesses += 1
    assert found_without_cond2 == 0
    assert rejected_witnesses == 0
    _announce(
        4,
        f"{len(checked_proved)} proved-case n-ary pairs: oracle-yes => cond2, "
        f"cond2+k => witness accepted",
    )


def test_criterion_5_implication_chain(all_reports):
    violations = []
    for r in all_reports:
        if r.verdict.exponent_k is None:
            continue
        if r.cond2 and not r.cond3:
            violations.append((r.table.entries, r.sub.elements, "cond2 without cond3"))
        if r.cond3:
            witness = construct_witness(r.table, r.verdict.exponent_k)
            if not verify_witness(r.table, r.sub, witness):
                violations.append((r.table.entries, r.sub.elements, "witness rejected"))
    assert violations == []
    _announce(5, f"implication chain holds on all {len(all_reports)} pairs checked")


def test_criterion_6_witness_soundness(all_reports):
    absorbing = [r for r in all_reports if r.verdict.absorbs]
    for r in absorbing:
        assert r.verdict.witness is not None
        assert verify_witness(r.table, r.sub, r.verdict.witness)
    _announce(6, f"all {len(absorbing)} absorbing verdicts carry verified witnesses")


def test_criterion_7_exponent_correctness(all_reports):
    seen = set()
    checked = 0
    for r in all_reports:
        key = (r.table.arity, r.table.entries)
        if key in seen or r.verdict.exponent_k is None:
            continue
        seen.add(key)
        table, k, n = r.table, r.verdict.exponent_k, r.table.arity

        def power(a, e):
            x = a
            for _ in range((e - 1) // (n - 1)):
                x = table.apply(x, *([a] * (n - 1)))
            return x

        assert all(power(a, k) == a for a in range(table.size))
        for kp in range(2, k):
            if (kp - 1) % (n - 1):
                continue
            assert any(power(a, kp) != a for a in range(table.size))
        checked += 1
    _announce(7, f"exponent fixed-point and minimality confirmed on {checked} tables")


def test_criterion_8_proposition_reduction(all_reports):
    seen = set()
    checked = 0
    for r in all_reports:
        if not r.oracle.found:
            continue
        witness = r.oracle.witness
        key = (r.table.arity, r.table.entries, r.sub.mask, witness.letters)
        if key in seen:
            continue
        seen.add(key)
        derived = derive_power_algebra(r.table, witness.length)
        assert is_associative(derived)
        assert is_idempotent(derived)
        assert verify_witness(derived, r.sub, witness)
        checked += 1
    _announce(8, f"power-algebra reduction verified for {checked} found witnesses")


def test_criterion_9_ternary_fact_probes(all_reports):
    seen = set()
    checked = 0
    for r in all_reports:
        if r.table.arity != 3 or not r.verdict.absorbs or not is_idempotent(r.table):
            continue
        key = (r.table.entries, r.sub.mask)
        if key in seen:
            continue
        seen.add(key)
        probes = derived_fact_probes(r.table, r.sub)
        assert all(holds for _, holds in probes), (r.table.entries, probes)
        checked += 1
    assert checked > 0
    _announce(9, f"all proof-step facts hold on {checked} idempotent-ternary pairs")


def test_criterion_10_determinism_and_resume(tmp_path, monkeypatch):
    import absorb.harness as harness

    bounds = OracleBounds()
    spec = GenSpec(2, 2)

    baseline = tmp_path / "baseline.jsonl"
    run_corpus(enumerate_tables(spec), bounds, str(baseline))

    rerun = tmp_path / "rerun.jsonl"
    run_corpus(enumerate_tables(spec), bounds, str(rerun))
    assert rerun.read_bytes() == baseline.read_bytes()

    # kill the run mid-way, then resume from the report it left
    interrupted = tmp_path / "interrupted.jsonl"
    real_check = harness.check_pair
    calls = {"n": 0}

    def killer(table, sub, b):
        calls["n"] += 1
        if calls["n"] == 6:
            raise KeyboardInterrupt
        return real_check(table, sub, b)

    monkeypatch.setattr(harness, "check_pair", killer)
    with pytest.raises(KeyboardInterrupt):
        run_corpus(enumerate_tables(spec), bounds, str(interrupted), resume=True)
    monkeypatch.setattr(harness, "check_pair", real_check)

    resumed = run_corpus(enumerate_tables(spec), bounds, str(interrupted), resume=True)
    assert resumed.status == "consistent"
    assert interrupted.read_bytes() == baseline.read_bytes()

    # seeded random corpora are byte-reproducible too
    seeded = GenSpec(3, 3, mode="random", count=6, seed=99, commutative=True)
    a = tmp_path / "seeded_a.jsonl"
    b = tmp_path / "seeded_b.jsonl"
    run_corpus(enumerate_tables(seeded), bounds, str(a))
    run_corpus(enumerate_tables(seeded), bounds, str(b))
    assert a.read_bytes() == b.read_bytes()

    _announce(10, "reports byte-identical across reruns and kill/resume")
