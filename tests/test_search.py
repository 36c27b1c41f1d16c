import concurrent.futures
import gc
import json
import os
import subprocess
import sys
import weakref
from itertools import combinations, islice, permutations
from math import comb
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzstab import criterion, search
from syzstab.criterion import Stability, check_efficient
from syzstab.errors import Error, UnsupportedRangeError
from syzstab.families import generate_P2
from syzstab.monomial import MonomialFamily
from syzstab.search import NONE_SEMISTABLE, exhaustive_search


def test_cubic_binary_forms_have_no_semistable_triple():
    # Nine monomials of degree 9 in two variables; pure powers are forced,
    # leaving eight choices of third member, four up to swapping x and y.
    report = exhaustive_search(1, 9, 3)
    assert report.families_examined == 8
    assert report.orbits_examined == 4
    assert report.best_status == NONE_SEMISTABLE
    assert report.best_family is None
    assert report.exhausted
    assert report.resume_token is None


def test_five_quadrics_best_is_semistable():
    report = exhaustive_search(2, 2, 5)
    assert report.exhausted
    assert report.best_status == Stability.SEMISTABLE_ONLY.value
    assert report.families_examined == 3
    assert report.orbits_examined == 1
    fam = report.best_family
    assert check_efficient(fam).status is Stability.SEMISTABLE_ONLY


def test_quartic_search_finds_stable_family():
    report = exhaustive_search(2, 4, 5)
    assert report.exhausted
    assert report.best_status == Stability.STABLE.value
    assert check_efficient(report.best_family).status is Stability.STABLE


def test_search_agrees_with_generators():
    for (n, d) in [(4, 2), (5, 3), (6, 2)]:
        generated, _ = generate_P2(n, d)
        assert check_efficient(generated).status is Stability.STABLE
        report = exhaustive_search(2, d, n)
        assert report.exhausted
        assert report.best_status == Stability.STABLE.value


def test_budget_truncation_and_resume():
    full = exhaustive_search(2, 3, 6)
    assert full.exhausted
    assert full.families_examined == 35

    first = exhaustive_search(2, 3, 6, budget=17)
    assert not first.exhausted
    assert first.families_examined == 17
    assert first.resume_token is not None

    second = exhaustive_search(2, 3, 6, resume_token=first.resume_token)
    assert second.exhausted
    assert second.families_examined == full.families_examined
    assert second.orbits_examined == full.orbits_examined
    assert second.best_status == full.best_status
    assert second.best_family == full.best_family


def test_resume_in_many_small_hops():
    full = exhaustive_search(2, 3, 6)
    token = None
    report = None
    for hop in range(1, 100):
        # The budget counts cumulatively across resumed runs, so each hop
        # raises it by five to advance five fresh families.
        report = exhaustive_search(2, 3, 6, budget=5 * hop, resume_token=token)
        if report.exhausted:
            break
        state = json.loads(report.resume_token)
        assert state["families_examined"] == report.families_examined == 5 * hop
        token = report.resume_token
    assert report.exhausted
    assert report.families_examined == full.families_examined
    assert report.best_status == full.best_status
    assert report.best_family == full.best_family


def test_parallel_jobs_match_serial():
    serial = exhaustive_search(2, 3, 7)
    parallel = exhaustive_search(2, 3, 7, jobs=3)
    assert serial == parallel

    serial_cut = exhaustive_search(2, 3, 7, budget=40)
    parallel_cut = exhaustive_search(2, 3, 7, budget=40, jobs=3)
    assert serial_cut == parallel_cut


def test_progress_reports_partitions():
    events = []
    exhaustive_search(1, 9, 3, progress=events.append)
    assert len(events) == 8
    assert sum(e["families"] for e in events) == 8


def test_serial_progress_streams_as_partitions_finish(monkeypatch):
    # Every representative's status, from the masks or from check_efficient,
    # goes through one step.
    checks = []
    status = search._Space.status

    def counting_status(space, chosen):
        checks.append(chosen)
        return status(space, chosen)

    monkeypatch.setattr(search._Space, "status", counting_status)
    checks_at_first_record = []

    def progress(record):
        if not checks_at_first_record:
            checks_at_first_record.append(len(checks))

    report = exhaustive_search(2, 5, 7, progress=progress)
    assert len(checks) == report.orbits_examined
    assert checks_at_first_record[0] < len(checks)


def test_worker_count_is_capped_at_partitions_and_cpus(monkeypatch):
    created = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            created.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    # The pool class is looked up only when more than one worker runs.  Its
    # initializer builds the worker's space, here in this process.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(search, "_worker_space", None)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    assert exhaustive_search(2, 3, 7, jobs=8) == exhaustive_search(2, 3, 7)
    assert created == [2]
    # Three quadrics in three variables are the pure powers alone: one
    # partition, so no pool at all.
    assert exhaustive_search(2, 2, 3, jobs=8).exhausted
    assert created == [2]


def test_orbit_reduction_is_sound():
    # Permuting the variables of the best family never changes its verdict,
    # so scanning only lexicographic-minimal representatives loses nothing.
    report = exhaustive_search(2, 2, 6)
    fam = report.best_family
    status = check_efficient(fam).status
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        permuted = MonomialFamily.of(
            [tuple(m.exponents[p] for p in perm) for m in fam.members]
        )
        assert check_efficient(permuted).status is status


def test_resume_token_validation():
    with pytest.raises(Error):
        exhaustive_search(2, 3, 6, resume_token="not json")
    with pytest.raises(Error):
        exhaustive_search(2, 3, 6, resume_token="{}")
    other = exhaustive_search(2, 3, 7, budget=10).resume_token
    assert other is not None
    with pytest.raises(Error):
        exhaustive_search(2, 3, 6, resume_token=other)
    state = json.loads(exhaustive_search(2, 3, 6, budget=17).resume_token)
    assert state["best_status"] == "stable"
    edits = [
        {"best_status": "bogus"},
        {"offset": -5},
        {"partition": 10**6},
        {"offset": 10**6},
        # 7 partitions, of C(6 - p, 2) families: 1 at p = 4, none past it.
        {"partition": 7, "offset": 0},
        {"partition": 5, "offset": 0},
        {"partition": 4, "offset": 1},
        {"N": True},
        {"families_examined": 1.5},
        {"schema_version": 2},
        {"best_family": None},
        {"best_status": None},
        {"best_family": [[3, 0, 0]]},
        {"best_family": [["x", 0, 3]] * 6},
        # Well-shaped families the search never writes: repeated or
        # descending vectors, or a pure power missing.
        {"best_family": [[0, 0, 3]] * 6},
        {"best_family": state["best_family"][::-1]},
        {"best_family": [[0, 0, 3], [0, 1, 2], [0, 3, 0], [1, 1, 1], [1, 2, 0],
                         [2, 1, 0]]},
        # A family whose status is not the claimed one.
        {"best_status": "semistable-only"},
        {"best_family": [[0, 0, 3], [0, 3, 0], [1, 2, 0], [2, 0, 1], [2, 1, 0],
                         [3, 0, 0]]},
    ]
    without_n = {k: v for k, v in state.items() if k != "N"}
    tokens = [json.dumps({**state, **edit}) for edit in edits] + [
        json.dumps(without_n), '{"schema_version": 1}', "[1]", "[" * 100000,
    ]
    for token in tokens:
        with pytest.raises(Error):
            exhaustive_search(2, 3, 6, resume_token=token)
    # Every check runs before the first partition: no progress is streamed.
    position = json.loads(exhaustive_search(2, 2, 4, budget=1).resume_token)
    for family in ([[0, 0, 2]] * 4, [[0, 0, 2], [0, 1, 1], [0, 2, 0], [1, 0, 1]]):
        token = json.dumps({**position, "best_status": "stable", "best_family": family})
        records = []
        with pytest.raises(Error, match="malformed resume token: best_family"):
            exhaustive_search(2, 2, 4, progress=records.append, resume_token=token)
        assert records == []
    # With no free member to choose, the one family sits at position (0, 0).
    pure = {**state, "n": 3, "best_status": None, "best_family": None}
    for position in ({"partition": 1, "offset": 0}, {"partition": 0, "offset": 1}):
        with pytest.raises(Error, match="lies outside the search"):
            exhaustive_search(2, 3, 3, resume_token=json.dumps({**pure, **position}))


def test_parameter_validation():
    with pytest.raises(UnsupportedRangeError):
        exhaustive_search(0, 3, 4)
    with pytest.raises(UnsupportedRangeError):
        exhaustive_search(2, 0, 4)
    with pytest.raises(UnsupportedRangeError):
        exhaustive_search(2, 3, 1)
    with pytest.raises(UnsupportedRangeError):
        exhaustive_search(2, 3, 6, budget=0)
    with pytest.raises(UnsupportedRangeError):
        exhaustive_search(2, 3, 6, jobs=0)


def test_oversized_request_is_empty():
    # More members than monomials of that degree: nothing to enumerate.
    report = exhaustive_search(1, 2, 5)
    assert report.exhausted
    assert report.families_examined == 0
    assert report.best_status == NONE_SEMISTABLE


def sorted_sequence_is_minimal(family_exps, perms):
    """The orbit filter's definition, as first implemented: no axis
    permutation gives a lexicographically smaller ascending-sorted exponent
    sequence."""
    for perm in perms:
        permuted = tuple(sorted(tuple(e[i] for i in perm) for e in family_exps))
        if permuted < family_exps:
            return False
    return True


def sorted_sequence_filter(N):
    """``_is_representative`` by ``sorted_sequence_is_minimal``, on the
    exponents of the chosen free indices and the pure powers."""
    perms = list(permutations(range(N + 1)))

    def is_minimal(chosen, space):
        exps = tuple(sorted(space.pure_exps + [space.free[c] for c in chosen]))
        return sorted_sequence_is_minimal(exps, perms)

    return is_minimal


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_bitmask_filter_matches_sorted_sequence_definition(data):
    N = data.draw(st.integers(1, 4), label="N")
    d = data.draw(st.integers(1, 4), label="d")
    free = search._free_monomials(N, d)
    index = {v: i for i, v in enumerate(free)}
    pure = [tuple(d if i == j else 0 for i in range(N + 1)) for j in range(N + 1)]
    perms = list(permutations(range(N + 1)))
    # Blocks of 1, 2 or 32 lanes.  The identity's lane comes first, so caps
    # keeping 1, 2, 3 or 40 permutations make 2, 3, 4 or 41 lanes (at most
    # (N+1)!), and 3 and 41 end partway through a block of 2 or 32.  A cap
    # of one bit keeps none.  Permutations past the cap are recomputed.
    size = data.draw(st.sampled_from([1, 2, search._BLOCK]), label="block size")
    square = max(len(free), 1) ** 2
    bits = data.draw(st.sampled_from(
        [search._ROW_BITS, 1, square, 2 * square, 3 * square, 40 * square]
    ))
    with patch.object(search, "_ROW_BITS", bits), patch.object(search, "_BLOCK", size):
        # Several families share one filter, as in a search.
        space = search._Space(N, d)
        for _ in range(data.draw(st.integers(1, 4))):
            chosen = set()
            if free:
                chosen = data.draw(st.sets(st.sampled_from(range(len(free)))))
            if chosen and data.draw(st.booleans()):
                # Close the set under one permutation, which then maps the
                # family to itself.
                perm = data.draw(st.permutations(range(N + 1)))
                while True:
                    grown = chosen | {
                        index[tuple(free[c][i] for i in perm)] for c in chosen
                    }
                    if grown == chosen:
                        break
                    chosen = grown
            chosen = tuple(sorted(chosen))
            exps = tuple(sorted(pure + [free[c] for c in chosen]))
            assert search._is_representative(chosen, space) == (
                sorted_sequence_is_minimal(exps, perms)
            )


def reference_scan(space, job, is_minimal):
    """``_Space.scan`` as a plain loop: every family of the job from
    ``combinations`` and ``islice``, tested by ``is_minimal``, and each
    representative's status from ``space.status``.  Return the scan's
    result and the representatives, in order."""
    k, partition, skip, limit = job
    if k == 0:
        tails = iter([()])
    else:
        tails = combinations(range(partition + 1, len(space.free)), k - 1)
    families = 0
    representatives = []
    best_rank, best_key, best = 0, -1, ()
    for tail in islice(tails, skip, skip + limit):
        families += 1
        chosen = (partition, *tail) if k else ()
        if not is_minimal(chosen, space):
            continue
        representatives.append(chosen)
        rank = space.status(chosen)
        if rank and rank >= best_rank:
            key = sum(1 << c for c in chosen)
            if rank > best_rank or key > best_key:
                best_rank, best_key, best = rank, key, chosen
    orbits = len(representatives)
    if not best_rank:
        return (families, orbits, (0, None)), representatives
    exps = tuple(sorted(space.pure_exps + [space.free[c] for c in best]))
    return (families, orbits, (best_rank, exps)), representatives


def test_searches_match_the_sorted_sequence_filter(monkeypatch):
    # Every (N <= 3, d <= 4, n) cut after 1 and after F - 1 families, and
    # run whole where it has at most 2,000 families: (3, 3, 9..15) and
    # (3, 4, 7..32) hold up to 3 * 10^8.
    def run(N, d, n, budget):
        records = []
        report = exhaustive_search(N, d, n, budget, progress=records.append)
        return json.dumps([report.to_json_dict(), records]), report.families_examined

    runs = []
    for N in (1, 2, 3):
        for d in (1, 2, 3, 4):
            free_count = comb(N + d, N) - (N + 1)
            for n in range(2, comb(N + d, N) + 1):
                runs += [(N, d, n, 1), (N, d, n, max(free_count - 1, 1))]
                if n <= N or comb(free_count, n - (N + 1)) <= 2000:
                    runs.append((N, d, n, search.DEFAULT_BUDGET))
    walked = [run(*args)[0] for args in runs]
    # The reference scan tests every family by the definition.  The
    # searches are serial, so each examined family is tested here, once.
    tested = []

    def scan(space, job):
        is_minimal = sorted_sequence_filter(space.N)

        def counted(chosen, space):
            tested.append(chosen)
            return is_minimal(chosen, space)

        return reference_scan(space, job, counted)[0]

    monkeypatch.setattr(search._Space, "scan", scan)
    reference, examined = zip(*(run(*args) for args in runs))
    assert walked == list(reference)
    assert len(tested) == sum(examined) > 0


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_walk_matches_the_reference_loop(data):
    N = data.draw(st.integers(1, 4), label="N")
    d = data.draw(st.integers(1, 4), label="d")
    free_count = len(search._free_monomials(N, d))
    square = max(free_count, 1) ** 2
    # A cap of one bit keeps no lane, so every family takes the recompute.
    bits = data.draw(st.sampled_from([search._ROW_BITS, 1, square, 3 * square]))
    size = data.draw(st.sampled_from([1, 2, search._BLOCK]), label="block size")
    k = data.draw(st.integers(0, free_count), label="k")
    if k == 0:
        job = (0, -1, 0, 1)
    else:
        partition = data.draw(st.integers(0, free_count - k), label="partition")
        families = comb(free_count - 1 - partition, k - 1)
        # Offsets anywhere in partitions the reference can skip through,
        # and families from there to the partition's end or fewer.
        skip = data.draw(st.integers(0, min(families, 20_000) - 1), label="skip")
        whole = families - skip
        limit = data.draw(st.sampled_from([whole, data.draw(st.integers(1, whole))]))
        job = (k, partition, skip, min(limit, 40))
    with patch.object(search, "_ROW_BITS", bits), patch.object(search, "_BLOCK", size):
        space = search._Space(N, d, N + 1 + k)
        checked = []
        status = space.status

        def recorded(chosen):
            checked.append(chosen)
            return status(chosen)

        space.status = recorded
        expected, representatives = reference_scan(
            search._Space(N, d, N + 1 + k), job, sorted_sequence_filter(N)
        )
        assert space.scan(job) == expected
        assert checked == representatives


def scan_recorded(space, job):
    """``space.scan(job)`` and the chosen tuples it hands to ``status``, in
    order."""
    checked = []
    status = space.status

    def recorded(chosen):
        checked.append(chosen)
        return status(chosen)

    space.status = recorded
    try:
        return space.scan(job), checked
    finally:
        del space.status


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_tree_matches_the_walk_on_whole_partitions(data):
    N = data.draw(st.integers(1, 4), label="N")
    d = data.draw(st.integers(2, 4), label="d")
    free_count = len(search._free_monomials(N, d))
    square = free_count ** 2
    # The default keeps a lane for every permutation, so whole partitions
    # take the tree; blocks of 1 or 2 lanes put the later blocks in every
    # tree step.  F^2 and 3F^2 bits keep 2 or 4 lanes, and spaces with more
    # permutations walk.
    bits = data.draw(st.sampled_from([search._ROW_BITS, square, 3 * square]))
    size = data.draw(st.sampled_from([1, 2, search._BLOCK]), label="block size")
    k = data.draw(st.sampled_from(
        [k for k in range(1, free_count + 1) if comb(free_count, k) <= 20_000]
    ), label="k")
    jobs = [
        (k, p, 0, comb(free_count - 1 - p, k - 1))
        for p in range(free_count - k + 1)
    ]
    with patch.object(search, "_ROW_BITS", bits), patch.object(search, "_BLOCK", size):
        tree = search._Space(N, d, N + 1 + k)
        got = [scan_recorded(tree, job) for job in jobs]
        # With no set held the tree is abandoned at its first level.
        with patch.object(search, "_HELD", 0):
            walk = search._Space(N, d, N + 1 + k)
            expected = [scan_recorded(walk, job) for job in jobs]
    assert walk.held is None
    assert got == expected
    if bits == search._ROW_BITS and 1 < k and 2 * k <= free_count + 1 and N > 1:
        assert tree.held is not None


def test_tree_path_streams_and_pools_like_the_walk(monkeypatch):
    # Whole partitions of (3, 3, 13) take the orderly tree.
    checks = []
    status = search._Space.status
    held_sets = search._Space.held_sets
    trees = []

    def counting_status(space, chosen):
        checks.append(chosen)
        return status(space, chosen)

    def recorded_held_sets(space, job):
        trees.append(held_sets(space, job))
        return trees[-1]

    checks_at_first_record = []
    records = []

    def progress(record):
        if not checks_at_first_record:
            checks_at_first_record.append(len(checks))
        records.append(record)

    with monkeypatch.context() as patched:
        patched.setattr(search._Space, "status", counting_status)
        patched.setattr(search._Space, "held_sets", recorded_held_sets)
        serial = exhaustive_search(3, 3, 13, progress=progress)
    assert trees and all(held is not None for held in trees)
    assert len(checks) == serial.orbits_examined
    assert checks_at_first_record[0] < len(checks)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    pooled = []
    assert exhaustive_search(3, 3, 13, progress=pooled.append, jobs=2) == serial
    assert pooled == records


def test_searches_past_the_held_cap_walk_and_match(monkeypatch):
    triples = [(3, 3, n) for n in range(12, 20)] + [(4, 2, n) for n in range(9, 15)]
    triples.append((4, 3, 10))
    built = []

    class Recorded(search._Space):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def run(triple):
        records = []
        report = exhaustive_search(*triple, progress=records.append)
        return json.dumps([report.to_json_dict(), records])

    monkeypatch.setattr(search, "_Space", Recorded)
    held = [run(triple) for triple in triples]
    # The census rows past (3, 3, 17) and (4, 2, 13) walk by the size rule.
    assert [space.held is not None for space in built] == [True] * 6 + [False] * 2 + [
        True] * 5 + [False, True]
    built.clear()
    monkeypatch.setattr(search, "_HELD", 1)
    assert [run(triple) for triple in triples] == held
    assert [space.held for space in built] == [None] * len(triples)


def test_walk_needs_no_recursion_as_deep_as_the_family():
    # One family each, of k = 52 and k = 2013 chosen free monomials, under
    # a recursion limit of 30; the SHA-256 of each report's sorted-key JSON
    # is pinned.
    code = """
import hashlib, json, sys
from syzstab.search import exhaustive_search
sys.setrecursionlimit(30)
for triple in [(2, 9, 55), (2, 62, 2016)]:
    report = json.dumps(exhaustive_search(*triple).to_json_dict(), sort_keys=True)
    print(hashlib.sha256(report.encode()).hexdigest())
"""
    env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "2f6ee09b2a99dc891fce4a1274409a6682e66965c267585f9f9716ee297064f5",
        "9447986f4bbce592b84b677090c171d906ff89d4c7684f53de3298eb5ed42a28",
    ]


def test_search_builds_one_space_and_keeps_nothing(monkeypatch):
    built = []
    grown = []

    class Recorded(search._Space):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

        def grow(self):
            grown.append(len(self.blocks))
            super().grow()

    monkeypatch.setattr(search, "_Space", Recorded)
    records = []
    serial = exhaustive_search(3, 3, 14, progress=records.append)
    # 7 partitions, one space, and its one block of 24 lanes built once.
    assert len(records) == 7
    assert len(built) == 1
    assert grown == [0]
    gc.collect()
    assert built[0]() is None
    assert search._worker_space is None
    # Two workers build a space each in their own process, none here.
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    pooled = []
    assert exhaustive_search(3, 3, 14, progress=pooled.append, jobs=2) == serial
    assert pooled == records
    assert len(built) == 1


@pytest.mark.parametrize("triple", [(3, 3, 14), (3, 3, 17), (4, 2, 10), (4, 2, 12)])
def test_rows_past_the_cell_cap_give_identical_searches(monkeypatch, triple):
    def run():
        records = []
        report = exhaustive_search(*triple, progress=records.append)
        return json.dumps([report.to_json_dict(), records])

    kept = run()
    # With 600 bits the scans keep 2 (N = 3, 16 free monomials) or 6 (N = 4,
    # 10 free monomials) rows and recompute the other 21 or 113 for each
    # family that reaches them.
    monkeypatch.setattr(search, "_ROW_BITS", 600)
    assert run() == kept


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mask_status_matches_check_efficient(data):
    N = data.draw(st.integers(1, 4), label="N")
    d = data.draw(st.integers(1, 5), label="d")
    free = search._free_monomials(N, d)
    index = {v: i for i, v in enumerate(free)}
    shape = data.draw(st.sampled_from(["empty", "full", "closed", "partition"]))
    chosen = set()
    if shape == "full":
        chosen = set(range(len(free)))
    elif shape == "closed" and free:
        # A random set closed under one permutation of the variables.
        chosen = data.draw(st.sets(st.sampled_from(range(len(free))), min_size=1))
        perm = data.draw(st.permutations(range(N + 1)))
        while True:
            grown = chosen | {index[tuple(free[c][i] for i in perm)] for c in chosen}
            if grown == chosen:
                break
            chosen = grown
    elif shape == "partition" and free:
        # A family partway through a partition: its smallest index, then
        # any later ones.
        partition = data.draw(st.integers(0, len(free) - 1), label="partition")
        later = range(partition + 1, len(free))
        chosen = {partition}
        if later:
            chosen |= data.draw(st.sets(st.sampled_from(later)))
    chosen = tuple(sorted(chosen))
    n = N + 1 + len(chosen)
    space = search._Space(N, d, n)
    assert space.ge is not None
    family = MonomialFamily.of(space.pure_exps + [free[c] for c in chosen])
    expected = check_efficient(family).status.value
    ranks = {Stability.UNSTABLE.value: 0, Stability.SEMISTABLE_ONLY.value: 1,
             Stability.STABLE.value: 2}
    assert space.status(chosen) == ranks[expected]


@pytest.mark.parametrize("triple", [(3, 3, 14), (4, 2, 10)])
def test_searches_past_the_grid_limit_check_each_family(monkeypatch, triple):
    def run():
        records = []
        report = exhaustive_search(*triple, progress=records.append)
        return json.dumps([report.to_json_dict(), records])

    masks = run()
    checks = []

    def counting_check(family):
        checks.append(family)
        return check_efficient(family)

    monkeypatch.setattr(search, "check_efficient", counting_check)
    assert run() == masks
    assert checks == []
    # A box of d^(N+1) = 81 or 32 cells past the limit: every representative
    # takes check_efficient, itself on the gcd closure, and nothing changes.
    N, d, _ = triple
    monkeypatch.setattr(criterion, "GRID_LIMIT", d ** (N + 1) - 1)
    assert run() == masks
    assert len(checks) == json.loads(masks)[0]["orbits_examined"]


def test_serial_search_builds_only_the_best_family(monkeypatch):
    built = []
    post_init = MonomialFamily.__post_init__

    def counting(family):
        post_init(family)
        built.append(family)

    monkeypatch.setattr(MonomialFamily, "__post_init__", counting)
    report = exhaustive_search(3, 3, 12)
    assert report.orbits_examined > 100
    assert built == [report.best_family]
