import gc
import json
import subprocess
import sys
import weakref
from itertools import combinations, count, islice, permutations
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syzstab import criterion, search
from syzstab.criterion import Stability, check_efficient
from syzstab.errors import Error, UnsupportedRangeError
from syzstab.families import generate_P2
from syzstab.monomial import MonomialFamily
from syzstab.search import NONE_SEMISTABLE, exhaustive_search

from conftest import CHILD_ENV


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


def test_resume_in_many_small_hops(monkeypatch):
    # A resumed search starts from the floor of its token's stable best,
    # which is the floor the whole run carries at that position, inside a
    # partition or between two: the hops hand ``status`` the same
    # representatives, in the same order, and end in the same report.
    checks = []
    status = search._Space.status

    def counting_status(space, chosen):
        checks.append(chosen)
        return status(space, chosen)

    monkeypatch.setattr(search._Space, "status", counting_status)
    for triple, step in [((2, 3, 6), 5), ((2, 5, 7), 211), ((3, 3, 12), 997)]:
        checks.clear()
        full = exhaustive_search(*triple)
        whole = checks[:]
        checks.clear()
        token = None
        for hop in count(1):
            # The budget counts cumulatively across resumed runs, so each
            # hop raises it by one step to advance that many fresh families.
            report = exhaustive_search(*triple, budget=step * hop, resume_token=token)
            if report.exhausted:
                break
            state = json.loads(report.resume_token)
            assert state["families_examined"] == report.families_examined == step * hop
            token = report.resume_token
        assert hop > 3
        assert checks == whole
        assert report == full


def test_parallel_jobs_match_serial(monkeypatch):
    # Pool jobs take no floor from one another, only the resume token's, so
    # a partition's own result may differ from the serial path's; the
    # merged reports, progress records and tokens are the same.  Each search is
    # cut where its best is stable and resumed, serially and on the pool,
    # from the same token.
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)

    def run(triple, **options):
        records = []
        report = exhaustive_search(*triple, progress=records.append, **options)
        return report, records

    cuts = [((2, 3, 7), 25), ((2, 5, 7), 1500), ((3, 3, 12), 5000), ((3, 4, 10), 20000)]
    for triple, budget in cuts:
        assert run(triple) == run(triple, jobs=3)
        serial_cut, records = run(triple, budget=budget)
        assert not serial_cut.exhausted
        assert (serial_cut, records) == run(triple, budget=budget, jobs=3)
        token = serial_cut.resume_token
        assert json.loads(token)["best_status"] == Stability.STABLE.value
        resumed = run(triple, budget=2 * budget, resume_token=token)
        assert resumed == run(triple, budget=2 * budget, resume_token=token, jobs=3)


def test_progress_reports_partitions():
    events = []
    exhaustive_search(1, 9, 3, progress=events.append)
    assert len(events) == 8
    assert sum(e["families"] for e in events) == 8


def test_serial_progress_streams_as_partitions_finish(monkeypatch):
    # Every status, from the masks or from the family's own table, goes
    # through one step, once for each representative the bound lets
    # through.
    expected = statuses_under_the_bound(2, 5, 7)
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

    exhaustive_search(2, 5, 7, progress=progress)
    assert checks == expected
    assert checks_at_first_record[0] < len(checks)


def test_worker_count_is_capped_at_partitions_and_cpus(serial_pool):
    assert exhaustive_search(2, 3, 7, jobs=8) == exhaustive_search(2, 3, 7)
    assert serial_pool == [2]
    # Three quadrics in three variables are the pure powers alone: one
    # partition, so no pool at all.
    assert exhaustive_search(2, 2, 3, jobs=8).exhausted
    assert serial_pool == [2]


def test_pool_jobs_start_from_the_token_floor(serial_pool, monkeypatch):
    # Resumed from a token whose best is stable, every pool job hands
    # ``status`` only representatives above that best's key.
    token = exhaustive_search(3, 3, 12, budget=5000).resume_token
    best = json.loads(token)["best_family"]
    space = search._Space(3, 3, 12)
    floor = sum(1 << space.index[tuple(e)] for e in best if tuple(e) in space.index)
    checks = []
    status = search._Space.status

    def counting_status(space, chosen):
        checks.append(chosen)
        return status(space, chosen)

    monkeypatch.setattr(search._Space, "status", counting_status)
    pooled = exhaustive_search(3, 3, 12, resume_token=token, jobs=2)
    assert serial_pool == [2]
    assert checks and all(sum(1 << c for c in chosen) > floor for chosen in checks)
    assert pooled == exhaustive_search(3, 3, 12, resume_token=token)


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
        # Partitions 0..4 hold C(6 - p, 2) families, 1 at p = 4; the plan
        # counts no partition past them.
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
    """The orbit filter by ``sorted_sequence_is_minimal``, on the
    exponents of the chosen free indices and the pure powers."""
    perms = list(permutations(range(N + 1)))

    def is_minimal(chosen, space):
        exps = tuple(sorted(space.pure_exps + [space.free[c] for c in chosen]))
        return sorted_sequence_is_minimal(exps, perms)

    return is_minimal


def lane_filter(chosen, space):
    """The space's own orbit filter, one family at a time: with C empty
    there is nothing to permute; otherwise one sum over C tests block 0's
    lanes, and ``passes_rest`` the later blocks and the permutations past
    the lanes."""
    diffs, guards, bias, _ = space.first_block()
    return not chosen or (
        not sum(map(diffs.__getitem__, chosen), bias) & guards
        and space.passes_rest(chosen)
    )


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_bitmask_filter_matches_sorted_sequence_definition(data):
    N = data.draw(st.integers(1, 4), label="N")
    d = data.draw(st.integers(1, 4), label="d")
    free = search._free_monomials(N, d)
    index = {v: i for i, v in enumerate(free)}
    pure = [tuple(d if i == j else 0 for i in range(N + 1)) for j in range(N + 1)]
    perms = list(permutations(range(N + 1)))
    # Blocks of 1, 2, 32 or 120 lanes.  The identity's lane comes first, so
    # caps keeping 1, 2, 3 or 40 permutations make 2, 3, 4 or 41 lanes (at
    # most (N+1)!), and 3 and 41 end partway through a block of 2, 32 or
    # 120.  A cap of one bit keeps none.  Permutations past the cap are
    # recomputed.
    size = data.draw(st.sampled_from([1, 2, 32, search._BLOCK]), label="block size")
    square = max(len(free), 1) ** 2
    bits = data.draw(st.sampled_from(
        [search._ROW_BITS, 1, square, 2 * square, 3 * square, 40 * square]
    ))
    with patch.object(search, "_ROW_BITS", bits), patch.object(search, "_BLOCK", size):
        # Several families share one filter, as in a search; the filter
        # does not read the family size.
        space = search._Space(N, d, N + 1)
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
            assert lane_filter(chosen, space) == sorted_sequence_is_minimal(exps, perms)


@given(
    N=st.integers(1, 5),
    d=st.integers(1, 4),
    size=st.sampled_from([1, 2, 32, 120]),
    scale=st.sampled_from([None, 0, 1, 3, 40, 150]),
)
# 292 lanes in blocks of 120, the last one partial.
@example(N=5, d=4, size=120, scale=None)
@settings(max_examples=120, deadline=None)
def test_lanes_are_packed_as_defined(N, d, size, scale):
    # Every block against its definition, bit by bit: lane j of block b
    # belongs to permutation b * size + j of permutations(range(N + 1)) and
    # is F+1 bits wide, and diffs[c] holds 1 << index(pi(free[c])) in the
    # lane of each pi, less ones << c.  A scale keeps scale * F^2 bits, so
    # scale + 1 lanes (at most (N+1)!), none at 0; 4 lanes end partway
    # through a block of 32 or 120, and 41 and 151 through one of 2, 32 or
    # 120.
    free = search._free_monomials(N, d)
    index = {v: i for i, v in enumerate(free)}
    width = len(free) + 1
    bits = search._ROW_BITS if scale is None else scale * max(len(free), 1) ** 2
    with patch.object(search, "_ROW_BITS", bits), patch.object(search, "_BLOCK", size):
        space = search._Space(N, d, N + 2)
        while len(space.blocks) < space.block_count:
            space.grow()
    kept = list(permutations(range(N + 1)))[:space.lanes]
    expected = []
    for start in range(0, len(kept), size):
        block = kept[start:start + size]
        ones = sum(1 << lane * width for lane in range(len(block)))
        diffs = [
            sum(
                1 << (lane * width + index[tuple(e[i] for i in pi)])
                for lane, pi in enumerate(block)
            ) - (ones << c)
            for c, e in enumerate(free)
        ]
        guards = ones << (width - 1)
        expected.append((diffs, guards, guards - ones))
    assert space.blocks == expected
    if expected:
        diffs = expected[0][0]
        sums = [sum(diffs[:c]) for c in range(len(diffs) + 1)]
        assert space.first == (*expected[0], sums)
    else:
        assert space.lanes == 0 and space.first is None


def reference_scan(space, job, is_minimal, floor):
    """``_Space.scan`` as a plain loop: every family of the job from
    ``combinations`` and ``islice``, tested by ``is_minimal``, and every
    representative's status from ``space.status``.  The best is kept twice:
    over every status, and under the bound, which passes over a
    representative whose key M(C) is not above a stable best's, or above
    ``floor``, the integer key M(C) of a stable best found before the job,
    if there is one.  The bounded best is the best over every status where
    no floor is given or that best is stable above it, else nothing.
    Return the scan's result and the representatives the bound lets
    through, in order."""
    partition, skip, limit = job
    k = space.k
    if k == 0:
        tails = iter([()])
    else:
        tails = combinations(range(partition + 1, len(space.free)), k - 1)
    families = orbits = 0
    passed = []
    best = (0, -1, None)
    bounded = best if floor is None else (2, floor, None)
    for tail in islice(tails, skip, skip + limit):
        families += 1
        chosen = (partition, *tail) if k else ()
        if not is_minimal(chosen, space):
            continue
        orbits += 1
        rank = space.status(chosen)
        key = sum(1 << c for c in chosen)
        if rank and (rank, key) > best[:2]:
            best = (rank, key, chosen)
        if bounded[0] == 2 and key <= bounded[1]:
            continue
        passed.append(chosen)
        if rank and (rank, key) > bounded[:2]:
            bounded = (rank, key, chosen)
    if floor is None or best[:2] > (2, floor):
        assert bounded == best
    else:
        assert bounded == (2, floor, None)
    best_rank, _, best = bounded
    if best is None:
        return (families, orbits, (0, None)), passed
    exps = tuple(sorted(space.pure_exps + [space.free[c] for c in best]))
    return (families, orbits, (best_rank, exps)), passed


def integer_key(floor):
    """The reference's key M(C) of a scan's floor, its chosen indices
    descending, or None for no floor."""
    return None if floor is None else sum(1 << c for c in floor)


def statuses_under_the_bound(N, d, n):
    """The representatives that a whole search of (N, d, n), k >= 1, hands
    to ``status``, in order: ``reference_scan`` over every partition, each
    under the floor of the best merged from the partitions before it, as a
    serial search carries it."""
    space = search._Space(N, d, n)
    free_count, k = len(space.free), space.k
    passed = []
    best = (0, None)
    for p in range(free_count - k + 1):
        job = (p, 0, comb(free_count - 1 - p, k - 1))
        floor = None
        if best[0] == 2:
            floor = sum(1 << space.index[e] for e in best[1] if e in space.index)
        (_, _, found), got = reference_scan(space, job, lane_filter, floor)
        passed += got
        best = search._better(best, found)
    return passed


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

    def scan(space, job, floor):
        is_minimal = sorted_sequence_filter(space.N)

        def counted(chosen, space):
            tested.append(chosen)
            return is_minimal(chosen, space)

        return reference_scan(space, job, counted, integer_key(floor))[0]

    monkeypatch.setattr(search._Space, "scan", scan)
    reference, examined = zip(*(run(*args) for args in runs))
    assert walked == list(reference)
    assert len(tested) == sum(examined) > 0


def scan_recorded(space, job, floor=None):
    """``space.scan(job, floor)`` and the chosen tuples it hands to
    ``status``, in order."""
    checked = []
    status = space.status

    def recorded(chosen):
        checked.append(chosen)
        return status(chosen)

    space.status = recorded
    try:
        return space.scan(job, floor), checked
    finally:
        del space.status


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_walk_matches_the_reference_loop(data):
    N = data.draw(st.integers(1, 4), label="N")
    d = data.draw(st.integers(1, 4), label="d")
    free_count = len(search._free_monomials(N, d))
    square = max(free_count, 1) ** 2
    # A cap of one bit keeps no lane, so every family takes the recompute.
    # Blocks of 1, 2, 32 or 120 lanes; 2 and 4 lanes end partway through
    # the larger ones.
    bits = data.draw(st.sampled_from([search._ROW_BITS, 1, square, 3 * square]))
    size = data.draw(st.sampled_from([1, 2, 32, search._BLOCK]), label="block size")
    k = data.draw(st.integers(0, free_count), label="k")
    if k == 0:
        job = (-1, 0, 1)
    else:
        partition = data.draw(st.integers(0, free_count - k), label="partition")
        families = comb(free_count - 1 - partition, k - 1)
        # Offsets anywhere in partitions the reference can skip through,
        # and families from there to the partition's end or fewer.
        skip = data.draw(st.integers(0, min(families, 20_000) - 1), label="skip")
        whole = families - skip
        limit = data.draw(st.sampled_from([whole, data.draw(st.integers(1, whole))]))
        job = (partition, skip, min(limit, 40))
    # No floor, or the key of any k free indices, as a stable best found
    # before the job would set it.
    floor = None
    if data.draw(st.booleans(), label="floor"):
        chosen = data.draw(st.sets(st.sampled_from(range(free_count)), min_size=k,
                                   max_size=k) if k else st.just(set()))
        floor = tuple(sorted(chosen, reverse=True))
    with patch.object(search, "_ROW_BITS", bits), patch.object(search, "_BLOCK", size):
        expected, passed = reference_scan(
            search._Space(N, d, N + 1 + k), job, sorted_sequence_filter(N),
            integer_key(floor),
        )
        got = scan_recorded(search._Space(N, d, N + 1 + k), job, floor)
        assert got == (expected, passed)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_tree_matches_the_walk_on_whole_partitions(data):
    N = data.draw(st.integers(1, 4), label="N")
    d = data.draw(st.integers(2, 4), label="d")
    free_count = len(search._free_monomials(N, d))
    square = free_count ** 2
    # The default keeps a lane for every permutation, so whole partitions
    # take the tree; blocks of 1, 2 or 32 lanes put the later blocks in
    # every tree step wherever the permutations outnumber them, and blocks
    # of 120 hold all those of N <= 4 in block 0.  F^2 and 3F^2 bits keep 2
    # or 4 lanes, and spaces with more permutations walk.
    bits = data.draw(st.sampled_from([search._ROW_BITS, square, 3 * square]))
    size = data.draw(st.sampled_from([1, 2, 32, search._BLOCK]), label="block size")
    k = data.draw(st.sampled_from(
        [k for k in range(1, free_count + 1) if comb(free_count, k) <= 20_000]
    ), label="k")
    jobs = [
        (p, 0, comb(free_count - 1 - p, k - 1))
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


def test_partition_below_the_tree_walks():
    # Searches hand a space ascending partitions, so none asks for a whole
    # partition below the one the tree was built for; such a job walks,
    # here under the floor that the later partition's stable best sets.
    N, d, n = 3, 3, 12
    free_count, k = len(search._free_monomials(N, d)), n - (N + 1)
    later, first = ((p, 0, comb(free_count - 1 - p, k - 1)) for p in (2, 0))
    space = search._Space(N, d, n)
    floor = space.floor(space.scan(later, None)[2])
    assert floor is not None
    assert space.tree_from == 2 and space.held is not None
    assert space.held_sets(first) is None
    fresh = search._Space(N, d, n)
    got = scan_recorded(space, first, floor)
    assert fresh.held_sets(first) is not None
    assert got == scan_recorded(fresh, first, floor)
    reference = reference_scan(
        search._Space(N, d, n), first, lane_filter, integer_key(floor)
    )
    assert got == reference
    assert got[0][:2] == (6435, 226)


def test_tree_path_streams_and_pools_like_the_walk(monkeypatch):
    # Whole partitions of (3, 3, 13) take the orderly tree, and statuses
    # are taken as on the walk.
    expected = statuses_under_the_bound(3, 3, 13)
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
    assert checks == expected
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
    done = subprocess.run(
        [sys.executable, "-c", code], env=CHILD_ENV, capture_output=True, text=True,
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
    # At 600 bits the space keeps 3 lanes and an image table, which the
    # search fills and drops with the space.  Forked workers inherit the
    # patched cap and fill their own tables.
    tables = []

    class Tabled(Recorded):
        def scan(self, job, floor):
            found = super().scan(job, floor)
            tables.append(weakref.ref(self.table))
            return found

    monkeypatch.setattr(search, "_Space", Tabled)
    monkeypatch.setattr(search, "_ROW_BITS", 600)
    tabled = []
    assert exhaustive_search(3, 3, 14, progress=tabled.append) == serial
    assert tabled == records
    assert len(built) == 2 and len(tables) == 7
    gc.collect()
    assert built[1]() is None and tables[0]() is None
    pooled.clear()
    assert exhaustive_search(3, 3, 14, progress=pooled.append, jobs=2) == serial
    assert pooled == records
    assert len(built) == 2


def test_n_up_to_4_takes_one_block_and_never_asks_passes_rest(monkeypatch):
    # Every permutation of N <= 4 fits one block of lanes where the lanes
    # cover them, so block 0 decides the filter alone: no search of the
    # benchmark census asks passes_rest, and an N = 5 search, whose 720
    # lanes take 6 blocks, still does.
    for N, d in ((3, 3), (4, 2), (4, 3), (4, 5)):
        space = search._Space(N, d, N + 2)
        assert space.block_count == 1 and space.lanes == space.perm_count
    asked = []

    class Counted(search._Space):
        def passes_rest(self, chosen):
            asked.append(chosen)
            return super().passes_rest(chosen)

    monkeypatch.setattr(search, "_Space", Counted)
    for triple in [(3, 3, n) for n in range(12, 20)] + [(4, 2, n) for n in range(9, 15)]:
        exhaustive_search(*triple)
    assert asked == []
    assert search._Space(5, 2, 9).block_count == 6
    exhaustive_search(5, 2, 9)
    assert asked


@pytest.mark.parametrize("triple", [(3, 3, 14), (3, 3, 17), (4, 2, 10), (4, 2, 12)])
def test_rows_past_the_cell_cap_give_identical_searches(monkeypatch, triple):
    def run():
        records = []
        report = exhaustive_search(*triple, progress=records.append)
        return json.dumps([report.to_json_dict(), records])

    kept = run()
    # With 600 bits the N = 3 spaces (16 free monomials) keep 3 lanes and
    # take the other 21 permutations from the image table (336 entries),
    # and the N = 4 spaces (10 free monomials) keep 7 lanes and recompute
    # the other 113 (1,130 entries would pass the cap) for each family that
    # reaches them.  With 300 bits the N = 3 spaces keep 2 lanes and
    # recompute the other 22 (352 entries), and the N = 4 spaces keep 4.
    for bits in (600, 300):
        monkeypatch.setattr(search, "_ROW_BITS", bits)
        assert run() == kept


# Each space at caps that take every route of the filter past block 0:
# (cap, lanes kept, permutations in the image table).  A cap of 0 keeps no
# lane and no table, so every permutation but the identity is recomputed.
# (2, 6, n) has F = 25: 300 bits keep no lane and a table of the other 5
# permutations, 700 bits 2 lanes and a table of 4.  (3, 3, n) has F = 16,
# (4, 2, n) F = 10, and no cap gives them a table without lanes.
ROUTES = {
    (2, 6, 7): [(0, 0, 0), (300, 0, 5), (700, 2, 4)],
    (2, 6, 8): [(0, 0, 0), (300, 0, 5), (700, 2, 4)],
    (3, 3, 8): [(0, 0, 0), (300, 2, 0), (600, 3, 21)],
    (4, 2, 9): [(0, 0, 0), (600, 7, 0), (1100, 12, 108)],
}


@pytest.mark.parametrize("triple", list(ROUTES), ids=str)
def test_every_filter_route_gives_identical_searches(monkeypatch, triple):
    def run():
        records = []
        report = exhaustive_search(*triple, progress=records.append)
        return json.dumps([report.to_json_dict(), records])

    kept = run()
    built = []

    class Recorded(search._Space):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(search, "_Space", Recorded)
    for bits, lanes, height in ROUTES[triple]:
        monkeypatch.setattr(search, "_ROW_BITS", bits)
        assert run() == kept
        space = built.pop()
        assert (space.lanes, space.height) == (lanes, height)
        # Where the table covers every permutation past the lanes, whole
        # partitions take the orderly tree; where it misses one, they walk.
        assert (space.held is not None) == (height > 0)


def test_the_image_table_is_capped_and_filled_on_first_use():
    # 9 2 11 would need 3,626,728 permutations past its 2,072 lanes times
    # 45 free monomials, past the cap; 7 2 12 keeps 34,970 times 28.
    # Neither fills a column before a family asks.
    wide, narrow = search._Space(9, 2, 11), search._Space(7, 2, 12)
    assert wide.lanes < wide.perm_count and wide.height == 0
    assert narrow.height == narrow.perm_count - narrow.lanes == 34_970
    assert wide.table is None and narrow.table is None
    # 4 14 7 keeps no lane for its 3,055 free monomials, and a table of the
    # other 119 permutations: a budget-1 scan fills the columns of its
    # family's k = 2 chosen monomials at most.
    space = search._Space(4, 14, 7)
    assert (space.lanes, space.height) == (0, 119)
    space.scan((0, 0, 1), None)
    assert len(space.table) == 119 * 3055
    assert 0 < sum(space.filled) <= space.k


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
    # With GRID_LIMIT below the box d^(N+1), the space holds no shared
    # masks, and each status goes through the family's own table on the
    # closed-cell scan.
    past_limit = data.draw(st.booleans(), label="past the grid limit")
    limit = d ** (N + 1) - 1 if past_limit else criterion.GRID_LIMIT
    with patch.object(criterion, "GRID_LIMIT", limit):
        space = search._Space(N, d, n)
        assert (space.ge is None) == past_limit
        rank = space.status(chosen)
    family = MonomialFamily.of(space.pure_exps + [free[c] for c in chosen])
    expected = check_efficient(family).status.value
    ranks = {Stability.UNSTABLE.value: 0, Stability.SEMISTABLE_ONLY.value: 1,
             Stability.STABLE.value: 2}
    assert rank == ranks[expected]


@pytest.mark.parametrize("triple", [(3, 3, 14), (4, 2, 10)])
def test_searches_past_the_grid_limit_check_each_family(monkeypatch, triple):
    def run():
        records = []
        report = exhaustive_search(*triple, progress=records.append)
        return json.dumps([report.to_json_dict(), records])

    masks = run()
    expected = statuses_under_the_bound(*triple)
    scans, checks = [], []
    closed_cells = criterion._closed_cells

    def counting(*args):
        scans.append(args)
        return closed_cells(*args)

    monkeypatch.setattr(criterion, "_closed_cells", counting)
    monkeypatch.setattr(search, "check_efficient", checks.append)
    assert run() == masks
    assert scans == []
    # A box of d^(N+1) = 81 or 32 cells past the limit: every representative
    # the bound lets through takes one closed-cell scan of its own table,
    # with no family object and no check_efficient call, and nothing
    # changes.
    N, d, _ = triple
    monkeypatch.setattr(criterion, "GRID_LIMIT", d ** (N + 1) - 1)
    assert run() == masks
    assert len(scans) == len(expected)
    assert checks == []


def test_the_bound_skips_statuses_that_cannot_win(monkeypatch):
    # Once the search's best is stable, a representative of smaller key
    # M(C), in its partition or a later one, takes no status, and
    # orbits_examined still counts it: 25 statuses for 584 representatives,
    # and past the limit 20 closed-cell scans for 373.
    statuses = []
    status = search._Space.status

    def counting(space, chosen):
        statuses.append(chosen)
        return status(space, chosen)

    monkeypatch.setattr(search._Space, "status", counting)
    assert exhaustive_search(3, 3, 12).orbits_examined == 584
    assert len(statuses) == 25
    scans = []
    closed_cells = criterion._closed_cells

    def counting_scans(*args):
        scans.append(args)
        return closed_cells(*args)

    monkeypatch.setattr(criterion, "_closed_cells", counting_scans)
    monkeypatch.setattr(criterion, "GRID_LIMIT", 80)
    assert exhaustive_search(3, 3, 14).orbits_examined == 373
    assert len(scans) == 20


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_the_floor_reports_the_best_of_every_status(data):
    # Any (N <= 3, d <= 4, n), cut at a random budget, and resumed from a
    # token at a random earlier budget where it is cut there: the search
    # reports the best that a plain reference finds, which takes every
    # family in lexicographic order, keeps the representatives by the
    # definition and asks ``check_efficient`` for the status of each.
    N = data.draw(st.sampled_from([1, 2, 3]), label="N")
    d = data.draw(st.sampled_from([1, 2, 3, 4]), label="d")
    n = data.draw(st.sampled_from(range(2, comb(N + d, N) + 1)), label="n")
    budget = data.draw(st.sampled_from(range(1, 1501)), label="budget")
    first = data.draw(st.sampled_from(range(1, budget + 1)), label="first budget")
    report = exhaustive_search(N, d, n, first)
    if not report.exhausted and first < budget:
        report = exhaustive_search(N, d, n, budget, resume_token=report.resume_token)
    free = search._free_monomials(N, d)
    pure = [tuple(d if i == j else 0 for i in range(N + 1)) for j in range(N + 1)]
    perms = list(permutations(range(N + 1)))
    ranks = [Stability.UNSTABLE, Stability.SEMISTABLE_ONLY, Stability.STABLE]
    families = orbits = 0
    best = (0, None)
    k = n - (N + 1)
    candidates = combinations(range(len(free)), k) if k >= 0 else ()
    for chosen in islice(candidates, budget):
        families += 1
        exps = tuple(sorted(pure + [free[c] for c in chosen]))
        if not sorted_sequence_is_minimal(exps, perms):
            continue
        orbits += 1
        rank = ranks.index(check_efficient(MonomialFamily.of(exps)).status)
        if rank > best[0] or (rank and rank == best[0] and exps < best[1]):
            best = (rank, exps)
    assert (report.families_examined, report.orbits_examined) == (families, orbits)
    assert report.best_status == (ranks[best[0]].value if best[0] else NONE_SEMISTABLE)
    expected = None if best[1] is None else MonomialFamily.of(best[1])
    assert report.best_family == expected


@pytest.mark.parametrize("past_limit", [False, True], ids=["masks", "past-limit"])
def test_serial_search_builds_only_the_best_family(monkeypatch, past_limit):
    if past_limit:
        # The box of 3^4 cells one past the limit: no shared masks.
        monkeypatch.setattr(criterion, "GRID_LIMIT", 3**4 - 1)
    built = []
    init = MonomialFamily.__init__

    def counting(family, *args, **kwargs):
        init(family, *args, **kwargs)
        built.append(family)

    monkeypatch.setattr(MonomialFamily, "__init__", counting)
    report = exhaustive_search(3, 3, 12)
    assert report.orbits_examined > 100
    assert built == [report.best_family]
