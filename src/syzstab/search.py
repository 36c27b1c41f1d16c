"""Exhaustive search over m-primary monomial families of fixed degree,
asking whether any of them has a (semi)stable syzygy bundle.

A family of degree-d monomials generates an m-primary ideal exactly when
it contains every pure power X_i^d, so the search space is "pure powers
plus an n-(N+1)-subset of the remaining degree-d monomials".  The free
monomials are indexed in canonical order and the subset space is
partitioned by the smallest chosen index, which gives deterministic
enumeration, cheap parallelism (partitions share only the space of free
monomials, filter lanes, status masks and orderly tree, built once by each
search or pool worker), and a natural checkpoint token (partition, offset
within partition).

Families related by a permutation of the variables have the same verdict,
so only orbit representatives are checked: a family is checked iff its
ascending-sorted exponent sequence is lexicographically minimal among all
(N+1)! axis permutations.  Every family in a scanned range counts towards
``families_examined`` and the budget by the partition plan's arithmetic,
since a whole partition under the orderly tree (below) tests few of its
families on their own; ``orbits_examined`` counts checks.

The test runs on the chosen free indices C alone.  Two sorted sequences of
distinct elements compare by the smallest element of their symmetric
difference, and a permutation maps the pure powers to themselves, so they
never decide it; free monomials are indexed in descending order, so a
permutation pi gives a smaller sequence exactly when
M(pi(C)) > M(C), where M(C) = sum of 2^c over c in C.

The filter decides this for many permutations at once.  Each kept
permutation pi owns a lane of F+1 bits, F the number of free monomials,
and ``packed[c]`` holds ``1 << index(pi(free[c]))`` in every lane, so the
sum of ``packed[c]`` over c in C holds M(pi(C)) in each lane, without
carries, since pi permutes the free indices.  Adding the top bit of each
lane, the guard, and subtracting (M(C) + 1) from every lane leaves each
lane in [0, 2^(F+1) - 2], so no borrow crosses lanes, and a guard bit
stays set exactly where M(pi(C)) > M(C).  A block of lanes keeps
``diff[c] = packed[c] - (ones << c)`` instead, ``ones`` holding 1 in
every lane, so that ``bias + sum of diff[c] over c in C``, with ``bias``
the guards minus ``ones``, is that same integer, and no family needs
M(C) to be tested.

A partition's families are walked depth-first in lexicographic order,
without recursion, from an offset unranked in the combinatorial number
system.  The walk carries block 0's sum ``D`` over a prefix of chosen
indices, so each family ``prefix + (c,)`` costs one addition and one AND,
``(D + diff[c]) & guards``.  When the prefix advances, the positions from
the advanced one onwards hold consecutive indices, whose diffs sum to a
difference of two prefix sums of ``diff``; each run of consecutive
positions keeps one offset, so an advance costs O(1) big-int operations
however long the prefix.  Only families block 0 lets through are built as
tuples and go on to the later blocks and to the permutations past the
kept lanes, which are recomputed at the chosen indices.

Whole partitions take their representatives from an orderly tree instead,
built once per search (once per pool worker) and shared by all of them.
It rests on Read's condition for orderly generation (R. C. Read, "Every
one a winner", Ann. Discrete Math. 2, 1978; B. D. McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998): if C is a representative,
so is C minus its smallest index c0.  Take pi with M(pi(C - c0)) >
M(C - c0), and h the top bit where the two differ; counting the elements
at or above h puts h above c0, so wherever pi(c0) lies, pi(C) is larger
than C at the top bit where they differ.  So partition p's representatives
are the sets (p, *T), T a representative of k - 1 indices all above p, and
every suffix of T is a representative too.  The tree grows those sets from
the empty set, with carried sum ``bias``, a level at a time: a set S of a
level, with carried sum D, gets the child (c, *S) for c below min(S), and
high enough that k - 1 indices and a partition still fit, when
``(D + diff[c]) & guards`` is zero and the later blocks let it through.
The sets of a sorted level that lie above c are a suffix of it (bisect on
the smallest index), and (c, *S) sorts as S does, so taking c in ascending
order keeps every level sorted.  The last level, the held sets of k - 1
indices, stays with the search, and partition p tests only the families
(p, *T) of its suffix above p, at one addition and one AND each, in the
walk's lexicographic order: the status step sees the same representatives
in the same order.  A partition cut by the budget or a resume offset
walks, so offsets and tokens keep their meaning, and so does every
partition of a space whose lanes miss a permutation, where each tree node
would pay the recompute.  The tree starts at the first whole partition
and is used only while it is the smaller: its nodes, at most
C(span, k - 1) for the span of indices from that partition on, may
outnumber the C(span, k) families they serve by at most a factor of
min((N+1)!, 24) / 6.  Near-full families have long sets that prune
little, so measured there, the tree loses beyond about 4 times from N = 3
on, and is worth little at N <= 2, whose orbits hold at most 6 sets.  A
level of more than ``_HELD`` sets abandons the tree, and the search walks.

A representative's status comes from bit masks, with no family object.
Every family of a search holds the pure powers, so its lattice box (see
``criterion``) is d^(N+1) cells, d on every axis.  Where that fits
``criterion.GRID_LIMIT``, read as the search starts, the space holds
``ge[j][a]``: bit c set when free monomial c has an exponent of x_j of at
least a, bit F+j for X_j^d, for 0 <= a <= d-1.  A family with chosen bits
S (its free bits and the N+1 pure bits) walks ``criterion._lattice_walk``
from S over those masks, which is the walk over ``ge[j][a] & S`` that
``check_efficient`` would take on its own columns, with ``_scan_band``
computed once per search.  Any candidate with a negative margin
(d-t)*n + t - d*k makes the family unstable, else any candidate at all
semistable-only, else it is stable.  Within the limit only the reported
best family, and a resume token's, is built as a ``MonomialFamily``.  Past
it, where ``check_efficient`` would take the gcd closure, each
representative still goes through ``check_efficient``, on a family built
from one ``Monomial`` per pure power and per checked free index, each made
once per search.

``ProcessPoolExecutor`` is imported only when a search runs on more than
one worker, so a serial search never loads ``multiprocessing``.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate, islice, permutations
from math import comb, factorial, inf
from operator import add, itemgetter
from typing import Callable, Iterator, Optional

from . import criterion
from .criterion import Stability, _lattice_walk, _scan_band, check_efficient
from .errors import Error, UnsupportedRangeError
from .monomial import Monomial, MonomialFamily, exponent_vectors_of_degree

DEFAULT_BUDGET = 10**7

#: Largest supported N.  The orbit filter tests a representative against
#: each of the (N+1)! permutations of the variables, 3,628,800 at N = 9.
MAX_SEARCH_N = 9

#: Largest supported number C(N+d, N) of degree-d monomials, all of which
#: are listed before the first family is enumerated.
MAX_SEARCH_MONOMIALS = 10**6

#: best_status value when no examined family is even semistable.
NONE_SEMISTABLE = "none-semistable"

#: Status value of each rank; a result is a (rank, sorted exponents) pair,
#: with exponents None at rank 0.
_RANKED = (None, Stability.SEMISTABLE_ONLY.value, Stability.STABLE.value)

#: Most bits of orbit-filter lanes that one search keeps, counted as F^2
#: per kept permutation of F free monomials: the lane of permutation pi
#: holds M(pi(C)) in F bits and a guard bit above them, in each packed
#: entry of a block.  Permutations past them are recomputed for each
#: family that the kept lanes let through, at its chosen indices only.
_ROW_BITS = 1 << 22

#: Lanes per block of the orbit filter.  A block is built the first time a
#: family reaches it, so a family rejected by an early block never pays for
#: the later ones.
_BLOCK = 32

#: Most sets that one level of the orderly tree may hold, about 300 bytes
#: each at N = 4 (two levels are held while the next one grows); past it
#: the search walks every partition instead.
_HELD = 1 << 16

#: Resume token fields, in the order they are written.
_TOKEN_KEYS = (
    "schema_version", "N", "d", "n", "partition", "offset",
    "families_examined", "orbits_examined", "best_status", "best_family",
)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a search run, possibly truncated by the family budget."""

    N: int
    n: int
    d: int
    families_examined: int
    orbits_examined: int
    best_status: str
    best_family: Optional[MonomialFamily]
    exhausted: bool
    resume_token: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "n": self.n,
            "d": self.d,
            "families_examined": self.families_examined,
            "orbits_examined": self.orbits_examined,
            "best_status": self.best_status,
            "best_family": (
                None if self.best_family is None else self.best_family.to_json_dict()
            ),
            "exhausted": self.exhausted,
            "resume_token": self.resume_token,
        }


def _free_monomials(N: int, d: int) -> list[tuple[int, ...]]:
    """Degree-d exponent vectors that are not pure powers, canonical order."""
    return [v for v in exponent_vectors_of_degree(N + 1, d) if d not in v]


class _Space:
    """The search space of one (N, d): the free monomials and their index,
    the pure powers, the orbit filter's blocks of permutation lanes, the
    orderly tree's held sets and, when given n, the status masks of
    n-member families.  One is built for each search, or for each worker
    of a pooled one, and none outlives it.  Lanes are built on first use,
    so a family rejected by its first block builds no other, and the tree
    on the first whole partition."""

    def __init__(self, N: int, d: int, n: Optional[int] = None):
        self.N = N
        self.free = _free_monomials(N, d)
        self.index = {v: i for i, v in enumerate(self.free)}
        self.pure_exps = [
            tuple(d if i == j else 0 for i in range(N + 1)) for j in range(N + 1)
        ]
        free_count = len(self.free)
        keep = _ROW_BITS // max(free_count, 1) ** 2
        self.perm_count = factorial(N + 1)
        # Lane 0 is the identity's.  It is built only with a kept
        # permutation beside it, since every lane costs about F^2 bits.
        self.lanes = min(keep + 1, self.perm_count) if keep else 0
        self.block_size = _BLOCK
        self.block_count = -(-self.lanes // self.block_size)
        self.width = free_count + 1
        self.blocks: list[tuple[list[int], int, int]] = []
        # Each free monomial's images under the permutations, in the order
        # of permutations(range(N + 1)); each block takes the next ones.
        self._images = [permutations(e) for e in self.free] if self.lanes else []
        self.sums: list[int] = []
        # The orderly tree's (k, first partition) and held sets, decided on
        # the first whole partition.
        self.tree_key: Optional[tuple[int, int]] = None
        self.held: Optional[list] = None
        self.n, self.d = n, d
        self.ge: Optional[list[list[int]]] = None
        # Without status masks, check_efficient's families are built from a
        # Monomial per pure power and per checked free index, made once.
        self.pure = tuple(map(Monomial, self.pure_exps)) if n is None else ()
        self.monomials: dict[int, Monomial] = {}
        if n is not None:
            self.band = _scan_band(n, d, N + 1)
            self.pure_bits = ((1 << (N + 1)) - 1) << free_count
            # ge[j][a]: free index c, or F + i for X_i^d, has an exponent of
            # x_j of at least a.  Only X_j^d reaches d, and dropping that
            # bucket after the suffix OR clips it at d - 1, as the lattice
            # box clips.
            bits = [1 << c for c in range(free_count + N + 1)]
            self.ge = []
            for column in zip(*self.free, *self.pure_exps):
                masks = [0] * (d + 1)
                for bit, e in zip(bits, column):
                    masks[e] |= bit
                for a in range(d - 1, -1, -1):
                    masks[a] |= masks[a + 1]
                self.ge.append(masks[:d])

    def grow(self) -> None:
        """Append the next block: ``(diffs, guards, bias)``, where
        ``diffs[c]`` is ``packed[c] - (ones << c)``, ``packed[c]`` holding
        ``1 << index(pi(free[c]))`` in the lane of each of the block's
        permutations pi, ``ones`` a 1 in each lane, ``guards`` the top bit
        of each lane, and ``bias`` is ``guards - ones``.  Block 0 also
        fills ``sums``, the prefix sums of its diffs."""
        count = min(self.block_size, self.lanes - len(self.blocks) * self.block_size)
        shifts = range(0, count * self.width, self.width)
        ones = sum(map((1).__lshift__, shifts))
        image_index = self.index.__getitem__
        diffs = [
            sum(map((1).__lshift__, map(add, map(image_index, islice(images, count)), shifts)))
            - (ones << c)
            for c, images in enumerate(self._images)
        ]
        guards = ones << (self.width - 1)
        self.blocks.append((diffs, guards, guards - ones))
        if len(self.blocks) == 1:
            self.sums = list(accumulate(diffs, initial=0))

    def first_block(self) -> tuple[list[int], int, int, list[int]]:
        """Block 0's ``(diffs, guards, bias)`` and ``sums``, built on first
        use.  With no lanes kept they are zeros, so every family passes to
        the recompute."""
        if not self.lanes:
            zeros = bytes(len(self.free) + 1)
            return zeros, 0, 0, zeros
        if not self.blocks:
            self.grow()
        return (*self.blocks[0], self.sums)

    def passes_rest(self, chosen: tuple[int, ...]) -> bool:
        """True iff the chosen free indices C, which block 0 lets through,
        pass every later block and every permutation past the lanes, which
        is recomputed at the chosen indices."""
        blocks = self.blocks
        for b in range(1, self.block_count):
            if b == len(blocks):
                self.grow()
            diffs, guards, bias = blocks[b]
            if sum(map(diffs.__getitem__, chosen), bias) & guards:
                return False
        if self.lanes == self.perm_count:
            return True
        mask = sum(map((1).__lshift__, chosen))
        free, index = self.free, self.index
        for perm in islice(permutations(range(self.N + 1)), max(self.lanes, 1), None):
            if sum(1 << index[tuple(free[c][i] for i in perm)] for c in chosen) > mask:
                return False
        return True

    def status(self, chosen: tuple[int, ...]) -> int:
        """Rank in ``_RANKED`` (0 for unstable) of the family of the pure
        powers and the chosen free indices.  With status masks, the lattice
        walk runs over ``ge`` from the family's bits, and the candidates'
        margins (d - t) * n + t - d * k decide; without, ``check_efficient``
        does."""
        if self.ge is None:
            monomials = self.monomials
            for c in chosen:
                if c not in monomials:
                    monomials[c] = Monomial(self.free[c])
            members = self.pure + tuple(map(monomials.__getitem__, chosen))
            status = check_efficient(MonomialFamily(self.N + 1, members)).status.value
            return _RANKED.index(status) if status in _RANKED else 0
        n, d = self.n, self.d
        bits = self.pure_bits
        for c in chosen:
            bits |= 1 << c
        out: list[tuple[int, int, int]] = []
        _lattice_walk(self.ge, self.N, bits, 0, n, d, *self.band, out)
        rank = 2
        for num, den, _ in out:
            # num = t - d*k and den = k - 1, so this is minus the margin.
            if num * (n - 1) + n * d * den > 0:
                return 0
            rank = 1
        return rank

    def walk(self, job: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Yield, in order, the orbit representatives among the families
        of ``job = (k, partition, skip, limit)``: from offset ``skip`` of
        the partition, in lexicographic order, ``limit`` families of k
        chosen free indices, the first of them ``partition``.  The walk
        is the one the module docstring describes."""
        k, partition, skip, limit = job
        if k == 0:
            yield ()
            return
        free_count = len(self.free)
        diffs, guards, bias, sums = self.first_block()
        passes_rest = self.passes_rest
        first = (partition, *_unrank(skip, k - 1, partition + 1, free_count))
        prefix, low = list(first[:-1]), first[-1]
        # Runs of the prefix: positions from starts[r] on hold consecutive
        # indices, so that offsets[r] + sums[prefix[j]] is the carried sum
        # before position j of run r.  Position 0, the partition, never
        # advances and starts no run.
        starts: list[int] = []
        offsets: list[int] = []
        carried = bias
        for j, c in enumerate(prefix):
            if j == 1 or (j > 1 and prefix[j - 1] + 1 != c):
                starts.append(j)
                offsets.append(carried - sums[c])
            carried += diffs[c]
        last = k - 2  # the prefix's last position
        top = free_count - k  # prefix[j] - j at a position's largest value
        remaining = limit
        while True:
            high = low + remaining
            if high > free_count:
                high = free_count
            remaining -= high - low
            for c in range(low, high):
                if not (carried + diffs[c]) & guards:
                    chosen = (*prefix, c)
                    if passes_rest(chosen):
                        yield chosen
            if not remaining:
                return
            # Advance the rightmost position below its largest value,
            # F - k + j at position j.  A run whose last position holds its
            # largest value holds it at every position, so it is dropped
            # whole.  The positions from e on take the next consecutive
            # indices, one run, whose offset follows from the old one.
            e = last
            while prefix[e] - e == top:
                offsets.pop()
                e = starts.pop() - 1
            c = prefix[e]
            offset = offsets[-1] - diffs[c]
            if starts[-1] == e:
                offsets[-1] = offset
            else:
                starts.append(e)
                offsets.append(offset)
            low = c + k - e
            if e == last:
                prefix[e] = c + 1
            else:
                prefix[e:] = range(c + 1, low)
            carried = offset + sums[low]

    def held_sets(self, job: tuple[int, ...]) -> Optional[list]:
        """The orderly tree's held sets, if ``job`` is a whole partition of
        families of k >= 2 chosen free indices: ``(T, D)`` for every
        representative T of k - 1 indices all above the first partition
        that asked, D its carried block-0 sum, sorted.  Built on the first
        such job, once per space.  None where the job takes the walk: the
        lanes miss a permutation, the tree was abandoned (``_grow_tree``),
        or it was built for another k or a later partition."""
        k, partition, skip, limit = job
        if (
            k < 2 or skip or self.lanes != self.perm_count
            or limit != comb(len(self.free) - 1 - partition, k - 1)
        ):
            return None
        if self.tree_key is None:
            self.tree_key = (k, partition)
            self.held = self._grow_tree(k, partition)
        if self.tree_key[0] != k or partition < self.tree_key[1]:
            return None
        return self.held

    def _grow_tree(self, k: int, partition: int) -> Optional[list]:
        """The sorted level of representatives of k - 1 free indices above
        ``partition``, grown from the empty set a level at a time (module
        docstring).  None if the tree's nodes, at most C(span, k - 1) for
        the span of indices from the partition on, outnumber the
        C(span, k) families it serves by more than min((N+1)!, 24) / 6,
        or if a level passes ``_HELD`` sets."""
        span = len(self.free) - partition
        if 6 * comb(span, k - 1) > min(self.perm_count, 24) * comb(span, k):
            return None
        level = [((), self.first_block()[2])]
        high = len(self.free)
        for size in range(1, k):
            grown: list = []
            # A set of this size still needs k - 1 - size smaller indices
            # above the partition, and c lies below some held set.
            for c in range(partition + k - size, high):
                grown += self.children(level, c)
                if len(grown) > _HELD:
                    return None
            if not grown:
                return grown
            level = grown
            high = level[-1][0][0]
        return level

    def children(self, level: list, c: int) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield ``((c, *S), D + diffs[c])`` for each ``(S, D)`` of a sorted
        level whose set S lies above c and for which (c, *S) is a
        representative, in order: the sets above c are a suffix of the
        level, and (c, *S) sorts as S does."""
        diffs, guards, _ = self.blocks[0]
        passes_rest = self.passes_rest
        step = diffs[c]
        for S, D in islice(level, bisect_right(level, c, key=_smallest), None):
            carried = D + step
            if not carried & guards:
                chosen = (c, *S)
                if passes_rest(chosen):
                    yield chosen, carried

    def scan(self, job: tuple[int, ...]) -> tuple[int, int, tuple]:
        """Enumerate one partition, ``job = (k, partition, skip, limit)``:
        from offset ``skip``, ``limit`` families of k chosen free
        monomials.  A whole partition takes its representatives from the
        orderly tree's held sets where ``held_sets`` gives them, any other
        job from the walk; both yield them in lexicographic order.  Return
        (families, orbits, best (rank, exponents) result).  Among families
        of one rank the best has the smallest sorted exponent sequence,
        that is the largest M(C) (module docstring), so its exponents are
        built once, at the end."""
        held = self.held_sets(job)
        if held is None:
            found = self.walk(job)
        else:
            found = map(itemgetter(0), self.children(held, job[1]))
        status = self.status
        orbits = 0
        best_rank, best_key, best = 0, -1, ()
        for chosen in found:
            orbits += 1
            rank = status(chosen)
            if rank and rank >= best_rank:
                key = sum(1 << c for c in chosen)
                if rank > best_rank or key > best_key:
                    best_rank, best_key, best = rank, key, chosen
        families = job[3]
        if not best_rank:
            return families, orbits, (0, None)
        exps = tuple(sorted(self.pure_exps + [self.free[c] for c in best]))
        return families, orbits, (best_rank, exps)


def _smallest(node: tuple[tuple[int, ...], int]) -> float:
    """A tree node's smallest index, infinite for the empty set."""
    return node[0][0] if node[0] else inf


def _unrank(rank: int, size: int, low: int, end: int) -> list[int]:
    """The size-subset of range(low, end) at position ``rank`` of the
    lexicographic order of ascending tuples, as ``combinations`` lists
    them: in the combinatorial number system, C(end - c - 1, j - 1)
    subsets put c first among the j positions left."""
    chosen = []
    c = low
    for left in range(size, 0, -1):
        while rank >= (count := comb(end - c - 1, left - 1)):
            rank -= count
            c += 1
        chosen.append(c)
        c += 1
    return chosen


def _is_representative(chosen: tuple[int, ...], space: _Space) -> bool:
    """True iff no axis permutation maps the chosen free indices C to a
    larger M(C): with C empty there is nothing to permute.  One sum over
    C tests each block of lanes, as the module docstring explains; this is
    the walk's test, one family at a time."""
    if not chosen:
        return True
    diffs, guards, bias, _ = space.first_block()
    if sum(map(diffs.__getitem__, chosen), bias) & guards:
        return False
    return space.passes_rest(chosen)


#: A pool worker's ``_Space``, built by ``_start_worker`` as the worker
#: starts.  A pool lives for one search, so the space dies with it.
_worker_space: Optional[_Space] = None


def _start_worker(N: int, d: int, n: Optional[int]) -> None:
    global _worker_space
    _worker_space = _Space(N, d, n)


def _scan_in_worker(job: tuple[int, ...]) -> tuple[int, int, tuple]:
    return _worker_space.scan(job)


def _partition(free_count: int, k: int, idx: int) -> tuple[int, int]:
    """(partition, family count) at index idx of the partition plan.
    Partition p holds the subsets whose smallest free index is p, so there
    are ``free_count`` of them; with no free member to choose there is one,
    partition -1, of one family."""
    if k == 0:
        return -1, 1
    return idx, comb(free_count - 1 - idx, k - 1)


def _better(a: tuple, b: tuple) -> tuple:
    """The better of two (rank, exponents) results: the higher rank wins,
    and a tie goes to the smaller sorted exponent sequence, else to ``a``."""
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    return b if b[0] and b[1] < a[1] else a


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _parse_token(
    token: str, N: int, d: int, n: int, free_count: int, part_count: int
) -> tuple[int, int, int, int, tuple]:
    """Validate a resume token against this run's ``part_count`` partitions
    and return (partition, offset, families, orbits, best result)."""
    try:
        state = json.loads(token)
    except (RecursionError, ValueError) as exc:
        raise Error(f"malformed resume token: {exc}") from exc
    if not isinstance(state, dict) or set(state) != set(_TOKEN_KEYS):
        raise Error(f"malformed resume token: expected the keys {list(_TOKEN_KEYS)}")
    if not _is_count(state["schema_version"]) or state["schema_version"] != 1:
        raise Error(
            f"unsupported resume token schema_version {state['schema_version']!r}"
        )
    for key in _TOKEN_KEYS[1:8]:  # N through orbits_examined
        if not _is_count(state[key]):
            raise Error(
                f"malformed resume token: {key} must be a non-negative "
                f"integer, got {state[key]!r}"
            )
    if (state["N"], state["d"], state["n"]) != (N, d, n):
        raise Error(
            f"resume token is for (N={state['N']}, d={state['d']}, "
            f"n={state['n']}), not (N={N}, d={d}, n={n})"
        )
    partition, offset = state["partition"], state["offset"]
    if (
        partition >= part_count
        or offset >= _partition(free_count, n - (N + 1), partition)[1]
    ):
        raise Error(
            f"resume token position (partition {partition}, offset {offset}) "
            f"lies outside the search for (N={N}, d={d}, n={n})"
        )
    status, exps = state["best_status"], state["best_family"]
    if status not in _RANKED:
        raise Error(f"malformed resume token: unknown best_status {status!r}")
    rank = _RANKED.index(status)
    if (exps is None) != (rank == 0):
        raise Error(
            f"malformed resume token: best_family contradicts best_status {status!r}"
        )
    if exps is not None and not (
        isinstance(exps, list) and len(exps) == n
        and all(isinstance(e, list) and len(e) == N + 1
                and all(map(_is_count, e)) and sum(e) == d for e in exps)
    ):
        raise Error(
            f"malformed resume token: best_family must hold {n} exponent "
            f"vectors of degree {d} in {N + 1} variables"
        )
    best = (rank, None if exps is None else tuple(map(tuple, exps)))
    if exps is not None:
        # A degree-d vector holding d is a pure power, as in _free_monomials.
        vectors = best[1]
        ascending = all(a < b for a, b in zip(vectors, vectors[1:]))
        if not ascending or sum(d in v for v in vectors) != N + 1:
            raise Error(
                "malformed resume token: best_family must hold distinct vectors "
                f"in ascending order, among them all {N + 1} pure powers"
            )
        found = check_efficient(MonomialFamily.of(vectors)).status.value
        if found != status:
            raise Error(
                f"resume token claims a {status} best_family, but it is {found}"
            )
    return partition, offset, state["families_examined"], state["orbits_examined"], best


def exhaustive_search(
    N: int,
    d: int,
    n: int,
    budget: int = DEFAULT_BUDGET,
    progress: Optional[Callable[[dict], None]] = None,
    resume_token: Optional[str] = None,
    jobs: Optional[int] = None,
) -> SearchReport:
    """Check every m-primary family of n degree-d monomials in N+1
    variables, up to variable permutation, and report the best stability
    status found.

    ``budget`` caps the number of enumerated families; if it is reached
    the report has ``exhausted=False`` and carries a ``resume_token`` that
    a later call can pass to continue where this one stopped.  ``progress``
    receives one dict as each partition finishes, in partition order.
    ``jobs`` enumerates partitions in parallel, with at most as many worker
    processes as partitions to scan and CPUs; results are merged in
    partition order, so the outcome is independent of scheduling.
    """
    if N < 1:
        raise UnsupportedRangeError(f"need at least 2 variables (N >= 1), got N={N}")
    if d < 1:
        raise UnsupportedRangeError(f"degree must be at least 1, got {d}")
    if n < 2:
        raise UnsupportedRangeError(f"need at least 2 monomials, got n={n}")
    if budget < 1:
        raise UnsupportedRangeError(f"budget must be positive, got {budget}")
    if jobs is not None and jobs < 1:
        raise UnsupportedRangeError(f"jobs must be at least 1, got {jobs}")
    if N > MAX_SEARCH_N:
        raise UnsupportedRangeError(
            f"search supports N <= {MAX_SEARCH_N}, got N={N}: the orbit filter "
            f"tests each representative against all (N+1)! variable permutations"
        )
    monomials = comb(N + d, N)
    if monomials > MAX_SEARCH_MONOMIALS:
        raise UnsupportedRangeError(
            f"search supports at most {MAX_SEARCH_MONOMIALS} monomials of "
            f"degree d, got C(N+d, N) = {monomials} for N={N}, d={d}"
        )

    # Every monomial of degree d but the N+1 pure powers is free; k of them
    # are chosen.
    free_count, k = monomials - (N + 1), n - (N + 1)
    part_count = free_count if k > 0 else int(k == 0)
    families, orbits, best = 0, 0, (0, None)
    start_partition, start_offset = 0, 0
    if resume_token is not None:
        start_partition, start_offset, families, orbits, best = _parse_token(
            resume_token, N, d, n, free_count, part_count
        )

    # One job per partition, with enumeration caps reproducing the serial
    # budget cut.
    plan: list[tuple[int, ...]] = []
    remaining = budget - families
    truncated_at: Optional[tuple[int, int]] = None
    for idx in range(start_partition, part_count):
        p, size = _partition(free_count, k, idx)
        skip = start_offset if idx == start_partition else 0
        if size <= skip:
            continue
        if remaining <= 0:
            truncated_at = (idx, skip)
            break
        cap = min(size - skip, remaining)
        plan.append((k, p, skip, cap))
        remaining -= cap
        if cap < size - skip:
            truncated_at = (idx, skip + cap)
            break

    # Every family has the lattice box d^(N+1), its pure powers putting d
    # on every axis: where check_efficient would walk it, the status masks
    # do.
    space_args = (N, d, n if d ** (N + 1) <= criterion.GRID_LIMIT else None)
    workers = min(jobs or 1, len(plan), os.cpu_count() or 1)
    pool = nullcontext()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            workers, initializer=_start_worker, initargs=space_args
        )
    with pool as executor:
        if executor:
            results = executor.map(_scan_in_worker, plan)
        else:
            results = map(_Space(*space_args).scan, plan) if plan else ()
        for job, (fams, orbs, found) in zip(plan, results):
            families += fams
            orbits += orbs
            best = _better(best, found)
            if progress is not None:
                progress(
                    {
                        "event": "partition",
                        "partition": job[1],
                        "families": fams,
                        "orbits": orbs,
                        "families_examined": families,
                        "orbits_examined": orbits,
                        "best_status": _RANKED[best[0]] or NONE_SEMISTABLE,
                    }
                )

    token = None
    if truncated_at is not None:
        status, exps = _RANKED[best[0]], best[1]
        fields = (1, N, d, n, *truncated_at, families, orbits, status, exps)
        token = json.dumps(dict(zip(_TOKEN_KEYS, fields)), separators=(",", ":"))
    return SearchReport(
        N=N, n=n, d=d, families_examined=families, orbits_examined=orbits,
        best_status=_RANKED[best[0]] or NONE_SEMISTABLE,
        best_family=None if best[1] is None else MonomialFamily.of(best[1]),
        exhausted=truncated_at is None, resume_token=token,
    )
