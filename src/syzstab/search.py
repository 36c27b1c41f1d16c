"""Exhaustive search over m-primary monomial families of fixed degree,
asking whether any of them has a (semi)stable syzygy bundle.

A family of degree-d monomials generates an m-primary ideal exactly when
it contains every pure power X_i^d, so the search space is "pure powers
plus an n-(N+1)-subset of the remaining degree-d monomials".  The free
monomials are indexed in canonical order and the subset space is
partitioned by the smallest chosen index, which gives deterministic
enumeration, cheap parallelism (partitions share only the space of free
monomials, filter lanes and image table, status masks and orderly tree,
built once by each search or pool worker), and a natural checkpoint token
(partition, offset within partition).

Families related by a permutation of the variables have the same verdict,
so only orbit representatives are checked: a family is checked iff its
ascending-sorted exponent sequence is lexicographically minimal among all
(N+1)! axis permutations.  Every family in a scanned range counts towards
``families_examined`` and the budget by the partition plan's arithmetic,
since a whole partition under the orderly tree (below) tests few of its
families on their own; ``orbits_examined`` counts representatives, each
once, whether or not it takes a status (below).

The test runs on the chosen free indices C alone.  Two sorted sequences of
distinct elements compare by the smallest element of their symmetric
difference, and a permutation maps the pure powers to themselves, so they
never decide it; free monomials are indexed in descending order, so a
permutation pi gives a smaller sequence exactly when
M(pi(C)) > M(C), where M(C) = sum of 2^c over c in C.

The filter decides this by two routes: lanes, then image columns.
Lanes decide it for many permutations at once.  Each kept permutation pi
owns a lane of F+1 bits, F the number of free monomials, and
``packed[c]`` holds ``1 << index(pi(free[c]))`` in every lane, so the
sum of ``packed[c]`` over c in C holds M(pi(C)) in each lane, without
carries, since pi permutes the free indices.  Adding the top bit of each
lane, the guard, and subtracting (M(C) + 1) from every lane leaves each
lane in [0, 2^(F+1) - 2], so no borrow crosses lanes, and a guard bit
stays set exactly where M(pi(C)) > M(C).  A block of lanes keeps
``diff[c] = packed[c] - (ones << c)`` instead, ``ones`` holding 1 in
every lane, so that ``bias + sum of diff[c] over c in C``, with ``bias``
the guards minus ``ones``, is that same integer, and no family needs
M(C) to be tested.  This is SIMD within a register (L. Lamport, "Multiple
byte processing with full-word instructions", CACM 18(8), 1975).  Each
``packed[c]`` is built in one pass, one ``int(s, 2)`` of a string s that
joins, a lane at a time from the top lane down, the image's unit: F+1
binary digits with a single 1 at its index.  A block holds 120 = 5!
lanes, so every permutation of N <= 4 fits one block wherever the lanes
cover them, and block 0 then decides the filter alone.

The permutations past the kept lanes take image columns: for each chosen
free monomial c, the image index of c under each of them, in the order of
``permutations``.  A family C passes a permutation when its chosen images,
sorted descending, do not exceed C sorted descending, which is
M(pi(C)) <= M(C).  Where those permutations number at most
``_ROW_BITS`` / F, the image table keeps each column, filled the first
time a family chooses c; past that cap the columns are streamed for each
family that reaches them, and nothing is kept.

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
kept lanes.

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
``(D + diff[c]) & guards`` is zero and the later blocks and the table let
it through.
The sets of a sorted level that lie above c are a suffix of it (bisect on
the smallest index), and (c, *S) sorts as S does, so taking c in ascending
order keeps every level sorted.  The last level, the held sets of k - 1
indices, stays with the search, and partition p tests only the families
(p, *T) of its suffix above p, at one addition and one AND each, in the
walk's lexicographic order: the status step sees the same representatives
in the same order.  A partition cut by the budget or a resume offset
walks, so offsets and tokens keep their meaning, and so does every
partition of a space whose lanes and table miss a permutation, where each
tree node would stream its image columns.  The tree starts at the first
whole partition and is used only while it is the smaller: its nodes, at most
C(span, k - 1) for the span of indices from that partition on, may
outnumber the C(span, k) families they serve by at most a factor of
min((N+1)!, 24) / 6.  Near-full families have long sets that prune
little, so measured there, the tree loses beyond about 4 times from N = 3
on, and is worth little at N <= 2, whose orbits hold at most 6 sets.  A
level of more than ``_HELD`` sets abandons the tree, and the search walks.

A representative's status comes from integer tuples and bit masks, with
no family object.  Every family of a search holds the pure powers, so its
lattice box (see ``criterion``) is d^(N+1) cells, d on every axis.  Where
that fits ``criterion.GRID_LIMIT``, read as the search starts, the space
holds ``ge``, the threshold table (``criterion._thresholds``) of every
free monomial and pure power, built once per search: bit c for free
monomial c, bit F+j for X_j^d, and for each x_j the values 0..d, each
with the mask of the monomials whose exponent of x_j is at least it.  A
family with chosen bits S (its free bits and the N+1 pure bits) walks
``criterion._lattice_walk`` from S over that table, with ``_scan_band``
computed once per search.  That walk holds the cells ``check_efficient``
walks on the family's own table, and cells at exponents that no chosen
monomial has; such a cell has the multiples of the cell at the family's
next exponent, whose degree is higher and margin lower, or none, so it
decides no status that the family's own cells do not.  Past the limit,
each representative's own threshold table, of its pure powers and chosen
free monomials, goes to ``criterion._equal_candidates``, which takes the
closed-cell scan there as ``check_efficient`` would.  Either way, any
candidate with a negative margin (d-t)*n + t - d*k makes the family
unstable, else any candidate at all semistable-only, else it is stable.
The status is bounded by the best found so far, as in branch and bound
(A. H. Land and A. G. Doig, Econometrica 28, 1960): once the best is
stable, a representative whose M(C) is not above the best's takes no
status, since no lower rank displaces it and a stable family of smaller
M(C), whose sorted exponent sequence is larger, loses the tie.  Every
family of a search holds k chosen indices, and for sets of one size,
comparing the indices as descending tuples orders them as M(C) does
(colex order), so the key is ``chosen[::-1]``, not the integer.  The
bound is one floor per search: a serial search scans each partition under
the key of the best merged from those before it, so a partition reports
only a stable family above that floor, or (0, None), and the merged best
is the same.  A resumed run starts from the floor of its token's best,
and every pool job from the floor known when the pool starts, the
token's or none, so a pooled or resumed search reports what the serial
one does.  Only the reported best family, and a resume token's, is built
as a ``MonomialFamily``.

``ProcessPoolExecutor`` is imported only when a search runs on more than
one worker, so a serial search never loads ``multiprocessing``.
"""

from __future__ import annotations

import json
import os
from array import array
from bisect import bisect_left
from contextlib import nullcontext
from itertools import accumulate, islice, permutations, repeat
from math import comb, factorial
from operator import itemgetter
from typing import Callable, Iterator, Optional

from . import criterion
from ._value import Value
from .criterion import (
    Stability,
    _equal_candidates,
    _lattice_walk,
    _scan_band,
    _thresholds,
    check_efficient,
)
from .errors import Error, UnsupportedRangeError
from .monomial import MonomialFamily, exponent_vectors_of_degree, pure_powers

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

#: The orbit filter's two caps.  Lanes: at most this many bits, counted as
#: F^2 per kept permutation of F free monomials, since the lane of
#: permutation pi holds M(pi(C)) in F bits and a guard bit above them, in
#: each packed entry of a block.  The image table: the permutations past
#: the lanes times F, in 4-byte entries (16 MB), or no table.  The table
#: only keeps the image columns: past both caps, each family that reaches
#: the permutations past the lanes streams its chosen columns instead.
_ROW_BITS = 1 << 22

#: Lanes per block of the orbit filter: 5! = 120, so that the (N+1)! <= 120
#: permutations of N <= 4 fit one block wherever the lanes cover them, and
#: block 0 alone decides the filter.  A block is built the first time a
#: family reaches it, so a family rejected by an early block never pays for
#: the later ones.
_BLOCK = 120

#: Most sets that one level of the orderly tree may hold, about 300 bytes
#: each at N = 4 (two levels are held while the next one grows); past it
#: the search walks every partition instead.
_HELD = 1 << 16

#: Resume token fields, in the order they are written.
_TOKEN_KEYS = (
    "schema_version", "N", "d", "n", "partition", "offset",
    "families_examined", "orbits_examined", "best_status", "best_family",
)


class SearchReport(Value):
    """Outcome of a search run, possibly truncated by the family budget."""

    _FIELDS = (
        "N", "n", "d", "families_examined", "orbits_examined", "best_status",
        "best_family", "exhausted", "resume_token",
    )
    __slots__ = _FIELDS
    _DEFAULTS = {"resume_token": None}


def _free_monomials(N: int, d: int) -> list[tuple[int, ...]]:
    """Degree-d exponent vectors that are not pure powers, canonical order."""
    return [v for v in exponent_vectors_of_degree(N + 1, d) if d not in v]


class _Space:
    """The search space of one (N, d, n): the free monomials and their
    index, the pure powers, the orbit filter's blocks of permutation lanes
    and image table, the orderly tree's held sets and, where the lattice
    box d^(N+1) fits ``criterion.GRID_LIMIT``, the status masks shared by
    its n-member families.  One is built for each search, or for each
    worker of a pooled one, and none outlives it.  Block 0 is built with
    the space and later blocks on first use, so a family rejected by an
    early block builds no later one; table columns are built the first
    time a family chooses their monomial, and the tree on the first whole
    partition."""

    def __init__(self, N: int, d: int, n: int):
        self.N = N
        self.free = _free_monomials(N, d)
        self.index = {v: i for i, v in enumerate(self.free)}
        self.pure_exps = pure_powers(N + 1, d)
        free_count = len(self.free)
        keep = _ROW_BITS // max(free_count, 1) ** 2
        self.perm_count = factorial(N + 1)
        # Lane 0 is the identity's.  It is built only with a kept
        # permutation beside it, since every lane costs about F^2 bits.
        self.lanes = min(keep + 1, self.perm_count) if keep else 0
        self.block_count = -(-self.lanes // _BLOCK)
        # Where block 0 holds every permutation, a family it lets through
        # is a representative: the walk and the tree never ask passes_rest.
        self.one_block = self.block_count == 1 and self.lanes == self.perm_count
        self.width = free_count + 1
        self.blocks: list[tuple[list[int], int, int]] = []
        # Each free monomial's images under the permutations, in the order
        # of permutations(range(N + 1)); each block takes the next ones.
        self._images = [permutations(e) for e in self.free] if self.lanes else []
        # Each free monomial's unit: F+1 binary digits with a single 1 at
        # its index, keyed by the exponent tuple that ``permutations``
        # yields.  Kept until the last block is built.
        self._units: Optional[dict] = None
        if self.lanes:
            digits = "0" * free_count + "1" + "0" * free_count
            self._units = {e: digits[i:i + self.width] for i, e in enumerate(self.free)}
            # Block 0 and the prefix sums of its diffs, as ``first``.
            self.grow()
        else:
            # With no lane kept, block 0 and its sums are zeros, so every
            # family passes to the image columns.
            zeros = bytes(free_count + 1)
            self.first = (zeros, 0, 0, zeros)
        # The image table: column c holds the image index of free[c] under
        # each of the ``height`` permutations past the lanes, filled the
        # first time a family chooses c.  Height 0 where the lanes cover
        # every permutation, where there is no free monomial, or where the
        # table would pass the cap.
        past = self.perm_count - max(self.lanes, 1)
        self.height = past if 0 < past * free_count <= _ROW_BITS else 0
        self.table: Optional[memoryview] = None
        self.filled = bytearray()
        # The orderly tree's first partition and held sets, decided on the
        # first whole partition.
        self.tree_from: Optional[int] = None
        self.held: Optional[list] = None
        # Every family holds the pure powers and k chosen free monomials.
        self.n, self.d, self.k = n, d, n - (N + 1)
        self.ge: Optional[list[list[tuple[int, int]]]] = None
        # Every family's box is d^(N+1), its pure powers putting d on every
        # axis: where _equal_candidates would walk it, one shared table is.
        if d ** (N + 1) <= criterion.GRID_LIMIT:
            self.band = _scan_band(n, d, N + 1)
            self.pure_bits = ((1 << (N + 1)) - 1) << free_count
            # Bit c for free index c, bit F + i for X_i^d.
            self.ge = _thresholds(self.free + self.pure_exps)

    def grow(self) -> None:
        """Append the next block: ``(diffs, guards, bias)``, where
        ``diffs[c]`` is ``packed[c] - (ones << c)``, ``packed[c]`` holding
        ``1 << index(pi(free[c]))`` in the lane of each of the block's
        permutations pi, ``ones`` a 1 in each lane, ``guards`` the top bit
        of each lane, and ``bias`` is ``guards - ones``.  Each ``packed[c]``
        is one ``int(s, 2)``, s joining the units of its images, lanes in
        reverse so that lane 0 takes the low bits.  Block 0 also sets
        ``first``: itself and ``sums``, the prefix sums of its diffs."""
        count = min(_BLOCK, self.lanes - len(self.blocks) * _BLOCK)
        ones = int("1".rjust(self.width, "0") * count, 2)
        unit = self._units.__getitem__
        diffs = []
        for c, images in enumerate(self._images):
            row = list(map(unit, islice(images, count)))
            row.reverse()
            diffs.append(int("".join(row), 2) - (ones << c))
        guards = ones << (self.width - 1)
        self.blocks.append((diffs, guards, guards - ones))
        if len(self.blocks) == self.block_count:
            self._units = self._images = None
        if len(self.blocks) == 1:
            self.first = (*self.blocks[0], list(accumulate(diffs, initial=0)))

    def passes_rest(self, chosen: tuple[int, ...]) -> bool:
        """True iff the chosen free indices C, which block 0 lets through,
        pass every later block and every permutation past the lanes.  The
        chosen image columns are zipped, and a permutation rejects C when
        its images, sorted descending, exceed C sorted descending, that is
        M(pi(C)) > M(C).  The columns come from the image table where it
        is kept, and are streamed past its cap."""
        blocks = self.blocks
        for b in range(1, self.block_count):
            if b == len(blocks):
                self.grow()
            diffs, guards, bias = blocks[b]
            if sum(map(diffs.__getitem__, chosen), bias) & guards:
                return False
        if self.lanes == self.perm_count:
            return True
        height = self.height
        if height:
            if self.table is None:
                # An anonymous mapping's pages are allocated as columns are
                # written, so a short search pays for the columns it fills.
                from mmap import mmap

                self.table = memoryview(mmap(-1, 4 * height * len(self.free))).cast("I")
                self.filled = bytearray(len(self.free))
            table, filled = self.table, self.filled
            for c in chosen:
                if not filled[c]:
                    filled[c] = 1
                    table[c * height:(c + 1) * height] = array("I", self.images(c))
            columns = [table[c * height:(c + 1) * height] for c in chosen]
        else:
            columns = list(map(self.images, chosen))
        ordered = sorted(chosen, reverse=True)
        return not any(
            sorted(column, reverse=True) > ordered for column in zip(*columns)
        )

    def images(self, c: int) -> Iterator[int]:
        """The image column of free monomial c: its image index under
        each permutation past the lanes, in the order of ``permutations``."""
        start = max(self.lanes, 1)
        return map(self.index.__getitem__, islice(permutations(self.free[c]), start, None))

    def status(self, chosen: tuple[int, ...]) -> int:
        """Rank in ``_RANKED`` (0 for unstable) of the family of the pure
        powers and the chosen free indices, decided by its candidates'
        margins (d - t) * n + t - d * k.  With status masks, the lattice
        walk runs over ``ge`` from the family's bits; without, the family's
        own threshold table goes to ``_equal_candidates``."""
        n, d = self.n, self.d
        if self.ge is None:
            table = _thresholds(self.pure_exps + [self.free[c] for c in chosen])
            out = _equal_candidates(table, n, d)
        else:
            bits = self.pure_bits
            for c in chosen:
                bits |= 1 << c
            out = []
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
        of ``job = (partition, skip, limit)``: from offset ``skip`` of the
        partition, in lexicographic order, ``limit`` families of k chosen
        free indices, the first of them ``partition``.  The walk is the one
        the module docstring describes."""
        partition, skip, limit = job
        k = self.k
        if k == 0:
            yield ()
            return
        free_count = len(self.free)
        diffs, guards, bias, sums = self.first
        one_block, passes_rest = self.one_block, self.passes_rest
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
                    if one_block or passes_rest(chosen):
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
        lanes and the table miss a permutation, the tree was abandoned
        (``_grow_tree``), or it was built for a later partition."""
        partition, skip, limit = job
        k = self.k
        if (
            k < 2 or skip or (self.lanes != self.perm_count and not self.height)
            or limit != comb(len(self.free) - 1 - partition, k - 1)
        ):
            return None
        if self.tree_from is None:
            self.tree_from = partition
            self.held = self._grow_tree(partition)
        if partition < self.tree_from:
            return None
        return self.held

    def _grow_tree(self, partition: int) -> Optional[list]:
        """The sorted level of representatives of k - 1 free indices above
        ``partition``, grown from the empty set a level at a time (module
        docstring).  None if the tree's nodes, at most C(span, k - 1) for
        the span of indices from the partition on, outnumber the
        C(span, k) families it serves by more than min((N+1)!, 24) / 6,
        or if a level passes ``_HELD`` sets."""
        k = self.k
        span = len(self.free) - partition
        if 6 * comb(span, k - 1) > min(self.perm_count, 24) * comb(span, k):
            return None
        level = [((), self.first[2])]
        high = len(self.free)
        for size in range(1, k):
            grown: list = []
            # A set of this size still needs k - 1 - size smaller indices
            # above the partition, and c lies below some held set.
            for c in range(partition + k - size, high):
                grown += self.children(level, c)
                if len(grown) > _HELD:
                    return None
            level = grown
            high = level[-1][0][0]
        return level

    def children(self, level: list, c: int) -> list[tuple[tuple[int, ...], int]]:
        """The list of ``((c, *S), D + diffs[c])`` for each ``(S, D)`` of a
        sorted level whose set S lies above c and for which (c, *S) is a
        representative, in order: the sets above c are a suffix of the
        level, and (c, *S) sorts as S does.  Where block 0 holds every
        permutation, a set it lets through is a representative."""
        diffs, guards, _, _ = self.first
        step = diffs[c]
        # (S, D) sorts below ((c + 1,),) exactly when min(S) <= c; the level
        # of the empty set alone lies whole above c.
        start = bisect_left(level, ((c + 1,),)) if level[0][0] else 0
        above = islice(level, start, None)
        if self.one_block:
            return [
                ((c, *S), carried)
                for S, D in above if not (carried := D + step) & guards
            ]
        passes_rest = self.passes_rest
        return [
            (chosen, carried) for S, D in above
            if not (carried := D + step) & guards and passes_rest(chosen := (c, *S))
        ]

    def floor(self, result: tuple) -> Optional[tuple[int, ...]]:
        """The key a (rank, exponents) result sets as the status floor:
        the free indices of a stable result's members, descending, or
        None if it is not stable."""
        if result[0] != 2:
            return None
        index = self.index
        return tuple(sorted((index[e] for e in result[1] if e in index), reverse=True))

    def scan(
        self, job: tuple[int, ...], floor: Optional[tuple[int, ...]]
    ) -> tuple[int, int, tuple]:
        """Enumerate one partition, ``job = (partition, skip, limit)``:
        from offset ``skip``, ``limit`` families of k chosen free
        monomials.  A whole partition takes its representatives from the
        orderly tree's held sets where ``held_sets`` gives them, any other
        job from the walk; both yield them in lexicographic order.  Return
        (families, orbits, best (rank, exponents) result).  Among families
        of one rank the best has the smallest sorted exponent sequence,
        that is the largest key, its chosen indices descending (module
        docstring), so its exponents are built once, at the end.  Once the
        best is stable, or from the start under ``floor``, the key of a
        stable best found before the job, a representative of no larger
        key is counted but takes no status, and one of larger key counts
        only if stable; a job that finds no such family returns (0, None)."""
        held = self.held_sets(job)
        if held is None:
            found = self.walk(job)
        else:
            found = map(itemgetter(0), self.children(held, job[0]))
        status = self.status
        orbits = 0
        best_rank, best_key, best = 0, (), None
        if floor is not None:
            best_rank, best_key = 2, floor
        for chosen in found:
            orbits += 1
            if best_rank == 2:
                # The bound: only a stable family of larger key displaces a
                # stable best, so no smaller key needs its status.
                key = chosen[::-1]
                if key > best_key and status(chosen) == 2:
                    best_key, best = key, chosen
                continue
            rank = status(chosen)
            if rank and rank >= best_rank:
                key = chosen[::-1]
                if rank > best_rank or key > best_key:
                    best_rank, best_key, best = rank, key, chosen
        families = job[2]
        if best is None:
            return families, orbits, (0, None)
        exps = tuple(sorted(self.pure_exps + [self.free[c] for c in best]))
        return families, orbits, (best_rank, exps)


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


#: A pool worker's ``_Space``, built by ``_start_worker`` as the worker
#: starts.  A pool lives for one search, so the space dies with it.
_worker_space: Optional[_Space] = None


def _start_worker(N: int, d: int, n: int) -> None:
    global _worker_space
    _worker_space = _Space(N, d, n)


def _scan_in_worker(job: tuple[int, ...], best: tuple) -> tuple[int, int, tuple]:
    return _worker_space.scan(job, _worker_space.floor(best))


def _scan_serially(space: _Space, plan: list, best: tuple) -> Iterator[tuple]:
    """Each job's ``scan`` result, in plan order, under the floor of
    ``best`` merged with the results before it.  Under a floor a job
    reports a stable family only above it, and without one the merged
    best is not stable, so a stable result is the new merged best."""
    floor = space.floor(best)
    for job in plan:
        result = space.scan(job, floor)
        if result[2][0] == 2:
            floor = space.floor(result[2])
        yield result


def _partition(free_count: int, k: int, idx: int) -> tuple[int, int]:
    """(partition, family count) at index idx of the partition plan.
    Partition p holds the subsets whose smallest free index is p, so the
    ``free_count - k + 1`` partitions p <= free_count - k hold a family;
    with no free member to choose there is one, partition -1, of one
    family."""
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
    # are chosen.  Only the partitions that hold a family are counted.
    free_count, k = monomials - (N + 1), n - (N + 1)
    part_count = free_count - k + 1 if k > 0 else int(k == 0)
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
        if remaining <= 0:
            truncated_at = (idx, skip)
            break
        cap = min(size - skip, remaining)
        plan.append((p, skip, cap))
        remaining -= cap
        if cap < size - skip:
            truncated_at = (idx, skip + cap)
            break

    workers = min(jobs or 1, len(plan), os.cpu_count() or 1)
    pool = nullcontext()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            workers, initializer=_start_worker, initargs=(N, d, n)
        )
    with pool as executor:
        if executor:
            # Every job takes the floor of the best known as the pool starts.
            results = executor.map(_scan_in_worker, plan, repeat(best))
        else:
            results = _scan_serially(_Space(N, d, n), plan, best) if plan else ()
        for job, (fams, orbs, found) in zip(plan, results):
            families += fams
            orbits += orbs
            best = _better(best, found)
            if progress is not None:
                progress(
                    {
                        "event": "partition",
                        "partition": job[0],
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
