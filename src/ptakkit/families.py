"""Hereditary (downward-closed) set families on finite ground sets.

A family is stored canonically as the antichain of its inclusion-maximal
members: each maximal set is an ascending tuple of labels in ``0..n-1``, the
antichain is sorted lexicographically, and the empty set is never listed (the
empty antichain denotes the family whose only member is the empty set).
Membership of ``A`` means ``A`` is empty or contained in some listed set, so
downward closure is implicit.

:class:`HereditaryFamily` is the one way to build a family: it takes label
sets in any form and keeps their canonical antichain; :func:`hereditary_closure`
is the same call.
"""

from __future__ import annotations

import random
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, compress, repeat
from math import comb
from operator import and_, index, itemgetter, lt, or_, rshift
from sys import byteorder
from typing import Iterable, Optional, Sequence

Label = int
ElementSet = Iterable[Label]

GENERATOR_ALGORITHM = "python-random-mt19937-v1"

# Most sets an exhaustive generator or enumerator will list; larger inputs
# are refused rather than left to run for hours.
ENUMERATION_LIMIT = 1 << 20


def _check_enumeration(count: int, what: str) -> None:
    if count > ENUMERATION_LIMIT:
        raise ValueError(f"{what} would enumerate {count} sets, "
                         f"above the limit of {ENUMERATION_LIMIT}")


def normalize_set(members: ElementSet, n: int) -> tuple[int, ...]:
    """Sorted, duplicate-free tuple of integer labels, validated against 0..n-1."""
    out = tuple(sorted(set(map(index, members))))
    if out and (out[0] < 0 or out[-1] >= n):
        raise ValueError(f"label out of range: {out}")
    return out


# Labels below this take their bit from a shared table; on larger ground sets
# masks are summed from shifts, so no table grows with n.
_BIT = [1 << label for label in range(256)]


def _byte_labels(first: int) -> list[tuple[int, ...]]:
    """For each byte value, the labels of its set bits when its bit 0 is label
    ``first``: entry ``b | 1 << j`` is entry ``b`` with ``first + j`` added."""
    table = [()]
    for label in range(first, first + 8):
        table += [labels + (label,) for labels in table]
    return table


# the label tuple of each byte value at each byte position below len(_BIT)
_BYTE_LABELS = [_byte_labels(8 * p) for p in range(len(_BIT) // 8)]


def set_mask(members: Iterable[int]) -> int:
    mask = 0
    for m in members:
        mask |= 1 << m
    return mask


def mask_to_tuple(mask: int) -> tuple[int, ...]:
    """The labels of a nonnegative mask's set bits, ascending.

    The mask is read a byte at a time and each byte's labels are looked up,
    not walked bit by bit: below ``len(_BIT)`` in the table of its byte
    position, above it as position 0's entry shifted by the byte's first
    label.  Zero bytes above the tables are skipped at C speed, so a sparse
    mask with a high bit costs one pass over its bytes and no table grows
    with the highest label.
    """
    data = mask.to_bytes(-(-mask.bit_length() // 8), "little")
    low = sum(map(list.__getitem__, _BYTE_LABELS, data), ())
    top = len(_BYTE_LABELS)
    if len(data) <= top:
        return low
    out, first = list(low), _BYTE_LABELS[0]
    for p in compress(range(top, len(data)), data[top:]):
        out += map((8 * p).__add__, first[data[p]])
    return tuple(out)


_WORD = (1 << 64) - 1
_BIG_ENDIAN = byteorder == "big"  # array words are native-endian, packed fields little
# _DIGITS[j] maps a byte to the ASCII digit of its bit j
_DIGITS = [bytes(b"01"[b >> j & 1] for b in range(256)) for j in range(8)]


def _packed_rows(masks: Sequence[int], k: int) -> array:
    """The masks, each below ``2**(64*k)``, as consecutive rows of ``k``
    little-endian 64-bit words; word ``j`` of every row is filled by one
    ``array`` slice assignment."""
    rows = array("Q", bytes(8 * k * len(masks)))
    for j in range(k):
        # word 0 needs no shift, and the top word no cut to 64 bits
        words = map(rshift, masks, repeat(64 * j)) if j else masks
        if j < k - 1:
            words = map(_WORD.__and__, words)
        rows[j::k] = array("Q", list(words))  # a list fills an array faster than map
    if _BIG_ENDIAN:
        rows.byteswap()
    return rows


def _label_columns(sets: Sequence[tuple[int, ...]], masks: Sequence[int]) -> dict[int, int]:
    """For each label the sets use, the bitset of the positions of the sets
    holding it; ``masks`` are the sets' masks.

    The masks are packed once, last first, into rows of ``k`` 64-bit words,
    as few as the ``u`` labels in use need (:func:`_packed_rows`).  When a
    used label lies beyond ``64k`` bits, the masks are first renumbered onto
    the used labels, so that a few high labels cost no more than low ones.
    A label's column is then the byte holding its bit in every row, a
    strided slice, translated to the ASCII digits of that bit and read as
    one base-2 integer, all at C speed.
    """
    used = mask_to_tuple(reduce(or_, masks))
    k = -(-len(used) // 64)  # words per row
    bits = used  # each used label's bit in the packed masks
    if used[-1] >= 64 * k:
        rank_bit = {label: 1 << r for r, label in enumerate(used)}.__getitem__
        masks = [sum(map(rank_bit, s)) for s in sets]
        bits = range(len(used))
    # the last set is the most significant digit
    raw, stride = _packed_rows(masks[::-1], k).tobytes(), 8 * k
    return {label: int(raw[bit // 8::stride].translate(_DIGITS[bit % 8]), 2)
            for label, bit in zip(used, bits)}


def _containers(sets: Sequence[tuple[int, ...]], masks: Sequence[int]) -> set[int]:
    """The indices of the sets lying inside another.

    The sets must be distinct tuples of nonnegative labels, and ``masks``
    their masks.  Distinct sets nest only in sets with more elements, so the
    sets are taken one size at a time, largest first, and each is looked up
    among the larger sets that are not themselves inside another.  The
    lookup is a bitset index: for each label, the positions of the indexed
    sets holding it.  A set lies inside another exactly when the AND of its
    labels' bitsets is nonzero.  The index is keyed by the labels in use, so
    its size does not grow with the ground set.  The sets one size adds are
    indexed together: past a word of them, each label's new positions come
    from one packing of their masks (:func:`_label_columns`), shifted past
    the indexed positions in one step.  Sets of one size cost no
    comparisons, and the smallest size is never indexed, since nothing is
    looked up after it.
    """
    by_size: dict[int, list[int]] = {}
    for i, s in enumerate(sets):
        by_size.setdefault(len(s), []).append(i)
    sizes = sorted(by_size, reverse=True)
    inside: set[int] = set()
    indexed = 0  # the number of undominated larger sets in the index
    holding: defaultdict[int, int] = defaultdict(int)  # label -> bitset of indexed positions
    positions_of = holding.__getitem__
    for size in sizes:
        group = by_size[size]
        if indexed:
            everything = (1 << indexed) - 1
            for i in group:
                if reduce(and_, map(positions_of, sets[i]), everything):
                    inside.add(i)
        if size == sizes[-1]:
            break
        added = [i for i in group if i not in inside]
        if len(added) > 64:
            columns = _label_columns([sets[i] for i in added], [masks[i] for i in added])
            for label, column in columns.items():
                holding[label] |= column << indexed
        else:  # within a word of sets, setting each set's bits costs less
            for position, i in enumerate(added, indexed):
                bit = 1 << position
                for label in sets[i]:
                    holding[label] |= bit
        indexed += len(added)
    return inside


def _canonical_form(sets, n: int) -> bool:
    """True if ``sets`` is a canonical antichain, the antichain test aside."""
    return (type(sets) is tuple
            and set(map(type, sets)) <= {tuple}
            and all(map(len, sets))
            and all([all(map(lt, s, s[1:])) for s in sets])
            and (not sets or (min(map(itemgetter(0), sets)) >= 0
                              and max(map(itemgetter(-1), sets)) < n))
            and all(map(lt, sets, sets[1:])))


@dataclass(frozen=True)
class HereditaryFamily:
    """Canonical antichain representation of a downward-closed family.

    ``maximal`` may be any iterable of label sets: the family is their
    downward closure, stored as the inclusion-maximal nonempty sets, each an
    ascending tuple, sorted lexicographically.  Duplicated, nested and empty
    sets are dropped.  Input already in that form is stored as given.  A
    label outside ``0..n-1`` or ``n < 1`` raises ValueError.

    ``automorphisms`` optionally declares label permutations that map the
    family onto itself, each a sequence whose entry ``l`` is the image of
    label ``l``; they generate a group the solver may exploit.  Each is
    checked exactly: a generator that is not a permutation of ``0..n-1``, or
    that maps some maximal set outside the antichain, raises ValueError
    naming it.  ``orbits`` are then the label orbits of that group, each
    ascending, ordered by their least label; with no generators it is None.
    Two families with the same sets are equal whatever they declare.
    """

    n: int
    maximal: tuple[tuple[int, ...], ...]
    automorphisms: tuple[tuple[int, ...], ...] = field(default=(), compare=False)
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    orbits: Optional[tuple[tuple[int, ...], ...]] = field(init=False, repr=False,
                                                          compare=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("ground set must have at least one element")
        bit = _BIT.__getitem__ if n <= len(_BIT) else (1).__lshift__
        sets = self.maximal
        try:
            masks = [sum(map(bit, s)) for s in sets] if _canonical_form(sets, n) else None
        except TypeError:  # a label that is not an int; normalize_set rejects it
            masks = None
        if masks is None:
            sets = sorted({normalize_set(s, n) for s in sets})
            if sets and not sets[0]:  # the empty set sorts first
                del sets[0]
            masks = [sum(map(bit, s)) for s in sets]
        inside = _containers(sets, masks)
        if inside:
            sets = [s for i, s in enumerate(sets) if i not in inside]
            masks = [m for i, m in enumerate(masks) if i not in inside]
        if sets is not self.maximal:
            object.__setattr__(self, "maximal", tuple(sets))
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "orbits", self._check_automorphisms() if self.automorphisms
                           else None)

    def _check_automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Check every generator and return the label orbits they generate.

        The masks are packed once into one ``W``-bit field each, ``W`` a
        multiple of 64 and at least ``n``, and a generator moves all of them
        at once (:func:`_moved`); it maps the antichain onto itself exactly
        when every moved field is a field, since the masks are distinct and
        a permutation maps distinct sets to distinct sets.  Fields are
        compared as their words, read at C speed.
        """
        n = self.n
        gens = tuple(tuple(map(index, g)) for g in self.automorphisms)
        k = -(-n // 64)  # words per field
        size = 8 * k * len(self.masks)
        packed = _packed_rows(self.masks, k).tobytes()
        fields = set(_words_of_fields(packed, k))
        packed = int.from_bytes(packed, "little")
        ones = int.from_bytes((b"\1" + bytes(8 * k - 1)) * len(self.masks), "little")
        labels = list(range(n))
        for i, g in enumerate(gens):
            if sorted(g) != labels:
                raise ValueError(f"automorphisms[{i}] is not a permutation of 0..{n - 1}")
            moved = _moved(packed, _shifts(g), ones).to_bytes(size, "little")
            if not fields.issuperset(_words_of_fields(moved, k)):
                raise ValueError(f"automorphisms[{i}] does not map the maximal sets "
                                 f"onto themselves")
        if gens != self.automorphisms:
            object.__setattr__(self, "automorphisms", gens)
        # each orbit grows by the images of its labels until it is closed
        orbit_of, orbits = [None] * n, []
        for first in range(n):
            if orbit_of[first] is None:
                orbit = orbit_of[first] = [first]
                for label in orbit:
                    for g in gens:
                        if orbit_of[g[label]] is None:
                            orbit_of[g[label]] = orbit
                            orbit.append(g[label])
                orbits.append(tuple(sorted(orbit)))
        return tuple(orbits)

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "maximal": [list(s) for s in self.maximal]}
        if self.automorphisms:
            out["automorphisms"] = [list(g) for g in self.automorphisms]
        return out


def _words_of_fields(data: bytes, k: int) -> Iterable:
    """Each ``k``-word field of ``data``: its one word when ``k`` is 1, else
    the tuple of its words."""
    words = array("Q", data)
    return words if k == 1 else zip(*(words[j::k] for j in range(k)))


def _shifts(perm: Sequence[int]) -> list[tuple[int, int]]:
    """A label permutation as masked shifts: each displacement ``d`` it makes,
    with the mask of the labels ``l`` it sends to ``l + d``."""
    moving: dict[int, list[int]] = {}
    for label, image in enumerate(perm):
        moving.setdefault(image - label, []).append(label)
    bit = _BIT.__getitem__ if len(perm) <= len(_BIT) else (1).__lshift__
    return [(d, sum(map(bit, labels))) for d, labels in moving.items()]


def _moved(packed: int, shifts: list[tuple[int, int]], ones: int = 1) -> int:
    """Masks packed one per field, ``ones`` holding bit 0 of each field, with
    their labels permuted by ``shifts`` (:func:`_shifts`): one masked shift
    per displacement.  A label and its image both lie below the field width,
    so no bit crosses into another field."""
    out = 0
    for d, labels in shifts:
        part = packed & labels * ones
        out |= part << d if d >= 0 else part >> -d
    return out


def mask_orbit(fam: HereditaryFamily, mask: int) -> set[int]:
    """The masks of a set's images under the group ``fam.automorphisms``
    generates, the set's own mask included."""
    shifts = [_shifts(g) for g in fam.automorphisms]
    orbit, todo = {mask}, [mask]
    while todo:
        m = todo.pop()
        for s in shifts:
            image = _moved(m, s)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def hereditary_closure(sets: Iterable[ElementSet], n: int) -> HereditaryFamily:
    """Canonical antichain of the downward closure of ``sets`` plus the empty
    set: ``HereditaryFamily(n=n, maximal=sets)``."""
    return HereditaryFamily(n=n, maximal=sets)


def membership(fam: HereditaryFamily, members: ElementSet) -> bool:
    """True iff the set is empty or contained in some maximal set."""
    a = set_mask(normalize_set(members, fam.n))
    if a == 0:
        return True
    return any(a & ~m == 0 for m in fam.masks)


@dataclass(frozen=True)
class TraceResult:
    """Trace of a family to a subset, relabeled densely.

    ``labels[i]`` is the original label carried by new label ``i``.
    """

    family: HereditaryFamily
    labels: tuple[int, ...]


def trace(fam: HereditaryFamily, subset: ElementSet) -> TraceResult:
    """Family of intersections with ``subset``, on the relabeled ground set.

    The members are exactly the intersections of members with the subset,
    equivalently the members lying inside it; the result is hereditary by
    construction.  The subset must be non-empty (a ground set needs at least
    one element).
    """
    h = normalize_set(subset, fam.n)
    if not h:
        raise ValueError("trace subset must be non-empty")
    pos = {old: new for new, old in enumerate(h)}
    hmask = set_mask(h)
    intersections = (map(pos.__getitem__, mask_to_tuple(m & hmask)) for m in fam.masks)
    return TraceResult(family=hereditary_closure(intersections, len(h)), labels=h)


def maximal_up_set(fam: HereditaryFamily, members: ElementSet) -> list[tuple[int, ...]]:
    """All members containing the given member, in lexicographic order.

    For a maximal member the result is the singleton ``[member]``.
    """
    m = normalize_set(members, fam.n)
    mmask = set_mask(m)
    above = [fmask for fmask in fam.masks if not mmask & ~fmask]
    if m and not above:
        raise ValueError(f"{m} is not a member of the family")
    _check_enumeration(sum(1 << (f & ~mmask).bit_count() for f in above), "maximal_up_set")
    found = {m}  # no maximal set holds () when the antichain is empty
    for fmask in above:
        rest = mask_to_tuple(fmask & ~mmask)
        for r in range(len(rest) + 1):
            for extra in combinations(rest, r):
                found.add(tuple(sorted(m + extra)))
    return sorted(found)


def is_full_powerset(fam: HereditaryFamily) -> bool:
    """True iff the whole ground set is a member."""
    return any(len(s) == fam.n for s in fam.maximal)


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class FamilySpec:
    """Descriptor for generated families.

    Kinds: ``cardinality_bound`` (k), ``graph_cliques`` /
    ``graph_independent`` (edge list), ``interval_trace`` (interval system).
    An explicit family is written as ``{"n", "maximal"}``, not as a spec.
    """

    kind: str
    n: int = 0
    k: Optional[int] = None
    edges: Optional[tuple[tuple[int, int], ...]] = None
    system: Optional[object] = None  # IntervalSystem for interval_trace

    # each kind and the spec fields it reads; any other field is refused
    KINDS = {"cardinality_bound": ("kind", "n", "k"),
             "graph_cliques": ("kind", "n", "edges"),
             "graph_independent": ("kind", "n", "edges"),
             "interval_trace": ("kind", "system")}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FamilySpec":
        if not isinstance(d, dict):
            raise ValueError("spec must be a JSON object")
        kind = d.get("kind")
        if not isinstance(kind, str) or kind not in cls.KINDS:
            raise ValueError(f"spec field 'kind': unknown kind {kind!r}")
        for key in d:
            if key not in cls.KINDS[kind]:
                raise ValueError(f"spec field {key!r} is not read by kind {kind!r}")
        if kind == "interval_trace":
            from .intervals import IntervalSystem

            if "system" not in d:
                raise ValueError("spec field 'system' missing for interval_trace")
            return cls(kind=kind, system=IntervalSystem.from_json_dict(d["system"]))
        if "n" not in d:
            raise ValueError("spec field 'n' missing")
        n = _json_int(d["n"], "spec field 'n'")
        k = _json_int(d["k"], "spec field 'k'") if "k" in d else None
        edges = _json_int_rows(d["edges"], "spec field 'edges'") if "edges" in d else None
        if edges is not None and any(len(e) != 2 for e in edges):
            raise ValueError("spec field 'edges': every edge needs exactly two ends")
        return cls(kind=kind, n=n, k=k, edges=edges)


def _json_int(value, name: str) -> int:
    """``value`` itself if it is a JSON integer; floats, bools and strings
    are rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_int_rows(rows, name: str) -> tuple[tuple[int, ...], ...]:
    """A JSON list of integer lists, checked entry by entry."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"{name} must be a list of integer lists")
    return tuple(tuple(_json_int(v, f"{name}[{i}] entry") for v in r)
                 for i, r in enumerate(rows))


def _validated_edges(edges: Sequence[Sequence[int]], n: int) -> list[tuple[int, int]]:
    out = []
    for e in edges:
        if len(e) != 2:
            raise ValueError(f"edge {e} needs exactly two ends")
        try:
            u, v = map(index, e)
        except TypeError:
            raise TypeError(f"edge {e} has an end that is not an integer") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {e} references labels outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop {e} not allowed")
        out.append((min(u, v), max(u, v)))
    return out


def _adjacency(n: int, edges: Sequence[Sequence[int]]) -> list[int]:
    adj = [0] * n
    for u, v in _validated_edges(edges, n):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bron_kerbosch(n: int, adj: Sequence[int]) -> HereditaryFamily:
    """Maximal cliques of the graph with neighbour masks ``adj``, by pivoting
    Bron-Kerbosch in a deterministic order; more than ENUMERATION_LIMIT of
    them is refused rather than listed.

    The search keeps its own stack of (clique, candidates, excluded) masks, so
    its depth is not bounded by the interpreter's recursion limit.
    """
    out: list[int] = []
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(r)
            if len(out) > ENUMERATION_LIMIT:
                raise ValueError(f"Bron-Kerbosch found more than ENUMERATION_LIMIT = "
                                 f"{ENUMERATION_LIMIT} maximal cliques")
            continue
        # pivot: vertex of P|X with most neighbours in P, smallest label on ties;
        # none has more than cap (|P| - 1, or |P| if X is nonempty), so stop there
        best, best_deg = -1, -1
        pool, cap = p | x, p.bit_count() - (x == 0)
        while pool and best_deg < cap:
            low = pool & -pool
            u = low.bit_length() - 1
            deg = (p & adj[u]).bit_count()
            if deg > best_deg:
                best, best_deg = u, deg
            pool ^= low
        # The child of candidate v has the candidates below v moved from P to
        # X; pushing the highest first expands them in ascending order.
        cand = p & ~adj[best]
        while cand:
            v = cand.bit_length() - 1
            cand ^= 1 << v
            stack.append((r | 1 << v, p & ~cand & adj[v], (x | cand) & adj[v]))
    # maximal cliques are distinct and none lies inside another
    return HereditaryFamily(n=n, maximal=tuple(sorted(map(mask_to_tuple, out))))


def maximal_cliques(n: int, edges: Sequence[Sequence[int]]) -> HereditaryFamily:
    """All maximal cliques via pivoting Bron-Kerbosch, deterministic order."""
    return _bron_kerbosch(n, _adjacency(n, edges))


def maximal_independent_sets(n: int, edges: Sequence[Sequence[int]]) -> HereditaryFamily:
    """Maximal independent sets, as maximal cliques of the complement graph."""
    everyone = (1 << n) - 1
    return _bron_kerbosch(n, [everyone & ~(a | (1 << u))
                              for u, a in enumerate(_adjacency(n, edges))])


def cardinality_bound_family(n: int, k: int) -> HereditaryFamily:
    """All subsets of size at most k: maximal sets are the k-subsets.

    The family declares the rotation of its labels, whose one orbit is the
    ground set; the whole symmetric group maps it onto itself too, but a
    set's orbit under it is all C(n, k) sets, and under the rotation at most
    ``n``.
    """
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    _check_enumeration(comb(n, k), f"cardinality family C({n}, {k})")
    # combinations come in lexicographic order
    return HereditaryFamily(n=n, maximal=tuple(combinations(range(n), k)),
                            automorphisms=(cycle_rotation(n),))


def realize(spec: FamilySpec) -> HereditaryFamily:
    """Build the family a spec describes."""
    if spec.kind == "cardinality_bound":
        if spec.k is None:
            raise ValueError("cardinality_bound spec needs 'k'")
        return cardinality_bound_family(spec.n, spec.k)
    if spec.kind == "graph_cliques":
        return maximal_cliques(spec.n, spec.edges or ())
    if spec.kind == "graph_independent":
        return maximal_independent_sets(spec.n, spec.edges or ())
    if spec.kind == "interval_trace":
        from .intervals import trace_family

        return trace_family(spec.system)
    raise ValueError(f"unknown spec kind {spec.kind!r}")


def cycle_edges(n: int) -> list[tuple[int, int]]:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return [(i, (i + 1) % n) for i in range(n)]


def cycle_rotation(n: int) -> tuple[int, ...]:
    """The permutation sending each label ``l`` to ``l + 1`` mod ``n``."""
    return (*range(1, n), 0)


def random_family(seed: int, n: Optional[int] = None, max_sets: int = 40) -> HereditaryFamily:
    """Seed-deterministic random family: up to ``max_sets`` maximal sets.

    Ground size defaults to a draw in 2..12.  Uncovered labels are possible
    (and wanted: they exercise the degenerate value-zero cases downstream).
    """
    rng = random.Random(seed)
    if n is None:
        n = rng.randint(2, 12)
    if n < 1 or max_sets < 1:
        raise ValueError("need n >= 1 and max_sets >= 1")
    count = rng.randint(1, max_sets)
    density = rng.choice((0.25, 0.4, 0.6))
    sets = []
    for _ in range(count):
        s = [v for v in range(n) if rng.random() < density]
        if not s:
            s = [rng.randrange(n)]
        sets.append(s)
    return hereditary_closure(sets, n)


# ---------------------------------------------------------------------------
# file format


def family_from_json_dict(data: dict) -> HereditaryFamily:
    """Read the family file format: explicit antichain, with optional
    automorphisms, or generator spec.  A family field the file's form would
    not read is refused, not ignored."""
    if not isinstance(data, dict):
        raise ValueError("family file must contain a JSON object")
    if "spec" in data:
        for key in ("maximal", "n", "automorphisms"):
            if key in data:
                raise ValueError(f"family field {key!r} is not read beside 'spec'")
        return realize(FamilySpec.from_json_dict(data["spec"]))
    if "maximal" in data:
        if "n" not in data:
            raise ValueError("family field 'n' missing")
        n = _json_int(data["n"], "family field 'n'")
        maximal = _json_int_rows(data["maximal"], "family field 'maximal'")
        gens = _json_int_rows(data.get("automorphisms", []), "family field 'automorphisms'")
        return HereditaryFamily(n, maximal, gens)
    if "automorphisms" in data:
        raise ValueError("family field 'automorphisms' is read only beside 'maximal'")
    raise ValueError("family file needs either 'maximal' or 'spec'")
