"""Simplicial complexes on a vertex set [n], stored as bitmask face families.

Vertex ``v`` corresponds to bit ``v - 1``, so a face is a single int and
subset tests, closures and symmetric differences are word operations.
Ambient size is capped at 64 so every face fits in one machine word.

All values are immutable after construction and safe to share freely.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Iterator, Mapping, Sequence

MAX_VERTICES = 64


def iter_vertices(mask: int) -> Iterator[int]:
    """Yield the 1-based vertex labels packed into ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def vertex_tuple(mask: int) -> tuple[int, ...]:
    return tuple(iter_vertices(mask))


class Face(int):
    """A vertex subset as an int bitmask, with vertex views.

    A face is its int mask: it hashes, compares and combines like one, so
    faces and raw masks mix freely, and every function taking a face takes
    a plain mask too.  ``Face`` only adds vertex views: the constructors
    ``of`` and ``from_vertices``, ``vertices``, ``len``, iteration and
    ``in``.  Set operations are the int ones and return plain ints:
    ``a | b``, ``a & b``, ``a ^ b``, and ``a & ~b`` for set difference
    (``a - b`` is integer subtraction).  ``Face(0)`` is the empty face.
    """

    __slots__ = ()

    @classmethod
    def of(cls, *vertices: int) -> "Face":
        return cls.from_vertices(vertices)

    @classmethod
    def from_vertices(cls, vertices: Iterable[int]) -> "Face":
        mask = 0
        for v in map(operator.index, vertices):
            if not 1 <= v <= MAX_VERTICES:
                raise ValueError(f"vertex {v} outside 1..{MAX_VERTICES}")
            mask |= 1 << (v - 1)
        return cls(mask)

    @property
    def vertices(self) -> tuple[int, ...]:
        return vertex_tuple(self)

    def __iter__(self) -> Iterator[int]:
        return iter_vertices(self)

    def __len__(self) -> int:
        return self.bit_count()

    def __contains__(self, vertex: int) -> bool:
        return vertex >= 1 and bool(self >> (vertex - 1) & 1)

    def __repr__(self) -> str:
        return "Face.of(%s)" % ", ".join(map(str, self))


EMPTY_FACE = Face(0)


def lex_less(s: int, t: int) -> bool:
    """Strict lex order on equal-cardinality faces.

    ``S < T`` iff the smallest vertex in the symmetric difference lies in
    ``S``.  Raises ``ValueError`` on a cardinality mismatch; the order is
    only defined between faces of the same size.
    """
    if s.bit_count() != t.bit_count():
        raise ValueError("lex order compares faces of equal cardinality")
    d = s ^ t
    return bool(d) and bool(s & (d & -d))


def lex_leq(s: int, t: int) -> bool:
    return s == t or lex_less(s, t)


def init_segment(s: int, j: int) -> Face:
    """The ``j`` lex-least (i.e. smallest-labelled) vertices of ``s``."""
    if j < 0 or j > s.bit_count():
        raise ValueError("init length must lie in 0..|S|")
    mask = 0
    for _ in range(j):
        low = s & -s
        mask |= low
        s ^= low
    return Face(mask)


def interval(s: int, i: int, n: int) -> list:
    """All faces ``T`` of size ``|S| + i`` inside ``[n]`` whose ``|S|``
    smallest vertices are exactly ``S``, in lex order.

    The extra ``i`` vertices therefore all exceed ``max(S)``.  An interval
    that does not fit inside ``[n]`` is empty; ``i <= 0`` is an error.
    """
    if i <= 0:
        raise ValueError("interval height must be positive")
    lo = s.bit_length() + 1  # max(S) + 1, or 1 for the empty face
    return [Face(s | m << (lo - 1)) for m in iter_k_subsets(n - lo + 1, i)]


def _remap(faces: Iterable[int], image: Mapping[int, int]) -> list:
    """Each face with every vertex ``v`` replaced by ``image[v]``."""
    out = []
    for f in faces:
        m = 0
        for v in iter_vertices(f):
            m |= 1 << (image[v] - 1)
        out.append(m)
    return out


def iter_k_subsets(n: int, k: int) -> Iterator[int]:
    """Masks of all k-subsets of [n] in lex order."""
    # lex order: bits ascend
    return map(sum, itertools.combinations([1 << b for b in range(n)], k))


def extensions(level: Sequence[int], n: int) -> Iterator[int]:
    """The k-sets a closed family can grow into at size k: the sets
    S = h + v, h running over ``level`` and v over the vertices of [n] past
    max(h), ascending, each yielded when all its (k - 1)-subsets lie in
    ``level``.

    ``level`` lists (k - 1)-sets, as masks, in lex order, each once (for
    k = 1 it is ``[0]``).  Lemma: the sets yielded are exactly the k-subsets
    of [n] whose (k - 1)-subsets all lie in ``level``, each once, in lex
    order.  S arises only from h = its head, S minus its largest vertex,
    and v = max(S), and its head is one of its (k - 1)-subsets: so S is
    yielded once if those all lie in ``level``, and never otherwise.  Two
    sets with the same head differ only in their largest vertex, and the
    one whose largest vertex is smaller comes first, in lex order too.  Let
    S and T have heads h <lex h', and let u be the smallest vertex where h
    and h' differ, so u is in h.  The heads agree below u and have the same
    size, so h' has a vertex above u, and T's largest vertex exceeds it;
    S's largest vertex exceeds max(h) >= u.  So S and T agree below u, and
    u is in S and not in T: S <lex T.

    The subset test runs on masks.  ``children`` maps each head g of a set
    in ``level`` to the mask of the largest vertices of the sets in
    ``level`` with head g.  Besides h, the (k - 1)-subsets of S = h + v are
    the (h - u) + v for u in h; as v > max(h), such a set has head h - u and
    largest vertex v, so it lies in ``level`` exactly when v is in
    ``children[h - u]``.  So the v that pass are the vertices of [n] past
    max(h) that lie in every ``children[h - u]``, and they are yielded in
    ascending order, as the lemma's loop over v has them.

    Corollary: the sets of one head are yielded in one run.  The loop
    yields every set of h, whose head is h as v > max(h), before it moves
    past h, each h of ``level`` comes once, and by the lemma the runs come
    in the lex order of their heads.  The shift's scan relies on this to
    take each head's row once.
    """
    children: dict[int, int] = {}
    for f in level:
        if f:
            top = 1 << (f.bit_length() - 1)
            children[f ^ top] = children.get(f ^ top, 0) | top
    full = (1 << n) - 1
    for h in level:
        allowed = full & ~((1 << h.bit_length()) - 1)  # the vertices past max(h)
        rest = h
        while rest and allowed:
            low = rest & -rest
            allowed &= children.get(h ^ low, 0)
            rest ^= low
        while allowed:
            bit = allowed & -allowed
            yield h | bit
            allowed ^= bit


class SimplicialComplex:
    """A downward-closed family of faces with ambient vertex set [n].

    Faces are grouped by cardinality, and each size class is kept in lex
    order.  The empty face is present exactly when the complex has any face
    at all; the complex with no faces ("void") is permitted and is distinct
    from the complex whose only face is empty.

    Instances are immutable, hashable on ``(n, faces)``, and validate
    downward closure on construction.

    A complex is built from its head map.  The head of a nonempty face is
    the face minus its largest vertex, its top; the head map sends each
    head h to the mask of the tops of the faces with head h, which all lie
    past max(h).  It is the ``children`` map of ``extensions``, and it is
    kept as ``_heads``.  The checks are made per head, not per face:

    * labels: the tops of every head lie below 2^n, checked first, as the
      constructor checks every face's labels first;
    * closure: the size classes are grown from the empty face, size k
      from size k - 1, and each face h placed brings the faces h + t.  As
      it is placed, for each u in h, the tops of h must lie in the tops of
      h - u: the codimension-one faces of h + t are h and the (h - u) + t,
      whose head is h - u and top t, as t > max(h);
    * reach: every head is placed.  A family holds 1 + (the sum of the
      popcounts of the head map) faces, so it is refused when fewer are
      placed.

    With every head a face and each h + t's codimension-one faces in the
    map, the family is closed.  The classes need no sort: size k lists, for
    each (k - 1)-face h in lex order, the k-faces with head h in numeric
    order, that is by top: the order in which ``extensions`` yields them,
    so by its lemma the list is in lex order.  The classes stop at the
    first empty one, which follows the largest face, since a closed family
    has faces of every smaller size.
    """

    __slots__ = ("n", "_faces", "_by_size", "_heads")

    def __init__(self, n: int, faces: Iterable[int] = ()):
        n = operator.index(n)
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"ambient size must lie in 0..{MAX_VERTICES}")
        top = 1 << n
        heads: dict[int, int] = {}
        empty = False
        for m in map(operator.index, faces):
            if m < 0 or m >= top:
                raise ValueError("vertex label out of 1..n")
            if m:
                t = 1 << (m.bit_length() - 1)
                heads[m ^ t] = heads.get(m ^ t, 0) | t
            else:
                empty = True
        self._build(n, heads if heads or empty else None)

    @classmethod
    def _from_heads(cls, n: int, heads: dict[int, int]) -> "SimplicialComplex":
        """The complex on [n] whose head map is ``heads``: the empty face
        and every h + t, t a vertex in ``heads[h]``.

        Each mask of tops must be nonzero and lie past max(h); the labels,
        the closure and the reach are checked as the class docstring
        states, with the errors of the constructor.  The complex keeps
        ``heads``, so the caller must not change it afterwards."""
        K = cls.__new__(cls)
        K._build(n, heads)
        return K

    def _build(self, n: int, heads: dict[int, int] | None) -> None:
        """Fill a new instance from a head map, None for the void complex."""
        self.n = n
        if heads is None:
            self._faces, self._by_size, self._heads = frozenset(), (), {}
            return
        if functools.reduce(operator.or_, heads.values(), 0) >> n:
            raise ValueError("vertex label out of 1..n")
        get = heads.get
        faces = [0]
        by_size = []
        level = (EMPTY_FACE,)
        while level:
            by_size.append(level)
            grown = []
            for h in level:
                tops = get(h)
                if not tops:
                    continue
                rest = h
                while rest:
                    low = rest & -rest
                    if tops & ~get(h ^ low, 0):
                        raise ValueError("face family is not downward closed")
                    rest ^= low
                while tops:
                    t = tops & -tops
                    grown.append(h | t)
                    tops ^= t
            faces += grown
            level = tuple(map(Face, grown))
        if len(faces) != 1 + sum(map(int.bit_count, heads.values())):  # a head not placed
            raise ValueError("face family is not downward closed")
        # through a set: a frozenset sizes its table to a set it copies, but
        # grows one from a list by fourfold steps, up to twice the memory
        self._faces = frozenset(set(faces))
        self._by_size = tuple(by_size)
        self._heads = heads

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_facets(cls, n: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Downward closure of the given facets.

        ``from_facets(n, [])`` has no faces at all, while a single empty
        facet yields the complex ``{[]}``.
        """
        faces: set[int] = set()
        for facet in facets:
            m = facet if isinstance(facet, int) else Face.from_vertices(facet)
            if not 0 <= m < 1 << n:
                raise ValueError("vertex label out of 1..n")
            if m in faces:
                continue
            # enumerate all submasks of m, including 0
            sub = m
            while True:
                faces.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & m
        return cls(n, faces)

    @classmethod
    def point(cls) -> "SimplicialComplex":
        return cls.from_facets(1, [[1]])

    @classmethod
    def complete(cls, n: int, ambient: int | None = None) -> "SimplicialComplex":
        """The full simplex on [n], optionally inside a larger ambient set."""
        ambient = n if ambient is None else ambient
        if ambient < n:
            raise ValueError("ambient size smaller than vertex count")
        return cls(ambient, range(1 << n))

    # ------------------------------------------------------------------
    # queries

    @property
    def is_void(self) -> bool:
        return not self._faces

    @property
    def dim(self) -> int:
        """Max face cardinality minus one; {[]} has dim -1, void dim -2."""
        return len(self._by_size) - 2

    @property
    def f_vector(self) -> tuple[int, ...]:
        """Face counts ``(f_-1, f_0, ..., f_dim)``; empty for the void complex."""
        return tuple(len(g) for g in self._by_size)

    @property
    def num_vertices(self) -> int:
        return len(self._by_size[1]) if len(self._by_size) > 1 else 0

    @property
    def support(self) -> Face:
        """Union of all faces, as a mask."""
        m = 0
        for f in self.faces_of_size(1):
            m |= f
        return Face(m)

    def faces_of_size(self, k: int) -> tuple:
        if k < 0 or k >= len(self._by_size):
            return ()
        return self._by_size[k]

    def all_faces(self) -> Iterator[Face]:
        for g in self._by_size:
            yield from g

    def face_set(self) -> frozenset:
        return self._faces

    def facets(self) -> list:
        """The maximal faces, by size then lex: the faces that are no
        face's codimension-one subface."""
        covered = set()
        for m in self._faces:
            probe = m
            while probe:
                low = probe & -probe
                covered.add(m ^ low)
                probe ^= low
        return [f for f in self.all_faces() if f not in covered]

    def __contains__(self, face: int) -> bool:
        return face in self._faces

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.n == other.n
            and self._faces == other._faces
        )

    def __hash__(self) -> int:
        return hash((self.n, self._faces))

    def __repr__(self) -> str:
        shown = ", ".join("{%s}" % ",".join(map(str, f)) for f in self.facets())
        return f"SimplicialComplex(n={self.n}, facets=[{shown}])"

    def is_shifted(self) -> bool:
        """Whether the family is closed downward under the domination order.

        Only the trades of a vertex ``v`` for ``v - 1`` are needed.  Let
        ``S != T`` have the same size with ``s_j <= t_j`` for every j, and
        let i be the first index with ``s_i < t_i``.  Then ``t_i - 1`` is
        not in ``T`` (it is at least ``s_i``, which exceeds ``t_{i-1} =
        s_{i-1}``), and trading ``t_i`` for ``t_i - 1`` gives a face that
        lies between ``S`` and ``T``; repeating the step reaches ``S``.

        The trades are checked per head h, with tops T, on the head map.  A
        face is h + t, t in T.  Trading the top t keeps the head: t - 1 is
        free when it lies past max(h), and h + (t - 1) must be a face, so T
        must be a run of vertices starting right after max(h), that is, T
        plus the bit of max(h) + 1 is a power of two.  Trading a vertex b of
        h with b - 1 free keeps the top, as t > max(h): the face is h' + t,
        h' = h - b + (b - 1), so T must lie in the tops of h'.
        """
        heads = self._heads
        for h, tops in heads.items():
            run = tops + (1 << h.bit_length())
            if run & (run - 1):
                return False
            # b in h with b >= 2 and b - 1 not in h
            movable = h & ~(h << 1) & ~1
            while movable:
                b = movable & -movable
                if tops & ~heads.get(h ^ b ^ (b >> 1), 0):
                    return False
                movable ^= b
        return True

    # ------------------------------------------------------------------
    # relabelings

    def permuted(self, pi: Mapping[int, int]) -> "SimplicialComplex":
        """Apply a vertex permutation of [n] to every face."""
        if sorted(pi) != list(range(1, self.n + 1)) or sorted(pi.values()) != list(
            range(1, self.n + 1)
        ):
            raise ValueError("permutation must be a bijection of 1..n")
        return SimplicialComplex(self.n, _remap(self._faces, pi))

    def compacted(self) -> "SimplicialComplex":
        """The complex with its support relabeled, in order, onto [m], m
        the number of its vertices."""
        old = vertex_tuple(self.support)
        code = {v: i + 1 for i, v in enumerate(old)}
        return SimplicialComplex(len(old), _remap(self._faces, code))
