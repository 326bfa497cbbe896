"""Instance generators for randomized and exhaustive checks.

All randomness flows through an explicit ``random.Random`` handed in by
the caller, so every run is reproducible from its seed.
"""

from __future__ import annotations

import random
from typing import Iterator

from .complexes import Face, SimplicialComplex, _remap, iter_k_subsets, iter_vertices, vertex_tuple
from .engine import shifted
from .field import DEFAULT_PRIME

__all__ = [
    "all_complexes",
    "all_shifted_complexes",
    "glue",
    "random_complex",
    "random_near_cone",
    "random_permutation",
    "random_shifted",
]


def random_complex(
    rng: random.Random, n: int, *, max_size: int | None = None
) -> SimplicialComplex:
    """A nonempty complex on ambient ``[n]``, skewed toward small facets.

    Facet sizes are capped at ``min(n, 6)`` (or ``max_size``) so that
    random instances stay cheap to shift.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    top = min(n, 6) if max_size is None else min(n, max_size)
    facets = []
    for _ in range(rng.randint(1, max(2, n))):
        # the min of two draws skews toward low-dimensional facets
        size = 1 + min(rng.randrange(top), rng.randrange(top))
        facets.append(Face.from_vertices(rng.sample(range(1, n + 1), size)))
    return SimplicialComplex.from_facets(n, facets)


def random_permutation(rng: random.Random, n: int) -> dict[int, int]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return {v: images[v - 1] for v in range(1, n + 1)}


def random_shifted(
    rng: random.Random, n: int, *, p: int = DEFAULT_PRIME
) -> SimplicialComplex:
    """The shift of a random complex; shifted by construction."""
    return shifted(random_complex(rng, n), seed=rng.randrange(1 << 32), p=p)


def random_near_cone(rng: random.Random, n: int) -> SimplicialComplex:
    """A near cone with apex 1: a cone over a random base on ``{2..n}``
    plus up to three faces avoiding the apex whose whole boundary lies in the
    base, so swapping any of their vertices for the apex stays inside.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    base = random_complex(rng, n - 1, max_size=4).relabeled(1)
    faces = set(base.all_faces())
    faces.update(Face(int(m) | 1) for m in base.all_faces())
    base_faces = base.face_set()
    candidates = []
    for size in range(1, n):
        for m in iter_k_subsets(n - 1, size):
            m <<= 1  # a subset of {2..n}, in lex order
            if m in base_faces:
                continue
            if all(m & ~(1 << (v - 1)) in base_faces for v in iter_vertices(m)):
                candidates.append(m)
    extras = rng.randint(0, 3)
    faces.update(rng.sample(candidates, min(extras, len(candidates))))
    return SimplicialComplex(n, faces)


def all_complexes(n: int) -> Iterator[SimplicialComplex]:
    """Every nonempty downward-closed family on ambient ``[n]``, the
    single-empty-face complex included.  Exponential in ``2**n``: meant
    for ``n <= 4``.
    """
    masks = list(range(1, 1 << n))
    for bits in range(1 << len(masks)):
        chosen = {m for i, m in enumerate(masks) if bits >> i & 1}
        try:
            K = SimplicialComplex(n, chosen | {0})
        except ValueError:  # not downward closed
            continue
        yield K


def all_shifted_complexes(n: int) -> list:
    return [K for K in all_complexes(n) if K.is_shifted()]


def glue(A: SimplicialComplex, B: SimplicialComplex, sigma: int) -> SimplicialComplex:
    """Identify the first ``|sigma|`` vertices of ``B`` with the face
    ``sigma`` of ``A`` (in increasing order) and push ``B``'s remaining
    labels above ``A``'s ambient set.

    The two pieces then meet in exactly the full simplex on ``sigma``, so
    the result is a clique sum; ``B`` must contain that full simplex.
    """
    k = len(Face(sigma))
    if sigma and sigma not in A:
        raise ValueError("sigma must be a face of the first operand")
    if (1 << k) - 1 not in B:
        raise ValueError(
            "second operand must contain the full simplex on its first"
            f" {k} vertices"
        )
    target = vertex_tuple(sigma)
    image = {v: target[v - 1] if v <= k else A.n + v - k for v in range(1, B.n + 1)}
    mapped = _remap(B.face_set(), image)
    return SimplicialComplex(A.n + B.n - k, A.face_set().union(mapped))
