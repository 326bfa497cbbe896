"""Instance generators for randomized and exhaustive checks.

All randomness flows through an explicit ``random.Random`` handed in by
the caller, so every run is reproducible from its seed.
"""

from __future__ import annotations

import random
from typing import Iterator

from .complexes import Face, SimplicialComplex, _remap, extensions, vertex_tuple
from .engine import shifted
from .field import DEFAULT_PRIME
from .operators import cone

__all__ = [
    "all_complexes",
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
    base = random_complex(rng, n - 1, max_size=4)
    candidates = []  # by size, then lex: the order rng.sample draws from
    for k in range(1, len(base.f_vector) + 1):
        grown = extensions(base.faces_of_size(k - 1), n - 1)
        candidates += (m for m in grown if m not in base)
    extras = rng.randint(0, 3)
    chosen = rng.sample(candidates, min(extras, len(candidates)))
    # the cone moves the base's labels up by 1, past its apex
    return SimplicialComplex(n, cone(base).face_set().union(m << 1 for m in chosen))


def all_complexes(n: int) -> Iterator[SimplicialComplex]:
    """Every nonempty downward-closed family on ambient ``[n]``, the
    single-empty-face complex included, each once.

    The enumeration is exact.  A family is grown one size class at a time:
    class k is a nonempty subset of the sets ``extensions`` finds over
    class k - 1, and the family may stop after any class.  Distinct choices
    give distinct families, and every closed family arises this way.  It is
    fine through ``n = 5`` (7,580 families); ``n = 6`` has 7,828,353.
    """

    def grow(faces: list, level: list) -> Iterator[SimplicialComplex]:
        yield SimplicialComplex(n, faces)
        grown = list(extensions(level, n))
        for bits in range(1, 1 << len(grown)):
            # a sublist of a lex-ordered list stays in lex order
            chosen = [m for i, m in enumerate(grown) if bits >> i & 1]
            yield from grow(faces + chosen, chosen)

    return grow([0], [0])


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
