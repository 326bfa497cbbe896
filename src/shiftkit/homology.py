"""Interior products, boundary operators and reduced Betti numbers.

Chain spaces are spanned by the faces of a complex, one coordinate per
face of a fixed cardinality; the empty face spans the degree -1 line, so
all homology here is reduced.  Elements are dicts ``mask -> residue``.
"""

from __future__ import annotations

import operator
from typing import Mapping

from .complexes import Face, SimplicialComplex, iter_vertices
from .field import DEFAULT_PRIME, FieldMatrix, check_prime


def interior_sign(t: int, s: int) -> int:
    """Sign of contracting ``e_T`` out of ``e_S`` for ``T`` a subset of ``S``:
    ``(-1)**a`` with ``a`` the number of pairs ``(x, y)``, ``x`` in ``S - T``,
    ``y`` in ``T``, ``y < x``."""
    return wedge_sign(s & ~t, t)


def wedge_sign(s: int, t: int) -> int:
    """Sign collected when sorting ``e_S ^ e_T`` for disjoint S, T:
    ``(-1)`` to the number of pairs ``(x, y)`` in ``S x T`` with ``y < x``."""
    a = 0
    for y in iter_vertices(t):
        a += (s >> y).bit_count()
    return -1 if a & 1 else 1


def wedge_elements(x: Mapping[int, int], y: Mapping[int, int], p: int = DEFAULT_PRIME) -> dict:
    """Wedge of two chain elements given as ``mask -> coefficient`` dicts:
    ``e_S ^ e_T`` is ``wedge_sign(S, T) e_(S | T)`` for disjoint S and T,
    and 0 otherwise."""
    out: dict[int, int] = {}
    for s, a in x.items():
        for t, b in y.items():
            if s & t:
                continue
            u = Face(s | t)
            c = (out.get(u, 0) + wedge_sign(s, t) * a * b) % p
            if c:
                out[u] = c
            else:
                out.pop(u, None)
    return out


def interior_matrix(
    K: SimplicialComplex,
    element: Mapping[int, int],
    k: int,
    p: int = DEFAULT_PRIME,
) -> FieldMatrix:
    """Matrix of contraction by a homogeneous element on the degree-k chains.

    Columns index the size-k faces of ``K`` (lex order), rows the size
    ``k - r`` faces, where ``r`` is the element's homogeneous degree.  The
    contraction of a face of ``K`` stays supported on faces of ``K``, so
    the operator is well defined on the chain spaces of the complex.

    Args:
        element: ``mask -> residue`` with all masks of one cardinality.
        k: source cardinality.
    """
    p = check_prime(p)
    degrees = {m.bit_count() for m in element}
    if len(degrees) > 1:
        raise ValueError("element must be homogeneous")
    r = degrees.pop() if degrees else 0
    if k < r:
        raise ValueError("source degree below element degree")
    cols = K.faces_of_size(k)
    rows = K.faces_of_size(k - r)
    row_idx = {f: i for i, f in enumerate(rows)}
    terms = {t: operator.index(c) % p for t, c in element.items()}
    mat = [[0] * len(cols) for _ in rows]
    for j, fm in enumerate(cols):
        for t, coeff in terms.items():
            if coeff and not (t & ~fm):
                i = row_idx[fm & ~t]
                sign = interior_sign(t, fm)
                mat[i][j] = (mat[i][j] + sign * coeff) % p
    return FieldMatrix._from_residues(mat, p)


def boundary_matrix(
    K: SimplicialComplex,
    g: Mapping[int, int] | None,
    k: int,
    p: int = DEFAULT_PRIME,
) -> FieldMatrix:
    """Contraction by a degree-1 element, i.e. a weighted boundary operator.

    Args:
        g: vertex label -> coefficient; ``None`` means all-ones, which is
           the standard simplicial boundary up to a per-degree sign.
        k: source cardinality (``k = i + 1`` for dimension ``i``).
    """
    p = check_prime(p)
    if g is None:
        g = {v: 1 for v in iter_vertices(K.support)}
    element = {1 << (v - 1): operator.index(c) % p for v, c in g.items()}
    return interior_matrix(K, element, k, p)


def betti_direct(K: SimplicialComplex, p: int = DEFAULT_PRIME) -> tuple[int, ...]:
    """Reduced Betti numbers over Z/p from boundary ranks.

    Returns ``(b_-1, b_0, ..., b_dim)``, aligned with ``K.f_vector``.  The
    degree -1 entry is 1 exactly for the complex whose only face is empty.
    Over a prime field these agree with rational Betti numbers unless the
    complex has p-torsion.
    """
    p = check_prime(p)
    if K.is_void:
        return ()
    fv = K.f_vector
    top = len(fv) - 1  # max cardinality
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        ranks[k] = boundary_matrix(K, None, k, p).rank()
    return tuple(fv[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))


def betti_from_shifted(D: SimplicialComplex) -> tuple[int, ...]:
    """Reduced Betti numbers of a shifted complex, read combinatorially.

    For a shifted complex the degree-i Betti number counts the size
    ``i + 1`` faces whose union with vertex 1 is not a face.
    """
    if D.is_void:
        return ()
    if not D.is_shifted():
        raise ValueError("complex is not shifted")
    out = []
    for k in range(len(D.f_vector)):
        out.append(sum(1 for f in D.faces_of_size(k) if f | 1 not in D))
    return tuple(out)


def is_near_cone(K: SimplicialComplex, v: int) -> bool:
    """Whether every face stays a face after trading any of its vertices
    for ``v``."""
    if v < 1 or v > K.n:
        return False
    bit = 1 << (v - 1)
    for m in K.all_faces():
        if m & bit:
            continue
        for u in iter_vertices(m):
            if (m ^ (1 << (u - 1))) | bit not in K:
                return False
    return True


def _alpha_product(mask: int, alphas: dict[int, int], p: int) -> int:
    out = 1
    for v in iter_vertices(mask):
        out = out * alphas[v] % p
    return out


def sarkaria_maps(
    K: SimplicialComplex,
    alphas: Mapping[int, int],
    p: int = DEFAULT_PRIME,
) -> tuple[dict[int, FieldMatrix], dict[int, FieldMatrix]]:
    """Per-degree matrices of the two chain isomorphisms that carry the
    vertex-1 contraction to a generic weighted contraction.

    ``K`` must be a near cone with respect to vertex 1.  With
    ``f = sum alphas[i] e_i``:

    * ``U`` fixes ``e_S`` when ``1 in S`` and otherwise sends it to
      ``e_S - sum_i (-1)**|{t in S : t < i}| e_{S - i + 1}``; it interlaces
      contraction by ``e_1`` with contraction by the all-ones element.
    * ``D`` scales ``e_S`` by the inverse of ``prod_{i in S} alphas[i]``;
      it interlaces the all-ones contraction with contraction by ``f``.

    Returns:
        ``(U, D)``: dicts keyed by face cardinality.
    """
    p = check_prime(p)
    if not is_near_cone(K, 1):
        raise ValueError("complex is not a near cone at vertex 1")
    a = {operator.index(v): operator.index(c) % p for v, c in alphas.items()}
    for v in iter_vertices(K.support):
        if not a.get(v):
            raise ValueError(f"coefficient for vertex {v} must be nonzero")
    U: dict[int, FieldMatrix] = {}
    D: dict[int, FieldMatrix] = {}
    for k in range(len(K.f_vector)):
        faces = K.faces_of_size(k)
        idx = {f: i for i, f in enumerate(faces)}
        u_mat = [[0] * len(faces) for _ in faces]
        d_mat = [[0] * len(faces) for _ in faces]
        for j, m in enumerate(faces):
            u_mat[j][j] = 1
            d_mat[j][j] = pow(_alpha_product(m, a, p), -1, p)
            if m & 1:
                continue
            below = 0
            for u in iter_vertices(m):
                target = (m ^ (1 << (u - 1))) | 1
                sign = -1 if below & 1 else 1
                i = idx[target]  # guaranteed a face: near-cone trade
                u_mat[i][j] = (u_mat[i][j] - sign) % p
                below += 1
        U[k] = FieldMatrix._from_residues(u_mat, p)
        D[k] = FieldMatrix._from_residues(d_mat, p)
    return U, D
