"""The accumulator's slot layout written and read byte by byte.

``field.pack_residues`` packs residues only; tests also pack unreduced
vectors, whose slots reach (MAX_VERTICES + width)(p - 1)^2 and, at the
edges, 2^(8 nb) - 1, and read such vectors back slot by slot.  This pair
shares no code with the package's packer, so it is also its reference.
"""

from itertools import repeat


def pack_slots(slots, nb):
    """One int holding ``slots``, each in 0..2^(8 nb) - 1, slot i in bits
    [8 nb i, 8 nb (i + 1)).  A slot too large raises ``OverflowError``."""
    return int.from_bytes(b"".join(map(int.to_bytes, slots, repeat(nb), repeat("little"))), "little")


def unpack_slots(v, nb, width):
    """The ``width`` slots of ``nb`` bytes that ``v`` packs, the inverse of
    ``pack_slots``; a ``v`` of more slots raises ``OverflowError``."""
    buf = v.to_bytes(width * nb, "little")
    return [int.from_bytes(buf[i : i + nb], "little") for i in range(0, width * nb, nb)]
