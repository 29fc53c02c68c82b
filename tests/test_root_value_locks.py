"""Root-of-unity values locked by digest.

Each digest is the sha256 of one line per value, ``order|c_0,c_1,...``
(the reduced power-basis coordinates of the :class:`CycNumber`), taken
before the group-ring sums moved to packed integers.  A change that moves
one of them must fix a value and say so in CHANGES.md.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from qmaass.cyclotomic import CycNumber, cyclotomic_polynomial
from qmaass.families import kz_root_value, u_root_value
from qmaass.maass import quantum_value


def _digest(values) -> str:
    lines = (f"{v.order}|" + ",".join(str(c) for c in v.vec) for v in values)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _lock_x(d: int) -> Fraction:
    """x = p/d with p the first unit mod d above d/3."""
    return Fraction(next(p for p in itertools.count(d // 3 + 1) if math.gcd(p, d) == 1), d)


# Every denominator at k = 1; at k = 2 and 3 all up to 32 and a spread
# above, up to the order bound 128 at k = 2 (k = 3 at order 96 and up
# takes seconds per value).
LOCK_DENOMINATORS = {
    1: tuple(range(1, 129)),
    2: (*range(1, 33), 40, 48, 60, 64, 96, 127, 128),
    3: (*range(1, 33), 40, 48, 60, 64),
}


def _inverse_inputs(L: int) -> list:
    """Two seeded elements of Q(zeta_L), about 70 % of coordinates nonzero:
    one with integer coordinates, one with denominators up to 4."""
    rng = random.Random(L)
    degree = len(cyclotomic_polynomial(L)) - 1
    out = []
    for dens in ((1,), (1, 2, 3, 4)):
        while True:
            vec = [
                Fraction(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < 0.7 else 0
                for _ in range(degree)
            ]
            x = CycNumber(L, vec)
            if not x.is_zero():
                out.append(x)
                break
    return out


LOCKED_ROOT_VALUES = {  # (k, ell): (kz_root_value, u_root_value) over N = 1..40
    (1, 1): (
        "8c5098e83a1509d1e475cde430e1ab4b534c91b17ecaa293e0738c5859c846bb",
        "8c5098e83a1509d1e475cde430e1ab4b534c91b17ecaa293e0738c5859c846bb",
    ),
    (2, 1): (
        "890a559ee282929ad786689bfcc011569b99be1a33186f3fec38283f328c4532",
        "890a559ee282929ad786689bfcc011569b99be1a33186f3fec38283f328c4532",
    ),
    (2, 2): (
        "1e898fec73a1b7736e81e3ece3ddff5719e1a01db9f5bc3642b88a26e72626ae",
        "1e898fec73a1b7736e81e3ece3ddff5719e1a01db9f5bc3642b88a26e72626ae",
    ),
    (3, 1): (
        "841ff8e920688fb542f067e20f5a5d210125fcfd91d3ff3443469199c30c008d",
        "841ff8e920688fb542f067e20f5a5d210125fcfd91d3ff3443469199c30c008d",
    ),
    (3, 2): (
        "74b7155a3530cd9507c6d3bf6a7e9f61c3325150d05bb3ae62008155f3add8f4",
        "74b7155a3530cd9507c6d3bf6a7e9f61c3325150d05bb3ae62008155f3add8f4",
    ),
    (3, 3): (
        "b849403ee06d6a8eadcad88002b7bcf7cef297e6e3ef1e24779282102d1854f7",
        "b849403ee06d6a8eadcad88002b7bcf7cef297e6e3ef1e24779282102d1854f7",
    ),
    (4, 1): (
        "4f5a833b7de8587d2a4594baa2106eb59e73ce6e948a0641549587b54493e653",
        "4f5a833b7de8587d2a4594baa2106eb59e73ce6e948a0641549587b54493e653",
    ),
    (4, 2): (
        "e4c81e7d2d93777386b1052f95e2e39708cfdae3e492ca069e8507e8dc9b2db8",
        "e4c81e7d2d93777386b1052f95e2e39708cfdae3e492ca069e8507e8dc9b2db8",
    ),
    (4, 3): (
        "e4200df20fd5100ff6f912ed1a902012bda6e0064cdd0ac1fc53c97c785cee8e",
        "e4200df20fd5100ff6f912ed1a902012bda6e0064cdd0ac1fc53c97c785cee8e",
    ),
    (4, 4): (
        "26bc0ca163e06c6cc07edaf15ad00ce9aace21a9f38a81599b07e9feab702a53",
        "26bc0ca163e06c6cc07edaf15ad00ce9aace21a9f38a81599b07e9feab702a53",
    ),
}


LOCKED_QUANTUM_VALUES = {  # (j, k, ell) over the denominators LOCK_DENOMINATORS[k]
    (1, 1, 1): "b714b095b240c5096e256dc6f669853358a8887bc4fe8fb341af176d4f33396f",
    (1, 2, 1): "94bf709de9839c681cafeb687d21e35dfff1058bbd82017f94abf9bc3347afba",
    (1, 2, 2): "11c167d3b2cd37ed59b23823dd574753e5b0e914efc07c1cfc9b3a04703ab9f0",
    (1, 3, 1): "5c98835f80e8729b5b744566397619feee3d471b380e0dd4926be0a6cda1156b",
    (1, 3, 2): "bbc4bd01fb55daf9e1a7b3c15aa00927b642fa36359f0e9dc74ef801c23fcdc7",
    (1, 3, 3): "53c3dea8d63228a463d46ab1cb165d95582ebab1fc66c354f0ed4fb4e767ccbc",
    (2, 1, 1): "50302fa820e28a7a66384ece6a9d1d50ffb9a299f9a5befeb6bdaebddefa486c",
    (2, 2, 1): "ab1874c7eddca2c4ae8864171d2f797c3aac586628b9f99380cc7d017423d01c",
    (2, 2, 2): "c2f68a27ba7adca83511bc5e2ab8fd0e76bbc14f4429d942ac6f14a13615390c",
    (2, 3, 1): "304daf60f7aac823ab391ff5954da568ba1dfa3b1c02cf60712c931f606311ee",
    (2, 3, 2): "e0924addb5c51872710f304d69cf3fde0a2548e9bf2d6d2097c0c75db21cbfd0",
    (2, 3, 3): "d8db90eaac1ea8111b17a8a6f0770eaf291e3a0e92b066f012e02cdc3a61ebb6",
    (3, 1, 1): "49956e6e134e179a3467b27cb032da43a1e151a0f275c5c8501626e04a42940c",
    (3, 2, 1): "82d37966566a4bf758af68a545846c51f969ada267e6012c78751fd16f93c5c4",
    (3, 2, 2): "fe5d2da3a23b4d2874b6fe4061568221d61a0e5d1bdb3f9cf231fbabc897bac0",
    (3, 3, 1): "faeb8a842a4594c438c71d0ca6f67969b53096379156314a46f50af3c877e52a",
    (3, 3, 2): "31ebd7025cfa22b31923436a3f691a2eaae82292736af0e8e4bc415b2bd49108",
    (3, 3, 3): "d63d4d31f61476724c1314011daa2aff7d94f2f01c093579da9d2536e6f93804",
    (4, 1, 1): "0ab7938dd06a2178dc14f7e6b9b58c5e0bb9787fb53871b7b65c13ed032f863a",
    (4, 2, 1): "d5cbb12078927af42b8de0a2cd9b20f630caee1edc174f8e21e6ad9b27f42a28",
    (4, 2, 2): "8988067c933b288809f4716dd5a9431e2527d9debdf58cc37a688be25e0cf4b0",
    (4, 3, 1): "f19a9ba43439296e8271240d09de11a46139d9e67f2658c2a72b67d2ddddcd55",
    (4, 3, 2): "b5797066d04a2fa88a557cf714117297637784dc8fb7afea30c8b2de94e6eef6",
    (4, 3, 3): "d674884460cbc415b1cf3f6dbcdc3ee837ce15df2365708664b50a0642573588",
}

LOCKED_INVERSES = "2a9c9334c7bf9545b67643d9c8cb68eccfa19cb38092f7e4f395b3a80377d017"


@pytest.mark.parametrize("k, ell", sorted(LOCKED_ROOT_VALUES))
def test_kz_and_u_root_values_are_locked(k, ell):
    kz = _digest(kz_root_value(k, ell, N) for N in range(1, 41))
    u = _digest(u_root_value(k, ell, N) for N in range(1, 41))
    assert (kz, u) == LOCKED_ROOT_VALUES[(k, ell)]


@pytest.mark.parametrize("j, k, ell", sorted(LOCKED_QUANTUM_VALUES))
def test_quantum_values_are_locked(j, k, ell):
    values = (quantum_value(j, k, ell, _lock_x(d)).value for d in LOCK_DENOMINATORS[k])
    assert _digest(values) == LOCKED_QUANTUM_VALUES[(j, k, ell)]


def test_inverses_are_locked():
    inverses = [x.inverse() for L in range(1, 61) for x in _inverse_inputs(L)]
    assert _digest(inverses) == LOCKED_INVERSES
