"""Pure-Python Ed25519 (RFC 8032) signatures on Lim–Lee comb tables.

The paper (§VI) signs dictionary roots with Ed25519 to keep the signed root
small: 32-byte public keys and 64-byte signatures.  No third-party crypto
library is assumed to be available, so this module implements the scheme from
scratch on top of Python integers.

Every scalar multiplication is a *comb* walk.  A point's comb table holds
the ``2**teeth`` sums of its teeth ``[2**(span*t)]Q``, where ``span =
⌈256 / teeth⌉`` follows from the tooth count; reading a scalar as ``teeth``
rows of ``span`` bits, ``[k]Q`` costs ``span`` doublings and one table
addition per doubling, and several scalars share the doublings
(:func:`_comb_mult`), each joining the walk where its own span starts.  The
base point's table is built once at import and can afford to be wide: 10 ×
26, 1,024 entries (~250 KB).  A verification key's table, 8 × 32 with 256
entries (~63 KB), is built from ``−A`` the first time the key is seen and kept
in a bounded LRU keyed by the exact 32 key bytes (:func:`_key_table`), so
:func:`verify` is one joint ``[s]B + [h](−A)`` walk of 32 doublings and 58
additions.  The LRU holds 64 keys, ~4 MB when full: verifiers in RITM check a
small fixed set of CA keys over and over — no registered scenario's smoke run
verifies under more than 4 distinct keys, nor does any benchmark workload —
so the bound sets the memory, not the hit rate, and the geometry spends that
memory on fewer doublings per verification instead of on keys never seen.
The table is a pure function of the key bytes; the only verdict the cache can
hold is "this key is malformed or small-order", never the acceptance of a
signature.  Signing memoises the expanded secret and public key per seed
(:func:`_expand_secret`; seeds stay in process memory, as they already do in
every ``PrivateKey``), leaving one base-table walk (26 + 26) per signature.

Inside a point operation a product is reduced only to a congruent value.
Since 2^255 ≡ 19 (mod P), ``(t & (2**255 − 1)) + 19 * (t >> 255)`` is ``t``
mod P for every integer ``t``, negative ones included, and divides by
nothing: a 255-bit product folded costs about 40 % less than one taken
``% P`` (the reduction Bernstein et al. build Ed25519's field arithmetic
on, "High-speed high-security signatures", 2011).  The products an
operation reads again are folded: in a doubling the squares of ``X``,
``Y``, ``X + Y`` and ``Z``; in an addition the two ``(Y ∓ X)`` products and
``T·2d`` (and, in the walk, ``T = e·h`` itself).  The coordinates an
operation returns keep a full ``% P``.  That keeps every operand below
2^280, so nothing grows from step to step, and every point that is
compared, compressed or stored in a table is fully reduced: no signature,
key or verdict depends on the fold, only the size of the intermediates.

Verification uses RFC 8032 §5.1.7's *cofactored* equation
``[8][s]B == [8]R + [8][h]A`` after rejecting small-order ``A`` and ``R``: it
is the form the RFC specifies (the cofactorless one is only permitted), and
it is the only form whose verdict is the same whether signatures are checked
one at a time or folded into a combined equation, because both ignore the
same 8-torsion component.  A signature that differs from an honest one only
by torsion, in ``A`` or in ``R``, is therefore accepted, on purpose.

:func:`verify` does not decompress an honest ``R``: it computes ``Q = [s]B −
[h]A`` and compares ``Q``'s compressed form with the 32 bytes of ``R``.
Compression is canonical, so equal bytes mean exactly that ``R`` decodes, to
``Q``; the equation then holds with nothing to clear and the one check left
is that ``Q`` is not of small order — a lookup of ``R``'s bytes among the
eight encodings of the 8-torsion subgroup (:data:`_SMALL_ORDER_ENCODINGS`,
derived at import).  No verdict can change: on equal bytes every check of the
long path has the answer the long path would give, and on unequal bytes the
long path itself runs (decompress ``R``, reject small order, compare ``[8]Q``
with ``[8]R``), which is where torsion variants are accepted and forgeries
rejected — at one square root more than an honest signature.  Python 3.11
on a 2-vCPU Intel Xeon takes about 0.30 ms per verification under a cached
key, 0.47 ms for a rejected one, 3.1 ms under a new key (the table build)
and 0.18 ms per signature.

Nothing here is constant time: table lookups are indexed by scalar bits —
the secret nonce and key when signing — and Python integers are variable time
anyway.  RITM signs a root at most once per Δ; the latency-critical
per-connection operations rely on hash-only proofs.
"""

from __future__ import annotations

import hashlib
import itertools
from functools import lru_cache
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.errors import CryptoError, SignatureError

# --------------------------------------------------------------------------
# Curve parameters (edwards25519)
# --------------------------------------------------------------------------

#: Field prime 2^255 - 19.
P = 2**255 - 19
#: The low 255 bits: ``(t & _LOW) + 19 * (t >> 255)`` is ``t`` folded (see above).
_LOW = 2**255 - 1
#: Group order.
L = 2**252 + 27742317777372353535851937790883648493
#: Curve constant d = -121665/121666 mod p.
D = -121665 * pow(121666, -1, P) % P
#: sqrt(-1) mod p, used during point decompression.
SQRT_M1 = pow(2, (P - 1) // 4, P)

#: Size in bytes of public keys and of each signature half.
KEY_SIZE = 32
SIGNATURE_SIZE = 64

#: Comb geometry: a table of ``2**teeth`` entries reads a scalar as ``teeth``
#: rows of ``⌈256 / teeth⌉`` bits (:func:`_comb_span`).  The base point's one
#: table is 10 × 26; each verification key's is 8 × 32.
BASE_TEETH = 10
KEY_TEETH = 8
#: Verification keys (and signing seeds) whose derived state is kept.
KEY_TABLE_CAPACITY = 64

_Point = Tuple[int, int, int, int]  # extended homogeneous coordinates (X, Y, Z, T)
_TableEntry = Tuple[int, int, int]  # affine point as (y − x, y + x, 2d·x·y)
_Table = Tuple[_TableEntry, ...]
_NEUTRAL: _Point = (0, 1, 1, 0)


def _sha512_int(data: bytes) -> int:
    return int.from_bytes(hashlib.sha512(data).digest(), "little")


# --------------------------------------------------------------------------
# Point arithmetic in extended homogeneous coordinates
# --------------------------------------------------------------------------


def _point_add(p: _Point, entry: _TableEntry) -> _Point:
    """``p`` plus a table entry (7 multiplications: the entry's products are precomputed)."""
    x1, y1, z1, t1 = p
    y_minus_x, y_plus_x, t2d = entry
    a = (y1 - x1) * y_minus_x
    a = (a & _LOW) + 19 * (a >> 255)
    b = (y1 + x1) * y_plus_x
    b = (b & _LOW) + 19 * (b >> 255)
    c = t1 * t2d
    c = (c & _LOW) + 19 * (c >> 255)
    d = 2 * z1
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _point_double(p: _Point) -> _Point:
    """Dedicated doubling (4 squarings + 4 multiplications; "dbl-2008-hwcd", a = −1)."""
    x, y, z, _ = p
    a = x * x
    a = (a & _LOW) + 19 * (a >> 255)
    b = y * y
    b = (b & _LOW) + 19 * (b >> 255)
    h = a + b
    e = (x + y) * (x + y)
    e = h - (e & _LOW) - 19 * (e >> 255)
    g = a - b
    f = 2 * z * z
    f = (f & _LOW) + 19 * (f >> 255) + g
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _point_compress(p: _Point) -> bytes:
    x, y, z, _ = p
    zinv = pow(z, -1, P)
    x, y = x * zinv % P, y * zinv % P
    return int.to_bytes(y | ((x & 1) << 255), KEY_SIZE, "little")


def _point_decompress(data: bytes) -> _Point:
    """RFC 8032 §5.1.3: one exponentiation yields the candidate root of u/v."""
    if len(data) != KEY_SIZE:
        raise CryptoError(f"compressed point must be {KEY_SIZE} bytes")
    y = int.from_bytes(data, "little")
    sign = y >> 255
    y &= (1 << 255) - 1
    if y >= P:
        raise CryptoError("point decompression failed: y out of range")
    u = (y * y - 1) % P
    v = (D * y * y + 1) % P
    x = u * v**3 * pow(u * v**7, (P - 5) // 8, P) % P
    vxx = v * x * x % P
    if vxx != u:
        if vxx != P - u:
            raise CryptoError("point decompression failed: not a square")
        x = x * SQRT_M1 % P
    if x == 0 and sign:
        raise CryptoError("point decompression failed: invalid sign bit")
    if x & 1 != sign:
        x = P - x
    return (x, y, 1, x * y % P)


def _point_equal(p: _Point, q: _Point) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0


def _mul_by_cofactor(point: _Point) -> _Point:
    """``[8] point`` (three doublings)."""
    return _point_double(_point_double(_point_double(point)))


# --------------------------------------------------------------------------
# Comb tables and the joint walk
# --------------------------------------------------------------------------


def _table_entries(points: Sequence[_Point]) -> _Table:
    """The points in affine table form; Montgomery's trick inverts every Z with one inversion."""
    partial = [1]
    for _, _, z, _ in points:
        partial.append(partial[-1] * z % P)
    inverse = pow(partial.pop(), -1, P)
    entries = []
    for (x, y, z, _), before in zip(reversed(points), reversed(partial)):
        zinv, inverse = inverse * before % P, inverse * z % P
        x, y = x * zinv % P, y * zinv % P
        entries.append(((y - x) % P, (y + x) % P, 2 * D * x * y % P))
    return tuple(reversed(entries))


def _comb_span(teeth: int) -> int:
    """Bits per row of a ``teeth``-row comb that covers every 256-bit scalar."""
    return -(-256 // teeth)


def _comb_table(point: _Point, teeth: int = KEY_TEETH) -> _Table:
    """Entry ``i`` is the sum of ``[2**(span*t)] point`` over the set bits ``t`` of ``i``."""
    span = _comb_span(teeth)
    row = [point]
    while len(row) < teeth:
        for _ in range(span):
            point = _point_double(point)
        row.append(point)
    table = [_NEUTRAL]
    for tooth in _table_entries(row):
        table += [_point_add(entry, tooth) for entry in table]
    return _table_entries(table)


def _comb_mult(*terms: Tuple[int, _Table]) -> _Point:
    """``Σ [scalar] point`` over ``(scalar, comb table of point)`` terms, sharing one doubling chain.

    A table's geometry is read off its length.  Column ``c`` of a scalar is
    its bits ``c, c + span, …`` read as a table index; columns are walked
    most significant first and every term ends at column 0, so a term with a
    shorter span joins the walk late.  Scalars must be below ``2**256``.
    The doubling and the addition are :func:`_point_double` and
    :func:`_point_add` written out, minus the ``T`` a doubling never reads.
    Not constant time: the lookups are indexed by the scalar, which is secret
    when signing.
    """
    columns = []
    for scalar, table in terms:
        teeth = len(table).bit_length() - 1
        span = _comb_span(teeth)
        bits = format(scalar, f"0{teeth * span}b")
        columns.append([table[int(bits[c::span], 2)] for c in range(span)])
    steps = max(map(len, columns))
    x, y, z, e, h = 0, 1, 1, 0, 0  # T = e·h, multiplied out only where it is read
    for step in zip(*[[None] * (steps - len(column)) + column for column in columns]):
        a = x * x
        a = (a & _LOW) + 19 * (a >> 255)
        b = y * y
        b = (b & _LOW) + 19 * (b >> 255)
        h = a + b
        e = (x + y) * (x + y)
        e = h - (e & _LOW) - 19 * (e >> 255)
        g = a - b
        f = 2 * z * z
        f = (f & _LOW) + 19 * (f >> 255) + g
        x, y, z = e * f % P, g * h % P, f * g % P
        for entry in step:
            if entry:
                y_minus_x, y_plus_x, t2d = entry
                a = (y - x) * y_minus_x
                a = (a & _LOW) + 19 * (a >> 255)
                b = (y + x) * y_plus_x
                b = (b & _LOW) + 19 * (b >> 255)
                c = e * h
                c = ((c & _LOW) + 19 * (c >> 255)) * t2d
                c = (c & _LOW) + 19 * (c >> 255)
                d = 2 * z
                e, f, g, h = b - a, d - c, d + c, b + a
                x, y, z = e * f % P, g * h % P, f * g % P
    return (x, y, z, e * h % P)


#: Base point B = (x, 4/5) with x even, and its comb table.
BASE_POINT: _Point = _point_decompress(int.to_bytes(4 * pow(5, -1, P) % P, KEY_SIZE, "little"))
_BASE_TABLE = _comb_table(BASE_POINT, BASE_TEETH)


def _small_order_encodings() -> FrozenSet[bytes]:
    """The canonical encodings of the eight multiples of an order-8 point.

    ``[L]Q`` clears a point's prime-order component and keeps its torsion
    component; the first small ``y`` whose point's torsion has order 8 gives
    the generator (the one-tooth comb walk is plain double-and-add).
    """
    for y in itertools.count(2):
        try:
            point = _point_decompress(int.to_bytes(y, KEY_SIZE, "little"))
        except CryptoError:
            continue
        torsion = _comb_mult((L, _comb_table(point, 1)))
        if not _point_equal(_point_double(_point_double(torsion)), _NEUTRAL):
            break
    step = _table_entries([torsion])[0]
    multiples = [_NEUTRAL]
    while len(multiples) < 8:
        multiples.append(_point_add(multiples[-1], step))
    return frozenset(map(_point_compress, multiples))


#: The 8-torsion subgroup, encoded.  Compression is canonical, so a point
#: that decoded from (or compressed to) ``data`` is of small order exactly
#: when ``data`` is in this set.
_SMALL_ORDER_ENCODINGS = _small_order_encodings()


@lru_cache(maxsize=KEY_TABLE_CAPACITY)
def _key_table(public: bytes) -> Optional[_Table]:
    """Comb table of ``−A`` for the key bytes, or ``None`` for a key that is rejected outright.

    A key is rejected when it does not decompress (non-canonical ``y``, off
    the curve, sign bit set at ``x = 0``) or is of small order.
    """
    if public in _SMALL_ORDER_ENCODINGS:
        return None
    try:
        point = _point_decompress(public)
    except CryptoError:
        return None
    x, y, z, t = point
    return _comb_table((-x % P, y, z, -t % P))


# --------------------------------------------------------------------------
# Key generation / signing / verification
# --------------------------------------------------------------------------


@lru_cache(maxsize=KEY_TABLE_CAPACITY)
def _expand_secret(secret: bytes) -> Tuple[int, bytes, bytes]:
    """``(scalar a, nonce prefix, public key bytes)`` of a 32-byte seed."""
    if len(secret) != KEY_SIZE:
        raise CryptoError(f"secret key seed must be {KEY_SIZE} bytes")
    h = hashlib.sha512(secret).digest()
    a = int.from_bytes(h[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, h[32:], _point_compress(_comb_mult((a, _BASE_TABLE)))


def publickey(secret: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte secret seed."""
    return _expand_secret(bytes(secret))[2]


def sign(secret: bytes, message: bytes) -> bytes:
    """Produce a 64-byte Ed25519 signature of ``message``."""
    a, prefix, public = _expand_secret(bytes(secret))
    r = _sha512_int(prefix + message) % L
    r_point = _point_compress(_comb_mult((r, _BASE_TABLE)))
    h = _sha512_int(r_point + public + message) % L
    s = (r + h * a) % L
    return r_point + int.to_bytes(s, 32, "little")


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Return ``True`` iff ``signature`` is a valid signature of ``message``.

    Checks the *cofactored* group equation ``[8]([s]B − [h]A) == [8]R`` (RFC
    8032 §5.1.7) after rejecting malformed or small-order ``A`` and ``R`` and
    non-canonical ``s``; see the module docstring for why cofactored, and for
    why an honest ``R`` is compared in compressed form and never decompressed.
    """
    if len(public) != KEY_SIZE:
        raise SignatureError(f"public key must be {KEY_SIZE} bytes")
    if len(signature) != SIGNATURE_SIZE:
        raise SignatureError(f"signature must be {SIGNATURE_SIZE} bytes")
    key_table = _key_table(bytes(public))
    if key_table is None:
        return False
    r_bytes = signature[:32]
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    h = _sha512_int(r_bytes + public + message) % L
    q_point = _comb_mult((s, _BASE_TABLE), (h, key_table))
    if _point_compress(q_point) == r_bytes:
        # R is the canonical encoding of Q = [s]B − [h]A: it decompresses, to
        # Q, and the equation holds.  Only the small-order check is left.
        return r_bytes not in _SMALL_ORDER_ENCODINGS
    try:
        r_cleared = _mul_by_cofactor(_point_decompress(r_bytes))
    except CryptoError:
        return False
    if r_bytes in _SMALL_ORDER_ENCODINGS:  # R decoded, so its bytes are canonical
        return False
    return _point_equal(_mul_by_cofactor(q_point), r_cleared)
