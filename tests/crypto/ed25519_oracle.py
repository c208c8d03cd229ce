"""Naive Ed25519 kept as the test oracle for :mod:`repro.crypto.ed25519`.

This is the implementation the production module replaced: the 9-multiplication
unified addition (also used for doubling), a double-and-add ladder, two-``pow``
point decompression, and ``verify`` as two full ladders.  It shares nothing
with the production code but the curve constants' definitions, so agreement
between the two is evidence about both.  Roughly 4 ms per operation.
"""

import hashlib

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
D = -121665 * pow(121666, P - 2, P) % P
SQRT_M1 = pow(2, (P - 1) // 4, P)
NEUTRAL = (0, 1, 1, 0)


def add(p, q):
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = 2 * t1 * t2 * D % P
    d = 2 * z1 * z2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def scalar_mult(scalar, point):
    """Double-and-add ladder; any non-negative scalar, any curve point."""
    result = NEUTRAL
    while scalar:
        if scalar & 1:
            result = add(result, point)
        point = add(point, point)
        scalar >>= 1
    return result


def negate(p):
    x, y, z, t = p
    return (-x % P, y, z, -t % P)


def equal(p, q):
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0


def compress(p):
    x, y, z, _ = p
    zinv = pow(z, P - 2, P)
    x, y = x * zinv % P, y * zinv % P
    return int.to_bytes(y | ((x & 1) << 255), 32, "little")


def decompress(data):
    """The point, or ``None`` for an encoding that is not a canonical curve point."""
    y = int.from_bytes(data, "little")
    sign = y >> 255
    y &= (1 << 255) - 1
    if len(data) != 32 or y >= P:
        return None
    x2 = (y * y - 1) * pow(D * y * y + 1, P - 2, P) % P
    if x2 == 0:
        return None if sign else (0, y, 1, 0)
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P != 0:
        x = x * SQRT_M1 % P
    if (x * x - x2) % P != 0:
        return None
    if x & 1 != sign:
        x = P - x
    return (x, y, 1, x * y % P)


BASE = decompress(int.to_bytes(4 * pow(5, P - 2, P) % P, 32, "little"))


def secret_expand(secret):
    h = hashlib.sha512(secret).digest()
    a = int.from_bytes(h[:32], "little") & ((1 << 254) - 8) | (1 << 254)
    return a, h[32:]


def hash_int(data):
    return int.from_bytes(hashlib.sha512(data).digest(), "little")


def publickey(secret):
    return compress(scalar_mult(secret_expand(secret)[0], BASE))


def sign(secret, message):
    a, prefix = secret_expand(secret)
    public = compress(scalar_mult(a, BASE))
    r = hash_int(prefix + message) % L
    r_bytes = compress(scalar_mult(r, BASE))
    h = hash_int(r_bytes + public + message) % L
    return r_bytes + int.to_bytes((r + h * a) % L, 32, "little")


def is_small_order(p):
    return equal(scalar_mult(8, p), NEUTRAL)


def verify(public, message, signature):
    """Cofactored RFC 8032 §5.1.7 verification with small-order A/R rejected."""
    a_point, r_point = decompress(public), decompress(signature[:32])
    if a_point is None or r_point is None:
        return False
    if is_small_order(a_point) or is_small_order(r_point):
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    h = hash_int(signature[:32] + public + message) % L
    left = scalar_mult(8, scalar_mult(s, BASE))
    right = scalar_mult(8, add(r_point, scalar_mult(h, a_point)))
    return equal(left, right)
