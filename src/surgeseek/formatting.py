"""
`'%.15g'` on numpy blocks: the bytes of the numbers of a block of rows, each
as `%` formats it, for the trajectory CSVs (`scenario._write_rows`).

A finite |x| in [1e-8, 1e15) has a decade d in [-8, 14], so x * 10^(14 - d),
with 10^(14 - d) an exact double, is a number of 15 digits before the
point; Dekker's TwoProduct (Veltkamp's split into halves of 26 bits) gives
that product exactly, as hi + lo, and so the 15 digits rounded as `%`
rounds them, ties to even. The digits are read four at a time from a
table, and every (sign, exponent) group of numbers is laid out by static
slices of them. `%` formats the rest one at a time: nan, ±inf, every |x|
below 1e-8 or from 1e15 up, and any number whose decade log10 misjudged.

The arithmetic is on float64 and the moves are `take`s, kernels that the
runs use already: each other numpy kernel a CLI run calls maps 64 KiB more
of numpy's code into its peak RSS. The module is apart from `scenario` for
the same reason: Python compiles each module it imports from source where
no bytecode is cached, and the compiler's peak grows with the module:
inside `scenario`, these lines took the peak RSS of two in-process
benchmark sweeps from 44.2 to 45.0 MB.
"""
import functools

import numpy as np

_VELTKAMP = 134217729.0  # 2^27 + 1


def _halves(a):
    """Veltkamp's split: `a` as hi + lo, each of at most 26 significant bits."""
    t = _VELTKAMP * a
    hi = t - (t - a)
    return hi, a - hi


# 10^0 ... 10^22, exact doubles, and their halves, split on Python floats:
# the tables built at import run no numpy kernel
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI, _POW10_LO = np.array([_halves(p) for p in _POW10.tolist()]).T.copy()


@functools.cache
def _digit_tables():
    """The four ASCII digits of each of 0-9999 as one uint32, and how many
    of them are trailing zeros (4 for 0); built on the first write."""
    four = np.arange(10_000.0)
    digits = np.empty((len(four), 4), dtype=np.uint8)
    trailing = np.zeros(len(four))
    for j, unit in enumerate((1000.0, 100.0, 10.0, 1.0)):
        above = np.floor(four / unit)
        digits[:, j] = above - 10.0 * np.floor(above / 10.0) + 48.0
        trailing += np.where(np.floor(four / (10.0 * unit)) * 10.0 * unit == four, 1.0, 0.0)
    return digits.view(np.uint32)[:, 0], trailing


# 'e-08' ... 'e+15', the exponents of the numbers formatted on arrays
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % x for x in range(-8, 16)),
                           dtype=np.uint8).reshape(-1, 4)
# bytes per number and its separator: the longest `%.15g` of a float64,
# '-1.79769313486232e+308', has 22
_FIELD = 24
# row L: keep the first L + 1 bytes of a field, the separator the last
_KEEP = np.frombuffer(b"".join(b"\1" * (n + 1) + b"\0" * (_FIELD - n - 1)
                               for n in range(_FIELD)), dtype=bool).reshape(_FIELD, _FIELD)


def _rounded(values):
    """`%.15g`'s rounding of `values`: (digits, exponent, exact), where
    digits * 10^(exponent - 14) is each value's magnitude rounded to 15
    significant digits (digits in [1e14, 1e15), or 0 for ±0), all floats.
    `exact` is False where the value is nan, ±inf or of magnitude outside
    [1e-8, 1e15), or where the decade that log10 gives is not that of the
    exact product; there digits and exponent mean nothing."""
    a = np.abs(values)
    exact = (a >= 1e-8) & (a < 1e15)
    a = np.where(exact, a, 1.0)
    exponent = np.floor(np.log10(a)).clip(-8.0, 14.0)
    p = (14.0 - exponent).astype(np.intp)
    hi = a * _POW10.take(p)
    a_hi, a_lo = _halves(a)
    p_hi, p_lo = _POW10_HI.take(p), _POW10_LO.take(p)
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    exact &= (hi > 1e14) | ((hi == 1e14) & (lo >= 0.0))
    exact &= (hi < 1e15) | ((hi == 1e15) & (lo < 0.0))
    digits = np.rint(hi)
    # hi - rint(hi) is exact and at most 1/2; only at ±1/2 can lo decide
    residual = hi - digits
    digits[(residual == 0.5) & (lo > 0.0)] += 1.0
    digits[(residual == -0.5) & (lo < 0.0)] -= 1.0
    carry = digits == 1e15
    digits[carry] = 1e14
    exponent[carry] += 1.0
    # ±0 took the place of 1.0, whose exponent is 0 too
    zero = values == 0.0
    digits[zero] = 0.0
    return digits, exponent, exact | zero


def _digit_words(digits):
    """The 15 digits of each of `digits` (whole floats below 1e15) as five
    uint32 words of four ASCII digits, the first '0000', and how many of
    the 15 are trailing zeros (16 for 0), as floats."""
    high = np.floor(digits / 1e8)
    groups = []
    for part in (high, digits - high * 1e8):
        top = np.floor(part / 1e4)
        groups += [top.astype(np.intp), (part - top * 1e4).astype(np.intp)]
    table, zeros_in = _digit_tables()
    words = np.empty((len(digits), 5), dtype=np.uint32)
    words[:, 0] = table[0]
    for j, group in enumerate(groups):
        words[:, j + 1] = table.take(group)
    # the zeros of each group count while every group after it is 0000
    trailing = zeros_in.take(groups[3])
    after = np.flatnonzero(trailing == 4.0)
    for group in groups[2::-1]:
        zeros = zeros_in.take(group.take(after))
        trailing[after] += zeros
        after = after[zeros == 4.0]
    return words, trailing


def format_block(block):
    """The bytes of `block`'s rows, each number as `'%.15g'` formats it,
    separated by commas, each row ended by a newline."""
    rows, width = block.shape
    values = block.astype(np.float64, copy=False).ravel()
    m = len(values)
    digits, exponent, exact = _rounded(values)
    words, trailing = _digit_words(digits)
    # a fixed-point field from 1e-4 up, below 1e15; an exponent field keeps
    # one digit before the point, as a fixed one at exponent 0 does
    negative = np.signbit(values)
    fixed = (exponent >= -4.0) & (exponent <= 14.0)
    point = np.where(fixed, exponent, 0.0)
    fraction = np.maximum(14.0 - trailing - point, 0.0)
    length = (np.where(negative, 2.0, 1.0) + np.maximum(point, 0.0)
              + np.where(fraction > 0.0, fraction + 1.0, 0.0) + np.where(fixed, 0.0, 4.0))
    # the numbers of each (sign, exponent) group, adjacent in `order`; the
    # ones `%` formats one by one are group 48
    group = np.where(exact, 2.0 * exponent + np.where(negative, 17.0, 16.0), 48.0)
    present = np.zeros(49, dtype=bool)
    present[group.astype(np.intp)] = True
    members = [(key, np.flatnonzero(group == key)) for key in np.flatnonzero(present).tolist()]
    order = np.concatenate([numbers for _, numbers in members])
    in_order = words.take(order, axis=0).view(np.uint8)
    fields = np.empty((m, _FIELD), dtype=np.uint8)
    start = 0
    for key, numbers in members:
        end = start + len(numbers)
        if key < 48:
            _lay_out(fields[start:end], in_order[start:end], key // 2 - 8, key % 2)
        start = end
    position = np.empty(m, dtype=np.intp)
    position[order] = np.arange(m)
    fields = fields.take(position, axis=0)
    for j in np.flatnonzero(~exact).tolist():
        text = b"%.15g" % values[j]
        fields[j, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        length[j] = len(text)
    flat = fields.ravel()
    # where each field's separator goes, and an exponent field's 'e±dd'
    ends = np.arange(0.0, m * _FIELD, _FIELD) + length
    exponential = np.flatnonzero(exact & ~fixed)
    suffix = _EXPONENTS.take((exponent.take(exponential) + 8.0).astype(np.intp), axis=0)
    for j in range(4):
        flat[(ends.take(exponential) + (j - 4.0)).astype(np.intp)] = suffix[:, j]
    flat[ends.astype(np.intp)] = np.tile(
        np.frombuffer(b"," * (width - 1) + b"\n", dtype=np.uint8), rows)
    return flat[_KEEP.take(length.astype(np.intp), axis=0).ravel()]


def _lay_out(fields, digits, exponent, negative):
    """Lay out into the rows of `fields` the numbers of one sign and
    exponent, whose 15 digits are columns 5-19 of the rows of `digits`
    (columns 0-4 are '0'): the sign, the digits before the point, the point
    and the rest. What a field keeps of them, and its exponent, are
    written by `format_block`."""
    point = exponent if -4 <= exponent <= 14 else 0
    # digits[first:after] go before the point: '0' alone below 1
    first, after = min(5, 5 + point), 6 + point
    dot = negative + after - first
    if negative:
        fields[:, 0] = ord("-")
    fields[:, negative:dot] = digits[:, first:after]
    fields[:, dot] = ord(".")
    fields[:, dot + 1:dot + 21 - after] = digits[:, after:]
