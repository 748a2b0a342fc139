//! Number formatting into byte buffers for the span serializers:
//! [`push_u64`] writes what `{}` writes, [`push_f64`] what `{:?}` writes,
//! byte for byte, with no `fmt` machinery and no heap buffer.
//!
//! The `f64` digits come from Ryū (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the shortest decimal that rounds back to `x`,
//! closest to `x` among the shortest. One rule differs from upstream Ryū:
//! when `x` lies exactly halfway between the two closest shortest
//! candidates, std rounds the tie *up*, not to even, and so does this
//! writer (`1658206780088562.25` prints `1658206780088562.3`).
//!
//! The two 125-bit power-of-5 tables are computed at compile time from an
//! exact big-integer power of 5, so there are no checked-in constants.

const POW5_BITS: u32 = 125;
const POW5_LEN: usize = 326;
const POW5_INV_LEN: usize = 342;

/// Little-endian 64-bit limbs; holds 2·5^341 (< 2^794).
type Big = [u64; 13];

const fn limb(a: &Big, i: usize) -> u64 {
    if i < a.len() {
        a[i]
    } else {
        0
    }
}

const fn mul5(a: &mut Big) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < a.len() {
        let v = a[i] as u128 * 5 + carry;
        a[i] = v as u64;
        carry = v >> 64;
        i += 1;
    }
}

const fn bit_len(a: &Big) -> u32 {
    let mut i = a.len();
    while i > 0 {
        i -= 1;
        if a[i] != 0 {
            return i as u32 * 64 + 64 - a[i].leading_zeros();
        }
    }
    0
}

/// The 125 leading bits of `a` (`a` shifted left when it is shorter).
const fn top_bits(a: &Big) -> u128 {
    let len = bit_len(a);
    if len <= POW5_BITS {
        return (a[0] as u128 | (a[1] as u128) << 64) << (POW5_BITS - len);
    }
    let s = len - POW5_BITS;
    let (w, b) = ((s / 64) as usize, s % 64);
    let x = limb(a, w) as u128 | (limb(a, w + 1) as u128) << 64;
    if b == 0 {
        x
    } else {
        x >> b | (limb(a, w + 2) as u128) << (128 - b)
    }
}

/// `r -= d` when `r >= d`; returns whether it subtracted. Both fit in
/// their first `n` limbs.
const fn sub_if_ge(r: &mut Big, d: &Big, n: usize) -> bool {
    let mut i = n;
    while i > 0 {
        i -= 1;
        if r[i] != d[i] {
            if r[i] < d[i] {
                return false;
            }
            break;
        }
    }
    let mut borrow = 0u64;
    let mut i = 0;
    while i < n {
        let (v, b1) = r[i].overflowing_sub(d[i]);
        let (v, b2) = v.overflowing_sub(borrow);
        r[i] = v;
        borrow = (b1 | b2) as u64;
        i += 1;
    }
    true
}

/// `a <<= 1`, for `a` whose double fits in its first `n` limbs.
const fn shl1(a: &mut Big, n: usize) {
    let mut i = n - 1;
    while i > 0 {
        a[i] = a[i] << 1 | a[i - 1] >> 63;
        i -= 1;
    }
    a[0] <<= 1;
}

/// `POW5[i]`: the 125 leading bits of `5^i`.
static POW5: [u128; POW5_LEN] = {
    let mut t = [0; POW5_LEN];
    let mut p: Big = [0; 13];
    p[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        t[i] = top_bits(&p);
        mul5(&mut p);
        i += 1;
    }
    t
};

/// `POW5_INV[i] = ⌊2^(len(5^i) − 1 + 125) / 5^i⌋ + 1`, by binary long
/// division started at the dividend's leading bit.
static POW5_INV: [u128; POW5_INV_LEN] = {
    let mut t = [0; POW5_INV_LEN];
    let mut d: Big = [0; 13];
    d[0] = 1;
    let mut i = 0;
    while i < POW5_INV_LEN {
        let top = bit_len(&d) - 1;
        // Limbs for the remainder, which stays below 2·5^i < 2^(top + 2).
        let n = (top as usize + 1) / 64 + 1;
        let mut r: Big = [0; 13];
        r[(top / 64) as usize] = 1 << (top % 64);
        let mut q = sub_if_ge(&mut r, &d, n) as u128;
        let mut k = 0;
        while k < POW5_BITS {
            shl1(&mut r, n);
            q = q << 1 | sub_if_ge(&mut r, &d, n) as u128;
            k += 1;
        }
        t[i] = q + 1;
        mul5(&mut d);
        i += 1;
    }
    t
};

/// `⌈log2 5^e⌉` (1 for `e == 0`), for `0 <= e <= 3528`.
fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `⌊log10 2^e⌋`, for `e <= 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `⌊log10 5^e⌋`, for `e <= 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut n = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        n += 1;
    }
    n >= p
}

/// `⌊m · mul / 2^j⌋` for a 125-bit `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let lo = m as u128 * (mul as u64) as u128;
    let hi = m as u128 * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// Shortest round-trip digits of a finite, nonzero `|x|` given by its
/// bits: `(d, e)` with `|x|` printed as `d · 10^e`.
fn shortest(bits: u64) -> (u64, i32) {
    let mantissa = bits & ((1 << 52) - 1);
    let exponent = (bits >> 52) as u32 & 0x7ff;
    let (e2, m2) = if exponent == 0 {
        (1 - 1023 - 52 - 2, mantissa)
    } else {
        (exponent as i32 - 1023 - 52 - 2, mantissa | 1 << 52)
    };
    let accept_bounds = m2 % 2 == 0;

    // The interval [mm, mp] of reals that round to x, scaled by 4.
    let mv = 4 * m2;
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
    let (mut vr, mut vp, mut vm, e10);
    // Whether the interval's lower bound is itself a short decimal. (Ryū
    // also tracks whether `vr` is exact, but only to round ties to even.)
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = (POW5_BITS + pow5_bits(q) - 1) as i32 - e2 + q as i32;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, j as u32);
        vp = mul_shift(mv + 2, mul, j as u32);
        vm = mul_shift(mv - 1 - mm_shift, mul, j as u32);
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2 as u32) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 as u32 - q;
        let j = (q as i32 + POW5_BITS as i32 - pow5_bits(i) as i32) as u32;
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_trailing_zeros {
        while vm % 10 == 0 {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // `>= 5` also rounds an exact tie (`…5` then only zeros) up, as std does.
    let round_up = (vr == vm && !(accept_bounds && vm_trailing_zeros)) || last_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

/// The decimal digits of `v`, right-aligned in `buf`.
fn digits(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return &buf[i..];
        }
    }
}

/// Append `v` as `{}` writes it.
pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(digits(v, &mut [0; 20]));
}

/// Append `x` as `{:?}` writes it: positional with at least one fractional
/// digit when `x == 0` or `1e-4 <= |x| < 1e16`, else `d[.ddd]e[-]x`.
pub(crate) fn push_f64(out: &mut Vec<u8>, x: f64) {
    if x.is_nan() {
        return out.extend_from_slice(b"NaN");
    }
    if x.is_sign_negative() {
        out.push(b'-');
    }
    let a = x.abs();
    if a == f64::INFINITY {
        return out.extend_from_slice(b"inf");
    }
    if a == 0.0 {
        return out.extend_from_slice(b"0.0");
    }
    let (d, e) = shortest(a.to_bits());
    let mut buf = [0; 20];
    let d = digits(d, &mut buf);
    // Digits before the decimal point.
    let point = d.len() as i32 + e;
    if (1e-4..1e16).contains(&a) {
        if point <= 0 {
            out.extend_from_slice(b"0.");
            out.resize(out.len() + (-point) as usize, b'0');
            out.extend_from_slice(d);
        } else if point as usize >= d.len() {
            out.extend_from_slice(d);
            out.resize(out.len() + point as usize - d.len(), b'0');
            out.extend_from_slice(b".0");
        } else {
            let (int, frac) = d.split_at(point as usize);
            out.extend_from_slice(int);
            out.push(b'.');
            out.extend_from_slice(frac);
        }
    } else {
        out.push(d[0]);
        if d.len() > 1 {
            out.push(b'.');
            out.extend_from_slice(&d[1..]);
        }
        out.push(b'e');
        if point < 1 {
            out.push(b'-');
        }
        push_u64(out, u64::from((point - 1).unsigned_abs()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn f64_str(x: f64) -> String {
        let mut v = Vec::new();
        push_f64(&mut v, x);
        String::from_utf8(v).unwrap()
    }

    /// `push_f64` against `{:?}`, and the printed text back to the bits.
    fn check(x: f64) {
        let got = f64_str(x);
        assert_eq!(got, format!("{x:?}"), "bits {:#018x}", x.to_bits());
        if !x.is_nan() {
            assert_eq!(got.parse::<f64>().unwrap().to_bits(), x.to_bits(), "{got}");
        }
    }

    #[test]
    fn tables_match_known_entries() {
        // Entries 0 and 1 by hand; the sweeps below exercise every other.
        assert_eq!(POW5[0], 1 << 124);
        assert_eq!(POW5[1], 5 << 122);
        assert_eq!(POW5_INV[0], (1 << 125) + 1);
        assert_eq!(POW5_INV[1], (1 << 127) / 5 + 1);
    }

    // The exact literals are the point: both are last-digit ties.
    #[allow(clippy::excessive_precision)]
    #[test]
    fn named_edge_cases_match_debug() {
        for x in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1e-4,
            9.999999999999999e-5,
            1e16,
            9999999999999998.0,
            1e15,
            1e22,
            1e23,
            1.0,
            0.1,
            0.3,
            123.456,
            1658206780088562.25,
            233115890514796.125,
            2.0f64.powi(52),
            2.0f64.powi(53) + 2.0,
            2.0f64.powi(-1022) * 0.5,
        ] {
            check(x);
        }
    }

    #[allow(clippy::excessive_precision)]
    #[test]
    fn ties_round_up_like_std() {
        assert_eq!(f64_str(1658206780088562.25), "1658206780088562.3");
        assert_eq!(f64_str(233115890514796.125), "233115890514796.13");
    }

    #[test]
    fn integers_match_display() {
        for v in [0, 1, 9, 10, 99, 100, 12345, u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }

    /// ≥10⁶ values: random bit patterns, sums of `k · 1e-4` (the virtual
    /// clocks a replay accumulates) and integers, all written into one
    /// reused buffer.
    #[test]
    fn sweep_matches_debug() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut xorshift = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut clock = 0.0f64;
        let mut out = Vec::new();
        let mut expect = String::new();
        for k in 0..400_000u64 {
            clock += 1e-4 * (k % 7) as f64;
            let values = [f64::from_bits(xorshift()), clock, (k * 0x9e37_79b9) as f64];
            for x in values {
                out.clear();
                push_f64(&mut out, x);
                expect.clear();
                std::fmt::Write::write_fmt(&mut expect, format_args!("{x:?}")).unwrap();
                assert_eq!(out, expect.as_bytes(), "bits {:#018x}", x.to_bits());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]
        #[test]
        fn any_bits_match_debug(bits in any::<u64>()) {
            check(f64::from_bits(bits));
        }
    }
}
