/* The sieve's kernel, compiled and called through ctypes by enumeration.py:
   isq_members_text lists the m with B(m) = B(m^2), 1 <= m < 2^63, as
   decimal text if given a buffer, and isq_odd_counts counts the odd ones.
   It has two paths.  The scalar loops test one m at a time; on x86-64 the
   loader picks the POPCNT build of each entry point where the CPU has that
   instruction.  The vector loops (x86-64 with AVX-512F and VPOPCNTDQ) test
   16 at a time below 2^32 and 8 at a time above, and leave the last fewer
   than 8 to the scalar loops.
   isq_select picks the path once, before any scan runs; the loader then
   checks every entry point against is_isosquare. */
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#define W(x) __builtin_popcountll(x)

/* Counts the members among m = *next, *next + step, ... <= end, writing
   them to out unless it is NULL; *next becomes the first m past end.  m^2
   takes one uint64 below 2^32 and an unsigned __int128 above, each range
   in its own loop so that neither branches on m. */
static inline size_t scan(uint64_t *next, uint64_t end, uint64_t step,
                          int64_t *out)
{
    size_t found = 0;
    uint64_t m = *next;
    for (; m <= end && m >> 32 == 0; m += step) {
        if (out) out[found] = (int64_t)m;
        found += W(m) == W(m * m);
    }
    for (unsigned __int128 s; m <= end; m += step) {
        s = (unsigned __int128)m * m;
        if (out) out[found] = (int64_t)m;
        found += W(m) == W((uint64_t)s) + W((uint64_t)(s >> 64));
    }
    *next = m;
    return found;
}

#ifdef __x86_64__
#include <immintrin.h>
#define DISPATCH __attribute__((target_clones("popcnt", "default")))
#define VECTOR __attribute__((target("avx512f,avx512vpopcntdq")))
#define HAS_VECTOR (__builtin_cpu_supports("avx512f") \
                    && __builtin_cpu_supports("avx512vpopcntdq"))

/* scan while 16 integers m, ..., m + 15 * step below 2^32 are left, then
   while 8 are left, one in each lane: writes the members to out unless it
   is NULL, leaves *next at the first m not tested and returns how many
   members there are.  Below 2^32 m fills a 32-bit lane: one 32 x 32-bit
   multiply squares the even lanes, another the odd ones shifted down, and
   the weights of both squares go back to their lanes, so that one compare
   tests 16 integers.  Members are sparse, so a vector that holds any
   stores them lane by lane, with no compress-store.  The 8-lane loop
   takes the rest, at any m: with m = a * 2^32 + b, m^2 = a^2 * 2^64 +
   ab * 2^33 + b^2, where a < 2^31 keeps 2ab below 2^64: the low word
   b^2 + (ab << 33) carries at most 1 into the high word a^2 + (ab >> 31). */
VECTOR static size_t scan8(uint64_t *next, uint64_t end, uint64_t step,
                           int64_t *out)
{
    size_t found = 0;
    uint64_t m = *next;
    __m512i u = _mm512_add_epi32(
        _mm512_set1_epi32((int)m),
        _mm512_mullo_epi32(_mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8,
                                            7, 6, 5, 4, 3, 2, 1, 0),
                           _mm512_set1_epi32((int)step)));
    const __m512i stride16 = _mm512_set1_epi32((int)(16 * step));
    for (; m + 15 * step <= end && (m + 15 * step) >> 32 == 0;
         m += 16 * step) {
        __m512i odd = _mm512_srli_epi64(u, 32);
        odd = _mm512_popcnt_epi64(_mm512_mul_epu32(odd, odd));
        unsigned member = _mm512_cmpeq_epi32_mask(
            _mm512_popcnt_epi32(u),
            _mm512_or_si512(_mm512_popcnt_epi64(_mm512_mul_epu32(u, u)),
                            _mm512_slli_epi64(odd, 32)));
        if (out)  /* most vectors hold no member, the rest few */
            for (unsigned hit = member, i = 0; hit; hit &= hit - 1)
                out[found + i++] = (int64_t)(m + step * (unsigned)
                                             __builtin_ctz(hit));
        found += W(member);
        u = _mm512_add_epi32(u, stride16);
    }
    __m512i v = _mm512_add_epi64(
        _mm512_set1_epi64((int64_t)m),
        _mm512_mul_epu32(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                         _mm512_set1_epi64((int64_t)step)));
    const __m512i stride = _mm512_set1_epi64((int64_t)(8 * step));
    __mmask8 member;
    for (; m + 7 * step <= end; m += 8 * step) {
        __m512i a = _mm512_srli_epi64(v, 32);
        __m512i b2 = _mm512_mul_epu32(v, v), ab = _mm512_mul_epu32(a, v);
        __m512i low = _mm512_add_epi64(b2, _mm512_slli_epi64(ab, 33));
        __m512i high = _mm512_add_epi64(_mm512_mul_epu32(a, a),
                                        _mm512_srli_epi64(ab, 31));
        high = _mm512_mask_add_epi64(high, _mm512_cmplt_epu64_mask(low, b2),
                                     high, _mm512_set1_epi64(1));
        member = _mm512_cmpeq_epi64_mask(
            _mm512_popcnt_epi64(v),
            _mm512_add_epi64(_mm512_popcnt_epi64(low),
                             _mm512_popcnt_epi64(high)));
        if (out && member)  /* most vectors hold none; skip the slow store */
            _mm512_mask_compressstoreu_epi64(out + found, member, v);
        found += W(member);
        v = _mm512_add_epi64(v, stride);
    }
    *next = m;
    return found;
}
#else
#define DISPATCH
#define HAS_VECTOR 0
#define scan8(next, end, step, out) 0
#endif

static int vector;  /* written only by isq_select */

/* Selects the loops every entry point runs from now on: path 1 the vector
   ones where the CPU has them (else the scalar ones), path 0 the scalar
   ones; a negative path keeps the selection.  Returns 1 if the vector
   loops are selected, else 0.  Call it before any scan runs, not during
   one. */
int isq_select(int path)
{
    if (path >= 0) vector = path && HAS_VECTOR;
    return vector;
}

/* scan on the selected path. */
static inline size_t scan_path(uint64_t *next, uint64_t end, uint64_t step,
                               int64_t *out)
{
    size_t found = vector ? scan8(next, end, step, out) : 0;
    return found + scan(next, end, step, out ? out + found : NULL);
}

/* counts[i] = the odd members m with lo <= m <= min(points[i], hi < 2^63),
   for the n sorted points. */
DISPATCH void isq_odd_counts(uint64_t lo, uint64_t hi, const uint64_t *points,
                             size_t n, uint64_t *counts)
{
    uint64_t m = lo | 1, total = 0;
    for (size_t i = 0; i < n; i++) {
        total += scan_path(&m, points[i] < hi ? points[i] : hi, 2, NULL);
        counts[i] = total;
    }
}

/* Two decimal digits for each of 00, ..., 99. */
static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";

/* Lists the members among lo, ..., hi < 2^63 in scratch, an entry per
   integer.  With text NULL it returns how many there are; else it writes
   them to text (20 bytes per integer) in decimal, one a line ("digits\n",
   at most 20 bytes), and returns the bytes written. */
DISPATCH size_t isq_members_text(uint64_t lo, uint64_t hi, int64_t *scratch,
                                 char *text)
{
    size_t n = scan_path(&lo, hi, 1, scratch);
    if (!text) return n;
    /* the members increase, and so do their digits; 10^digits stays at
       most 10^19 < 2^64 */
    uint64_t next_digit = 10;
    size_t digits = 1;
    char *p = text;
    for (size_t i = 0; i < n; i++) {
        uint64_t m = (uint64_t)scratch[i];
        for (; m >= next_digit; next_digit *= 10) digits++;
        char *q = p + digits;
        *q = '\n';
        for (; m >= 100; m /= 100) memcpy(q -= 2, PAIRS + 2 * (m % 100), 2);
        if (m >= 10) memcpy(q - 2, PAIRS + 2 * m, 2);
        else q[-1] = (char)('0' + m);
        p += digits + 1;
    }
    return (size_t)(p - text);
}
