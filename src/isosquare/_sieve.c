/* The sieve's kernel, compiled and called through ctypes by enumeration.py:
   tests B(m) = B(m^2) for 1 <= m < 2^63.  On x86-64 the loader picks the
   POPCNT build of each entry point where the CPU has that instruction. */
#include <stddef.h>
#include <stdint.h>
#ifdef __x86_64__
#define DISPATCH __attribute__((target_clones("popcnt", "default")))
#else
#define DISPATCH
#endif
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

/* Lists the members among lo, lo + step, ... <= hi < 2^63 in out, which
   holds an entry per integer tested, and returns how many there are. */
DISPATCH size_t isq_members(uint64_t lo, uint64_t hi, uint64_t step,
                            int64_t *out)
{
    return scan(&lo, hi, step, out);
}

/* counts[i] = the odd members m with lo <= m <= min(points[i], hi < 2^63),
   for the n sorted points. */
DISPATCH void isq_odd_counts(uint64_t lo, uint64_t hi, const uint64_t *points,
                             size_t n, uint64_t *counts)
{
    uint64_t m = lo | 1, total = 0;
    for (size_t i = 0; i < n; i++) {
        total += scan(&m, points[i] < hi ? points[i] : hi, 2, NULL);
        counts[i] = total;
    }
}
