/* The sieve's kernel, an extension module that enumeration.py compiles on
   first use and loads as isosquare._sieve.  members(lo, hi) lists the m
   with B(m) = B(m^2), lo <= m <= hi < 2^63, odd_members(lo, hi) lists the
   odd ones and odd_counts(lo, hi, points) counts them up to each point,
   each call over its whole window with the GIL released.  Since m is a
   member iff 2m is, merge_text(lo, hi, odd, half) makes the members of
   [lo, hi] from its odd ones and those of [ceil(lo/2), hi/2], and writes
   them as decimal lines.  The scalar loops test one m at a time; on x86-64
   the loader picks the POPCNT build of each scan where the CPU has that
   instruction.  The vector loops (x86-64 with AVX-512F and VPOPCNTDQ) test
   16 at a time below 2^32 and 8 at a time above, and leave the last fewer
   than 8 to the scalar loops.  isq_select picks the path once, before any
   scan runs; the loader then checks every entry point against
   is_isosquare. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define W(x) __builtin_popcountll(x)

/* Counts the members among m = *next, *next + step, ... <= end, writing
   them to out unless it is NULL; *next becomes the first m past end.  m^2
   takes one uint64 below 2^32 and an unsigned __int128 above, each range
   in its own loop so that neither branches on m. */
static inline size_t scan(uint64_t *next, uint64_t end, uint64_t step,
                          uint64_t *out)
{
    size_t found = 0;
    uint64_t m = *next;
    for (; m <= end && m >> 32 == 0; m += step) {
        if (out) out[found] = m;
        found += W(m) == W(m * m);
    }
    for (unsigned __int128 s; m <= end; m += step) {
        s = (unsigned __int128)m * m;
        if (out) out[found] = m;
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
                           uint64_t *out)
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
                out[found + i++] = m + step * (unsigned)__builtin_ctz(hit);
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

/* scan on the selected path. */
static inline size_t scan_path(uint64_t *next, uint64_t end, uint64_t step,
                               uint64_t *out)
{
    size_t found = vector ? scan8(next, end, step, out) : 0;
    return found + scan(next, end, step, out ? out + found : NULL);
}

/* Replaces each of the n sorted points p[i] by the number of odd members
   m with lo <= m <= min(p[i], hi). */
DISPATCH static void count_odd(uint64_t lo, uint64_t hi, uint64_t *p,
                               size_t n)
{
    uint64_t m = lo | 1, total = 0;
    for (size_t i = 0; i < n; i++) {
        total += scan_path(&m, p[i] < hi ? p[i] : hi, 2, NULL);
        p[i] = total;
    }
}

#define BLOCK 65536  /* integers tested per check of the buffer's room */

/* Two decimal digits for each of 00, ..., 99. */
static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";

/* Writes the n increasing members to text in decimal, one a line
   ("digits\n"), and returns the bytes written. */
static size_t write_lines(const uint64_t *members, size_t n, char *text)
{
    /* the members increase, and so do their digits; 10^digits stays at
       most 10^19 < 2^64 */
    uint64_t next_digit = 10;
    size_t digits = 1;
    char *p = text;
    for (size_t i = 0; i < n; i++) {
        uint64_t m = members[i];
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

/* The bytes write_lines writes for the n increasing members: a newline
   each, and a digit for each power of ten up to the member. */
static size_t text_size(const uint64_t *members, size_t n)
{
    size_t size = n, i = 0;
    for (uint64_t p = 1; p <= 1000000000000000000ull; p *= 10) {
        while (i < n && members[i] < p) i++;
        size += n - i;
    }
    return size;
}

/* Memory from PyMem_Raw*, which needs no GIL: size bytes, used of them. */
typedef struct { char *at; size_t used, size; } Buffer;

/* Leaves room for need more bytes in b: its first size is need rounded up
   to whole uint64s, then it doubles as needed.  Returns 0 when out of
   memory. */
static int room(Buffer *b, size_t need)
{
    size_t size = b->size ? b->size : (need + 7) & ~(size_t)7;
    while (size - b->used < need) size *= 2;
    char *at = size == b->size ? b->at : PyMem_RawRealloc(b->at, size);
    if (at) *b = (Buffer){at, b->used, size};
    return at != NULL;
}

/* Appends the members among m = lo, lo + step, ... <= hi < 2^63 to b as
   uint64s, BLOCK of those m at a time.  Returns 0 when out of memory. */
DISPATCH static int list_members(uint64_t lo, uint64_t hi, uint64_t step,
                                 Buffer *b)
{
    while (lo <= hi) {
        size_t len = (hi - lo) / step < BLOCK ? (hi - lo) / step + 1 : BLOCK;
        if (!room(b, 8 * len)) return 0;
        b->used += 8 * scan_path(&lo, lo + (len - 1) * step, step,
                                 (uint64_t *)(b->at + b->used));
    }
    return 1;
}

/* The i-th uint64 at p, which need not be aligned. */
static inline uint64_t load(const char *p, size_t i)
{
    uint64_t v;
    memcpy(&v, p + 8 * i, 8);
    return v;
}

/* Writes to out the n odd integers at odd merged with twice each of the k
   at half, in one pass that checks both: returns 0 unless odd increases
   through odd integers of [lo, hi] and half through [ceil(lo/2), hi/2], so
   that out increases through [lo, hi]. */
static int merge(uint64_t lo, uint64_t hi, const char *odd, size_t n,
                 const char *half, size_t k, uint64_t *out)
{
    uint64_t o = lo - 1, h = (lo - 1) / 2;  /* the last taken of each */
    for (size_t i = 0, j = 0; i < n || j < k;) {
        uint64_t next_o = i < n ? load(odd, i) : 0;
        uint64_t next_h = j < k ? load(half, j) : 0;
        if (j == k || (i < n && next_o < 2 * next_h)) {
            if (next_o <= o || !(next_o & 1)) return 0;
            *out++ = o = next_o;
            i++;
        } else {
            if (next_h <= h) return 0;
            *out++ = 2 * (h = next_h);
            j++;
        }
    }
    return (!n || o <= hi) && (!k || h <= hi / 2);
}

/* The binding.  Each window bound and point is an int in [0, 2^64), else
   OverflowError or TypeError, with no wrap, and a window lo..hi has
   1 <= lo <= 2^63 and hi < 2^63, else ValueError; a lo past hi lists and
   counts nothing. */
static int u64(PyObject *o, void *out)
{
    uint64_t v = PyLong_AsUnsignedLongLong(o);
    *(uint64_t *)out = v;
    return v != (uint64_t)-1 || !PyErr_Occurred();
}

static int window(PyObject *args, const char *format, uint64_t *lo,
                  uint64_t *hi, void *more, void *last)
{
    if (!PyArg_ParseTuple(args, format, u64, lo, u64, hi, more, last))
        return 0;
    if (*lo && *lo <= 1ull << 63 && !(*hi >> 63)) return 1;
    PyErr_Format(PyExc_ValueError, "the sieve kernel takes 1 <= lo <= 2^63 "
                 "and hi < 2^63, got lo = %llu, hi = %llu",
                 (unsigned long long)*lo, (unsigned long long)*hi);
    return 0;
}

static PyObject *int_list(const uint64_t *values, size_t n)
{
    PyObject *list = PyList_New((Py_ssize_t)n), *item;
    for (size_t i = 0; list && i < n; i++) {
        if ((item = PyLong_FromUnsignedLongLong(values[i])))
            PyList_SET_ITEM(list, (Py_ssize_t)i, item);
        else
            Py_CLEAR(list);
    }
    return list;
}

/* members(lo, hi) -> list[int] and odd_members(lo, hi) -> bytes, the odd
   members as native uint64s. */
static PyObject *listing(PyObject *args, int odd)
{
    uint64_t lo, hi;
    Buffer b = {0};
    PyObject *found = NULL;
    int done;
    if (window(args, "O&O&", &lo, &hi, NULL, NULL)) {
        Py_BEGIN_ALLOW_THREADS
        done = list_members(odd ? lo | 1 : lo, hi, odd ? 2 : 1, &b);
        Py_END_ALLOW_THREADS
        found = !done ? PyErr_NoMemory()
            : odd ? PyBytes_FromStringAndSize(b.at, (Py_ssize_t)b.used)
            : int_list((uint64_t *)b.at, b.used / 8);
    }
    PyMem_RawFree(b.at);
    return found;
}

static PyObject *members(PyObject *Py_UNUSED(self), PyObject *args)
{
    return listing(args, 0);
}

static PyObject *odd_members(PyObject *Py_UNUSED(self), PyObject *args)
{
    return listing(args, 1);
}

/* merge_text(lo, hi, odd, half) -> (str, bytes): the members of [lo, hi]
   as decimal lines and as native uint64s, from odd, its odd members, and
   half, the members of [ceil(lo/2), hi/2], each a bytes-like object of
   increasing native uint64s, else ValueError.  The results are written in
   place, with the GIL released, before any other thread can see them. */
static PyObject *merge_text(PyObject *Py_UNUSED(self), PyObject *args)
{
    uint64_t lo, hi;
    Py_buffer odd = {0}, half = {0};
    PyObject *members = NULL, *text = NULL, *found = NULL;
    if (window(args, "O&O&y*y*", &lo, &hi, &odd, &half)) {
        size_t n = (size_t)odd.len / 8, k = (size_t)half.len / 8;
        uint64_t *m;
        int merged;
        if ((odd.len | half.len) % 8)
            PyErr_Format(PyExc_ValueError, "odd and half must hold whole "
                         "uint64s, got %zd and %zd bytes", odd.len, half.len);
        else if ((members = PyBytes_FromStringAndSize(NULL, 8 * (n + k)))) {
            m = (uint64_t *)PyBytes_AS_STRING(members);
            Py_BEGIN_ALLOW_THREADS
            merged = merge(lo, hi, odd.buf, n, half.buf, k, m);
            Py_END_ALLOW_THREADS
            if (!merged)
                PyErr_SetString(PyExc_ValueError, "odd must increase through "
                                "odd integers of [lo, hi] and half through "
                                "[ceil(lo/2), hi/2]");
            else if ((text = PyUnicode_New(
                          (Py_ssize_t)text_size(m, n + k), 127))) {
                Py_BEGIN_ALLOW_THREADS
                write_lines(m, n + k, (char *)PyUnicode_1BYTE_DATA(text));
                Py_END_ALLOW_THREADS
                found = PyTuple_Pack(2, text, members);
            }
        }
    }
    Py_XDECREF(text);
    Py_XDECREF(members);
    PyBuffer_Release(&odd);
    PyBuffer_Release(&half);
    return found;
}

/* odd_counts(lo, hi, points) -> list[int], for a sequence of points. */
static PyObject *odd_counts(PyObject *Py_UNUSED(self), PyObject *args)
{
    uint64_t lo, hi;
    PyObject *points;
    if (!window(args, "O&O&O", &lo, &hi, &points, NULL)
        || !(points = PySequence_Fast(points, "points must be a sequence")))
        return NULL;
    size_t n = (size_t)PySequence_Fast_GET_SIZE(points), i = 0;
    uint64_t *p = PyMem_RawMalloc(8 * n);
    while (p && i < n && u64(PySequence_Fast_GET_ITEM(points, i), p + i)) i++;
    if (p && i == n) {
        Py_BEGIN_ALLOW_THREADS
        count_odd(lo, hi, p, n);
        Py_END_ALLOW_THREADS
    }
    PyObject *counts = !p ? PyErr_NoMemory() : i == n ? int_list(p, n) : NULL;
    PyMem_RawFree(p);
    Py_DECREF(points);
    return counts;
}

/* isq_select(path) -> int selects the loops every entry point runs from
   now on: path 1 the vector ones where the CPU has them (else the scalar
   ones), path 0 the scalar ones; a negative path keeps the selection.
   Returns 1 if the vector loops are selected, else 0.  Call it before any
   scan runs, not during one. */
static PyObject *isq_select(PyObject *Py_UNUSED(self), PyObject *args)
{
    int path;
    if (!PyArg_ParseTuple(args, "i", &path)) return NULL;
    if (path >= 0) vector = path && HAS_VECTOR;
    return PyLong_FromLong(vector);
}

static PyMethodDef METHODS[] = {
    {"members", members, METH_VARARGS, NULL},
    {"odd_members", odd_members, METH_VARARGS, NULL},
    {"merge_text", merge_text, METH_VARARGS, NULL},
    {"odd_counts", odd_counts, METH_VARARGS, NULL},
    {"isq_select", isq_select, METH_VARARGS, NULL},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef MODULE = {
    PyModuleDef_HEAD_INIT, .m_name = "_sieve", .m_size = -1,
    .m_methods = METHODS};

PyMODINIT_FUNC PyInit__sieve(void) { return PyModule_Create(&MODULE); }
