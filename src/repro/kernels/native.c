/*
 * Native SCT walker: per-root subgraph build plus the pivot recursion
 * for a batch of roots in one call, either counting k-cliques
 * (sct_walk_k) or recording every leaf of the unpruned tree
 * (sct_collect).
 *
 * This is a line-for-line port of the Python scalar spines
 * (repro.counting.sct.SCTEngine._make_rec_k and
 * repro.counting.forest._collect_root over the big-int kernel's
 * pivot_select / intersect_count) with the same tree, the same DFS
 * order and the same work tallies:
 *
 *   - local ids are positions in the root's sorted DAG out-neighbour
 *     array, exactly as repro.counting.structures.base.build_local_rows
 *     assigns them (rows are built by a position scatter);
 *   - the pivot is the lowest-id candidate with the most neighbours in
 *     P; the scan stops at the first perfect pivot;
 *   - counting: a node whose held set reaches k is a leaf worth one
 *     clique, an empty candidate set is a leaf worth
 *     C(pivots, k - held), and with early termination a node with
 *     held + pivots + |P| < k is cut; a root whose out-degree d
 *     satisfies 0 < d and 1 + d < k is never built (Lonkar & Beamer's
 *     degree pruning): one call, one early exit;
 *   - collecting: no k and no cuts; every empty candidate set is a
 *     leaf, recorded as (|held|, |pivots|) and, optionally, the held
 *     and pivot global ids (held starts with the root).
 *
 * Both modes share one recursion body, specialized at compile time by
 * an always-inline flag, so counting pays nothing for recording.
 *
 * Counts accumulate in unsigned 128-bit integers.  A root whose count,
 * or any binomial coefficient it needs, does not fit is flagged
 * SCT_OVERFLOW; the caller recounts it on the Python walker.  Work
 * tallies are exact regardless.
 *
 * Build: cc -O3 -fPIC -shared native.c -o native.so
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

/* Per-root output columns (int64), in this order. */
enum {
    COL_CALLS,    /* recursion nodes */
    COL_LEAVES,   /* leaves */
    COL_EARLY,    /* early exits (reach cut, pruned root) */
    COL_SCAN,     /* candidates scanned by pivot selection */
    COL_BRANCH,   /* branch (non-neighbour) vertices expanded */
    COL_DEPTH,    /* max held + pivots at a leaf */
    COL_EDGE,     /* popcount of every row intersection taken */
    COL_D,        /* subgraph size (out-degree) */
    COL_FLAGS,    /* SCT_BUILT | SCT_OVERFLOW */
    COL_LO,       /* count, low 64 bits (as a uint64 bit pattern) */
    COL_HI,       /* count, high 64 bits */
    NUM_COLS
};

#define SCT_BUILT 1
#define SCT_OVERFLOW 2

/* Error codes (negative return values). */
#define SCT_ENOMEM -1
#define SCT_EBOUNDS -2

int64_t sct_num_cols(void) { return NUM_COLS; }

/*
 * Pascal's triangle with saturation: lo/hi halves of C(n, r) for
 * 0 <= n <= nmax, 0 <= r <= rmax (row stride rmax + 1), and sat set
 * where the coefficient does not fit in 128 bits.
 */
void sct_binomial_table(int64_t nmax, int64_t rmax, uint64_t *lo,
                        uint64_t *hi, uint8_t *sat)
{
    const int64_t s = rmax + 1;
    for (int64_t n = 0; n <= nmax; n++) {
        for (int64_t r = 0; r <= rmax; r++) {
            u128 v = 0;
            uint8_t f = 0;
            if (r == 0 || r == n) {
                v = 1;
            } else if (r < n) {
                const int64_t a = (n - 1) * s + r - 1, b = a + 1;
                u128 x = ((u128)hi[a] << 64) | lo[a];
                u128 y = ((u128)hi[b] << 64) | lo[b];
                f = sat[a] | sat[b];
                if (__builtin_add_overflow(x, y, &v))
                    f = 1;
            }
            lo[n * s + r] = (uint64_t)v;
            hi[n * s + r] = (uint64_t)(v >> 64);
            sat[n * s + r] = f;
        }
    }
}

/* A growable int32 array (sct_collect's outputs). */
typedef struct {
    int32_t *data;
    int64_t len, cap;
} buf_t;

/* sct_collect's outputs, in this order. */
enum { OUT_HELD_N, OUT_PIVOT_N, OUT_HELD_IDS, OUT_PIVOT_IDS, NUM_OUTS };

typedef struct {
    int64_t k;
    int et;
    int64_t W;               /* 64-bit words per row */
    const uint64_t *rows;    /* d * W */
    uint64_t *P;             /* (d + 1) * W: candidate set per level */
    uint64_t *C;             /* (d + 1) * W: branch set per level */
    const uint64_t *blo, *bhi;
    const uint8_t *bsat;
    int64_t bnmax, bstride;
    int64_t calls, leaves, early, scan, branch, depth, edge;
    int overflow;
    /* Leaf recording (sct_collect). */
    const int64_t *out;      /* local id -> global id */
    int32_t *held, *piv;     /* member stacks: held[0 .. held), ... */
    int members;
    buf_t *bufs;             /* NUM_OUTS arrays */
    int nomem;
} walk_t;

#define SPINE static inline __attribute__((always_inline))

static int push(buf_t *b, const int32_t *src, int64_t cnt)
{
    if (cnt == 0)
        return 0;
    if (b->len + cnt > b->cap) {
        int64_t cap = b->cap ? 2 * b->cap : 1024;
        while (cap < b->len + cnt)
            cap *= 2;
        int32_t *p = realloc(b->data, (size_t)cap * sizeof *p);
        if (!p)
            return -1;
        b->data = p;
        b->cap = cap;
    }
    memcpy(b->data + b->len, src, (size_t)cnt * sizeof *src);
    b->len += cnt;
    return 0;
}

static void record(walk_t *w, int64_t held, int64_t pivots)
{
    const int32_t sizes[2] = {(int32_t)held, (int32_t)pivots};
    int rc = push(&w->bufs[OUT_HELD_N], sizes, 1)
             | push(&w->bufs[OUT_PIVOT_N], sizes + 1, 1);
    if (w->members)
        rc |= push(&w->bufs[OUT_HELD_IDS], w->held, held)
              | push(&w->bufs[OUT_PIVOT_IDS], w->piv, pivots);
    if (rc)
        w->nomem = 1;
}

SPINE u128 leaf(walk_t *w, int64_t held, int64_t pivots, const int collect)
{
    w->leaves++;
    if (held + pivots > w->depth)
        w->depth = held + pivots;
    if (collect) {
        record(w, held, pivots);
        return 0;
    }
    if (held == w->k)
        return 1;
    const int64_t r = w->k - held;
    if (r > pivots)
        return 0;
    if (pivots > w->bnmax) {
        w->overflow = 1;
        return 0;
    }
    const int64_t i = pivots * w->bstride + r;
    if (w->bsat[i])
        w->overflow = 1;
    return ((u128)w->bhi[i] << 64) | w->blo[i];
}

static inline void add(walk_t *w, u128 *acc, u128 x)
{
    if (__builtin_add_overflow(*acc, x, acc))
        w->overflow = 1;
}

/*
 * The recursion, specialized by the compile-time flag `collect`: the
 * counting wrappers (rec1_count, recw_count) see no recording code and
 * the collecting ones no k.
 */
static u128 rec1_count(walk_t *w, uint64_t P, int64_t pc, int64_t held,
                       int64_t pivots);
static u128 rec1_collect(walk_t *w, uint64_t P, int64_t pc, int64_t held,
                         int64_t pivots);
static u128 recw_count(walk_t *w, int64_t lvl, int64_t lo, int64_t hi,
                       int64_t pc, int64_t held, int64_t pivots);
static u128 recw_collect(walk_t *w, int64_t lvl, int64_t lo, int64_t hi,
                         int64_t pc, int64_t held, int64_t pivots);
#define REC1(...) (collect ? rec1_collect(__VA_ARGS__) \
                           : rec1_count(__VA_ARGS__))
#define RECW(...) (collect ? recw_collect(__VA_ARGS__) \
                           : recw_count(__VA_ARGS__))

/* Subgraphs of at most 64 vertices: one word per mask. */
SPINE u128 rec1(walk_t *w, uint64_t P, int64_t pc, int64_t held,
                int64_t pivots, const int collect)
{
    w->calls++;
    if (pc == 0 || (!collect && held == w->k))
        return leaf(w, held, pivots, collect);
    if (!collect && w->et && held + pivots + pc < w->k) {
        w->early++;
        return 0;
    }
    w->scan += pc;
    const uint64_t *rows = w->rows;
    int64_t best = -1, best_cnt = -1, edge = 0;
    for (uint64_t s = P; s; s &= s - 1) {
        const int i = __builtin_ctzll(s);
        const int64_t c = __builtin_popcountll(rows[i] & P);
        edge += c;
        if (c > best_cnt) {
            best_cnt = c;
            best = i;
            if (c == pc - 1)
                break;
        }
    }
    const uint64_t best_row = rows[best] & P;
    P &= ~((uint64_t)1 << best);
    uint64_t cand = P & ~best_row;
    w->branch += __builtin_popcountll(cand);
    if (collect)
        w->piv[pivots] = (int32_t)w->out[best];
    u128 total = REC1(w, best_row, best_cnt, held, pivots + 1);
    for (; cand; cand &= cand - 1) {
        const int v = __builtin_ctzll(cand);
        const uint64_t child = rows[v] & P;
        const int64_t cc = __builtin_popcountll(child);
        edge += cc;
        if (collect)
            w->held[held] = (int32_t)w->out[v];
        const u128 sub = REC1(w, child, cc, held + 1, pivots);
        if (!collect)
            add(w, &total, sub);
        P ^= (uint64_t)1 << v;
    }
    w->edge += edge;
    return total;
}

/*
 * Multi-word subgraphs.  Level lvl's candidate set lives at
 * w->P + lvl * W and is nonzero only in words [lo, hi); a child's set
 * is a subset, so it inherits the range and narrows it.
 */
SPINE u128 recw(walk_t *w, int64_t lvl, int64_t lo, int64_t hi, int64_t pc,
                int64_t held, int64_t pivots, const int collect)
{
    w->calls++;
    if (pc == 0 || (!collect && held == w->k))
        return leaf(w, held, pivots, collect);
    if (!collect && w->et && held + pivots + pc < w->k) {
        w->early++;
        return 0;
    }
    w->scan += pc;
    const int64_t W = w->W;
    const uint64_t *rows = w->rows;
    uint64_t *P = w->P + lvl * W;
    uint64_t *C = w->C + lvl * W;
    uint64_t *next = P + W;
    while (!P[lo])
        lo++;
    while (!P[hi - 1])
        hi--;

    int64_t best = -1, best_cnt = -1, edge = 0;
    for (int64_t q = lo; q < hi; q++) {
        for (uint64_t s = P[q]; s; s &= s - 1) {
            const int64_t i = q * 64 + __builtin_ctzll(s);
            const uint64_t *r = rows + i * W;
            int64_t c = 0;
            for (int64_t t = lo; t < hi; t++)
                c += __builtin_popcountll(r[t] & P[t]);
            edge += c;
            if (c > best_cnt) {
                best_cnt = c;
                best = i;
                if (c == pc - 1)
                    goto chosen;
            }
        }
    }
chosen:;
    const uint64_t *rb = rows + best * W;
    P[best >> 6] &= ~((uint64_t)1 << (best & 63));
    int64_t nb = 0;
    for (int64_t t = lo; t < hi; t++) {
        next[t] = rb[t] & P[t];
        C[t] = P[t] & ~next[t];
        nb += __builtin_popcountll(C[t]);
    }
    w->branch += nb;
    if (collect)
        w->piv[pivots] = (int32_t)w->out[best];
    u128 total = RECW(w, lvl + 1, lo, hi, best_cnt, held, pivots + 1);
    for (int64_t q = lo; q < hi; q++) {
        for (; C[q]; C[q] &= C[q] - 1) {
            const int b = __builtin_ctzll(C[q]);
            const int64_t v = q * 64 + b;
            const uint64_t *r = rows + v * W;
            int64_t cc = 0;
            for (int64_t t = lo; t < hi; t++) {
                next[t] = r[t] & P[t];
                cc += __builtin_popcountll(next[t]);
            }
            edge += cc;
            if (collect)
                w->held[held] = (int32_t)w->out[v];
            const u128 sub = RECW(w, lvl + 1, lo, hi, cc, held + 1, pivots);
            if (!collect)
                add(w, &total, sub);
            P[q] ^= (uint64_t)1 << b;
        }
    }
    w->edge += edge;
    return total;
}

static u128 rec1_count(walk_t *w, uint64_t P, int64_t pc, int64_t held,
                       int64_t pivots)
{
    return rec1(w, P, pc, held, pivots, 0);
}

static u128 rec1_collect(walk_t *w, uint64_t P, int64_t pc, int64_t held,
                         int64_t pivots)
{
    return rec1(w, P, pc, held, pivots, 1);
}

static u128 recw_count(walk_t *w, int64_t lvl, int64_t lo, int64_t hi,
                       int64_t pc, int64_t held, int64_t pivots)
{
    return recw(w, lvl, lo, hi, pc, held, pivots, 0);
}

static u128 recw_collect(walk_t *w, int64_t lvl, int64_t lo, int64_t hi,
                         int64_t pc, int64_t held, int64_t pivots)
{
    return recw(w, lvl, lo, hi, pc, held, pivots, 1);
}

/* Walk one built root of d vertices from the full candidate set. */
SPINE u128 walk_root(walk_t *w, int64_t d, const int collect)
{
    if (w->W <= 1) {
        const uint64_t full = d == 64 ? ~(uint64_t)0
                                      : (((uint64_t)1 << d) - 1);
        return collect ? rec1_collect(w, full, d, 1, 0)
                       : rec1_count(w, full, d, 1, 0);
    }
    for (int64_t t = 0; t < w->W; t++)
        w->P[t] = ~(uint64_t)0;
    if (d & 63)
        w->P[w->W - 1] = ((uint64_t)1 << (d & 63)) - 1;
    return collect ? recw_collect(w, 0, 0, w->W, d, 1, 0)
                   : recw_count(w, 0, 0, w->W, d, 1, 0);
}

/* Largest DAG out-degree among the roots, or SCT_EBOUNDS. */
static int64_t max_out_degree(int64_t nroots, const int64_t *roots,
                              int64_t n, const int64_t *d_indptr)
{
    const int64_t dm = d_indptr[n];
    int64_t dmax = 0;
    for (int64_t i = 0; i < nroots; i++) {
        const int64_t v = roots[i];
        if (v < 0 || v >= n)
            return SCT_EBOUNDS;
        const int64_t a = d_indptr[v], b = d_indptr[v + 1];
        if (a < 0 || b < a || b > dm)
            return SCT_EBOUNDS;
        if (b - a > dmax)
            dmax = b - a;
    }
    return dmax;
}

/*
 * Build root rows: local id j names out[j]; row j = N(out[j]) within
 * out, W words per row.  pos is all -1 on entry and on return.
 */
static int build_rows(const int64_t *out, int64_t d, int64_t W, int64_t n,
                      const int64_t *g_indptr, const int64_t *g_indices,
                      int32_t *pos, uint64_t *rows)
{
    const int64_t gm = g_indptr[n];
    for (int64_t j = 0; j < d; j++) {
        const int64_t u = out[j];
        if (u < 0 || u >= n || g_indptr[u] < 0
            || g_indptr[u + 1] < g_indptr[u] || g_indptr[u + 1] > gm)
            return SCT_EBOUNDS;
    }
    memset(rows, 0, (size_t)(d * W) * sizeof(uint64_t));
    for (int64_t j = 0; j < d; j++)
        pos[out[j]] = (int32_t)j;
    int rc = 0;
    for (int64_t j = 0; j < d && rc == 0; j++) {
        const int64_t u = out[j];
        uint64_t *row = rows + j * W;
        for (int64_t e = g_indptr[u]; e < g_indptr[u + 1]; e++) {
            const int64_t x = g_indices[e];
            if (x < 0 || x >= n) {
                rc = SCT_EBOUNDS;
                break;
            }
            const int32_t p = pos[x];
            if (p >= 0 && p < d)
                row[p >> 6] |= (uint64_t)1 << (p & 63);
        }
    }
    for (int64_t j = 0; j < d; j++)
        pos[out[j]] = -1;
    return rc;
}

/* Per-batch scratch: one root's rows and the per-level P / C sets. */
typedef struct {
    uint64_t *rows, *P, *C;
} scratch_t;

static int scratch_alloc(scratch_t *s, int64_t dmax)
{
    const int64_t Wmax = (dmax + 63) >> 6;
    s->rows = calloc((size_t)(dmax * Wmax + 1), sizeof(uint64_t));
    s->P = malloc((size_t)((dmax + 1) * Wmax + 1) * sizeof(uint64_t));
    s->C = malloc((size_t)((dmax + 1) * Wmax + 1) * sizeof(uint64_t));
    return s->rows && s->P && s->C ? 0 : SCT_ENOMEM;
}

static void scratch_free(scratch_t *s)
{
    free(s->rows);
    free(s->P);
    free(s->C);
}

static void store_tallies(const walk_t *w, int64_t *st)
{
    st[COL_CALLS] = w->calls;
    st[COL_LEAVES] = w->leaves;
    st[COL_EARLY] = w->early;
    st[COL_SCAN] = w->scan;
    st[COL_BRANCH] = w->branch;
    st[COL_DEPTH] = w->depth;
    st[COL_EDGE] = w->edge;
    st[COL_FLAGS] = SCT_BUILT | (w->overflow ? SCT_OVERFLOW : 0);
}

/*
 * Count the k-cliques rooted at each of roots[0 .. nroots).
 *
 * g_* is the undirected graph's CSR, d_* the DAG's (rows sorted); both
 * have n vertices.  pos is caller-owned scratch of n entries, all -1 on
 * entry and on return.  The binomial table comes from
 * sct_binomial_table(bnmax, bstride - 1, ...).
 *
 * Root i's NUM_COLS tallies and count go to stats[i * NUM_COLS].
 * Returns 0, SCT_ENOMEM, or SCT_EBOUNDS when an id or offset lies
 * outside the arrays.
 */
int sct_walk_k(int64_t nroots, const int64_t *roots, int64_t n,
               const int64_t *g_indptr, const int64_t *g_indices,
               const int64_t *d_indptr, const int64_t *d_indices,
               int64_t k, int32_t early_termination,
               const uint64_t *blo, const uint64_t *bhi,
               const uint8_t *bsat, int64_t bnmax, int64_t bstride,
               int32_t *pos, int64_t *stats)
{
    const int64_t dmax = max_out_degree(nroots, roots, n, d_indptr);
    if (dmax < 0)
        return (int)dmax;
    scratch_t s;
    int rc = scratch_alloc(&s, dmax);
    for (int64_t i = 0; i < nroots && rc == 0; i++) {
        const int64_t v = roots[i];
        const int64_t *out = d_indices + d_indptr[v];
        const int64_t d = d_indptr[v + 1] - d_indptr[v];
        int64_t *st = stats + i * NUM_COLS;
        memset(st, 0, NUM_COLS * sizeof(int64_t));
        st[COL_D] = d;
        if (early_termination && k > 1 && d > 0 && 1 + d < k) {
            st[COL_CALLS] = 1;
            st[COL_EARLY] = 1;
            continue;
        }
        const int64_t W = (d + 63) >> 6;
        rc = build_rows(out, d, W, n, g_indptr, g_indices, pos, s.rows);
        if (rc)
            break;
        walk_t w = {
            .k = k, .et = early_termination != 0, .W = W, .rows = s.rows,
            .P = s.P, .C = s.C, .blo = blo, .bhi = bhi, .bsat = bsat,
            .bnmax = bnmax, .bstride = bstride,
        };
        const u128 total = walk_root(&w, d, 0);
        store_tallies(&w, st);
        st[COL_LO] = (int64_t)(uint64_t)total;
        st[COL_HI] = (int64_t)(uint64_t)(total >> 64);
    }
    scratch_free(&s);
    return rc;
}

/*
 * Record every leaf of the unpruned SCT of each of roots[0 .. nroots),
 * in DFS order, root after root.
 *
 * Arguments and stats as for sct_walk_k (no k, no cuts; the count
 * columns stay 0).  On success out[OUT_HELD_N] and out[OUT_PIVOT_N]
 * hold each leaf's held and pivot set sizes and, when members is set,
 * out[OUT_HELD_IDS] / out[OUT_PIVOT_IDS] the leaves' held and pivot
 * global ids back to back; lens[] gives each array's length.  The
 * arrays are malloc'd here and released with sct_free.  On error every
 * out[] is NULL.
 */
int sct_collect(int64_t nroots, const int64_t *roots, int64_t n,
                const int64_t *g_indptr, const int64_t *g_indices,
                const int64_t *d_indptr, const int64_t *d_indices,
                int32_t members, int32_t *pos, int64_t *stats,
                int32_t **out, int64_t *lens)
{
    buf_t bufs[NUM_OUTS];
    memset(bufs, 0, sizeof bufs);
    const int64_t dmax = max_out_degree(nroots, roots, n, d_indptr);
    int rc = dmax < 0 ? (int)dmax : 0;
    scratch_t s = {0};
    int32_t *held = NULL, *piv = NULL;
    if (rc == 0) {
        rc = scratch_alloc(&s, dmax);
        held = malloc((size_t)(dmax + 1) * sizeof *held);
        piv = malloc((size_t)(dmax + 1) * sizeof *piv);
        if (!held || !piv)
            rc = SCT_ENOMEM;
    }
    for (int64_t i = 0; i < nroots && rc == 0; i++) {
        const int64_t v = roots[i];
        const int64_t *ids = d_indices + d_indptr[v];
        const int64_t d = d_indptr[v + 1] - d_indptr[v];
        const int64_t W = (d + 63) >> 6;
        rc = build_rows(ids, d, W, n, g_indptr, g_indices, pos, s.rows);
        if (rc)
            break;
        held[0] = (int32_t)v;
        walk_t w = {
            .W = W, .rows = s.rows, .P = s.P, .C = s.C, .out = ids,
            .held = held, .piv = piv, .members = members != 0,
            .bufs = bufs,
        };
        walk_root(&w, d, 1);
        if (w.nomem)
            rc = SCT_ENOMEM;
        int64_t *st = stats + i * NUM_COLS;
        memset(st, 0, NUM_COLS * sizeof(int64_t));
        store_tallies(&w, st);
        st[COL_D] = d;
    }
    scratch_free(&s);
    free(held);
    free(piv);
    for (int t = 0; t < NUM_OUTS; t++) {
        if (rc) {
            free(bufs[t].data);
            bufs[t].data = NULL;
            bufs[t].len = 0;
        }
        out[t] = bufs[t].data;
        lens[t] = bufs[t].len;
    }
    return rc;
}

/* Release an array sct_collect returned. */
void sct_free(void *p)
{
    free(p);
}
