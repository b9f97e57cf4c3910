/*
 * Native SCT walker: per-root subgraph build plus the target-k pivot
 * recursion for a batch of roots in one call.
 *
 * This is a line-for-line port of the Python scalar spine
 * (repro.counting.sct.SCTEngine._make_rec_k over the big-int kernel's
 * pivot_select / intersect_count) with the same tree, the same DFS
 * order and the same work tallies:
 *
 *   - local ids are positions in the root's sorted DAG out-neighbour
 *     array, exactly as repro.counting.structures.base.build_local_rows
 *     assigns them (rows are built by a position scatter);
 *   - the pivot is the lowest-id candidate with the most neighbours in
 *     P; the scan stops at the first perfect pivot;
 *   - a node whose held set reaches k is a leaf worth one clique, an
 *     empty candidate set is a leaf worth C(pivots, k - held), and with
 *     early termination a node with held + pivots + |P| < k is cut;
 *   - with early termination, a root whose out-degree d satisfies
 *     0 < d and 1 + d < k is never built (Lonkar & Beamer's degree
 *     pruning): one call, one early exit.
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
} walk_t;

static u128 leaf(walk_t *w, int64_t held, int64_t pivots)
{
    w->leaves++;
    if (held + pivots > w->depth)
        w->depth = held + pivots;
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

/* Subgraphs of at most 64 vertices: one word per mask. */
static u128 rec1(walk_t *w, uint64_t P, int64_t pc, int64_t held,
                 int64_t pivots)
{
    w->calls++;
    if (held == w->k || pc == 0)
        return leaf(w, held, pivots);
    if (w->et && held + pivots + pc < w->k) {
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
    u128 total = rec1(w, best_row, best_cnt, held, pivots + 1);
    for (; cand; cand &= cand - 1) {
        const int v = __builtin_ctzll(cand);
        const uint64_t child = rows[v] & P;
        const int64_t cc = __builtin_popcountll(child);
        edge += cc;
        add(w, &total, rec1(w, child, cc, held + 1, pivots));
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
static u128 recw(walk_t *w, int64_t lvl, int64_t lo, int64_t hi,
                 int64_t pc, int64_t held, int64_t pivots)
{
    w->calls++;
    if (held == w->k || pc == 0)
        return leaf(w, held, pivots);
    if (w->et && held + pivots + pc < w->k) {
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
    u128 total = recw(w, lvl + 1, lo, hi, best_cnt, held, pivots + 1);
    for (int64_t q = lo; q < hi; q++) {
        for (; C[q]; C[q] &= C[q] - 1) {
            const int b = __builtin_ctzll(C[q]);
            const uint64_t *r = rows + (q * 64 + b) * W;
            int64_t cc = 0;
            for (int64_t t = lo; t < hi; t++) {
                next[t] = r[t] & P[t];
                cc += __builtin_popcountll(next[t]);
            }
            edge += cc;
            add(w, &total, recw(w, lvl + 1, lo, hi, cc, held + 1, pivots));
            P[q] ^= (uint64_t)1 << b;
        }
    }
    w->edge += edge;
    return total;
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
    const int64_t gm = g_indptr[n], dm = d_indptr[n];
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
    const int64_t Wmax = (dmax + 63) >> 6;
    uint64_t *rows = calloc((size_t)(dmax * Wmax + 1), sizeof(uint64_t));
    uint64_t *Pbuf = malloc((size_t)((dmax + 1) * Wmax + 1) * sizeof(uint64_t));
    uint64_t *Cbuf = malloc((size_t)((dmax + 1) * Wmax + 1) * sizeof(uint64_t));
    if (!rows || !Pbuf || !Cbuf) {
        free(rows);
        free(Pbuf);
        free(Cbuf);
        return SCT_ENOMEM;
    }

    int rc = 0;
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

        /* Build: local id j names out[j]; row j = N(out[j]) within out. */
        const int64_t W = (d + 63) >> 6;
        for (int64_t j = 0; j < d; j++) {
            const int64_t u = out[j];
            if (u < 0 || u >= n || g_indptr[u] < 0
                || g_indptr[u + 1] < g_indptr[u] || g_indptr[u + 1] > gm) {
                rc = SCT_EBOUNDS;
                break;
            }
        }
        if (rc)
            break;
        memset(rows, 0, (size_t)(d * W) * sizeof(uint64_t));
        for (int64_t j = 0; j < d; j++)
            pos[out[j]] = (int32_t)j;
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
        if (rc)
            break;

        walk_t w = {
            .k = k, .et = early_termination != 0, .W = W, .rows = rows,
            .P = Pbuf, .C = Cbuf, .blo = blo, .bhi = bhi, .bsat = bsat,
            .bnmax = bnmax, .bstride = bstride,
        };
        u128 total;
        if (W <= 1) {
            const uint64_t full = d == 64 ? ~(uint64_t)0
                                          : (((uint64_t)1 << d) - 1);
            total = rec1(&w, full, d, 1, 0);
        } else {
            for (int64_t t = 0; t < W; t++)
                Pbuf[t] = ~(uint64_t)0;
            if (d & 63)
                Pbuf[W - 1] = ((uint64_t)1 << (d & 63)) - 1;
            total = recw(&w, 0, 0, W, d, 1, 0);
        }
        st[COL_CALLS] = w.calls;
        st[COL_LEAVES] = w.leaves;
        st[COL_EARLY] = w.early;
        st[COL_SCAN] = w.scan;
        st[COL_BRANCH] = w.branch;
        st[COL_DEPTH] = w.depth;
        st[COL_EDGE] = w.edge;
        st[COL_FLAGS] = SCT_BUILT | (w.overflow ? SCT_OVERFLOW : 0);
        st[COL_LO] = (int64_t)(uint64_t)total;
        st[COL_HI] = (int64_t)(uint64_t)(total >> 64);
    }
    free(rows);
    free(Pbuf);
    free(Cbuf);
    return rc;
}
