/* Per-event loops of the classify path, in C: the event CSV parse, the
 * refractory + 8-neighbour noise cascade, the FIFO count matrix read out as
 * one w x w patch per event, and the k-d tree descent.  The last three
 * follow the reference models in filtering.py (CascadeFilter), rect.py
 * (RectState) and kdtree.py (descend) step for step.  The patch copy
 * resumes where its last call stopped, so that a caller fills one reused
 * block of rows at a time, and the descent divides a value by its row's
 * norm as it reads it, so that no normalised copy is made.  The caller
 * checks every coordinate against the geometry, and every column index
 * against the row width, before calling.  The parse accepts only the
 * canonical form and leaves all other text, and every error, to the line
 * parser in events.py.
 *
 * Two more serve k-means (dictionary.py): the nearest centre per row of a
 * product block, and the per-cluster sums.  They repeat the numpy steps
 * they replace operation for operation, in the same order, so their
 * results are the same bits; the build turns off FMA contraction so that
 * gcc keeps every rounding step.
 */
#include <stdint.h>
#include <stdlib.h>

#define NEVER (-((int64_t)1 << 62))

/* a - b <= c, exact for any int64 a and b, as Python's integers compare */
static int gap_le(int64_t a, int64_t b, int64_t c)
{
    int64_t d;
    if (__builtin_sub_overflow(a, b, &d))
        return a < b;
    return d <= c;
}

#define DIGIT_MAX 18 /* so that every token fits in int64, and t <= 2^63 - 1 */

/* Reads the `len` bytes of `buf` as canonical event CSV: nothing but
 * `x,y,t,p` lines, each token 1 to 18 ASCII digits, each line ending in a
 * newline but maybe the last, with x < n_cols, y < n_rows, p <= 1 and t
 * never decreasing.  Writes at most `cap` events to the four columns and
 * returns how many; returns -1 at the first byte that breaks the form or a
 * rule, or at event `cap`. */
int64_t evrect_parse_csv(int64_t len, const char *buf, int64_t n_rows, int64_t n_cols,
                         int64_t cap, int64_t *xs, int64_t *ys, int64_t *ts, int64_t *ps)
{
    const unsigned char *c = (const unsigned char *)buf, *end = c + len;
    int64_t n = 0, prev_t = 0;
    while (c < end) {
        int64_t v[4];
        for (int f = 0; f < 4; f++) {
            const unsigned char *start = c;
            int64_t acc = 0;
            while (c < end && c - start < DIGIT_MAX && (unsigned)(*c - '0') < 10)
                acc = acc * 10 + (*c++ - '0');
            if (c == start)
                return -1;
            v[f] = acc;
            /* x, y and t end in a comma, p in a newline or the end of the
             * text; a 19th digit is neither */
            if (f < 3) {
                if (c == end || *c != ',')
                    return -1;
                c++;
            } else if (c < end) {
                if (*c != '\n')
                    return -1;
                c++;
            }
        }
        if (n == cap || v[0] >= n_cols || v[1] >= n_rows || v[2] < prev_t || v[3] > 1)
            return -1;
        xs[n] = v[0];
        ys[n] = v[1];
        ts[n] = v[2];
        ps[n] = v[3];
        prev_t = v[2];
        n++;
    }
    return n;
}

/* Indices of the events the cascade keeps, written to `kept`; returns how
 * many, or -1 when memory runs out. */
int64_t evrect_cascade(int64_t n, const int64_t *xs, const int64_t *ys, const int64_t *ts,
                       int64_t n_rows, int64_t n_cols, int64_t theta_ref, int64_t theta_noise,
                       int64_t *kept)
{
    int64_t cells = n_rows * n_cols;
    int64_t *ref = malloc(cells * sizeof *ref);
    int64_t *noise = malloc(cells * sizeof *noise);
    if (!ref || !noise) {
        free(ref);
        free(noise);
        return -1;
    }
    for (int64_t i = 0; i < cells; i++)
        ref[i] = noise[i] = NEVER;

    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t x = xs[i], y = ys[i], t = ts[i];
        int64_t idx = y * n_cols + x;
        int64_t last = ref[idx];
        ref[idx] = t;
        if (last != NEVER && gap_le(t, last, theta_ref))
            continue;
        int accepted = 0;
        for (int64_t yj = y - 1; yj <= y + 1 && !accepted; yj++) {
            if (yj < 0 || yj >= n_rows)
                continue;
            for (int64_t xj = x - 1; xj <= x + 1; xj++) {
                if (xj < 0 || xj >= n_cols || (xj == x && yj == y))
                    continue;
                int64_t tj = noise[yj * n_cols + xj];
                /* t - tj < theta_noise */
                if (tj != NEVER && gap_le(t, tj, theta_noise - 1)) {
                    accepted = 1;
                    break;
                }
            }
        }
        noise[idx] = t;
        if (accepted)
            kept[m++] = i;
    }
    free(ref);
    free(noise);
    return m;
}

/* Rows i0 to i1 - 1 of the patches, written to the (i1 - i0) x w*w block
 * `out`: row i is the w x w block of pooled sums centred on event i's
 * pooled cell, each divided by `area`, right after event i entered a FIFO
 * of capacity s (evicting event i - s).  `grid` is the pooled grid with a
 * zero border of w / 2 cells, `stride` cells wide, owned by the caller: all
 * zero before event 0, it carries the FIFO's counts from one call to the
 * next, so a stream is filled in order, one block of rows at a time. */
void evrect_patches(int64_t i0, int64_t i1, const int64_t *xs, const int64_t *ys, int64_t s,
                    int64_t p, int64_t q, int64_t w, int64_t stride, double area,
                    int64_t *grid, double *out)
{
    int64_t h = w / 2;
    /* the padded cell of (x, y) is (y / p + h, x / q + h); a patch starts h
     * cells up and left of it */
    for (int64_t i = i0; i < i1; i++) {
        if (i >= s)
            grid[(ys[i - s] / p + h) * stride + xs[i - s] / q + h] -= 1;
        int64_t *corner = grid + (ys[i] / p) * stride + xs[i] / q;
        corner[h * stride + h] += 1;
        double *row = out + (i - i0) * w * w;
        for (int64_t a = 0; a < w; a++)
            for (int64_t b = 0; b < w; b++)
                row[a * w + b] = (double)corner[a * stride + b] / area;
    }
}

/* out[i] is the leaf index reached by row i of the n x width matrix `rows`
 * (C order), walking from the root: node j is a leaf when col[j] < 0, and
 * otherwise goes left when row[col[j]] <= split_val[j] (ties go left, NaN
 * goes right).  When `norm` is not NULL, a value of row i is first divided
 * by norm[i] where norm[i] > 0, as numpy's divide does with that `where`:
 * IEEE division is correctly rounded, so the walk compares the same bits
 * while it divides only the values it reads.  Every step must go to a
 * later node that exists, so every walk ends; returns 0, or -1 at the
 * first step that does not. */
int evrect_descend(int64_t n, const double *rows, int64_t width, const double *norm,
                   int64_t n_nodes, const int64_t *col, const double *split_val,
                   const int32_t *left, const int32_t *right, const int32_t *leaf_index,
                   int64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        const double *row = rows + i * width;
        double d = norm ? norm[i] : 0.0;
        int64_t node = 0;
        while (col[node] >= 0) {
            double v = row[col[node]];
            if (d > 0.0)
                v /= d;
            int64_t next = v <= split_val[node] ? left[node] : right[node];
            if (next <= node || next >= n_nodes)
                return -1;
            node = next;
        }
        out[i] = leaf_index[node];
    }
    return 0;
}

/* Row i of the n x k block `prod` holds x_i . c_j.  With v_j = prod[i][j]
 * * -2.0 + c2[j], label[i] is the first j of least v_j (the first NaN when
 * there is one, as np.argmin picks) and best[i] = max(v + x2[i], 0), NaN
 * kept. */
void evrect_nearest(int64_t n, int64_t k, const double *prod, const double *c2,
                    const double *x2, int64_t *label, double *best)
{
    for (int64_t i = 0; i < n; i++) {
        const double *row = prod + i * k;
        int64_t bj = 0;
        double bv = row[0] * -2.0 + c2[0];
        for (int64_t j = 1; j < k && bv == bv; j++) {
            double v = row[j] * -2.0 + c2[j];
            if (v < bv || v != v) {
                bv = v;
                bj = j;
            }
        }
        double b = bv + x2[i];
        label[i] = bj;
        best[i] = b < 0.0 ? 0.0 : b;
    }
}

/* Adds row i of the n x d matrix `x` into row label[i] of the k x d `sums`
 * and counts it in counts[label[i]], in row order, as np.bincount does;
 * both outputs start at zero.  Every label must lie in [0, k). */
void evrect_centroid_sums(int64_t n, int64_t d, const double *x, const int64_t *label,
                          double *sums, int64_t *counts)
{
    for (int64_t i = 0; i < n; i++) {
        const double *row = x + i * d;
        double *acc = sums + label[i] * d;
        for (int64_t c = 0; c < d; c++)
            acc[c] += row[c];
        counts[label[i]] += 1;
    }
}
