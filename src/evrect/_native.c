/* Per-event loops of the classify path, in C: the event CSV parse, the
 * refractory + 8-neighbour noise cascade, the FIFO count matrix read out as
 * one w x w patch per event, the k-d tree descent of such rows, and the
 * same descent walked on the count matrix itself.  The last four follow the
 * reference models in filtering.py (CascadeFilter), rect.py (RectState) and
 * kdtree.py (descend) step for step.  The cascade keeps its noise map with
 * a border of never-fired cells, so that every survivor tests all 8
 * neighbours with no bounds check and no early exit.  A patch value is read
 * from a table of count / area, one entry per count the FIFO can hold,
 * built by the caller with the division RectState makes, so no value is
 * divided per event.  The patch copy resumes where its last call stopped,
 * so that a caller fills one reused block of rows at a time, and the
 * descent divides a value by its row's norm as it reads it, so that no
 * normalised copy is made.  Where no row is normalised or projected, the
 * grid walk reads the few values a walk compares straight from the pooled
 * grid and builds no row at all.  The caller checks every coordinate
 * against the geometry, and every column index against the row width,
 * before calling.  The parse accepts only the canonical form and leaves all
 * other text, and every error, to the line parser in events.py.
 *
 * Four more serve k-means (dictionary.py): the nearest centre per row of a
 * product block, the distance to a row's own centre from a product with
 * some of the centres, the pass over Hamerly's bounds that picks the rows
 * whose label a step must recompute, and the per-cluster sums.  The first
 * two write through an index per block row, so that a block of gathered
 * rows lands in place.  Where they repeat numpy steps, they do so
 * operation for operation, in the same order, so their results are the
 * same bits; the build turns off FMA contraction so that gcc keeps every
 * rounding step.  The bounds are rounded outward, as dictionary.py proves.
 */
#include <math.h>
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
 * many, or -1 when memory runs out.  The noise map has a border of NEVER
 * cells, (n_rows + 2) x (n_cols + 2), so that every neighbour of a pixel is
 * a cell of the map, and one that lies off the sensor never fired. */
int64_t evrect_cascade(int64_t n, const int64_t *xs, const int64_t *ys, const int64_t *ts,
                       int64_t n_rows, int64_t n_cols, int64_t theta_ref, int64_t theta_noise,
                       int64_t *kept)
{
    int64_t cells = n_rows * n_cols, wide = n_cols + 2, bordered = (n_rows + 2) * wide;
    int64_t *ref = malloc(cells * sizeof *ref);
    int64_t *noise = malloc(bordered * sizeof *noise);
    if (!ref || !noise) {
        free(ref);
        free(noise);
        return -1;
    }
    for (int64_t i = 0; i < cells; i++)
        ref[i] = NEVER;
    for (int64_t i = 0; i < bordered; i++)
        noise[i] = NEVER;
    const int64_t around[8] = {-wide - 1, -wide, -wide + 1, -1, 1, wide - 1, wide, wide + 1};

    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t x = xs[i], y = ys[i], t = ts[i];
        int64_t idx = y * n_cols + x;
        int64_t last = ref[idx];
        ref[idx] = t;
        if (last != NEVER && gap_le(t, last, theta_ref))
            continue;
        int64_t *cell = noise + (y + 1) * wide + x + 1;
        int accepted = 0;
        /* t - tj < theta_noise, for any neighbour that fired */
        for (int k = 0; k < 8; k++) {
            int64_t tj = cell[around[k]];
            accepted |= (tj != NEVER) & gap_le(t, tj, theta_noise - 1);
        }
        *cell = t;
        kept[m] = i;
        m += accepted;
    }
    free(ref);
    free(noise);
    return m;
}

/* Event i enters the FIFO of capacity s, evicting event i - s: the counts
 * of the pooled grid change by one each.  `grid` is the pooled grid with a
 * zero border of w / 2 cells, `stride` cells wide; the padded cell of
 * (x, y) is (y / p + h, x / q + h).  Returns the top-left cell of event i's
 * w x w patch, h cells up and left of its own.  A sensor has at most 2^24
 * pixels, and the caller clips p and q to its sides, so the divisions are
 * exact in 32 bits, where they cost less than in 64. */
static const int64_t *fifo_push(int64_t i, const int64_t *xs, const int64_t *ys, int64_t s,
                                int64_t p, int64_t q, int64_t h, int64_t stride, int64_t *grid)
{
    uint32_t up = (uint32_t)p, uq = (uint32_t)q;
    if (i >= s)
        grid[((uint32_t)ys[i - s] / up + h) * stride + (uint32_t)xs[i - s] / uq + h] -= 1;
    int64_t *corner = grid + ((uint32_t)ys[i] / up) * stride + (uint32_t)xs[i] / uq;
    corner[h * stride + h] += 1;
    return corner;
}

/* Rows i0 to i1 - 1 of the patches, written to the (i1 - i0) x w*w block
 * `out`: row i is the w x w block of pooled sums centred on event i's
 * pooled cell, right after event i entered the FIFO, each sum c read as
 * value[c] (c / area).  `grid`, owned by the caller, is all zero before
 * event 0 and carries the FIFO's counts from one call to the next, so a
 * stream is filled in order, one block of rows at a time. */
void evrect_patches(int64_t i0, int64_t i1, const int64_t *xs, const int64_t *ys, int64_t s,
                    int64_t p, int64_t q, int64_t w, int64_t stride, const double *value,
                    int64_t *grid, double *out)
{
    for (int64_t i = i0; i < i1; i++) {
        const int64_t *corner = fifo_push(i, xs, ys, s, p, q, w / 2, stride, grid);
        double *row = out + (i - i0) * w * w;
        for (int64_t a = 0; a < w; a++)
            for (int64_t b = 0; b < w; b++)
                row[a * w + b] = value[corner[a * stride + b]];
    }
}

/* out[i - i0] is the leaf that event i's patch (as evrect_patches would
 * write it) reaches, walked on the pooled grid itself: node j is a leaf
 * when off[j] < 0, and otherwise reads value[corner[off[j]]], the patch
 * value at offset off[j] from the patch's top-left cell, and goes left when
 * that is <= split_val[j] (NaN goes right).  `grid` is carried from call to
 * call as by evrect_patches.  Every step must go to a later node that
 * exists; returns 0, or -1 at the first step that does not. */
int evrect_patch_leaves(int64_t i0, int64_t i1, const int64_t *xs, const int64_t *ys, int64_t s,
                        int64_t p, int64_t q, int64_t w, int64_t stride, const double *value,
                        int64_t *grid, int64_t n_nodes, const int64_t *off,
                        const double *split_val, const int32_t *left, const int32_t *right,
                        const int32_t *leaf_index, int64_t *out)
{
    for (int64_t i = i0; i < i1; i++) {
        const int64_t *corner = fifo_push(i, xs, ys, s, p, q, w / 2, stride, grid);
        int64_t node = 0;
        while (off[node] >= 0) {
            /* the child is picked without a branch: which way a walk turns
             * is close to a coin flip, and a mispredicted branch costs more
             * than reading both children */
            int64_t l = left[node], r = right[node];
            int64_t right_side = !(value[corner[off[node]]] <= split_val[node]);
            int64_t next = l + (r - l) * right_side;
            if (next <= node || next >= n_nodes)
                return -1;
            node = next;
        }
        out[i - i0] = leaf_index[node];
    }
    return 0;
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

/* Hamerly's bounds are rounded outward after each operation by a factor of
 * 1 +- 2^-50, which covers the few 2^-53 roundings of the operations before
 * it (dictionary.py gives the whole argument). */
#define WIDEN 0x1p-50

static double upper_bound(double best, double eps)
{
    return sqrt(best + eps) * (1.0 + WIDEN);
}

/* Row r of the n x k block `prod` holds x_i . c_j for sample i = idx[r].
 * With v_j = prod[r][j] * -2.0 + c2[j], label[i] is the first j of least v_j
 * (the first NaN when there is one, as np.argmin picks) and best[i] =
 * max(v + x2[i], 0), NaN kept.  upper[i] bounds |x_i - c_label| from above
 * and lower[i] bounds the distance to every other centre from below: from
 * best and from the second least v_j, each widened by `eps`, the bound on
 * the rounding of v_j + x2[i]; a NaN bound proves nothing. */
void evrect_nearest(int64_t n, int64_t k, const double *prod, const double *c2,
                    const double *x2, const int64_t *idx, double eps, int64_t *label,
                    double *best, double *upper, double *lower)
{
    for (int64_t r = 0; r < n; r++) {
        const double *row = prod + r * k;
        int64_t bj = 0, i = idx[r];
        double bv = row[0] * -2.0 + c2[0], sv = INFINITY;
        for (int64_t j = 1; j < k && bv == bv; j++) {
            double v = row[j] * -2.0 + c2[j];
            if (v < bv || v != v) {
                sv = bv;
                bv = v;
                bj = j;
            } else if (v < sv) {
                sv = v;
            }
        }
        double b = bv + x2[i];
        label[i] = bj;
        best[i] = b < 0.0 ? 0.0 : b;
        upper[i] = upper_bound(best[i], eps);
        double second = sv + x2[i] - eps;
        lower[i] = second > 0.0 ? sqrt(second) * (1.0 - WIDEN) : 0.0;
    }
}

/* Row r of the n x m block `prod` holds x_i . c_j for sample i = idx[r] and
 * the centres j with col[j] >= 0, at column col[j].  Sets best[i] to the
 * distance to its own centre a = label[i], in evrect_nearest's steps,
 * max(prod[r][col[a]] * -2.0 + c2[a] + x2[i], 0), and upper[i] from it. */
void evrect_own_distance(int64_t n, int64_t m, const double *prod, const int64_t *col,
                         const double *c2, const double *x2, const int64_t *idx, double eps,
                         const int64_t *label, double *best, double *upper)
{
    for (int64_t r = 0; r < n; r++) {
        int64_t i = idx[r], a = label[i];
        double b = prod[r * m + col[a]] * -2.0 + c2[a] + x2[i];
        best[i] = b < 0.0 ? 0.0 : b;
        upper[i] = upper_bound(best[i], eps);
    }
}

/* One Lloyd step's bounds: for each of the n samples, its upper bound grows
 * by the drift of its own centre a = label[i] and its lower bound shrinks
 * by the largest drift of any other centre (far_drift, or next_drift when a
 * is the centre `far` that drifted most).  A sample whose bounds show
 * lower^2 - upper^2 > margin keeps its label; it goes to `own` when its
 * centre moved (moved[a] != 0), to neither list when it did not.  Every
 * other sample goes to `todo`.  Both lists come out in row order; returns
 * the length of `todo` and writes that of `own` to *n_own. */
int64_t evrect_prune(int64_t n, const int64_t *label, const double *drift,
                     const uint8_t *moved, int64_t far, double far_drift, double next_drift,
                     double margin, double *upper, double *lower, int64_t *todo,
                     int64_t *own, int64_t *n_own)
{
    int64_t n_todo = 0, n_kept = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t a = label[i];
        double u = (upper[i] + drift[a]) * (1.0 + WIDEN);
        double l = (lower[i] - (a == far ? next_drift : far_drift)) * (1.0 - WIDEN);
        upper[i] = u;
        lower[i] = l;
        if (l > u && l * l - u * u > margin) {
            if (moved[a])
                own[n_kept++] = i;
        } else {
            todo[n_todo++] = i;
        }
    }
    *n_own = n_kept;
    return n_todo;
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
