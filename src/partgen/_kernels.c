/* partgen's compiled loops, built by nn.py into one library per process:
 *
 * - adam_step_all: the float32 Adam update of partgen.nn.adam_step over
 *   every tensor of a network in one call, after the check for non-finite
 *   gradients that precedes it;
 * - pair_grid: the float64 cells of partgen.world._pair_sweep's grid at
 *   given rows and columns, with each row's maximum and the first argmax.
 *
 * Each value goes through numpy's operations in numpy's order, each rounded
 * to the array's type, so the two give the same bits. That holds only when
 * built without floating-point contraction or reassociation: nn.py compiles
 * this with -O3 -ffp-contract=off -fno-math-errno and never with
 * -ffast-math, -Ofast or -march=native. -fno-math-errno lets sqrt become
 * the correctly rounded sqrt instruction, which vectorizes;
 * -ffp-contract=off forbids fused multiply-adds.
 *
 * On x86-64 Linux with glibc, GCC and Clang build each Adam loop once per
 * instruction set (AVX-512F, AVX2 and the x86-64 baseline) and the loader
 * picks the widest one the CPU runs. Add, subtract, multiply, divide and
 * sqrt round the same in every one of them, so the choice moves no bit.
 * Elsewhere, and for the pair grid, the loops are built once, for the
 * target's baseline.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define ISA_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef ISA_CLONES
#define ISA_CLONES
#endif

/* 1 when every one of the n values is finite, else 0. */
ISA_CLONES static int all_finite(const float *g, size_t n)
{
    int finite = 1;
    for (size_t i = 0; i < n; i++)
        finite &= isfinite(g[i]) != 0;
    return finite;
}

/* One update of n parameters p with gradients g and moments m, v in place:
 * m = m b1 + c1 g, v = v b2 + (c2 g) g, p -= (a m) / (sqrt(v b) + eps),
 * with c1 = 1 - b1 and c2 = 1 - b2 rounded to float32 by the caller. */
ISA_CLONES static void adam_update(float *p, const float *g, float *m, float *v, size_t n,
                                   float a, float b, float beta1, float beta2,
                                   float one_minus_beta1, float one_minus_beta2, float eps)
{
    for (size_t i = 0; i < n; i++) {
        float t = one_minus_beta1 * g[i];
        m[i] = m[i] * beta1 + t;
        float u = (one_minus_beta2 * g[i]) * g[i];
        v[i] = v[i] * beta2 + u;
        float s = sqrtf(v[i] * b) + eps;
        p[i] -= (a * m[i]) / s;
    }
}

/* One Adam step over k tensors. ptrs holds p, g, m, v for each tensor in
 * turn, sizes its element count, and consts a, b, beta1, beta2, 1 - beta1,
 * 1 - beta2 and eps. Returns 0, with nothing written, when any gradient
 * holds a non-finite value; else updates every tensor and returns 1. */
int adam_step_all(size_t k, float *const *ptrs, const size_t *sizes, const float *consts)
{
    for (size_t j = 0; j < k; j++)
        if (!all_finite(ptrs[4 * j + 1], sizes[j]))
            return 0;
    for (size_t j = 0; j < k; j++)
        adam_update(ptrs[4 * j], ptrs[4 * j + 1], ptrs[4 * j + 2], ptrs[4 * j + 3], sizes[j],
                    consts[0], consts[1], consts[2], consts[3], consts[4], consts[5], consts[6]);
    return 1;
}

/* Cells of the pair grid are scored this many columns at a time. */
#define GRID_CHUNK 256

/* Moves *best and *arg, the maximum so far and its index, over the m
 * values x from index offset on: a larger value or, first of all, a NaN
 * takes them (numpy's max and argmax rules). Returns 1 once a NaN has. */
static int scan_max(const double *x, size_t m, size_t offset, double *best, size_t *arg)
{
    for (size_t c = 0; c < m; c++) {
        if (x[c] > *best || isnan(x[c])) {
            *best = x[c];
            *arg = offset + c;
            if (isnan(x[c]))
                return 1;
        }
    }
    return 0;
}

/* Cells cols[c0], ..., cols[c0 + m - 1] (columns c0 to c0 + m - 1 when
 * cols is NULL) of one grid row: (rn + s[b]) / sqrt((rd + 2 x[b]) + 2 g[b]).
 * Built for the baseline only: the divide and sqrt unit bounds this loop,
 * and it takes no fewer cycles per cell at a wider vector width, while
 * AVX-512 gathers were slower for the top-column block. */
static void grid_cells(double *restrict cell, size_t m, size_t c0, const int64_t *cols,
                                  double rn, double rd, const double *restrict s,
                                  const double *restrict x, const double *restrict g)
{
    if (cols == NULL) {
        s += c0, x += c0, g += c0;
        for (size_t c = 0; c < m; c++)
            cell[c] = (rn + s[c]) / sqrt((rd + 2.0 * x[c]) + 2.0 * g[c]);
    } else {
        cols += c0;
        for (size_t c = 0; c < m; c++) {
            int64_t b = cols[c];
            cell[c] = (rn + s[b]) / sqrt((rd + 2.0 * x[b]) + 2.0 * g[b]);
        }
    }
}

/* The pair sweep's grid at rows x cols, cell (a, b) being
 * (row_num[a] + s[b]) / sqrt((row_den2[a] + 2 cross[b]) + 2 gram[a ld + b]),
 * for a = rows[r] (r when rows is NULL) and b = cols[c] (c when cols is
 * NULL). Writes each row's maximum to row_max and returns the flat index
 * r n_cols + c of the first maximal cell; a NaN is the maximum of any row
 * that holds one, and the first NaN the argmax. n_rows and n_cols are > 0. */
int64_t pair_grid(size_t n_rows, const int64_t *rows, size_t n_cols, const int64_t *cols,
                  const double *row_num, const double *row_den2, const double *s,
                  const double *cross, const double *gram, size_t ld, double *row_max)
{
    double cell[GRID_CHUNK], best = -INFINITY;
    int64_t flat = 0;
    for (size_t r = 0; r < n_rows; r++) {
        int64_t a = rows == NULL ? (int64_t)r : rows[r];
        double top = -INFINITY;
        size_t arg = 0;
        for (size_t c0 = 0; c0 < n_cols; c0 += GRID_CHUNK) {
            size_t m = n_cols - c0 < GRID_CHUNK ? n_cols - c0 : GRID_CHUNK;
            grid_cells(cell, m, c0, cols, row_num[a], row_den2[a], s, cross, gram + (size_t)a * ld);
            if (scan_max(cell, m, c0, &top, &arg))
                break;
        }
        row_max[r] = top;
        if (top > best || (isnan(top) && !isnan(best))) {
            best = top;
            flat = (int64_t)(r * n_cols + arg);
        }
    }
    return flat;
}
