/* partgen's compiled loops, built by nn.py into one library per process:
 *
 * - adam_step_all: the float32 Adam update of partgen.nn.adam_step over
 *   every tensor of a network in one call, after the check for non-finite
 *   gradients that precedes it;
 * - pair_cells: the float64 cells of partgen.world._pair_sweep's grid at
 *   given rows and columns; numpy takes each row's maximum and the first
 *   maximal cell from them, whichever path scored the cells.
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
 * Elsewhere, and for the pair cells, the loops are built once, for the
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

/* The pair sweep's grid at rows x cols into cells (n_rows x n_cols, row
 * major): cell (a, b) is (row_num[a] + s[b]) / sqrt((row_den2[a] +
 * 2 cross[b]) + 2 gram[a ld + b]), for a = rows[r] (r when rows is NULL)
 * and b = cols[c] (c when cols is NULL). The caller takes the maxima.
 * Built for the baseline only: the divide and sqrt unit bounds this loop,
 * and it takes no fewer cycles per cell at a wider vector width, while
 * AVX-512 gathers were slower for the top-column block. */
void pair_cells(size_t n_rows, const int64_t *rows, size_t n_cols, const int64_t *cols,
                const double *row_num, const double *row_den2, const double *restrict s,
                const double *restrict cross, const double *gram, size_t ld, double *restrict cells)
{
    for (size_t r = 0; r < n_rows; r++, cells += n_cols) {
        size_t a = rows == NULL ? r : (size_t)rows[r];
        double rn = row_num[a], rd = row_den2[a];
        const double *restrict g = gram + a * ld;
        if (cols == NULL) {
            for (size_t c = 0; c < n_cols; c++)
                cells[c] = (rn + s[c]) / sqrt((rd + 2.0 * cross[c]) + 2.0 * g[c]);
        } else {
            for (size_t c = 0; c < n_cols; c++) {
                int64_t b = cols[c];
                cells[c] = (rn + s[b]) / sqrt((rd + 2.0 * cross[b]) + 2.0 * g[b]);
            }
        }
    }
}
