/* The float32 Adam update of partgen.nn.adam_step, fused into one pass over
 * a tensor, and the check for non-finite gradients that precedes it.
 *
 * Each element goes through the numpy update's operations in the numpy
 * update's order, each rounded to float32, so the two give the same bits.
 * That holds only when built without floating-point contraction or
 * reassociation: nn.py compiles this with -O3 -ffp-contract=off
 * -fno-math-errno and never with -ffast-math, -Ofast or -march=native.
 * -fno-math-errno lets sqrtf become the correctly rounded sqrt instruction,
 * which vectorizes; -ffp-contract=off forbids fused multiply-adds.
 */

#include <math.h>
#include <stddef.h>

/* 1 when every one of the n values is finite, else 0. */
int adam_all_finite(const float *g, size_t n)
{
    int finite = 1;
    for (size_t i = 0; i < n; i++)
        finite &= isfinite(g[i]) != 0;
    return finite;
}

/* One update of n parameters p with gradients g and moments m, v in place:
 * m = m b1 + c1 g, v = v b2 + (c2 g) g, p -= (a m) / (sqrt(v b) + eps),
 * with c1 = 1 - b1 and c2 = 1 - b2 rounded to float32 by the caller. */
void adam_update(float *p, const float *g, float *m, float *v, size_t n,
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
