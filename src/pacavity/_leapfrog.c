/* One step of the mirror-closed leapfrog on an n x n C-ordered grid: the
 * loop of fdtd._advance, which it matches bit for bit.  Each node takes
 *
 *     coef (((up + down) + left) + right) + (centre cur - prev),
 *
 * a wall node reading its mirror neighbour u_1 for the ghost u_{-1}.  coef
 * and centre are one value each (stride 0) or one per node (stride 1).
 * out may be prev, whose node it reads before writing it, but never cur.
 * Built with -ffp-contract=off, so no multiply and add fuse into one
 * rounding that numpy does not make. */
#include <stddef.h>

static inline void row(double *out, const double *restrict cur, const double *prev,
                       const double *up, const double *down, const double *coef,
                       const double *centre, ptrdiff_t s, ptrdiff_t n)
{
    out[0] = coef[0] * (((up[0] + down[0]) + cur[1]) + cur[1]) + (centre[0] * cur[0] - prev[0]);
    for (ptrdiff_t j = 1; j < n - 1; j++)
        out[j] = coef[j * s] * (((up[j] + down[j]) + cur[j - 1]) + cur[j + 1])
                 + (centre[j * s] * cur[j] - prev[j]);
    ptrdiff_t e = n - 1;
    out[e] = coef[e * s] * (((up[e] + down[e]) + cur[e - 1]) + cur[e - 1])
             + (centre[e * s] * cur[e] - prev[e]);
}

void leapfrog_step(double *out, const double *restrict cur, const double *prev,
                   const double *coef, const double *centre, ptrdiff_t s, ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        const double *up = cur + (i > 0 ? i - 1 : 1) * n;
        const double *down = cur + (i < n - 1 ? i + 1 : n - 2) * n;
        ptrdiff_t k = i * n, c = k * s;
        if (s)
            row(out + k, cur + k, prev + k, up, down, coef + c, centre + c, 1, n);
        else
            row(out + k, cur + k, prev + k, up, down, coef, centre, 0, n);
    }
}
