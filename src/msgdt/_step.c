/* The masked-SGD step of a row stage, for every run of a batch, one function per missing-data model.
 *
 * Each function steps iterations k0..k1-1 of a stage in place on the scaled iterate spectra y, (R, F, L, Q)
 * complex, from the stage's terms as msgdt.solver._fill_terms writes them: ahat and u, (rows, R, F, L)
 * complex, p b, (rows, R, F, Q) complex, and S (uniform: (rows, R, L) complex with zero imaginary parts;
 * frontal slice: (rows, R, L, L) real; none for column blocks, which take p - 1 per run instead).  At each
 * frequency f, with r = a Y_f - (p b)_f:
 *
 *   uniform          Y_f <- S o Y_f + u r
 *   frontal slice    Y_f <- S Y_f + u r            (S acting on the real view of Y_f)
 *   column block     Y_fb <- Y_fb + u_b (r + (p - 1) a_b Y_fb)   for each block b of columns
 *
 * After each iteration, a run whose norm is above ``radius`` is scaled onto the Frobenius ball of that
 * radius; an infinite radius is no ball.  The norm is a sum of squares over the run's floats in four
 * interleaved partial sums, added in a fixed order.
 *
 * Complex arrays are interleaved (real, imaginary) doubles.  Every complex product has one factor that is
 * fixed over the inner loop, x = xr + i xi, and is written out as two sums, (xr zr + (-xi) zi) + i(xr zi +
 * xi zr), with -xi taken once outside the loop: the same bits as the plain (xr zr - xi zi) + i(xr zi + xi zr)
 * that numpy computes, but with no lanes that alternate between add and subtract, which GCC's vectorizer
 * fuses into an FMA add-subtract on FMA targets even under -ffp-contract=off.
 *
 * Bit policy: built with -ffp-contract=off (no fused multiply-add) and without -ffast-math (no
 * reassociation), so every sum runs in the order written here and every x86-64 instruction set gives the
 * same bits.  Runs never mix, so a run's bits do not depend on the batch around it.  ``work`` holds
 * 2 (L + 1) Q doubles.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* CPU dispatch on x86-64: an AVX2 clone and a baseline one, chosen when the library loads. */
#ifndef STEP_CLONES
#if defined(__x86_64__)
#define STEP_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define STEP_CLONES
#endif
#endif

/* Each helper is inlined into each clone, so that it runs on that clone's instruction set. */
#define HELPER static inline __attribute__((always_inline))

/* res[c] = sum_j a[j] Y[j, c] over j = 0..L-1, for c = 0..Q-1, in that order of j. */
HELPER void row_times(const double *restrict a, const double *restrict y, int64_t L, int64_t Q,
                      double *restrict res)
{
    for (int64_t j = 0; j < L; j++) {
        const double ar = a[2 * j], ai = a[2 * j + 1], nai = -ai;
        const double *restrict yj = y + 2 * j * Q;
        if (j == 0) {
            for (int64_t c = 0; c < Q; c++) {
                res[2 * c] = ar * yj[2 * c] + nai * yj[2 * c + 1];
                res[2 * c + 1] = ar * yj[2 * c + 1] + ai * yj[2 * c];
            }
        } else {
            for (int64_t c = 0; c < Q; c++) {
                res[2 * c] += ar * yj[2 * c] + nai * yj[2 * c + 1];
                res[2 * c + 1] += ar * yj[2 * c + 1] + ai * yj[2 * c];
            }
        }
    }
}

/* r = a Y_f - (p b)_f into res, 2Q doubles. */
HELPER void residual(const double *restrict a, const double *restrict y, const double *restrict pb,
                     int64_t L, int64_t Q, double *restrict res)
{
    row_times(a, y, L, Q, res);
    for (int64_t c = 0; c < 2 * Q; c++)
        res[c] -= pb[c];
}

/* out[c] = base[c] + u r[c] for the complex u, c = 0..Q-1; base may be out. */
HELPER void add_u_times(const double *u, const double *restrict r, const double *base, double *out,
                        int64_t Q)
{
    const double ur = u[0], ui = u[1], nui = -ui;
    for (int64_t c = 0; c < Q; c++) {
        const double re = ur * r[2 * c] + nui * r[2 * c + 1];
        const double im = ur * r[2 * c + 1] + ui * r[2 * c];
        out[2 * c] = base[2 * c] + re;
        out[2 * c + 1] = base[2 * c + 1] + im;
    }
}

/* Four doubles as one value of GCC's vector extension: an AVX2 register, or two SSE2 ones, with the
 * elementwise arithmetic of plain doubles. */
typedef double v4d __attribute__((vector_size(32)));

/* v = the four doubles at p, and back */
#define LOAD4(v, p) memcpy(&(v), (p), sizeof(v4d))
#define STORE4(p, v) memcpy((p), &(v), sizeof(v4d))

/* out = S Y for the real L x L S and L x W Y, each entry summed over j = 0..L-1 in that order.  Four rows of S
 * by eight, then four, columns of Y at a time are held in registers across j; the last two columns when W is
 * not a multiple of four, and the rows past the last four, go through memory. */
HELPER void s_times(const double *restrict s, const double *restrict y, int64_t L, int64_t W,
                    double *restrict out)
{
    int64_t i = 0;
    for (; i + 4 <= L; i += 4) {
        const double *restrict s0 = s + i * L, *restrict s1 = s0 + L, *restrict s2 = s1 + L, *restrict s3 = s2 + L;
        double *restrict o0 = out + i * W, *restrict o1 = o0 + W, *restrict o2 = o1 + W, *restrict o3 = o2 + W;
        int64_t c0 = 0;
        for (; c0 + 8 <= W; c0 += 8) {
            v4d y0, y1;
            LOAD4(y0, y + c0);
            LOAD4(y1, y + c0 + 4);
            v4d a00 = s0[0] * y0, a01 = s0[0] * y1, a10 = s1[0] * y0, a11 = s1[0] * y1;
            v4d a20 = s2[0] * y0, a21 = s2[0] * y1, a30 = s3[0] * y0, a31 = s3[0] * y1;
            for (int64_t j = 1; j < L; j++) {
                LOAD4(y0, y + j * W + c0);
                LOAD4(y1, y + j * W + c0 + 4);
                a00 += s0[j] * y0;
                a01 += s0[j] * y1;
                a10 += s1[j] * y0;
                a11 += s1[j] * y1;
                a20 += s2[j] * y0;
                a21 += s2[j] * y1;
                a30 += s3[j] * y0;
                a31 += s3[j] * y1;
            }
            STORE4(o0 + c0, a00);
            STORE4(o0 + c0 + 4, a01);
            STORE4(o1 + c0, a10);
            STORE4(o1 + c0 + 4, a11);
            STORE4(o2 + c0, a20);
            STORE4(o2 + c0 + 4, a21);
            STORE4(o3 + c0, a30);
            STORE4(o3 + c0 + 4, a31);
        }
        for (; c0 + 4 <= W; c0 += 4) {
            v4d y0;
            LOAD4(y0, y + c0);
            v4d a0 = s0[0] * y0, a1 = s1[0] * y0, a2 = s2[0] * y0, a3 = s3[0] * y0;
            for (int64_t j = 1; j < L; j++) {
                LOAD4(y0, y + j * W + c0);
                a0 += s0[j] * y0;
                a1 += s1[j] * y0;
                a2 += s2[j] * y0;
                a3 += s3[j] * y0;
            }
            STORE4(o0 + c0, a0);
            STORE4(o1 + c0, a1);
            STORE4(o2 + c0, a2);
            STORE4(o3 + c0, a3);
        }
        if (c0 == W)
            continue;
        for (int64_t c = c0; c < W; c++) {
            o0[c] = s0[0] * y[c];
            o1[c] = s1[0] * y[c];
            o2[c] = s2[0] * y[c];
            o3[c] = s3[0] * y[c];
        }
        for (int64_t j = 1; j < L; j++) {
            const double *restrict yj = y + j * W;
            const double t0 = s0[j], t1 = s1[j], t2 = s2[j], t3 = s3[j];
            for (int64_t c = c0; c < W; c++) {
                o0[c] += t0 * yj[c];
                o1[c] += t1 * yj[c];
                o2[c] += t2 * yj[c];
                o3[c] += t3 * yj[c];
            }
        }
    }
    for (; i < L; i++) {
        const double *restrict si = s + i * L;
        double *restrict oi = out + i * W;
        for (int64_t c = 0; c < W; c++)
            oi[c] = si[0] * y[c];
        for (int64_t j = 1; j < L; j++) {
            const double *restrict yj = y + j * W;
            const double t = si[j];
            for (int64_t c = 0; c < W; c++)
                oi[c] += t * yj[c];
        }
    }
}

HELPER void project(double *restrict x, int64_t count, double radius)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t i = 0;
    for (; i + 4 <= count; i += 4) {
        s0 += x[i] * x[i];
        s1 += x[i + 1] * x[i + 1];
        s2 += x[i + 2] * x[i + 2];
        s3 += x[i + 3] * x[i + 3];
    }
    for (; i < count; i++)
        s0 += x[i] * x[i];
    const double norm = sqrt((s0 + s1) + (s2 + s3));
    if (norm > radius) {
        const double scale = radius / norm;
        for (i = 0; i < count; i++)
            x[i] *= scale;
    }
}

STEP_CLONES
void step_uniform(int64_t R, int64_t F, int64_t L, int64_t Q, const double *restrict ahat,
                  const double *restrict u, const double *restrict pbhat, const double *restrict S,
                  double *restrict y, double *restrict work, double radius, int64_t k0, int64_t k1)
{
    double *restrict res = work;
    for (int64_t k = k0; k < k1; k++) {
        for (int64_t r = 0; r < R; r++) {
            const int64_t row = k * R + r;
            const double *restrict s = S + 2 * row * L;
            double *restrict yr = y + 2 * r * F * L * Q;
            for (int64_t f = 0; f < F; f++) {
                const double *restrict uf = u + 2 * (row * F + f) * L;
                double *restrict yf = yr + 2 * f * L * Q;
                residual(ahat + 2 * (row * F + f) * L, yf, pbhat + 2 * (row * F + f) * Q, L, Q, res);
                for (int64_t j = 0; j < L; j++) {
                    const double sj = s[2 * j];
                    double *restrict yj = yf + 2 * j * Q;
                    for (int64_t c = 0; c < 2 * Q; c++)
                        yj[c] *= sj;
                    add_u_times(uf + 2 * j, res, yj, yj, Q);
                }
            }
            if (!isinf(radius))
                project(yr, 2 * F * L * Q, radius);
        }
    }
}

STEP_CLONES
void step_frontal(int64_t R, int64_t F, int64_t L, int64_t Q, const double *restrict ahat,
                  const double *restrict u, const double *restrict pbhat, const double *restrict S,
                  double *restrict y, double *restrict work, double radius, int64_t k0, int64_t k1)
{
    const int64_t W = 2 * Q; /* a row of the real view of Y_f */
    double *restrict res = work;
    double *restrict sy = work + W; /* S Y_f, L x W */
    for (int64_t k = k0; k < k1; k++) {
        for (int64_t r = 0; r < R; r++) {
            const int64_t row = k * R + r;
            const double *restrict s = S + row * L * L;
            double *restrict yr = y + 2 * r * F * L * Q;
            for (int64_t f = 0; f < F; f++) {
                const double *restrict uf = u + 2 * (row * F + f) * L;
                double *restrict yf = yr + 2 * f * L * Q;
                residual(ahat + 2 * (row * F + f) * L, yf, pbhat + 2 * (row * F + f) * Q, L, Q, res);
                s_times(s, yf, L, W, sy);
                for (int64_t j = 0; j < L; j++)
                    add_u_times(uf + 2 * j, res, sy + j * W, yf + j * W, Q);
            }
            if (!isinf(radius))
                project(yr, 2 * F * L * Q, radius);
        }
    }
}

STEP_CLONES
void step_colblock(int64_t R, int64_t F, int64_t L, int64_t Q, const double *restrict ahat,
                   const double *restrict u, const double *restrict pbhat, const double *restrict p_less_1,
                   int64_t block, double *restrict y, double *restrict work, double radius, int64_t k0,
                   int64_t k1)
{
    const int64_t W = 2 * Q, nb = L / block;
    double *restrict res = work;
    double *restrict axb = work + W; /* a_b Y_fb, then r + (p - 1) a_b Y_fb, nb x W */
    for (int64_t k = k0; k < k1; k++) {
        for (int64_t r = 0; r < R; r++) {
            const int64_t row = k * R + r;
            const double pm1 = p_less_1[r];
            double *restrict yr = y + 2 * r * F * L * Q;
            for (int64_t f = 0; f < F; f++) {
                const double *restrict a = ahat + 2 * (row * F + f) * L;
                const double *restrict uf = u + 2 * (row * F + f) * L;
                const double *restrict pb = pbhat + 2 * (row * F + f) * Q;
                double *restrict yf = yr + 2 * f * L * Q;
                for (int64_t b = 0; b < nb; b++)
                    row_times(a + 2 * b * block, yf + b * block * W, block, Q, axb + b * W);
                for (int64_t c = 0; c < W; c++)
                    res[c] = axb[c];
                for (int64_t b = 1; b < nb; b++)
                    for (int64_t c = 0; c < W; c++)
                        res[c] += axb[b * W + c];
                for (int64_t c = 0; c < W; c++)
                    res[c] -= pb[c];
                for (int64_t b = 0; b < nb; b++) {
                    double *restrict e = axb + b * W;
                    for (int64_t c = 0; c < W; c++)
                        e[c] = pm1 * e[c] + res[c];
                }
                for (int64_t j = 0; j < L; j++)
                    add_u_times(uf + 2 * j, axb + (j / block) * W, yf + j * W, yf + j * W, Q);
            }
            if (!isinf(radius))
                project(yr, 2 * F * L * Q, radius);
        }
    }
}
