/* Compiled executors for the Stockham FFT plan layer.
 *
 * Every kernel here replays, operation for operation, the floating-point
 * recurrences NumPy executes on the legacy functional path, so compiled
 * plans produce byte-identical output while touching memory once per
 * stage instead of once per ufunc:
 *
 *   - complex multiply (ufunc) : re = fma(ar, br, -(ai*bi))
 *                                im = fma(ar, bi,   ai*br )
 *     (NumPy's SIMD complex-multiply loops contract the first product
 *     into an FMA; verified empirically for complex64 and complex128.)
 *   - einsum contractions      : naive rounded products, contracted
 *                                index summed sequentially from zero.
 *     Only each output element's summation order is fixed; the loop nest
 *     around it is free.  The contraction kernels therefore run the
 *     contracted index OUTSIDE a unit-stride loop over a tile of output
 *     elements whose partial sums sit in a stack array: the same adds in
 *     the same order per element, but contiguous loads the compiler can
 *     vectorize instead of one strided dot product per element.
 *   - scalar /= and *=         : independent per-component ops.
 *
 * The file is compiled with -ffp-contract=off and WITHOUT -mfma: GCC's
 * vectorizer introduces FMAs into plain expressions whenever the FMA ISA
 * is enabled globally (even under -ffp-contract=off), which would break
 * the einsum replicas.  The kernels that *need* FMA semantics opt in
 * per-function via the target attribute when REPRO_TARGET_FMA is set.
 * repro.fft._ckernels self-checks every pattern against NumPy at load
 * time and refuses the library if the host toolchain deviates.
 */

#include <math.h>

#if defined(__x86_64__) && defined(REPRO_TARGET_FMA)
#define FMA_TARGET __attribute__((target("fma,avx2")))
#else
#define FMA_TARGET
#endif

/* ------------------------------------------------------------------ */
/* Stockham stage loop                                                 */
/* ------------------------------------------------------------------ */

/* Full radix-2 Stockham FFT over `rows` independent signals of length n
 * (power of two), complex interleaved.  tw holds the concatenated
 * per-stage half tables (n-1 complex entries, stage span 2 first).  The
 * final stage writes `out`; `scratch` is the other ping-pong buffer.
 * do_div/do_mul chain the legacy `out /= div_by` and `out *= mul_by`
 * passes into the last stage's store (same roundings, one less pass). */
#define STOCKHAM(NAME, T, FMAF)                                          \
FMA_TARGET void NAME(const T* x, T* out, T* scratch, const T* tw,        \
                     long rows, long n, int do_div, T div_by,            \
                     int do_mul, T mul_by) {                             \
    if (n == 1) {                                                        \
        for (long i = 0; i < 2*rows; i++) {                              \
            T v = x[i];                                                  \
            if (do_div) v = v / div_by;                                  \
            if (do_mul) v = v * mul_by;                                  \
            out[i] = v;                                                  \
        }                                                                \
        return;                                                          \
    }                                                                    \
    long nstages = 0;                                                    \
    for (long t = n; t > 1; t >>= 1) nstages++;                          \
    T* bufs[2];                                                          \
    if (nstages % 2 == 1) { bufs[0] = out; bufs[1] = scratch; }          \
    else                  { bufs[0] = scratch; bufs[1] = out; }          \
    const T* twp = tw;                                                   \
    for (long s = 0; s < nstages; s++) {                                 \
        long span = 2L << s;                                             \
        long half = span >> 1;                                           \
        long r = n / span;                                               \
        const T* cur = (s == 0) ? x : bufs[(s+1) % 2];                   \
        T* nxt = bufs[s % 2];                                            \
        int last = (s == nstages - 1);                                   \
        for (long row = 0; row < rows; row++) {                          \
            const T* arow = cur + 2*row*n;                               \
            const T* brow = cur + 2*row*n + n;                           \
            T* orow = nxt + 2*row*n;                                     \
            for (long rr = 0; rr < r; rr++) {                            \
                const T* ap = arow + 2*rr*half;                          \
                const T* bp = brow + 2*rr*half;                          \
                T* op0 = orow + 2*rr*span;                               \
                T* op1 = op0 + span;                                     \
                for (long j = 0; j < half; j++) {                        \
                    T wr = twp[2*j], wi = twp[2*j+1];                    \
                    T br = bp[2*j], bi = bp[2*j+1];                      \
                    T wbr = FMAF(wr, br, -(wi*bi));                      \
                    T wbi = FMAF(wr, bi, wi*br);                         \
                    T ar = ap[2*j], ai = ap[2*j+1];                      \
                    T pr = ar + wbr, pi = ai + wbi;                      \
                    T mr = ar - wbr, mi = ai - wbi;                      \
                    if (last) {                                          \
                        if (do_div) {                                    \
                            pr /= div_by; pi /= div_by;                  \
                            mr /= div_by; mi /= div_by;                  \
                        }                                                \
                        if (do_mul) {                                    \
                            pr *= mul_by; pi *= mul_by;                  \
                            mr *= mul_by; mi *= mul_by;                  \
                        }                                                \
                    }                                                    \
                    op0[2*j] = pr; op0[2*j+1] = pi;                      \
                    op1[2*j] = mr; op1[2*j+1] = mi;                      \
                }                                                        \
            }                                                            \
        }                                                                \
        twp += 2*half;                                                   \
    }                                                                    \
}

STOCKHAM(stockham_f32, float, fmaf)
STOCKHAM(stockham_f64, double, fma)

/* ------------------------------------------------------------------ */
/* einsum replicas (naive products, sequential contraction)            */
/* ------------------------------------------------------------------ */

/* Output tiles of the contraction kernels: full tiles have a constant
 * width, so the compiler vectorizes them with no trip-count checks; the
 * tail tile of a row takes the remainder.  Widths fit the shapes the
 * executors issue: m = 32..256 modes per panel row, q = 16..64 bins. */
#define PANEL_TILE 64
#define DECOMP_TILE 16

/* acc[b,o,m] += sum_k a[b,k,m] * w[k,o]
 * == `acc += np.einsum("bkm,ko->bom", a, w)`: the panel sum is formed
 * from zero with naive rounded products, then added into acc.  k runs
 * outside the unit-stride loop over a tile of W output modes. */
#define PANEL_CONTRACT_TILE(T, W)                                        \
    {                                                                    \
        T tr[PANEL_TILE], ti[PANEL_TILE];                                \
        for (long mm = 0; mm < (W); mm++) { tr[mm] = 0; ti[mm] = 0; }    \
        for (long k = 0; k < kt; k++) {                                  \
            const T* ap = ab + 2*(k*m + m0);                             \
            T wr = w[2*(k*o+oo)], wi = w[2*(k*o+oo)+1];                  \
            for (long mm = 0; mm < (W); mm++) {                          \
                T ar = ap[2*mm], ai = ap[2*mm+1];                        \
                tr[mm] += ar*wr - ai*wi;                                 \
                ti[mm] += ar*wi + ai*wr;                                 \
            }                                                            \
        }                                                                \
        T* cp = accp + 2*m0;                                             \
        for (long mm = 0; mm < (W); mm++) {                              \
            cp[2*mm] += tr[mm]; cp[2*mm+1] += ti[mm];                    \
        }                                                                \
    }

#define PANEL_CONTRACT(NAME, T)                                          \
void NAME(const T* a, const T* w, T* acc,                                \
          long bt, long kt, long m, long o) {                            \
    for (long b = 0; b < bt; b++) {                                      \
        const T* ab = a + 2*b*kt*m;                                      \
        T* accb = acc + 2*b*o*m;                                         \
        for (long oo = 0; oo < o; oo++) {                                \
            T* accp = accb + 2*oo*m;                                     \
            long m0 = 0;                                                 \
            for (; m0 + PANEL_TILE <= m; m0 += PANEL_TILE)               \
                PANEL_CONTRACT_TILE(T, PANEL_TILE)                       \
            if (m0 < m) PANEL_CONTRACT_TILE(T, m - m0)                   \
        }                                                                \
    }                                                                    \
}

PANEL_CONTRACT(panel_contract_f32, float)
PANEL_CONTRACT(panel_contract_f64, double)

/* out[B,q] = sum_p y[B,p,q] * wd[p,q]
 * == `np.einsum("...pk,pk->...k", y, wd)`.  p runs outside the
 * unit-stride loop over a tile of W bins. */
#define DECOMP_REDUCE_TILE(T, W)                                         \
    {                                                                    \
        T tr[DECOMP_TILE], ti[DECOMP_TILE];                              \
        for (long k = 0; k < (W); k++) { tr[k] = 0; ti[k] = 0; }         \
        for (long pp = 0; pp < p; pp++) {                                \
            const T* yp = yb + 2*(pp*q + k0);                            \
            const T* wp = wd + 2*(pp*q + k0);                            \
            for (long k = 0; k < (W); k++) {                             \
                T yr = yp[2*k], yi = yp[2*k+1];                          \
                T wr = wp[2*k], wi = wp[2*k+1];                          \
                tr[k] += yr*wr - yi*wi;                                  \
                ti[k] += yr*wi + yi*wr;                                  \
            }                                                            \
        }                                                                \
        for (long k = 0; k < (W); k++) {                                 \
            ob[2*(k0+k)] = tr[k]; ob[2*(k0+k)+1] = ti[k];                \
        }                                                                \
    }

#define DECOMP_REDUCE(NAME, T)                                           \
void NAME(const T* y, const T* wd, T* out, long B, long p, long q) {     \
    for (long b = 0; b < B; b++) {                                       \
        const T* yb = y + 2*b*p*q;                                       \
        T* ob = out + 2*b*q;                                             \
        long k0 = 0;                                                     \
        for (; k0 + DECOMP_TILE <= q; k0 += DECOMP_TILE)                 \
            DECOMP_REDUCE_TILE(T, DECOMP_TILE)                           \
        if (k0 < q) DECOMP_REDUCE_TILE(T, q - k0)                        \
    }                                                                    \
}

DECOMP_REDUCE(decomp_reduce_f32, float)
DECOMP_REDUCE(decomp_reduce_f64, double)

/* ------------------------------------------------------------------ */
/* Broadcast multiply (ufunc complex-multiply semantics)               */
/* ------------------------------------------------------------------ */

/* out[B,s,q] = x[B,q] * w[s,q] with x as the FIRST ufunc operand:
 * re = fma(xr, wr, -(xi*wi)), im = fma(xr, wi, xi*wr).  This is the
 * `moved[..., None, :] * w` expansion of the pruned transforms. */
#define EXPAND_MUL(NAME, T, FMAF)                                        \
FMA_TARGET void NAME(const T* x, const T* w, T* out,                     \
                     long B, long s, long q) {                           \
    for (long b = 0; b < B; b++) {                                       \
        const T* xb = x + 2*b*q;                                         \
        T* ob = out + 2*b*s*q;                                           \
        for (long ss = 0; ss < s; ss++) {                                \
            const T* wp = w + 2*ss*q;                                    \
            T* op = ob + 2*ss*q;                                         \
            for (long k = 0; k < q; k++) {                               \
                T xr = xb[2*k], xi = xb[2*k+1];                          \
                T wr = wp[2*k], wi = wp[2*k+1];                          \
                op[2*k]   = FMAF(xr, wr, -(xi*wi));                      \
                op[2*k+1] = FMAF(xr, wi, xi*wr);                         \
            }                                                            \
        }                                                                \
    }                                                                    \
}

EXPAND_MUL(expand_mul_f32, float, fmaf)
EXPAND_MUL(expand_mul_f64, double, fma)
