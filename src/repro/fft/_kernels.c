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
 *     around it is free.  The generic build's contraction kernels run the
 *     contracted index OUTSIDE a unit-stride loop over a tile of output
 *     elements whose partial sums sit in a stack array: the same adds in
 *     the same order per element, but contiguous loads the compiler can
 *     vectorize instead of one strided dot product per element.  The
 *     AVX2 build's panel_contract goes further and keeps a block of
 *     modes by output channels of partial sums in registers (see there).
 *   - scalar /= and *=         : NumPy's complex ufuncs with a real
 *                                scalar promoted to s + 0i.
 *     `out /= d` is Smith's division by d + 0i: with rat = 0/d and
 *     scl = 1/(d + 0*rat), re = (re + im*rat)*scl and im = (im -
 *     re*rat)*scl.  `out *= s` is the complex multiply above by s + 0i:
 *     re = fma(re, s, -(im*0)), im = fma(re, 0, im*s), except on a
 *     one-element array, which NumPy multiplies in its scalar loop
 *     without FMA.  The zero terms are what make the signs of zeros and
 *     the NaNs from infinities NumPy's.
 *
 * The pruned R2C/C2R plans' "decomp" strategy runs whole in C through
 * three staging kernels built from those recurrences, each replaying
 * the NumPy expressions it replaced (repro.fft.compiled keeps them as
 * the fallbacks transpose / decomp_mirror / expand_head_tail):
 *   - transpose        : dst[...] = np.swapaxes(src, -1, -2), the R2C
 *                        gather of the P subsequences and the C2R
 *                        interleave into the packed output (a copy).
 *   - decomp_mirror    : yr = conj(take(y, (q-k) % q, axis=2));
 *                        out = (einsum(y, u) + einsum(yr, v))[:, :m],
 *                        both einsums "bpk,pk->bk".
 *   - expand_head_tail : hb[:, :m] = x * ch; hb[:, 0] = x[:, 0].real *
 *                        ch[0]; tb[:, q - r] = conj(x[:, r]) * ct;
 *                        out = hb[:, None] * wdh + tb[:, None] * wdt.
 * Each plan's stages are written once, as a row stage (rfft_stage,
 * irfft_stage near the end of this file) that runs them over a run of
 * rows in chunks whose buffers stay in L1.  The compiled plans call the
 * stages through the row drivers pruned_rfft_rows and pruned_irfft_rows,
 * and the symmetric 2-D plane drivers call them on each plane's rows;
 * the staged kernels stay exported as the drivers' oracle.
 *
 * The fused 1-D C2C executor runs its whole batch in one call to the
 * driver fused_tile_c2c_1d at the end of this file, reading each
 * request and writing each result in place through row tables: gather,
 * forward Stockham, decomp_reduce, panel_contract in canonical k_tb
 * panel order, expand_mul, inverse Stockham and scatter, calling the
 * kernels above
 * on the operands the executor's Python stage loop passes them.  It
 * streams each signal row through all stages, so a row's working set
 * stays in cache; every stage is row-independent and each row's panels
 * keep their order, so the bits are the stage loop's.  The driver is
 * not FMA_TARGET, so it can never contract the einsum replicas it
 * calls (see there).
 *
 * A spectrum-resident ("fast") rollout runs all of its steps in one call
 * to spectral_steps at the end of this file: per step, panel_contract in
 * canonical k_tb panel order straight on the state's channel rows, then
 * the executor's reanalysis (identity, DC made real, or the Hermitian
 * y-DC column replayed from its NumPy expression).
 *
 * The symmetric 2-D executor's halves run one (b, c) plane at a time
 * through sym2d_analyse and sym2d_synthesise: the R2C row stage over
 * the plane's rows, then the X-axis pruned C2C pass (and back through
 * the C2R row stage), so a plane's intermediates never leave cache; an
 * exact rollout re-analyses each synthesised plane in the same call.
 *
 * The file is compiled with -ffp-contract=off and WITHOUT -mfma: GCC's
 * vectorizer introduces FMAs into plain expressions whenever the FMA ISA
 * is enabled globally (even under -ffp-contract=off), which would break
 * the einsum replicas.  The kernels that *need* FMA semantics opt in
 * per-function via the target attribute when REPRO_TARGET_FMA is set.
 * That build (AVX2_KERNELS) writes four kernels in vector intrinsics,
 * each at two tiers, AVX2 (256-bit registers) and AVX-512 (512-bit),
 * one of which runs per process (see vector_tier below):
 *   - the Stockham FFT (GCC leaves the interleaved FMA butterfly
 *     scalar): every stage runs full vectors, including the half = 1
 *     and 2 stages, and stages run in pairs through registers; the
 *     AVX-512 tier runs two rows per register, one per 256-bit half;
 *   - panel_contract (GCC's vectorized tile loop reloads its partial
 *     sums every k): a register block of modes by output channels,
 *     with plain multiplies and adds only (the AVX2 block without an
 *     FMA target), so nothing can be contracted;
 *   - decomp_mirror: blocks of 8 (4 in double) kept bins, 16 (8) in
 *     the AVX-512 tier, with re/im split, plain multiplies and adds, p
 *     summed in order;
 *   - expand_head_tail's head/tail build and product loop: the same
 *     blocks, with the ufunc multiply's explicit fmsub/fmadd.
 * Each tier's ops per lane are the scalar loops' ops, so the bytes do
 * not depend on the tier.  Their tails (and blocks wider than the data)
 * run the smaller blocks, then the scalar tiles.
 * All four keep the scalar loops' bits on every non-NaN value; only NaN
 * payloads and signs may differ.  The generic build runs the scalar
 * loops, which stay the reference.  repro.fft._ckernels self-checks
 * every pattern against NumPy at load time and refuses the library if
 * the host toolchain deviates.
 */

#include <math.h>

#if defined(__x86_64__) && defined(REPRO_TARGET_FMA)
#include <immintrin.h>
#define FMA_TARGET __attribute__((target("fma,avx2")))
#define ZMM_TARGET \
    __attribute__((target("avx512f,avx512dq,avx512vl,avx2,fma")))
#define AVX2_KERNELS 1
#else
#define FMA_TARGET
#endif

/* The vector tier the kernels run at: the scalar loops (the generic
 * build), AVX2 (256-bit registers), or AVX-512 (512-bit registers, two
 * rows or twice the modes per register).  The AVX2 build picks AVX-512
 * once per process, before any kernel runs, when the CPU reports
 * avx512f/dq/vl and the OS saves their registers (CPUID and XCR0, as
 * __builtin_cpu_supports reads them); both tiers give the same bytes.
 * vector_tier(want) sets a tier the host supports (want < 0 only
 * queries) and returns the tier in effect: the loader reports it, and
 * the tier tests run every kernel at both tiers.  vector_tier_cap(best)
 * lowers the highest tier vector_tier may set to best for the rest of
 * the process: the loader pins a library whose self-check fails at its
 * picked tier but passes below it. */
#define TIER_SCALAR 0
#define TIER_AVX2 1
#define TIER_AVX512 2

#ifdef AVX2_KERNELS
#define TIER_FLOOR TIER_AVX2
static int tier = TIER_AVX2, tier_best = TIER_AVX2;

__attribute__((constructor)) static void pick_tier(void) {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")
            && __builtin_cpu_supports("avx512vl"))
        tier = tier_best = TIER_AVX512;
}
#else
#define TIER_FLOOR TIER_SCALAR
static int tier = TIER_SCALAR, tier_best = TIER_SCALAR;
#endif

long vector_tier(long want) {
    if (want >= TIER_FLOOR && want <= tier_best) tier = (int)want;
    return tier;
}

long vector_tier_cap(long best) {
    if (best >= TIER_FLOOR && best < tier_best) tier_best = (int)best;
    if (tier > tier_best) tier = tier_best;
    return tier_best;
}

/* NumPy's scalar-loop complex multiply.  It stays out of the FMA target
 * functions: GCC contracts plain expressions inside them. */
#define CMUL_UNFUSED(NAME, T)                                            \
static __attribute__((noinline)) void NAME(T ar, T ai, T br, T bi,       \
                                           T* re, T* im) {               \
    *re = ar*br - ai*bi;                                                 \
    *im = ar*bi + ai*br;                                                 \
}

CMUL_UNFUSED(cmul_unfused_f32, float)
CMUL_UNFUSED(cmul_unfused_f64, double)

/* ------------------------------------------------------------------ */
/* Stockham stage loop                                                 */
/* ------------------------------------------------------------------ */

/* `out /= div_by` then `out *= mul_by` on one complex value, as NumPy's
 * ufuncs do them (see the top of this file); rat and scl are div_by's
 * Smith terms, and `unfused` selects the scalar-loop multiply. */
#define SCALE_COMPLEX(T, FMAF, UNFUSED, re, im, unfused)                 \
    {                                                                    \
        if (do_div) {                                                    \
            T dr = (re + im*rat)*scl;                                    \
            im = (im - re*rat)*scl;                                      \
            re = dr;                                                     \
        }                                                                \
        if (do_mul && (unfused)) {                                       \
            UNFUSED(re, im, mul_by, 0, &re, &im);                        \
        } else if (do_mul) {                                             \
            T mr_ = FMAF(re, mul_by, -(im*(T)0));                        \
            im = FMAF(re, (T)0, im*mul_by);                              \
            re = mr_;                                                    \
        }                                                                \
    }

/* Full radix-2 Stockham FFT over `rows` independent signals of length n
 * (power of two), complex interleaved.  tw holds the concatenated
 * per-stage half tables (n-1 complex entries, stage span 2 first).  The
 * final stage writes `out`; `scratch` is the other ping-pong buffer.
 * do_div/do_mul chain the legacy `out /= div_by` and `out *= mul_by`
 * passes into the last stage's store (same roundings, one less pass).
 * This is the whole transform in the generic build, and the short-row
 * fallback of the AVX2 one. */
#define STOCKHAM_SCALAR(LINKAGE, NAME, T, FMAF, UNFUSED)                 \
LINKAGE FMA_TARGET void NAME(const T* x, T* out, T* scratch,             \
                             const T* tw, long rows, long n, int do_div, \
                             T div_by, int do_mul, T mul_by) {           \
    T rat = 0, scl = 0;                                                  \
    if (do_div) { rat = (T)0 / div_by; scl = (T)1 / (div_by + 0*rat); }  \
    if (n == 1) {                                                        \
        for (long i = 0; i < rows; i++) {                                \
            T re = x[2*i], im = x[2*i+1];                                \
            SCALE_COMPLEX(T, FMAF, UNFUSED, re, im, rows == 1)           \
            out[2*i] = re; out[2*i+1] = im;                              \
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
                        SCALE_COMPLEX(T, FMAF, UNFUSED, pr, pi, 0)       \
                        SCALE_COMPLEX(T, FMAF, UNFUSED, mr, mi, 0)       \
                    }                                                    \
                    op0[2*j] = pr; op0[2*j+1] = pi;                      \
                    op1[2*j] = mr; op1[2*j+1] = mi;                      \
                }                                                        \
            }                                                            \
        }                                                                \
        twp += 2*half;                                                   \
    }                                                                    \
}

#ifndef AVX2_KERNELS
STOCKHAM_SCALAR(, stockham_f32, float, fmaf, cmul_unfused_f32)
STOCKHAM_SCALAR(, stockham_f64, double, fma, cmul_unfused_f64)
#else
STOCKHAM_SCALAR(static, stockham_scalar_f32, float, fmaf, cmul_unfused_f32)
STOCKHAM_SCALAR(static, stockham_scalar_f64, double, fma, cmul_unfused_f64)

/* Vector transform, bit-identical to the scalar one on every non-NaN
 * value.  Each row runs in W = 4 (float) or 2 (double) interleaved
 * complex values per step, one step per ymm register (the AVX2 tier)
 * or per 256-bit half of a zmm register, two rows per zmm (the AVX-512
 * tier); each step below is one such step of every operand:
 *   - w*b: fmaddsub(wr, b, wi*swap(b)) is fma(wr, br, -(wi*bi)) in the
 *     real lanes and fma(wr, bi, wi*br) in the imaginary lanes, the
 *     scalar recurrence exactly (negating wi*bi is exact).
 *   - Stages run in pairs (half h, then 2h) through registers, with the
 *     same operations on the same operands as two radix-2 stages, so a
 *     row is read and written once per two stages.  Row quarters x0..x3
 *     at complex index i, n/4+i, n/2+i, 3n/4+i feed the four outputs
 *     at 4i - 3j + {0, h, 2h, 3h} (j = i mod h).
 *   - The first pair (h = 1, 2) is narrower than a step: the loop runs
 *     over i with broadcast twiddles, and a 4x4 (float) or 2x2 (double)
 *     transpose of complex values interleaves each row's outputs (one
 *     permutex2var per output vector in the AVX-512 tier).  Later pairs
 *     (h >= W) are plain vector loops.
 *   - An odd stage count leaves a last radix-2 stage, half = n/2.
 *   - A row of n = 4W is one step of the first pair, whose outputs are
 *     the quarters of the stages after it, so it runs every stage in
 *     registers.
 *   - div/mul are the scalar code's complex ops on every lane.
 * In the AVX-512 tier the two rows' quarters are loaded and stored as
 * 256-bit halves and every twiddle is broadcast to both halves, so each
 * half runs the AVX2 tier's operation sequence on its own row; an odd
 * last row runs the AVX2 tier.  The tier is picked once per process
 * (vector_tier), and the bytes do not depend on it.  Rows shorter than
 * 4W run the scalar transform.  Only NaN payloads and signs may differ
 * from the scalar build. */

/* The lane primitives of each vector type H: ps/pd (one row per ymm),
 * zps/zpd (two rows per zmm, one per 256-bit half).  ld/st move one
 * step of each of the vector's rows (rs apart), twl loads W complex
 * twiddles into every row's half, swap exchanges each complex value's
 * parts, re/im copy its real/imaginary part into both of its lanes. */
static inline __m256 ld_ps(const float* p, long rs) {
    (void)rs;
    return _mm256_loadu_ps(p);
}
static inline void st_ps(float* p, long rs, __m256 v) {
    (void)rs;
    _mm256_storeu_ps(p, v);
}
static inline __m256 twl_ps(const float* t) { return _mm256_loadu_ps(t); }
static inline __m256 swap_ps(__m256 v) { return _mm256_permute_ps(v, 0xB1); }
static inline __m256 re_ps(__m256 v) { return _mm256_moveldup_ps(v); }
static inline __m256 im_ps(__m256 v) { return _mm256_movehdup_ps(v); }

static inline __m256d ld_pd(const double* p, long rs) {
    (void)rs;
    return _mm256_loadu_pd(p);
}
static inline void st_pd(double* p, long rs, __m256d v) {
    (void)rs;
    _mm256_storeu_pd(p, v);
}
static inline __m256d twl_pd(const double* t) { return _mm256_loadu_pd(t); }
static inline __m256d swap_pd(__m256d v) { return _mm256_permute_pd(v, 0x5); }
static inline __m256d re_pd(__m256d v) { return _mm256_movedup_pd(v); }
static inline __m256d im_pd(__m256d v) { return _mm256_permute_pd(v, 0xF); }

static inline ZMM_TARGET __m512 ld_zps(const float* p, long rs) {
    return _mm512_insertf32x8(_mm512_castps256_ps512(_mm256_loadu_ps(p)),
                              _mm256_loadu_ps(p + rs), 1);
}
static inline ZMM_TARGET void st_zps(float* p, long rs, __m512 v) {
    _mm256_storeu_ps(p, _mm512_castps512_ps256(v));
    _mm256_storeu_ps(p + rs, _mm512_extractf32x8_ps(v, 1));
}
static inline ZMM_TARGET __m512 twl_zps(const float* t) {
    return _mm512_broadcast_f32x8(_mm256_loadu_ps(t));
}
static inline ZMM_TARGET __m512 swap_zps(__m512 v) {
    return _mm512_permute_ps(v, 0xB1);
}
static inline ZMM_TARGET __m512 re_zps(__m512 v) {
    return _mm512_moveldup_ps(v);
}
static inline ZMM_TARGET __m512 im_zps(__m512 v) {
    return _mm512_movehdup_ps(v);
}

static inline ZMM_TARGET __m512d ld_zpd(const double* p, long rs) {
    return _mm512_insertf64x4(_mm512_castpd256_pd512(_mm256_loadu_pd(p)),
                              _mm256_loadu_pd(p + rs), 1);
}
static inline ZMM_TARGET void st_zpd(double* p, long rs, __m512d v) {
    _mm256_storeu_pd(p, _mm512_castpd512_pd256(v));
    _mm256_storeu_pd(p + rs, _mm512_extractf64x4_pd(v, 1));
}
static inline ZMM_TARGET __m512d twl_zpd(const double* t) {
    return _mm512_broadcast_f64x4(_mm256_loadu_pd(t));
}
static inline ZMM_TARGET __m512d swap_zpd(__m512d v) {
    return _mm512_permute_pd(v, 0x55);
}
static inline ZMM_TARGET __m512d re_zpd(__m512d v) {
    return _mm512_movedup_pd(v);
}
static inline ZMM_TARGET __m512d im_zpd(__m512d v) {
    return _mm512_permute_pd(v, 0xFF);
}

/* The complex helpers of vector type H (intrinsics PFX_op_SFX):
 *   - cmul: w*b, wr/wi holding w's parts in every lane of its value;
 *   - bfly: *p = a + w*b, *m = a - w*b;
 *   - tw: the (wr, wi) lane split of W twiddles at t;
 *   - scale: SCALE_COMPLEX on every value.  rat holds (rat, -rat) per
 *     complex value, so v + swap(v)*rat is (re + im*rat, im - re*rat);
 *     mb holds (mul_by, 0), and multiplying v by it is the ufunc
 *     multiply of cmul.  The vector passes never see a one-element
 *     array. */
#define COMPLEX_HELPERS(H, T, V, PFX, SFX, TGT)                          \
static inline TGT V cmul_##H(V wr, V wi, V b) {                          \
    return PFX##_fmaddsub_##SFX(wr, b, PFX##_mul_##SFX(wi, swap_##H(b)));\
}                                                                        \
                                                                         \
static inline TGT void bfly_##H(V a, V b, V wr, V wi, V* p, V* m) {      \
    V wb = cmul_##H(wr, wi, b);                                          \
    *p = PFX##_add_##SFX(a, wb);                                         \
    *m = PFX##_sub_##SFX(a, wb);                                         \
}                                                                        \
                                                                         \
static inline TGT void tw_##H(const T* t, V* wr, V* wi) {                \
    V w = twl_##H(t);                                                    \
    *wr = re_##H(w);                                                     \
    *wi = im_##H(w);                                                     \
}                                                                        \
                                                                         \
static inline TGT V scale_##H(V v, int do_div, V rat, V scl, int do_mul, \
                              V mb) {                                    \
    if (do_div) {                                                        \
        V t = PFX##_mul_##SFX(swap_##H(v), rat);                         \
        v = PFX##_mul_##SFX(PFX##_add_##SFX(v, t), scl);                 \
    }                                                                    \
    if (do_mul)                                                          \
        v = cmul_##H(re_##H(v), im_##H(v), mb);                          \
    return v;                                                            \
}

COMPLEX_HELPERS(ps, float, __m256, _mm256, ps, FMA_TARGET)
COMPLEX_HELPERS(pd, double, __m256d, _mm256, pd, FMA_TARGET)
COMPLEX_HELPERS(zps, float, __m512, _mm512, ps, ZMM_TARGET)
COMPLEX_HELPERS(zpd, double, __m512d, _mm512, pd, ZMM_TARGET)

/* The first pair's outputs of one step: lane k of (a, b, c, d) in a row
 * is out[4(i+k) + 0, 1, 2, 3]; v[0..3] receive them in memory order, W
 * complex values of each row apiece. */
static inline FMA_TARGET void first_mix_ps(__m256 a, __m256 b, __m256 c,
                                           __m256 d, __m256* v) {
    __m256d ab0 = _mm256_unpacklo_pd(_mm256_castps_pd(a),
                                     _mm256_castps_pd(b));
    __m256d ab1 = _mm256_unpackhi_pd(_mm256_castps_pd(a),
                                     _mm256_castps_pd(b));
    __m256d cd0 = _mm256_unpacklo_pd(_mm256_castps_pd(c),
                                     _mm256_castps_pd(d));
    __m256d cd1 = _mm256_unpackhi_pd(_mm256_castps_pd(c),
                                     _mm256_castps_pd(d));
    v[0] = _mm256_castpd_ps(_mm256_permute2f128_pd(ab0, cd0, 0x20));
    v[1] = _mm256_castpd_ps(_mm256_permute2f128_pd(ab1, cd1, 0x20));
    v[2] = _mm256_castpd_ps(_mm256_permute2f128_pd(ab0, cd0, 0x31));
    v[3] = _mm256_castpd_ps(_mm256_permute2f128_pd(ab1, cd1, 0x31));
}

static inline FMA_TARGET void first_mix_pd(__m256d a, __m256d b, __m256d c,
                                           __m256d d, __m256d* v) {
    v[0] = _mm256_permute2f128_pd(a, b, 0x20);
    v[1] = _mm256_permute2f128_pd(c, d, 0x20);
    v[2] = _mm256_permute2f128_pd(a, b, 0x31);
    v[3] = _mm256_permute2f128_pd(c, d, 0x31);
}

/* The same per 256-bit half: each output vector gathers one row's
 * 128-bit lanes from two sources in one permutex2var (lanes 0-7 the
 * first source, 8-15 the second, both halves at once). */
#define FIRST_LO _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13)
#define FIRST_HI _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15)

static inline ZMM_TARGET void first_mix_zps(__m512 a, __m512 b, __m512 c,
                                            __m512 d, __m512* v) {
    __m512d ab0 = _mm512_unpacklo_pd(_mm512_castps_pd(a),
                                     _mm512_castps_pd(b));
    __m512d ab1 = _mm512_unpackhi_pd(_mm512_castps_pd(a),
                                     _mm512_castps_pd(b));
    __m512d cd0 = _mm512_unpacklo_pd(_mm512_castps_pd(c),
                                     _mm512_castps_pd(d));
    __m512d cd1 = _mm512_unpackhi_pd(_mm512_castps_pd(c),
                                     _mm512_castps_pd(d));
    v[0] = _mm512_castpd_ps(_mm512_permutex2var_pd(ab0, FIRST_LO, cd0));
    v[1] = _mm512_castpd_ps(_mm512_permutex2var_pd(ab1, FIRST_LO, cd1));
    v[2] = _mm512_castpd_ps(_mm512_permutex2var_pd(ab0, FIRST_HI, cd0));
    v[3] = _mm512_castpd_ps(_mm512_permutex2var_pd(ab1, FIRST_HI, cd1));
}

static inline ZMM_TARGET void first_mix_zpd(__m512d a, __m512d b,
                                            __m512d c, __m512d d,
                                            __m512d* v) {
    v[0] = _mm512_permutex2var_pd(a, FIRST_LO, b);
    v[1] = _mm512_permutex2var_pd(c, FIRST_LO, d);
    v[2] = _mm512_permutex2var_pd(a, FIRST_HI, b);
    v[3] = _mm512_permutex2var_pd(c, FIRST_HI, d);
}

/* The steps every pass is made of, on the vectors of type V (helpers
 * H); rs is the row stride of the vector's rows.
 *   - FIRST_STEP: stages h = 1, 2 of the quarters at complex index i of
 *     rows r (n = 4q), with the broadcast twiddles u (wr, wi of stage 1,
 *     then of the two stage-2 values), into v (first_mix order).
 *   - PAIR_STEP: stages h and 2h of the quarters x, with the (wr, wi)
 *     splits w of the twiddles at j, h+j and 2h+j; the four outputs go
 *     to op, op + 2h, op + 4h, op + 6h.
 *   - RADIX2_STEP: one radix-2 stage of a and b, outputs to o0 and o1.
 * The last two scale their stores with the enclosing pass's do_div, vr,
 * vs, do_mul and vm. */
#define FIRST_STEP(V, H, r, q, i, rs, u, v)                              \
    {                                                                    \
        V p0, m0, p1, m1, a, b, c, d;                                    \
        bfly_##H(ld_##H((r) + 2*(i), rs), ld_##H((r) + 2*(2*(q)+(i)), rs),\
                 u[0], u[1], &p0, &m0);                                  \
        bfly_##H(ld_##H((r) + 2*((q)+(i)), rs),                          \
                 ld_##H((r) + 2*(3*(q)+(i)), rs), u[0], u[1], &p1, &m1); \
        bfly_##H(p0, p1, u[2], u[3], &a, &c);                            \
        bfly_##H(m0, m1, u[4], u[5], &b, &d);                            \
        first_mix_##H(a, b, c, d, v);                                    \
    }

#define PAIR_STEP(V, H, x, w, op, h, rs)                                 \
    {                                                                    \
        V p0, m0, p1, m1, a, b, c, d;                                    \
        bfly_##H(x[0], x[2], w[0], w[1], &p0, &m0);                      \
        bfly_##H(x[1], x[3], w[0], w[1], &p1, &m1);                      \
        bfly_##H(p0, p1, w[2], w[3], &a, &c);                            \
        bfly_##H(m0, m1, w[4], w[5], &b, &d);                            \
        st_##H(op, rs, scale_##H(a, do_div, vr, vs, do_mul, vm));        \
        st_##H((op) + 2*(h), rs, scale_##H(b, do_div, vr, vs, do_mul, vm));\
        st_##H((op) + 4*(h), rs, scale_##H(c, do_div, vr, vs, do_mul, vm));\
        st_##H((op) + 6*(h), rs, scale_##H(d, do_div, vr, vs, do_mul, vm));\
    }

#define RADIX2_STEP(V, H, a, b, wr, wi, o0, o1, rs)                      \
    {                                                                    \
        V p, m;                                                          \
        bfly_##H(a, b, wr, wi, &p, &m);                                  \
        st_##H(o0, rs, scale_##H(p, do_div, vr, vs, do_mul, vm));        \
        st_##H(o1, rs, scale_##H(m, do_div, vr, vs, do_mul, vm));        \
    }

/* The twiddles of stages 1 and 2, broadcast (FIRST_STEP's u); and the
 * Smith terms and multiplier of the scaling as vectors (scale's rat,
 * scl and mb).  PAIRS(re, im) is a vector of (re, im) in every value. */
#define FIRST_TWIDDLES(V, PFX, SFX, tw)                                  \
    V u[6];                                                              \
    for (int k = 0; k < 6; k++) u[k] = PFX##_set1_##SFX((tw)[k]);

#define SCALE_TERMS(T, V, PFX, SFX, PAIRS)                               \
    T rat = 0, scl = 0;                                                  \
    if (do_div) { rat = (T)0 / div_by; scl = (T)1 / (div_by + 0*rat); }  \
    V vr = PAIRS(rat, -rat), vs = PFX##_set1_##SFX(scl);                 \
    V vm = PAIRS(mul_by, (T)0);

/* Stages h = 1, 2 (never the last: n >= 8W), over the rows R at a time
 * (every full group of R rows). */
#define FIRST_PAIR(NAME, T, V, PFX, SFX, H, W, R, TGT)                   \
static TGT void NAME(const T* cur, T* nxt, const T* twp, long rows,      \
                     long n) {                                           \
    FIRST_TWIDDLES(V, PFX, SFX, twp)                                     \
    long q = n / 4, rs = 2*n;                                            \
    for (long row = 0; row + (R) <= rows; row += (R)) {                  \
        const T* r = cur + 2*row*n;                                      \
        T* o = nxt + 2*row*n;                                            \
        for (long i = 0; i < q; i += (W)) {                              \
            V v[4];                                                      \
            FIRST_STEP(V, H, r, q, i, rs, u, v)                          \
            for (int k = 0; k < 4; k++)                                  \
                st_##H(o + 8*i + 2*k*(W), rs, v[k]);                     \
        }                                                                \
    }                                                                    \
}

/* Stages h and 2h (h >= W), or with pair = 0 the single radix-2 stage
 * h = n/2, over the rows R at a time; the last pass scales its
 * stores. */
#define STOCKHAM_PASS(NAME, T, V, PFX, SFX, H, W, R, TGT, PAIRS)         \
static TGT void NAME(const T* cur, T* nxt, const T* twp, long rows,      \
                     long n, long h, int pair, int do_div, T div_by,     \
                     int do_mul, T mul_by) {                             \
    SCALE_TERMS(T, V, PFX, SFX, PAIRS)                                   \
    long q = n / 4, rs = 2*n;                                            \
    for (long row = 0; row + (R) <= rows; row += (R)) {                  \
        const T* r = cur + 2*row*n;                                      \
        T* o = nxt + 2*row*n;                                            \
        if (pair) {                                                      \
            for (long i = 0; i < q; i += (W)) {                          \
                long j = i & (h - 1);                                    \
                V x[4], w[6];                                            \
                for (int k = 0; k < 4; k++)                              \
                    x[k] = ld_##H(r + 2*(k*q + i), rs);                  \
                for (int k = 0; k < 3; k++)                              \
                    tw_##H(twp + 2*(k*h + j), &w[2*k], &w[2*k+1]);       \
                PAIR_STEP(V, H, x, w, o + 2*(4*i - 3*j), h, rs)          \
            }                                                            \
        } else {                                                         \
            for (long i = 0; i < 2*q; i += (W)) {                        \
                V wr, wi;                                                \
                tw_##H(twp + 2*i, &wr, &wi);                             \
                RADIX2_STEP(V, H, ld_##H(r + 2*i, rs),                   \
                            ld_##H(r + 2*(2*q+i), rs), wr, wi, o + 2*i,  \
                            o + 2*(2*q+i), rs)                           \
            }                                                            \
        }                                                                \
    }                                                                    \
}

/* Rows of n = 4W, one step each, R at a time: the first pair's outputs
 * are the last stages' quarters, so the transform runs in registers and
 * every twiddle is split once per call.  log2(W) stages follow the
 * first pair: a pair with h = W (float) or a radix-2 stage (double). */
#define STOCKHAM_SHORT(NAME, T, V, PFX, SFX, H, W, R, TGT, PAIRS)        \
static TGT void NAME(const T* x, T* out, const T* tw, long rows,         \
                     int do_div, T div_by, int do_mul, T mul_by) {       \
    SCALE_TERMS(T, V, PFX, SFX, PAIRS)                                   \
    FIRST_TWIDDLES(V, PFX, SFX, tw)                                      \
    long n = 4*(W), rs = 2*n;                                            \
    V w[6];                                                              \
    for (int k = 0; k < ((W) == 4 ? 3 : 2); k++)                         \
        tw_##H(tw + 2*3 + 2*k*(W), &w[2*k], &w[2*k+1]);                  \
    for (long row = 0; row + (R) <= rows; row += (R)) {                  \
        const T* r = x + 2*row*n;                                        \
        T* o = out + 2*row*n;                                            \
        V v[4];                                                          \
        FIRST_STEP(V, H, r, W, 0, rs, u, v)                              \
        if ((W) == 4) {                                                  \
            PAIR_STEP(V, H, v, w, o, W, rs)                              \
        } else {                                                         \
            RADIX2_STEP(V, H, v[0], v[2], w[0], w[1], o, o + 4*(W), rs)  \
            RADIX2_STEP(V, H, v[1], v[3], w[2], w[3], o + 2*(W),         \
                        o + 6*(W), rs)                                   \
        }                                                                \
    }                                                                    \
}

/* A vector of (re, im) repeated over its complex values. */
#define PAIRS_PS(re, im) _mm256_setr_ps(re, im, re, im, re, im, re, im)
#define PAIRS_PD(re, im) _mm256_setr_pd(re, im, re, im)
#define PAIRS_ZPS(re, im) _mm512_setr4_ps(re, im, re, im)
#define PAIRS_ZPD(re, im) _mm512_setr4_pd(re, im, re, im)

/* Rows of 4W run SHORT; longer ones the first pair, then pairs of
 * stages, then a last radix-2 stage when the stage count is odd; the
 * last pass writes `out`.  n >= 4W. */
#define STOCKHAM_STAGES(NAME, T, W, TGT, SHORT, FIRST, PASS)             \
static TGT void NAME(const T* x, T* out, T* scratch, const T* tw,        \
                     long rows, long n, int do_div, T div_by,            \
                     int do_mul, T mul_by) {                             \
    if (n == 4*(W)) {                                                    \
        SHORT(x, out, tw, rows, do_div, div_by, do_mul, mul_by);         \
        return;                                                          \
    }                                                                    \
    long nstages = 0;                                                    \
    for (long t = n; t > 1; t >>= 1) nstages++;                          \
    long npass = (nstages + 1) / 2;                                      \
    T* bufs[2];                                                          \
    if (npass % 2 == 1) { bufs[0] = out; bufs[1] = scratch; }            \
    else                { bufs[0] = scratch; bufs[1] = out; }            \
    FIRST(x, bufs[0], tw, rows, n);                                      \
    const T* twp = tw + 2*3;                                             \
    for (long s = 2, p = 1; s < nstages; s += 2, p++) {                  \
        long h = 1L << s;                                                \
        int pair = s + 1 < nstages, last = p == npass - 1;               \
        PASS(bufs[(p+1) % 2], bufs[p % 2], twp, rows, n, h, pair,        \
             last && do_div, div_by, last && do_mul, mul_by);            \
        twp += 2*(pair ? 3 : 1)*h;                                       \
    }                                                                    \
}

/* One tier's transform from its steps: the vector type, intrinsics
 * prefix and suffix, helper name, W and rows per vector. */
#define STOCKHAM_TIER(NAME, T, V, PFX, SFX, H, W, R, TGT, PAIRS)         \
STOCKHAM_SHORT(NAME##_short, T, V, PFX, SFX, H, W, R, TGT, PAIRS)        \
FIRST_PAIR(NAME##_first, T, V, PFX, SFX, H, W, R, TGT)                   \
STOCKHAM_PASS(NAME##_pass, T, V, PFX, SFX, H, W, R, TGT, PAIRS)          \
STOCKHAM_STAGES(NAME, T, W, TGT, NAME##_short, NAME##_first, NAME##_pass)

STOCKHAM_TIER(stockham_ps, float, __m256, _mm256, ps, ps, 4, 1,
              FMA_TARGET, PAIRS_PS)
STOCKHAM_TIER(stockham_pd, double, __m256d, _mm256, pd, pd, 2, 1,
              FMA_TARGET, PAIRS_PD)
STOCKHAM_TIER(stockham_zps, float, __m512, _mm512, ps, zps, 4, 2,
              ZMM_TARGET, PAIRS_ZPS)
STOCKHAM_TIER(stockham_zpd, double, __m512d, _mm512, pd, zpd, 2, 2,
              ZMM_TARGET, PAIRS_ZPD)

/* Rows shorter than 4W run scalar; in the AVX-512 tier the rows run in
 * pairs and an odd last row runs the AVX2 tier (every buffer is
 * row-major, so a row's slice is a transform of its own). */
#define STOCKHAM_VECTOR(NAME, T, W, SCALAR, YMM, ZMM)                    \
FMA_TARGET void NAME(const T* x, T* out, T* scratch, const T* tw,        \
                     long rows, long n, int do_div, T div_by,            \
                     int do_mul, T mul_by) {                             \
    if (n < 4*(W)) {                                                     \
        SCALAR(x, out, scratch, tw, rows, n, do_div, div_by,             \
               do_mul, mul_by);                                          \
        return;                                                          \
    }                                                                    \
    long paired = tier == TIER_AVX512 ? rows - rows % 2 : 0;             \
    if (paired)                                                          \
        ZMM(x, out, scratch, tw, paired, n, do_div, div_by, do_mul,      \
            mul_by);                                                     \
    if (paired < rows) {                                                 \
        long off = 2*paired*n;                                           \
        YMM(x + off, out + off, scratch + off, tw, rows - paired, n,     \
            do_div, div_by, do_mul, mul_by);                             \
    }                                                                    \
}

STOCKHAM_VECTOR(stockham_f32, float, 4, stockham_scalar_f32, stockham_ps,
                stockham_zps)
STOCKHAM_VECTOR(stockham_f64, double, 2, stockham_scalar_f64, stockham_pd,
                stockham_zpd)
#endif

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

#ifndef AVX2_KERNELS
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
#else
/* The vector contraction: register blocks of MB modes (one vector of
 * real parts; 8 (4 in double) in the AVX2 tier, 16 (8) in the AVX-512
 * tier) by PANEL_OB output channels.  Per k, the block's a values are
 * loaded as two interleaved vectors and split once into real and
 * imaginary parts (in a lane order shared by both, undone at the store);
 * each channel then broadcasts its w[k, oo] and updates its two partial
 * sum vectors.  Each element's ops are PANEL_CONTRACT_TILE's: sums from
 * +0, t += ar*wr - ai*wi and t += ar*wi + ai*wr for k in order, then
 * acc += t, as plain vector multiplies, subtracts and adds, so the
 * bytes do not depend on the tier.  In the AVX-512 tier an 8 (4) mode
 * remainder of the full channel blocks runs one AVX2 block.  The modes
 * left over and the o % PANEL_OB trailing channels run through
 * PANEL_CONTRACT_TILE. */
#define PANEL_OB 4

static inline void split_ps(const float* p, __m256* re, __m256* im) {
    __m256 v0 = _mm256_loadu_ps(p), v1 = _mm256_loadu_ps(p + 8);
    *re = _mm256_shuffle_ps(v0, v1, 0x88);
    *im = _mm256_shuffle_ps(v0, v1, 0xDD);
}

static inline void add_split_ps(float* p, __m256 re, __m256 im) {
    _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p),
                                      _mm256_unpacklo_ps(re, im)));
    _mm256_storeu_ps(p + 8, _mm256_add_ps(_mm256_loadu_ps(p + 8),
                                          _mm256_unpackhi_ps(re, im)));
}

static inline void split_pd(const double* p, __m256d* re, __m256d* im) {
    __m256d v0 = _mm256_loadu_pd(p), v1 = _mm256_loadu_pd(p + 4);
    *re = _mm256_unpacklo_pd(v0, v1);
    *im = _mm256_unpackhi_pd(v0, v1);
}

static inline void add_split_pd(double* p, __m256d re, __m256d im) {
    _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p),
                                      _mm256_unpacklo_pd(re, im)));
    _mm256_storeu_pd(p + 4, _mm256_add_pd(_mm256_loadu_pd(p + 4),
                                          _mm256_unpackhi_pd(re, im)));
}

/* The same over zmm registers: the shuffles and unpacks work per
 * 128-bit lane, so the lane order is the AVX2 one, repeated. */
static inline ZMM_TARGET void split_zps(const float* p, __m512* re,
                                        __m512* im) {
    __m512 v0 = _mm512_loadu_ps(p), v1 = _mm512_loadu_ps(p + 16);
    *re = _mm512_shuffle_ps(v0, v1, 0x88);
    *im = _mm512_shuffle_ps(v0, v1, 0xDD);
}

static inline ZMM_TARGET void add_split_zps(float* p, __m512 re,
                                            __m512 im) {
    _mm512_storeu_ps(p, _mm512_add_ps(_mm512_loadu_ps(p),
                                      _mm512_unpacklo_ps(re, im)));
    _mm512_storeu_ps(p + 16, _mm512_add_ps(_mm512_loadu_ps(p + 16),
                                           _mm512_unpackhi_ps(re, im)));
}

static inline ZMM_TARGET void split_zpd(const double* p, __m512d* re,
                                        __m512d* im) {
    __m512d v0 = _mm512_loadu_pd(p), v1 = _mm512_loadu_pd(p + 8);
    *re = _mm512_unpacklo_pd(v0, v1);
    *im = _mm512_unpackhi_pd(v0, v1);
}

static inline ZMM_TARGET void add_split_zpd(double* p, __m512d re,
                                            __m512d im) {
    _mm512_storeu_pd(p, _mm512_add_pd(_mm512_loadu_pd(p),
                                      _mm512_unpacklo_pd(re, im)));
    _mm512_storeu_pd(p + 8, _mm512_add_pd(_mm512_loadu_pd(p + 8),
                                          _mm512_unpackhi_pd(re, im)));
}

/* acc[b, oo..oo+PANEL_OB, m0..m0+MB] += the block's panel sums.  The
 * AVX2 block has no target, so the non-target panel_contract inlines it
 * and nothing can be contracted.  The AVX-512 block needs the zmm
 * target, which enables FMA; it holds intrinsics only, whose multiplies
 * and adds -ffp-contract=off keeps separate, and it runs inside
 * PANEL_ZBLOCKS, away from the scalar tiles. */
#define PANEL_BLOCK(NAME, T, V, PFX, SFX, H, TGT)                        \
static inline TGT void NAME(const T* ab, const T* w, T* accb, long kt,   \
                            long m, long o, long oo, long m0) {          \
    V tr[PANEL_OB], ti[PANEL_OB];                                        \
    for (int j = 0; j < PANEL_OB; j++)                                   \
        tr[j] = ti[j] = PFX##_setzero_##SFX();                           \
    for (long k = 0; k < kt; k++) {                                      \
        V ar, ai;                                                        \
        split_##H(ab + 2*(k*m + m0), &ar, &ai);                          \
        const T* wk = w + 2*(k*o + oo);                                  \
        for (int j = 0; j < PANEL_OB; j++) {                             \
            V wr = PFX##_set1_##SFX(wk[2*j]);                            \
            V wi = PFX##_set1_##SFX(wk[2*j+1]);                          \
            tr[j] = PFX##_add_##SFX(tr[j], PFX##_sub_##SFX(              \
                PFX##_mul_##SFX(ar, wr), PFX##_mul_##SFX(ai, wi)));      \
            ti[j] = PFX##_add_##SFX(ti[j], PFX##_add_##SFX(              \
                PFX##_mul_##SFX(ar, wi), PFX##_mul_##SFX(ai, wr)));      \
        }                                                                \
    }                                                                    \
    for (int j = 0; j < PANEL_OB; j++)                                   \
        add_split_##H(accb + 2*((oo + j)*m + m0), tr[j], ti[j]);         \
}

PANEL_BLOCK(panel_block_f32, float, __m256, _mm256, ps, ps, )
PANEL_BLOCK(panel_block_f64, double, __m256d, _mm256, pd, pd, )
PANEL_BLOCK(panel_block_zf32, float, __m512, _mm512, ps, zps, ZMM_TARGET)
PANEL_BLOCK(panel_block_zf64, double, __m512d, _mm512, pd, zpd, ZMM_TARGET)

/* The AVX-512 blocks of one batch row: modes 0..m_z of every full
 * channel block. */
#define PANEL_ZBLOCKS(NAME, MB, BLOCK, T)                                \
static ZMM_TARGET void NAME(const T* ab, const T* w, T* accb, long kt,   \
                            long m, long o, long o_full, long m_z) {     \
    for (long o0 = 0; o0 < o_full; o0 += PANEL_OB)                       \
        for (long m0 = 0; m0 < m_z; m0 += (MB))                          \
            BLOCK(ab, w, accb, kt, m, o, o0, m0);                        \
}

PANEL_ZBLOCKS(panel_zblocks_f32, 16, panel_block_zf32, float)
PANEL_ZBLOCKS(panel_zblocks_f64, 8, panel_block_zf64, double)

/* The AVX-512 blocks (that tier only), the AVX2 blocks, then every mode
 * outside them: the last modes of each blocked channel, all m of the
 * trailing channels. */
#define PANEL_CONTRACT(NAME, T, MB, BLOCK, ZBLOCKS)                      \
void NAME(const T* a, const T* w, T* acc,                                \
          long bt, long kt, long m, long o) {                            \
    long m_z = tier == TIER_AVX512 ? m - m % (2*(MB)) : 0;               \
    long m_full = m - (m - m_z) % (MB), o_full = o - o % PANEL_OB;       \
    for (long b = 0; b < bt; b++) {                                      \
        const T* ab = a + 2*b*kt*m;                                      \
        T* accb = acc + 2*b*o*m;                                         \
        if (m_z && o_full)                                               \
            ZBLOCKS(ab, w, accb, kt, m, o, o_full, m_z);                 \
        for (long o0 = 0; o0 < o_full; o0 += PANEL_OB)                   \
            for (long m0 = m_z; m0 < m_full; m0 += (MB))                 \
                BLOCK(ab, w, accb, kt, m, o, o0, m0);                    \
        for (long oo = 0; oo < o; oo++) {                                \
            T* accp = accb + 2*oo*m;                                     \
            long m0 = oo < o_full ? m_full : 0;                          \
            for (; m0 + PANEL_TILE <= m; m0 += PANEL_TILE)               \
                PANEL_CONTRACT_TILE(T, PANEL_TILE)                       \
            if (m0 < m) PANEL_CONTRACT_TILE(T, m - m0)                   \
        }                                                                \
    }                                                                    \
}

PANEL_CONTRACT(panel_contract_f32, float, 8, panel_block_f32,
               panel_zblocks_f32)
PANEL_CONTRACT(panel_contract_f64, double, 4, panel_block_f64,
               panel_zblocks_f64)
#endif

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

/* ------------------------------------------------------------------ */
/* Pruned R2C/C2R staging (the decomp strategy's gather and scatter)   */
/* ------------------------------------------------------------------ */

/* dst[c*ds + r] = src[r*ss + c] over an R x C block of complex values
 * at row strides ss (source) and ds (destination): a pure copy, and
 * every gather and scatter in this file.  In the AVX2 build, R and C
 * both multiples of W (4 complex floats, 2 complex doubles per vector)
 * copy W x W blocks through registers; otherwise the inner loop runs
 * over the longer of the two axes (the other is often a split of 2-8).
 * transpose, dst[b,c,r] = src[b,r,c], is `dst[...] = np.swapaxes(src,
 * -1, -2)`: the pruned R2C gather of the P subsequences, the pruned C2R
 * interleave into the packed output, and the fused C2C tile driver's
 * gather and scatter. */
#ifdef AVX2_KERNELS
/* One W x W block, db[c, r] = sb[r, c], at row strides ss (source) and
 * ds (destination) in complex elements. */
static inline void transpose_block_f32(const float* sb, float* db, long ds,
                                       long ss, long r, long c) {
    __m256d a0 = _mm256_loadu_pd((const double*)(sb + 2*(r*ss + c)));
    __m256d a1 = _mm256_loadu_pd((const double*)(sb + 2*((r+1)*ss + c)));
    __m256d a2 = _mm256_loadu_pd((const double*)(sb + 2*((r+2)*ss + c)));
    __m256d a3 = _mm256_loadu_pd((const double*)(sb + 2*((r+3)*ss + c)));
    __m256d t0 = _mm256_unpacklo_pd(a0, a1), t1 = _mm256_unpackhi_pd(a0, a1);
    __m256d t2 = _mm256_unpacklo_pd(a2, a3), t3 = _mm256_unpackhi_pd(a2, a3);
    _mm256_storeu_pd((double*)(db + 2*(c*ds + r)),
                     _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd((double*)(db + 2*((c+1)*ds + r)),
                     _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd((double*)(db + 2*((c+2)*ds + r)),
                     _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd((double*)(db + 2*((c+3)*ds + r)),
                     _mm256_permute2f128_pd(t1, t3, 0x31));
}

static inline void transpose_block_f64(const double* sb, double* db,
                                       long ds, long ss, long r, long c) {
    __m256d a0 = _mm256_loadu_pd(sb + 2*(r*ss + c));
    __m256d a1 = _mm256_loadu_pd(sb + 2*((r+1)*ss + c));
    _mm256_storeu_pd(db + 2*(c*ds + r), _mm256_permute2f128_pd(a0, a1, 0x20));
    _mm256_storeu_pd(db + 2*((c+1)*ds + r),
                     _mm256_permute2f128_pd(a0, a1, 0x31));
}

#define COPY_BLOCKS(SFX, W)                                              \
    if (R % (W) == 0 && C % (W) == 0) {                                  \
        for (long r = 0; r < R; r += (W))                                \
            for (long c = 0; c < C; c += (W))                            \
                transpose_block_##SFX(src, dst, ds, ss, r, c);           \
        return;                                                          \
    }
#else
#define COPY_BLOCKS(SFX, W)
#endif

#define COPY_ONE(r, c)                                                   \
    {                                                                    \
        dst[2*((c)*ds + (r))] = src[2*((r)*ss + (c))];                   \
        dst[2*((c)*ds + (r))+1] = src[2*((r)*ss + (c))+1];               \
    }

#define COPY_KERNEL(SFX, T, W)                                           \
static void copy_transposed_##SFX(const T* src, T* dst, long R, long C,  \
                                  long ss, long ds) {                    \
    COPY_BLOCKS(SFX, W)                                                  \
    if (C > R) {                                                         \
        for (long r = 0; r < R; r++)                                     \
            for (long c = 0; c < C; c++) COPY_ONE(r, c)                  \
    } else {                                                             \
        for (long c = 0; c < C; c++)                                     \
            for (long r = 0; r < R; r++) COPY_ONE(r, c)                  \
    }                                                                    \
}                                                                        \
                                                                         \
void transpose_##SFX(const T* src, T* dst, long B, long R, long C) {     \
    for (long b = 0; b < B; b++)                                         \
        copy_transposed_##SFX(src + 2*b*R*C, dst + 2*b*R*C, R, C, C, R); \
}

COPY_KERNEL(f32, float, 4)
COPY_KERNEL(f64, double, 2)

/* out[B,k] = sum_p u[p,k] y[B,p,k] + sum_p v[p,k] conj(y[B,p,(q-k)%q])
 * for k < m.  This is the pruned R2C recombination
 *     acc  = einsum("bpk,pk->bk", y, u)
 *     acc2 = einsum("bpk,pk->bk", conj(take(y, (q-k)%q, axis=2)), v)
 *     out  = (acc + acc2)[:, :m]
 * with each sum the decomp_reduce replica (naive products, p summed
 * sequentially from zero), conj an exact sign flip and one rounding per
 * component for the final add.  Per tile and p, the mirrored values are
 * first copied into an L1 buffer, so the products run the same
 * unit-stride loop as decomp_reduce instead of a gather per element. */
#define DECOMP_MIRROR_TILE(T, W)                                         \
    {                                                                    \
        T ar[DECOMP_TILE], ai[DECOMP_TILE];                              \
        T br[DECOMP_TILE], bi[DECOMP_TILE];                              \
        T mirror[2*DECOMP_TILE];                                         \
        for (long k = 0; k < (W); k++) {                                 \
            ar[k] = 0; ai[k] = 0; br[k] = 0; bi[k] = 0;                  \
        }                                                                \
        for (long pp = 0; pp < p; pp++) {                                \
            const T* yrow = yb + 2*pp*q;                                 \
            long j0 = k0 == 0 ? 0 : q - k0;  /* bin 0 mirrors itself */  \
            mirror[0] = yrow[2*j0];                                      \
            mirror[1] = -yrow[2*j0+1];                                   \
            for (long k = 1; k < (W); k++) {                             \
                mirror[2*k] = yrow[2*(q - k0 - k)];                      \
                mirror[2*k+1] = -yrow[2*(q - k0 - k)+1];                 \
            }                                                            \
            const T* yp = yrow + 2*k0;                                   \
            const T* up = u + 2*(pp*q + k0);                             \
            const T* vp = v + 2*(pp*q + k0);                             \
            for (long k = 0; k < (W); k++) {                             \
                T yr = yp[2*k], yi = yp[2*k+1];                          \
                T ur = up[2*k], ui = up[2*k+1];                          \
                ar[k] += yr*ur - yi*ui;                                  \
                ai[k] += yr*ui + yi*ur;                                  \
                T cr = mirror[2*k], ci = mirror[2*k+1];                  \
                T vr = vp[2*k], vi = vp[2*k+1];                          \
                br[k] += cr*vr - ci*vi;                                  \
                bi[k] += cr*vi + ci*vr;                                  \
            }                                                            \
        }                                                                \
        for (long k = 0; k < (W); k++) {                                 \
            ob[2*(k0+k)] = ar[k] + br[k];                                \
            ob[2*(k0+k)+1] = ai[k] + bi[k];                              \
        }                                                                \
    }

#ifdef AVX2_KERNELS
/* The vector recombination: a block of MB kept bins (one vector of real
 * parts; 8 (4 in double) in the AVX2 tier, 16 (8) in the AVX-512 tier)
 * per register set.  Per p, the y, u, v and mirrored values are split
 * into real and imaginary parts (split_ps order, undone at the store).
 * The mirror is two reversed vector loads with an explicit index, never
 * an integer modulo; bin 0 mirrors itself and is blended in, and conj
 * flips the sign bit.  Each bin's ops are DECOMP_MIRROR_TILE's: four
 * sums from +0, the products as plain multiplies, subtracts and adds
 * with p in order, then one add per component, so the bytes do not
 * depend on the tier. */
static inline void store_split_ps(float* p, __m256 re, __m256 im) {
    _mm256_storeu_ps(p, _mm256_unpacklo_ps(re, im));
    _mm256_storeu_ps(p + 8, _mm256_unpackhi_ps(re, im));
}

static inline void store_split_pd(double* p, __m256d re, __m256d im) {
    _mm256_storeu_pd(p, _mm256_unpacklo_pd(re, im));
    _mm256_storeu_pd(p + 4, _mm256_unpackhi_pd(re, im));
}

static inline ZMM_TARGET void store_split_zps(float* p, __m512 re,
                                              __m512 im) {
    _mm512_storeu_ps(p, _mm512_unpacklo_ps(re, im));
    _mm512_storeu_ps(p + 16, _mm512_unpackhi_ps(re, im));
}

static inline ZMM_TARGET void store_split_zpd(double* p, __m512d re,
                                              __m512d im) {
    _mm512_storeu_pd(p, _mm512_unpacklo_pd(re, im));
    _mm512_storeu_pd(p + 8, _mm512_unpackhi_pd(re, im));
}

/* y[(q - k0 - k) % q] for k = 0..7, split.  A complex float is one
 * 64-bit lane: lanes k = 0..3 are bins q-k0 .. q-k0-3 (at k0 = 0, bin 0
 * then q-1 .. q-3), lanes k = 4..7 bins q-k0-4 .. q-k0-7. */
static inline void reversed_ps(const float* y, long q, long k0, __m256* re,
                               __m256* im) {
    __m256d m0, m1 = _mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_loadu_ps(y + 2*(q - k0 - 7))), 0x1B);
    if (k0 == 0)
        m0 = _mm256_blend_pd(_mm256_permute4x64_pd(
                 _mm256_castps_pd(_mm256_loadu_ps(y + 2*(q - 4))), 0x6C),
             _mm256_castps_pd(_mm256_loadu_ps(y)), 0x1);
    else
        m0 = _mm256_permute4x64_pd(
            _mm256_castps_pd(_mm256_loadu_ps(y + 2*(q - k0 - 3))), 0x1B);
    __m256 v0 = _mm256_castpd_ps(m0), v1 = _mm256_castpd_ps(m1);
    *re = _mm256_shuffle_ps(v0, v1, 0x88);
    *im = _mm256_shuffle_ps(v0, v1, 0xDD);
}

/* The same for k = 0..3 in double, one complex per 128-bit half. */
static inline void reversed_pd(const double* y, long q, long k0,
                               __m256d* re, __m256d* im) {
    __m256d m0, m1 = _mm256_permute4x64_pd(
        _mm256_loadu_pd(y + 2*(q - k0 - 3)), 0x4E);
    if (k0 == 0)
        m0 = _mm256_blend_pd(_mm256_loadu_pd(y),
                             _mm256_loadu_pd(y + 2*(q - 2)), 0xC);
    else
        m0 = _mm256_permute4x64_pd(_mm256_loadu_pd(y + 2*(q - k0 - 1)),
                                   0x4E);
    *re = _mm256_unpacklo_pd(m0, m1);
    *im = _mm256_unpackhi_pd(m0, m1);
}

/* The same for k = 0..15 in float: lanes k = 0..7 are bins q-k0 ..
 * q-k0-7 (at k0 = 0, bin 0 from y then q-1 .. q-7), lanes 8..15 bins
 * q-k0-8 .. q-k0-15, each a reversed zmm load. */
static inline ZMM_TARGET void reversed_zps(const float* y, long q, long k0,
                                           __m512* re, __m512* im) {
    const __m512i rev = _mm512_setr_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    __m512d m0, m1 = _mm512_permutexvar_pd(
        rev, _mm512_castps_pd(_mm512_loadu_ps(y + 2*(q - k0 - 15))));
    if (k0 == 0)
        m0 = _mm512_permutex2var_pd(
            _mm512_castps_pd(_mm512_loadu_ps(y + 2*(q - 8))),
            _mm512_setr_epi64(8, 7, 6, 5, 4, 3, 2, 1),
            _mm512_castps_pd(_mm512_loadu_ps(y)));
    else
        m0 = _mm512_permutexvar_pd(
            rev, _mm512_castps_pd(_mm512_loadu_ps(y + 2*(q - k0 - 7))));
    __m512 v0 = _mm512_castpd_ps(m0), v1 = _mm512_castpd_ps(m1);
    *re = _mm512_shuffle_ps(v0, v1, 0x88);
    *im = _mm512_shuffle_ps(v0, v1, 0xDD);
}

/* The same for k = 0..7 in double, one complex per 128-bit lane. */
static inline ZMM_TARGET void reversed_zpd(const double* y, long q,
                                           long k0, __m512d* re,
                                           __m512d* im) {
    __m512d a = _mm512_loadu_pd(y + 2*(q - k0 - 7));
    __m512d m0, m1 = _mm512_shuffle_f64x2(a, a, 0x1B);
    if (k0 == 0) {
        m0 = _mm512_permutex2var_pd(_mm512_loadu_pd(y + 2*(q - 4)),
                                    _mm512_setr_epi64(8, 9, 6, 7, 4, 5, 2, 3),
                                    _mm512_loadu_pd(y));
    } else {
        a = _mm512_loadu_pd(y + 2*(q - k0 - 3));
        m0 = _mm512_shuffle_f64x2(a, a, 0x1B);
    }
    *re = _mm512_unpacklo_pd(m0, m1);
    *im = _mm512_unpackhi_pd(m0, m1);
}

/* conj(y[(q - k0 - k) % q]), split: the reversed load, then conj flips
 * the sign bit. */
#define MIRROR_LOAD(H, T, V, PFX, SFX, TGT)                              \
static inline TGT void mirror_##H(const T* y, long q, long k0, V* re,    \
                                  V* im) {                               \
    reversed_##H(y, q, k0, re, im);                                      \
    *im = PFX##_xor_##SFX(*im, PFX##_set1_##SFX(-(T)0));                 \
}

MIRROR_LOAD(ps, float, __m256, _mm256, ps, )
MIRROR_LOAD(pd, double, __m256d, _mm256, pd, )
MIRROR_LOAD(zps, float, __m512, _mm512, ps, ZMM_TARGET)
MIRROR_LOAD(zpd, double, __m512d, _mm512, pd, ZMM_TARGET)

/* The blocks of one row from bin k0 on; returns the first bin after
 * them. */
#define MIRROR_BLOCKS(NAME, T, V, PFX, SFX, H, MB, TGT)                  \
static inline TGT long NAME(const T* yb, const T* u, const T* v, T* ob, \
                            long p, long q, long m, long k0) {           \
    for (; k0 + (MB) <= m; k0 += (MB)) {                                 \
        V ar = PFX##_setzero_##SFX(), ai = ar, br = ar, bi = ar;         \
        for (long pp = 0; pp < p; pp++) {                                \
            const T* yrow = yb + 2*pp*q;                                 \
            V yr, yi, ur, ui, cr, ci, vr, vi;                            \
            split_##H(yrow + 2*k0, &yr, &yi);                            \
            split_##H(u + 2*(pp*q + k0), &ur, &ui);                      \
            mirror_##H(yrow, q, k0, &cr, &ci);                           \
            split_##H(v + 2*(pp*q + k0), &vr, &vi);                      \
            ar = PFX##_add_##SFX(ar, PFX##_sub_##SFX(                    \
                PFX##_mul_##SFX(yr, ur), PFX##_mul_##SFX(yi, ui)));      \
            ai = PFX##_add_##SFX(ai, PFX##_add_##SFX(                    \
                PFX##_mul_##SFX(yr, ui), PFX##_mul_##SFX(yi, ur)));      \
            br = PFX##_add_##SFX(br, PFX##_sub_##SFX(                    \
                PFX##_mul_##SFX(cr, vr), PFX##_mul_##SFX(ci, vi)));      \
            bi = PFX##_add_##SFX(bi, PFX##_add_##SFX(                    \
                PFX##_mul_##SFX(cr, vi), PFX##_mul_##SFX(ci, vr)));      \
        }                                                                \
        store_split_##H(ob + 2*k0, PFX##_add_##SFX(ar, br),              \
                        PFX##_add_##SFX(ai, bi));                        \
    }                                                                    \
    return k0;                                                           \
}

MIRROR_BLOCKS(mirror_blocks_f32, float, __m256, _mm256, ps, ps, 8, )
MIRROR_BLOCKS(mirror_blocks_f64, double, __m256d, _mm256, pd, pd, 4, )
MIRROR_BLOCKS(mirror_zblocks_f32, float, __m512, _mm512, ps, zps, 16,
              ZMM_TARGET)
MIRROR_BLOCKS(mirror_zblocks_f64, double, __m512d, _mm512, pd, zpd, 8,
              ZMM_TARGET)

#define MIRROR_VECTORS(SFX)                                              \
    if (tier == TIER_AVX512)                                             \
        k0 = mirror_zblocks_##SFX(yb, u, v, ob, p, q, m, k0);            \
    k0 = mirror_blocks_##SFX(yb, u, v, ob, p, q, m, k0);
#else
#define MIRROR_VECTORS(SFX)
#endif

/* The blocks (AVX-512, then AVX2), then the remaining bins in scalar
 * tiles. */
#define DECOMP_MIRROR(NAME, T, SFX)                                      \
void NAME(const T* y, const T* u, const T* v, T* out,                    \
          long B, long p, long q, long m) {                              \
    for (long b = 0; b < B; b++) {                                       \
        const T* yb = y + 2*b*p*q;                                       \
        T* ob = out + 2*b*m;                                             \
        long k0 = 0;                                                     \
        MIRROR_VECTORS(SFX)                                              \
        for (; k0 + DECOMP_TILE <= m; k0 += DECOMP_TILE)                 \
            DECOMP_MIRROR_TILE(T, DECOMP_TILE)                           \
        if (k0 < m) DECOMP_MIRROR_TILE(T, m - k0)                        \
    }                                                                    \
}

DECOMP_MIRROR(decomp_mirror_f32, float, f32)
DECOMP_MIRROR(decomp_mirror_f64, double, f64)

/* Sub-transform bins staged per tile of the head/tail expansion. */
#define HEAD_TAIL_TILE 64

/* out[B,s,t] = hb[B,t]*wdh[s,t] + tb[B,t]*wdt[s,t], ufunc complex
 * multiplies (hb, tb the first operands) and one add per component,
 * with the head and tail rows built from x[B,m]:
 *     hb[t] = x[t]*ch[t] for 0 < t < m,  (Re x[0] + 0i)*ch[0] at t = 0
 *     tb[q-r] = conj(x[r])*ct[r-1] for 0 < r < m
 * and +0 everywhere else.  This is the pruned C2R scatter
 *     hb[:, :m] = x * ch;  hb[:, 0] = x[:, 0].real * ch[0]
 *     tb[:, q - r] = conj(x[:, r]) * ct
 *     out = hb[:, None, :] * wdh;  out += tb[:, None, :] * wdt
 * Both products are formed even where a row is zero: a zero times a
 * twiddle is a signed zero, and the sum's sign depends on it.
 * One NumPy quirk is replayed: with one row and one tail bin (B = 1,
 * m = 2) the tail product is a (1, 1) by (1,) ufunc call, which NumPy
 * runs in its scalar loop, and that loop does not contract: re = ar*br
 * - ai*bi, im = ar*bi + ai*br.  (The DC product is the same either way:
 * its imaginary operand is zero.) */
#define CMUL_RE(FMAF, ar, ai, br, bi) FMAF(ar, br, -((ai)*(bi)))
#define CMUL_IM(FMAF, ar, ai, br, bi) FMAF(ar, bi, (ai)*(br))

#ifdef AVX2_KERNELS
/* The vector product loop: MB bins of every sub-row per step (8 (4 in
 * double) in the AVX2 tier, 16 (8) in the AVX-512 tier), every operand
 * split into real and imaginary parts (split_ps order, undone at the
 * store); the head and tail values are split once per step.
 * fmsub(hr, wr, hi*wi) and fmadd(hr, wi, hi*wr) are CMUL_RE and CMUL_IM
 * exactly (one rounding of the inner product, one of the fused op),
 * then one add per component. */
#define HEAD_TAIL_BLOCK(H, T, V, PFX, SFX, TGT)                          \
static inline TGT void head_tail_block_##H(const T* hb, const T* tb,     \
                                           const T* wdh, const T* wdt,   \
                                           T* ob, long s, long q) {      \
    V hr, hi, tr, ti;                                                    \
    split_##H(hb, &hr, &hi);                                             \
    split_##H(tb, &tr, &ti);                                             \
    for (long ss = 0; ss < s; ss++) {                                    \
        V wr, wi, vr, vi;                                                \
        split_##H(wdh + 2*ss*q, &wr, &wi);                               \
        split_##H(wdt + 2*ss*q, &vr, &vi);                               \
        V re = PFX##_add_##SFX(                                          \
            PFX##_fmsub_##SFX(hr, wr, PFX##_mul_##SFX(hi, wi)),          \
            PFX##_fmsub_##SFX(tr, vr, PFX##_mul_##SFX(ti, vi)));         \
        V im = PFX##_add_##SFX(                                          \
            PFX##_fmadd_##SFX(hr, wi, PFX##_mul_##SFX(hi, wr)),          \
            PFX##_fmadd_##SFX(tr, vi, PFX##_mul_##SFX(ti, vr)));         \
        store_split_##H(ob + 2*ss*q, re, im);                            \
    }                                                                    \
}

HEAD_TAIL_BLOCK(ps, float, __m256, _mm256, ps, FMA_TARGET)
HEAD_TAIL_BLOCK(pd, double, __m256d, _mm256, pd, FMA_TARGET)
HEAD_TAIL_BLOCK(zps, float, __m512, _mm512, ps, ZMM_TARGET)
HEAD_TAIL_BLOCK(zpd, double, __m512d, _mm512, pd, ZMM_TARGET)

#define HEAD_TAIL_BLOCKS(H, MB)                                          \
    for (; kv + (MB) <= w; kv += (MB))                                   \
        head_tail_block_##H(hb + 2*kv, tb + 2*kv, wdh + 2*(t0 + kv),     \
                            wdt + 2*(t0 + kv), ob + 2*(t0 + kv), s, q);

/* v with its first lane (bin 0's, in split order) set to +0. */
static inline __m256 zero_first_ps(__m256 v) {
    return _mm256_blend_ps(v, _mm256_setzero_ps(), 1);
}
static inline __m256d zero_first_pd(__m256d v) {
    return _mm256_blend_pd(v, _mm256_setzero_pd(), 1);
}
static inline ZMM_TARGET __m512 zero_first_zps(__m512 v) {
    return _mm512_mask_blend_ps(1, v, _mm512_setzero_ps());
}
static inline ZMM_TARGET __m512d zero_first_zpd(__m512d v) {
    return _mm512_mask_blend_pd(1, v, _mm512_setzero_pd());
}

/* The vector head/tail build: hb and tb for the MB bins t .. t+MB-1,
 * with HEAD_TAIL_BIN's products as fmsub/fmadd (CMUL_RE and CMUL_IM
 * exactly).  Head bins split-load x and ch, bin 0's imaginary input
 * blended to +0; tail bins take conj(x[q-t]) and ct[q-t-1] as reversed
 * loads (mirror and reversed over q - 1), bin 0's tail product then
 * blended to +0 (its lanes read x[0] and ct[0], in bounds whenever bin
 * 1 is a tail bin).  A block whose head or tail is all +0 stores +0
 * there.  Returns 0 and writes nothing for a block that mixes head (or
 * tail) bins with zero ones; HEAD_TAIL_BIN builds those. */
#define HEAD_TAIL_BUILD(H, T, V, PFX, SFX, MB, TGT)                      \
static inline TGT int head_tail_build_##H(const T* xb, const T* ch,      \
                                          const T* ct, T* hb, T* tb,     \
                                          long m, long q, long t) {      \
    int head = t + (MB) <= m, tail = (t ? t : 1) + m > q;                \
    if ((!head && t < m) || (!tail && t + (MB) - 1 + m > q)) return 0;   \
    V zero = PFX##_setzero_##SFX(), hr = zero, hi = zero;                \
    V tr = zero, ti = zero;                                              \
    if (head) {                                                          \
        V xr, xi, cr, ci;                                                \
        split_##H(xb + 2*t, &xr, &xi);                                   \
        split_##H(ch + 2*t, &cr, &ci);                                   \
        if (t == 0) xi = zero_first_##H(xi);                             \
        hr = PFX##_fmsub_##SFX(xr, cr, PFX##_mul_##SFX(xi, ci));         \
        hi = PFX##_fmadd_##SFX(xr, ci, PFX##_mul_##SFX(xi, cr));         \
    }                                                                    \
    if (tail) {                                                          \
        V xr, xi, cr, ci;                                                \
        mirror_##H(xb, q, t, &xr, &xi);                                  \
        reversed_##H(ct, q - 1, t, &cr, &ci);                            \
        tr = PFX##_fmsub_##SFX(xr, cr, PFX##_mul_##SFX(xi, ci));         \
        ti = PFX##_fmadd_##SFX(xr, ci, PFX##_mul_##SFX(xi, cr));         \
        if (t == 0) {                                                    \
            tr = zero_first_##H(tr);                                     \
            ti = zero_first_##H(ti);                                     \
        }                                                                \
    }                                                                    \
    store_split_##H(hb, hr, hi);                                         \
    store_split_##H(tb, tr, ti);                                         \
    return 1;                                                            \
}

HEAD_TAIL_BUILD(ps, float, __m256, _mm256, ps, 8, FMA_TARGET)
HEAD_TAIL_BUILD(pd, double, __m256d, _mm256, pd, 4, FMA_TARGET)
HEAD_TAIL_BUILD(zps, float, __m512, _mm512, ps, 16, ZMM_TARGET)
HEAD_TAIL_BUILD(zpd, double, __m512d, _mm512, pd, 8, ZMM_TARGET)

#define HEAD_TAIL_BUILDS(T, FMAF, H, MB)                                 \
    for (; kb + (MB) <= w; kb += (MB))                                   \
        if (scalar_tail || !head_tail_build_##H(                         \
                xb, ch, ct, hb + 2*kb, tb + 2*kb, m, q, t0 + kb))        \
            for (long k = kb; k < kb + (MB); k++)                        \
                HEAD_TAIL_BIN(T, FMAF, k)
#else
#define HEAD_TAIL_BLOCKS(H, MB)
#define HEAD_TAIL_BUILDS(T, FMAF, H, MB)
#endif

/* Bin t0 + k of the head and tail rows, into hb[k] and tb[k]. */
#define HEAD_TAIL_BIN(T, FMAF, k)                                        \
    {                                                                    \
        long t = t0 + (k), r = q - t;                                    \
        T hr = 0, hi = 0, tr = 0, ti = 0;                                \
        if (t < m) {                                                     \
            T xr = xb[2*t], xi = t ? xb[2*t+1] : 0;                      \
            hr = CMUL_RE(FMAF, xr, xi, ch[2*t], ch[2*t+1]);              \
            hi = CMUL_IM(FMAF, xr, xi, ch[2*t], ch[2*t+1]);              \
        }                                                                \
        if (t > 0 && r < m && scalar_tail) {                             \
            tr = sr; ti = si;                                            \
        } else if (t > 0 && r < m) {                                     \
            T xr = xb[2*r], xi = -xb[2*r+1];                             \
            const T* c = ct + 2*(r-1);                                   \
            tr = CMUL_RE(FMAF, xr, xi, c[0], c[1]);                      \
            ti = CMUL_IM(FMAF, xr, xi, c[0], c[1]);                      \
        }                                                                \
        hb[2*(k)] = hr; hb[2*(k)+1] = hi;                                \
        tb[2*(k)] = tr; tb[2*(k)+1] = ti;                                \
    }

/* One row of the expansion, x[m] -> out[s, q]: per tile, the head and
 * tail rows (vector blocks of H, then of YH, then scalar bins), then
 * the products the same way.  scalar_tail belongs to the whole call
 * (B == 1 && m == 2), not to the row; its bins are always built
 * scalar. */
#define HEAD_TAIL_ROW(NAME, T, FMAF, UNFUSED, H, MB, YH, YMB, TGT)       \
static TGT void NAME(const T* xb, const T* ch, const T* ct,              \
                     const T* wdh, const T* wdt, T* ob,                  \
                     long m, long s, long q, int scalar_tail) {          \
    T hb[2*HEAD_TAIL_TILE], tb[2*HEAD_TAIL_TILE];                        \
    T sr = 0, si = 0;                                                    \
    if (scalar_tail) UNFUSED(xb[2], -xb[3], ct[0], ct[1], &sr, &si);     \
    for (long t0 = 0; t0 < q; t0 += HEAD_TAIL_TILE) {                    \
        long w = q - t0 < HEAD_TAIL_TILE ? q - t0 : HEAD_TAIL_TILE;      \
        long kb = 0;                                                     \
        HEAD_TAIL_BUILDS(T, FMAF, H, MB)                                 \
        HEAD_TAIL_BUILDS(T, FMAF, YH, YMB)                               \
        for (long k = kb; k < w; k++)                                    \
            HEAD_TAIL_BIN(T, FMAF, k)                                    \
        long kv = 0;                                                     \
        HEAD_TAIL_BLOCKS(H, MB)                                          \
        HEAD_TAIL_BLOCKS(YH, YMB)                                        \
        for (long ss = 0; ss < s; ss++) {                                \
            const T* hp = wdh + 2*(ss*q + t0);                           \
            const T* tp = wdt + 2*(ss*q + t0);                           \
            T* op = ob + 2*(ss*q + t0);                                  \
            for (long k = kv; k < w; k++) {                              \
                T hr = hb[2*k], hi = hb[2*k+1];                          \
                T tr = tb[2*k], ti = tb[2*k+1];                          \
                T wr = hp[2*k], wi = hp[2*k+1];                          \
                T vr = tp[2*k], vi = tp[2*k+1];                          \
                op[2*k] = CMUL_RE(FMAF, hr, hi, wr, wi)                  \
                          + CMUL_RE(FMAF, tr, ti, vr, vi);               \
                op[2*k+1] = CMUL_IM(FMAF, hr, hi, wr, wi)                \
                            + CMUL_IM(FMAF, tr, ti, vr, vi);             \
            }                                                            \
        }                                                                \
    }                                                                    \
}

#ifdef AVX2_KERNELS
HEAD_TAIL_ROW(head_tail_yrow_f32, float, fmaf, cmul_unfused_f32, ps, 8, ps,
              8, FMA_TARGET)
HEAD_TAIL_ROW(head_tail_yrow_f64, double, fma, cmul_unfused_f64, pd, 4, pd,
              4, FMA_TARGET)
HEAD_TAIL_ROW(head_tail_zrow_f32, float, fmaf, cmul_unfused_f32, zps, 16,
              ps, 8, ZMM_TARGET)
HEAD_TAIL_ROW(head_tail_zrow_f64, double, fma, cmul_unfused_f64, zpd, 8,
              pd, 4, ZMM_TARGET)

/* The row of the process's tier. */
#define HEAD_TAIL_TIERS(SFX, T)                                          \
static void head_tail_row_##SFX(const T* xb, const T* ch, const T* ct,   \
                                const T* wdh, const T* wdt, T* ob,       \
                                long m, long s, long q,                  \
                                int scalar_tail) {                       \
    (tier == TIER_AVX512 ? head_tail_zrow_##SFX : head_tail_yrow_##SFX)( \
        xb, ch, ct, wdh, wdt, ob, m, s, q, scalar_tail);                 \
}

HEAD_TAIL_TIERS(f32, float)
HEAD_TAIL_TIERS(f64, double)
#else
HEAD_TAIL_ROW(head_tail_row_f32, float, fmaf, cmul_unfused_f32, , , , ,
              FMA_TARGET)
HEAD_TAIL_ROW(head_tail_row_f64, double, fma, cmul_unfused_f64, , , , ,
              FMA_TARGET)
#endif

#define EXPAND_HEAD_TAIL(NAME, T, SFX)                                   \
void NAME(const T* x, const T* ch, const T* ct, const T* wdh,            \
          const T* wdt, T* out, long B, long m, long s, long q) {        \
    for (long b = 0; b < B; b++)                                         \
        head_tail_row_##SFX(x + 2*b*m, ch, ct, wdh, wdt, out + 2*b*s*q,  \
                            m, s, q, B == 1 && m == 2);                  \
}

EXPAND_HEAD_TAIL(expand_head_tail_f32, float, f32)
EXPAND_HEAD_TAIL(expand_head_tail_f64, double, f64)

/* ------------------------------------------------------------------ */
/* Fused C2C tile driver (FFT -> CGEMM -> iFFT in one call)            */
/* ------------------------------------------------------------------ */

/* A batch of the fused 1-D C2C pass, read and written through row
 * tables: entry e maps the rows[e] signals xs[e][rows[e], c_in, dim_x]
 * to outs[e][rows[e], c_out, dim_x], with dim_x = p * modes.  The
 * tables let a batch of separate requests run in place, with no
 * concatenated input and no copy of each result out of a shared one; a
 * contiguous batch is a one-entry table.  This is the stage loop of
 * repro.core.compiled._StagedFused1D.run_rows, one kernel call per
 * stage replaced by one call per batch.  Each signal row streams
 * through the stages, so its working set stays in cache:
 *   for each k_tb panel of input channels, in channel order:
 *     gather   : g[k, j, m] = x[b, k0+k, m*p + j]         (transpose)
 *     FFT      : forward Stockham over the panel's k*p rows
 *     reduce   : a[k, m] = sum_j f[k, j, m] * wd_fwd[j, m] (decomp_reduce)
 *     contract : acc[o, m] += sum_k a[k, m] * w[k0+k, o]   (panel_contract)
 *   expand   : g[o, j, m] = acc[o, m] * wd_inv[j, m]        (expand_mul)
 *   iFFT     : inverse Stockham, / modes then * (modes / dim_x)
 *   scatter  : out[b, o, m*p + j] = f[o, j, m]              (transpose)
 * With p = 1 the FFT reads x and the iFFT writes out directly (the
 * gather and the staging copy are pure copies) and there is no reduce,
 * expand or scatter; the iFFT only divides.  acc starts at +0 per row,
 * as the tile loop's `acc[...] = 0` does.
 *
 * Bits: every stage above is row-independent, and every panel of a row
 * is contracted in the same order as in the tile loop, so each output
 * element sees the same kernel operations on the same operands in the
 * same order as there; only the loop order across rows changes, and
 * where a row lives.
 *
 * The tables come from the Python binding, which builds them from
 * arrays it has checked (dtype, C-contiguity, alignment, shape, writable
 * outputs, no output overlapping an input or another output); the
 * driver trusts them.
 * Bases need only the element type's alignment: every vector load and
 * store in the kernels is unaligned.
 *
 * The driver is deliberately not FMA_TARGET.  GCC will not inline a
 * function whose target is wider than its caller's, so Stockham and
 * expand_mul stay out-of-line FMA code, while panel_contract,
 * decomp_reduce and transpose may be inlined without being contracted;
 * an FMA_TARGET driver could inline the einsum replicas and fuse their
 * products, which would change their bits.
 *
 * Workspaces hold one streamed row: g, f and s (Stockham scratch) take
 * max(k_tb, c_out) * dim_x elements, a takes k_tb * modes (p > 1 only)
 * and acc takes c_out * modes. */
#define FUSED_TILE_C2C_1D(NAME, T, SFX)                                  \
void NAME(const T* const* xs, T* const* outs, const long* rows,          \
          const T* w, const T* tw_fwd, const T* tw_inv,                  \
          const T* wd_fwd, const T* wd_inv, T* g, T* f, T* s, T* a,      \
          T* acc, long entries, long c_in, long c_out, long dim_x,       \
          long modes, long k_tb) {                                       \
    long p = dim_x / modes;                                              \
    T div_by = (T)modes, mul_by = (T)((double)modes / (double)dim_x);    \
    for (long e = 0; e < entries; e++)                                   \
    for (long b = 0; b < rows[e]; b++) {                                 \
        const T* xb = xs[e] + 2*b*c_in*dim_x;                            \
        for (long i = 0; i < 2*c_out*modes; i++) acc[i] = 0;             \
        for (long k0 = 0; k0 < c_in; k0 += k_tb) {                       \
            long kt = c_in - k0 < k_tb ? c_in - k0 : k_tb;               \
            const T* spec = f;                                           \
            if (p > 1) {                                                 \
                transpose_##SFX(xb + 2*k0*dim_x, g, kt, modes, p);       \
                stockham_##SFX(g, f, s, tw_fwd, kt*p, modes,             \
                               0, 0, 0, 0);                              \
                decomp_reduce_##SFX(f, wd_fwd, a, kt, p, modes);         \
                spec = a;                                                \
            } else {                                                     \
                stockham_##SFX(xb + 2*k0*dim_x, f, s, tw_fwd, kt, modes, \
                               0, 0, 0, 0);                              \
            }                                                            \
            panel_contract_##SFX(spec, w + 2*k0*c_out, acc,              \
                                 1, kt, modes, c_out);                   \
        }                                                                \
        T* ob = outs[e] + 2*b*c_out*dim_x;                               \
        if (p > 1) {                                                     \
            expand_mul_##SFX(acc, wd_inv, g, c_out, p, modes);           \
            stockham_##SFX(g, f, s, tw_inv, c_out*p, modes,              \
                           1, div_by, 1, mul_by);                        \
            transpose_##SFX(f, ob, c_out, p, modes);                     \
        } else {                                                         \
            stockham_##SFX(acc, ob, s, tw_inv, c_out, modes,             \
                           1, div_by, 0, 0);                             \
        }                                                                \
    }                                                                    \
}

FUSED_TILE_C2C_1D(fused_tile_c2c_1d_f32, float, f32)
FUSED_TILE_C2C_1D(fused_tile_c2c_1d_f64, double, f64)

/* ------------------------------------------------------------------ */
/* Spectrum-resident rollout driver (K steps in one call)              */
/* ------------------------------------------------------------------ */

/* The symmetric 2-D reanalysis of one y-DC column, v[k] at stride my for
 * k < mx, in place:
 *     full = zeros(n); full[:mx] = v
 *     v = (0.5 * (full + conj(roll(full[::-1], 1))))[:mx]
 * i.e. v[k] -> 0.5 * (v[k] + conj(v[(n - k) % n])), a mirror index >= mx
 * reading +0+0i (whose conj is +0-0i).  Each mirror pair (k, n - k) is
 * formed from the old values before either is stored.  `0.5 * z` is the
 * ufunc complex multiply by 0.5 + 0i (see the top of this file), or its
 * scalar loop on a one-element array (`unfused`). */
#define HALF_OF_SUM(T, FMAF, UNFUSED, ar, ai, br, bi, dst, unfused)      \
    {                                                                    \
        T sr = (ar) + (br), si = (ai) + -(bi);                           \
        if (unfused) {                                                   \
            UNFUSED((T)0.5, (T)0, sr, si, &(dst)[0], &(dst)[1]);         \
        } else {                                                         \
            (dst)[0] = FMAF((T)0.5, sr, -((T)0*si));                     \
            (dst)[1] = FMAF((T)0.5, si, (T)0*sr);                        \
        }                                                                \
    }

#define HERM_COLUMN(NAME, T, FMAF, UNFUSED)                              \
static FMA_TARGET void NAME(T* v, long mx, long my, long n,              \
                            int unfused) {                               \
    for (long k = 0; k < mx; k++) {                                      \
        long j = k ? n - k : 0;                                          \
        if (j < k) continue;  /* stored with its pair */                 \
        T* a = v + 2*k*my;                                               \
        T ar = a[0], ai = a[1], br = 0, bi = 0;                          \
        if (j < mx) { br = v[2*j*my]; bi = v[2*j*my+1]; }                \
        HALF_OF_SUM(T, FMAF, UNFUSED, ar, ai, br, bi, a, unfused)        \
        if (j != k && j < mx)                                            \
            HALF_OF_SUM(T, FMAF, UNFUSED, br, bi, ar, ai, v + 2*j*my,    \
                        unfused)                                         \
    }                                                                    \
}

HERM_COLUMN(herm_column_f32, float, fmaf, cmul_unfused_f32)
HERM_COLUMN(herm_column_f64, double, fma, cmul_unfused_f64)

/* Projection kinds of spectral_steps (repro.fft._ckernels names them). */
#define PROJ_NONE 0
#define PROJ_DC_REAL 1
#define PROJ_HERM_X 2

/* `steps` applications of a square spectral convolution to a state held
 * in the truncated spectrum, sk[bt, c, m] with m = mx * my kept bins per
 * channel (a 2-D corner row-major, my = 1 in 1-D).  This is the rollout
 * loop of repro.core.compiled's executors in one call:
 *   for each step:
 *     y = 0;  y[b] += the k_tb panels of state[b] times w  (panel_contract)
 *     unless last: state = the reanalysis of y (proj)
 * with the canonical panel order of their step_spectrum, each panel read
 * in place from the state's k0:k1 channel rows (no copy), and the
 * reanalysis kinds of their reanalyze_spectrum:
 *   - PROJ_NONE    : the identity (the C2C convention);
 *   - PROJ_DC_REAL : bin 0's imaginary part set to +0, as
 *                    `sk[..., 0] = sk[..., 0].real` does (symmetric 1-D);
 *   - PROJ_HERM_X  : herm_column on each y-DC column (symmetric 2-D),
 *                    unfused when the padded column array has one element
 *                    (bt * c * dim_x == 1).
 * Every step's output goes to out[step] when keep_all, else only the last
 * step's to out.  The state ping-pongs between out and `work` (bt*c*m
 * elements) so that the last step lands in out; with keep_all each kept
 * output is copied into work before a projection changes it.  sk, work
 * and out must not overlap.
 *
 * Bits: each step's panel sums are step_spectrum's (the same kernel on
 * the same operands in the same order) and the projections replay the
 * NumPy expressions exactly.  Like the tile drivers this is not
 * FMA_TARGET (see fused_tile_c2c_1d); only herm_column is. */
#define SPECTRAL_STEPS(NAME, T, SFX)                                     \
void NAME(const T* sk, const T* w, T* work, T* out, long bt, long c,     \
          long mx, long my, long k_tb, long steps, long dim_x,           \
          long proj, long keep_all) {                                    \
    long m = mx*my, n = bt*c*m;                                          \
    int unfused = bt*c*dim_x == 1;                                       \
    const T* cur = sk;                                                   \
    for (long st = 0; st < steps; st++) {                                \
        T* y = keep_all ? out + 2*st*n                                   \
                        : ((steps - 1 - st) % 2 ? work : out);           \
        for (long i = 0; i < 2*n; i++) y[i] = 0;                         \
        for (long b = 0; b < bt; b++)                                    \
            for (long k0 = 0; k0 < c; k0 += k_tb) {                      \
                long kt = c - k0 < k_tb ? c - k0 : k_tb;                 \
                panel_contract_##SFX(cur + 2*(b*c + k0)*m,               \
                                     w + 2*k0*c, y + 2*b*c*m,            \
                                     1, kt, m, c);                       \
            }                                                            \
        if (st == steps - 1) break;                                      \
        if (keep_all && proj != PROJ_NONE) {                             \
            for (long i = 0; i < 2*n; i++) work[i] = y[i];               \
            y = work;                                                    \
        }                                                                \
        if (proj == PROJ_DC_REAL)                                        \
            for (long r = 0; r < bt*c; r++) y[2*r*m + 1] = 0;            \
        else if (proj == PROJ_HERM_X)                                    \
            for (long r = 0; r < bt*c; r++)                              \
                herm_column_##SFX(y + 2*r*m, mx, my, dim_x, unfused);    \
        cur = y;                                                         \
    }                                                                    \
}

SPECTRAL_STEPS(spectral_steps_f32, float, f32)
SPECTRAL_STEPS(spectral_steps_f64, double, f64)

/* ------------------------------------------------------------------ */
/* Pruned R2C/C2R row stages, row drivers and 2-D plane drivers        */
/* ------------------------------------------------------------------ */

/* The pruned R2C and C2R plans' decomp strategy, each written once as a
 * row stage over a run of `rows` rows of h = p*q complex values (real
 * rows of length 2h viewed as complex), `chunk` rows per kernel call:
 *   rfft_stage, z[rows, h] -> out[rows, m]:
 *     gather : g[x, j, t] = z[x, t*p + j]          (transpose; packed z)
 *     FFT    : forward Stockham over the chunk's sub-rows of length q
 *     mirror : out[x] = the m recombined bins       (decomp_mirror)
 *   irfft_stage, x[rows, m] -> out[rows, h] (s = p):
 *     expand : g[x] = x[x]'s head/tail rows times wdh, wdt
 *                                                   (expand_head_tail)
 *     iFFT   : inverse Stockham over the chunk's sub-rows, / q then
 *              * (q / h), into held[x, s, t] when given, else a chunk
 *              buffer
 *     scatter: out[x, t*s + ss] = f[x, ss, t]       (transpose; given
 *              out only)
 * The workspace holds three chunk buffers of chunk*h elements: g, f
 * and the Stockham scratch.  The binding (repro.fft._ckernels, its
 * row_chunk) picks the chunk: as many rows as fit 8 KB of complex
 * values per buffer, so a chunk's buffers stay in L1 (a longer row runs
 * alone), since a kernel call on one short row is too short to amortise
 * its set-up.  The last chunk of a run takes the rows left.
 *
 * Bits: every stage is row-independent, so every output element sees
 * the same kernel operations on the same operands in the same order as
 * the plans' staged kernel sequence over the whole batch; only which
 * rows share a kernel call changes.  The staged sequence's two choices
 * that depend on a call's row count stay the run's: expand_head_tail's
 * unfused tail product (rows == 1 && m == 2) is chosen once from the
 * run's rows, never per chunk, and Stockham's scalar-loop multiply of a
 * one-element array needs a one-row call, while every call here has at
 * least p >= 2 rows (a decomposition splits h at least in two).
 *
 * The row drivers pruned_rfft_rows and pruned_irfft_rows run one stage
 * over every row of a call; the compiled plans call them once per
 * execution.
 *
 * The plane drivers run the symmetric 2-D executor's forward and
 * inverse halves one (b, c) plane at a time.  A plane is X real rows of
 * length Y = 2h, read as packed complex z[X, h]; its kept corner is
 * sk[mx, my]: my <= q half-spectrum bins along Y, mx first bins along X
 * with X = P * mx and P >= 2.  The halves are the staged path of
 * repro.core.compiled._SpectralExecutor (the pruned R2C plan along Y,
 * then the pruned C2C plan along X; the X inverse, then the pruned C2R
 * plan) with every stage kept, each run over one plane instead of the
 * whole batch:
 *   analyse, z[X, h] -> sk[mx, my]:
 *     rows    : r[x] = rfft_stage of the plane's rows, m = my
 *     gather  : cg[ky, j, t] = r[t*P + j, ky]
 *     FFT     : forward Stockham over the my*P sub-columns of length mx
 *     reduce  : cr[ky, kx] = sum_j cf[ky, j, kx] * wd[j, kx]
 *                                                      (decomp_reduce)
 *     store   : sk[kx, ky] = cr[ky, kx]
 *   synthesise, sk[mx, my] -> held[X, p, q] (and z[X, h]):
 *     gather  : cr[ky, kx] = sk[kx, ky]
 *     expand  : cg[ky, s, kx] = cr[ky, kx] * wd[s, kx] (expand_mul)
 *     iFFT    : inverse Stockham over the sub-columns, / mx then
 *               * (mx / X)
 *     scatter : r[t*P + s, ky] = cf[ky, s, t]
 *     rows    : irfft_stage of r into the held plane, scattered to z
 *               given an output table
 * Every gather, store and scatter is the copy kernel, the column ones
 * once per j at strides P*my and P*mx.  The synthesised plane is always
 * held in the workspace in the sub-row layout, which is the analysis's
 * gathered layout: g[x, j, t] = z[x, t*p + j] = held[x, j, t].  So the
 * re-analysis of a synthesised plane runs rfft_stage on the held plane
 * as it lies, with no gather, with or without an output table (the
 * scatter and gather it skips are a pure-copy identity).  A plane's
 * intermediates stay in cache from one axis to the other; the staged
 * path writes the whole (B, C, X, my) intermediate to memory and back,
 * with a strided copy on each side.
 *
 * Bits: each stage runs the kernel the staged path runs on the same
 * operands in the same order, so the bytes are the staged path's.  The
 * row stages run over a plane's X >= 2 rows, and the X-axis Stockham
 * calls have my*P >= 2 rows, so no call-size choice can differ from the
 * staged path's.  The executor takes the staged path for every geometry
 * these drivers do not cover (an R2C strategy other than decomp, P = 1,
 * mx not a power of two).
 *
 * sym2d_analyse reads the planes through a row table (entry e: rows[e]
 * states xs[e][rows[e], c, X, Y]) and writes sk[bt, c, mx, my] in
 * entry order.  sym2d_synthesise reads sk[bt, c, mx, my] and writes
 * through an output row table (outs[e][rows[e], c, X, Y]), or, with no
 * table, holds each plane in the workspace only; given `next`, it runs
 * the analysis on each plane it has just synthesised (the next rollout
 * step's state), from the held plane, so an intermediate state of a
 * rollout is never written to memory whole.  The tables come from the
 * Python binding, which checks every entry, operand and the geometry
 * first.
 *
 * The plane drivers' workspace is the row stages' (3*chunk*h), then r,
 * cg, cf and cs of X*my elements each, cr of mx*my and the held plane
 * (synthesise) of X*h.  Like the C2C tile driver, none of these
 * functions is FMA_TARGET (see there). */
#define ROW_STAGES(SFX, T)                                               \
static void rfft_stage_##SFX(const T* z, int packed, const T* u,         \
                             const T* v, const T* tw, T* ws, T* out,     \
                             long rows, long chunk, long p, long q,      \
                             long m) {                                   \
    long h = p*q;                                                        \
    T *g = ws, *f = g + 2*chunk*h, *s = f + 2*chunk*h;                   \
    for (long x0 = 0; x0 < rows; x0 += chunk) {                          \
        long n = rows - x0 < chunk ? rows - x0 : chunk;                  \
        const T* src = z + 2*x0*h;                                       \
        if (packed) {                                                    \
            transpose_##SFX(src, g, n, q, p);                            \
            src = g;                                                     \
        }                                                                \
        stockham_##SFX(src, f, s, tw, n*p, q, 0, 0, 0, 0);               \
        decomp_mirror_##SFX(f, u, v, out + 2*x0*m, n, p, q, m);          \
    }                                                                    \
}                                                                        \
                                                                         \
static void irfft_stage_##SFX(const T* x, const T* ch, const T* ct,      \
                              const T* wdh, const T* wdt, const T* tw,   \
                              T* ws, T* held, T* out, long rows,         \
                              long chunk, long sp, long q, long m) {     \
    long h = sp*q;                                                       \
    T div_by = (T)q, mul_by = (T)((double)q / (double)h);                \
    int scalar_tail = rows == 1 && m == 2;                               \
    T *g = ws, *f = g + 2*chunk*h, *s = f + 2*chunk*h;                   \
    for (long x0 = 0; x0 < rows; x0 += chunk) {                          \
        long n = rows - x0 < chunk ? rows - x0 : chunk;                  \
        T* y = held ? held + 2*x0*h : f;                                 \
        for (long b = 0; b < n; b++)                                     \
            head_tail_row_##SFX(x + 2*(x0 + b)*m, ch, ct, wdh, wdt,      \
                                g + 2*b*h, m, sp, q, scalar_tail);       \
        stockham_##SFX(g, y, s, tw, n*sp, q, 1, div_by, 1, mul_by);      \
        if (out) transpose_##SFX(y, out + 2*x0*h, n, sp, q);             \
    }                                                                    \
}                                                                        \
                                                                         \
void pruned_rfft_rows_##SFX(const T* z, const T* u, const T* v,          \
                            const T* tw, T* ws, T* out, long rows,       \
                            long p, long q, long m, long chunk) {        \
    rfft_stage_##SFX(z, 1, u, v, tw, ws, out, rows, chunk, p, q, m);     \
}                                                                        \
                                                                         \
void pruned_irfft_rows_##SFX(const T* x, const T* ch, const T* ct,       \
                             const T* wdh, const T* wdt, const T* tw,    \
                             T* ws, T* out, long rows, long sp, long q,  \
                             long m, long chunk) {                       \
    irfft_stage_##SFX(x, ch, ct, wdh, wdt, tw, ws, 0, out, rows, chunk,  \
                      sp, q, m);                                         \
}

ROW_STAGES(f32, float)
ROW_STAGES(f64, double)

#define SYM2D_PLANES(SFX, T)                                             \
static void sym2d_analyse_plane_##SFX(                                   \
        const T* z, int held, T* sk, const T* u, const T* v,             \
        const T* tw_y, const T* tw_x, const T* wd_x, T* ws, long X,      \
        long p, long q, long my, long mx, long chunk) {                  \
    long P = X/mx, cols = X*my;                                          \
    T *r = ws + 2*3*chunk*p*q, *cg = r + 2*cols, *cf = cg + 2*cols;      \
    T *cs = cf + 2*cols, *cr = cs + 2*cols;                              \
    rfft_stage_##SFX(z, !held, u, v, tw_y, ws, r, X, chunk, p, q, my);   \
    for (long j = 0; j < P; j++)                                         \
        copy_transposed_##SFX(r + 2*j*my, cg + 2*j*mx, mx, my, P*my,     \
                              P*mx);                                     \
    stockham_##SFX(cg, cf, cs, tw_x, my*P, mx, 0, 0, 0, 0);              \
    decomp_reduce_##SFX(cf, wd_x, cr, my, P, mx);                        \
    copy_transposed_##SFX(cr, sk, my, mx, mx, my);                       \
}                                                                        \
                                                                         \
static void sym2d_synthesise_plane_##SFX(                                \
        const T* sk, T* z, const T* ch, const T* ct, const T* wdh,       \
        const T* wdt, const T* tw_y, const T* tw_x, const T* wd_x,       \
        T* ws, T* held, long X, long p, long q, long my, long mx,        \
        long chunk) {                                                    \
    long P = X/mx, cols = X*my;                                          \
    T xdiv = (T)mx, xmul = (T)((double)mx / (double)X);                  \
    T *r = ws + 2*3*chunk*p*q, *cg = r + 2*cols, *cf = cg + 2*cols;      \
    T *cs = cf + 2*cols, *cr = cs + 2*cols;                              \
    copy_transposed_##SFX(sk, cr, mx, my, my, mx);                       \
    expand_mul_##SFX(cr, wd_x, cg, my, P, mx);                           \
    stockham_##SFX(cg, cf, cs, tw_x, my*P, mx, 1, xdiv, 1, xmul);        \
    for (long j = 0; j < P; j++)                                         \
        copy_transposed_##SFX(cf + 2*j*mx, r + 2*j*my, my, mx, P*mx,     \
                              P*my);                                     \
    irfft_stage_##SFX(r, ch, ct, wdh, wdt, tw_y, ws, held, z, X, chunk,  \
                      p, q, my);                                         \
}                                                                        \
                                                                         \
void sym2d_analyse_##SFX(const T* const* xs, const long* rows, T* sk,    \
                         const T* u, const T* v, const T* tw_y,          \
                         const T* tw_x, const T* wd_x, T* ws,            \
                         long entries, long c, long X, long p, long q,   \
                         long my, long mx, long chunk) {                 \
    long plane = X*p*q, corner = mx*my;                                  \
    for (long e = 0; e < entries; e++)                                   \
        for (long i = 0; i < rows[e]*c; i++, sk += 2*corner)             \
            sym2d_analyse_plane_##SFX(xs[e] + 2*i*plane, 0, sk, u, v,    \
                                      tw_y, tw_x, wd_x, ws, X, p, q, my, \
                                      mx, chunk);                        \
}                                                                        \
                                                                         \
void sym2d_synthesise_##SFX(                                             \
        const T* sk, T* const* outs, const long* rows, T* next,          \
        const T* ch, const T* ct, const T* wdh, const T* wdt,            \
        const T* tw_yi, const T* tw_xi, const T* wd_xi, const T* u,      \
        const T* v, const T* tw_yf, const T* tw_xf, const T* wd_xf,      \
        T* ws, long entries, long c, long X, long p, long q, long my,    \
        long mx, long chunk) {                                           \
    long plane = X*p*q, corner = mx*my;                                  \
    T* held = ws + 2*(3*chunk*p*q + 4*X*my + corner);                    \
    for (long e = 0; e < entries; e++)                                   \
        for (long i = 0; i < rows[e]*c; i++, sk += 2*corner) {           \
            T* z = outs ? outs[e] + 2*i*plane : 0;                       \
            sym2d_synthesise_plane_##SFX(sk, z, ch, ct, wdh, wdt, tw_yi, \
                                         tw_xi, wd_xi, ws, held, X, p,   \
                                         q, my, mx, chunk);              \
            if (next) {                                                  \
                sym2d_analyse_plane_##SFX(held, 1, next, u, v, tw_yf,    \
                                          tw_xf, wd_xf, ws, X, p, q, my, \
                                          mx, chunk);                    \
                next += 2*corner;                                        \
            }                                                            \
        }                                                                \
}

SYM2D_PLANES(f32, float)
SYM2D_PLANES(f64, double)
