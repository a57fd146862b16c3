/* The arithmetic of diffwave.solver.step with a built-in closure, bit for
 * bit the step's NumPy formulation (solver._numpy_step).
 *
 * Every operation here is one IEEE-754 double operation that NumPy performs
 * elementwise in the same order (+, -, *, /, sqrt, fabs, compares), so each
 * result is correctly rounded and equal to NumPy's bits.  The module is
 * built with -ffp-contract=off: a fused multiply-add rounds once where NumPy
 * rounds twice.  The exceptions are the package's own exp and pow (see "the
 * package's exp and pow"): they are built from the same operations and
 * explicit fused multiply-adds, each correctly rounded, so they give the same
 * bits in every clone and on every IEEE-754 machine, and the gamma law's
 * callables (closures._PowerLaw) call them too.  A row of pow whose values
 * all lie in [2^-64, 2^64], with |y| <= 8, runs without the lanes that serve
 * zeros, subnormals, negatives, infinities, NaN and overflow (ordinary); any
 * other row runs the general code, and both give the same bits on such a
 * row.  A decay run's rows are all ordinary.  The AVX-512 m1 evaluators
 * (see "the AVX-512 m1 evaluators") take four of the seven divisions of a
 * face state off the divider: each reciprocal is correctly rounded by fused
 * multiply-adds, so it is the quotient's bits; and where every state of a
 * vector has 4 - 3u^2 rounded to 4, the u-side divisors are powers of two,
 * and a product by their reciprocals rounds the same.
 *
 * A step with a built-in closure, M1 or the gamma law, is one call,
 * dw_step, the only step entry; any other closure steps on the NumPy
 * formulation.  dw_step returns 1 when every check of the step passed
 * (finish), else 0, and its status holds only the window, the largest face
 * speed and the largest |u|.  When the flag is clear, the Python runs the
 * NumPy formulation on the same state and dt, which finds the check that
 * failed and raises its error; so nothing here records where a check failed.
 *
 * dw_step runs as a chunk pipeline.  The window search is serial and reads
 * only the uniform ends and a block next to each (see "the window"); then
 * the window is cut into chunks of CHUNK cells, and each chunk runs every
 * stage on its own scratch: the edge values of its cells and a one-cell
 * halo, the closure's momentum flux, the predictor, the closure's face
 * combine, its faces (a face between two chunks is computed by both, to the
 * same bits), the update of its cells, and the checks.  Only the two closure
 * evaluations depend on the closure.  The first and last chunks fill the far
 * fields.  Each chunk folds what it found into a partial status (flags and
 * largest bit patterns); these fold to the same status in any order, so the
 * status is the whole window's bit for bit.  The calling thread claims chunks
 * from the window's left end and a helper thread from its right end, both
 * from one atomic word, until they meet (see "the chunk pool"); the caller's
 * scratch is allocated per call, for one chunk.
 *
 * A chunk of m cells works in N_REGIONS regions of 2 (m + 2) values, a
 * layout private to this file.  s = m + 2 is the number of edge positions:
 * the chunk's cells and one cell a side.  Region V holds the left edge values
 * vl[0 .. s) and then the right ones vr[0 .. s), back to back; region U the
 * same for u.  Face k (m + 1 faces) has the left state (vr, ur)[k] and the
 * right state (vl, ul)[k + 1], so the 2 (m + 1) face states are V[1 .. 2s - 1)
 * and U[1 .. 2s - 1): the right states of faces 0 .. m, then their left
 * states, each a contiguous row for the closure's evaluator.  The edges keep
 * the ghost-extended rows of m + 4 cells in regions FLUX and SPEED.  FLUX
 * then takes the momentum flux of the edge values, and FLUX and SPEED the
 * momentum flux and wave speed of the face states; FLUXES takes the faces'
 * volume and momentum fluxes.
 *
 * dw_flux_and_speed is the face combine of a built-in closure on any
 * states, by the chunks' own evaluators: for M1 the pair select_m1 chose
 * for this CPU, as in the chunks.
 *
 * dw_tridiagonal_solve, the profile solver's Newton step, dw_erf, its
 * initial guess, and dw_hermite, the profile's interpolant, are the routines
 * here that no transport step calls.
 *
 * The block between the two "declarations" lines is handed to cffi as is.
 */

#ifndef _GNU_SOURCE /* the module's Python.h defines it first */
#define _GNU_SOURCE /* sched_getaffinity, sched_getcpu, CPU_COUNT */
#endif
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

/* --- declarations --- */
typedef struct {
    int64_t lo, hi;     /* the window: domain cells lo .. hi-1 */
    double speed_bound; /* largest face speed; NaN when any is NaN */
    double u_max;       /* largest |u| of the new window, when the step passed */
} dw_status;
enum { DW_M1, DW_GAMMA };
int dw_step(int64_t n, const double *v, const double *u, int closure, double gamma,
            double alpha, double dt, double dx, double *rows, dw_status *st);
int dw_flux_and_speed(int64_t k, int closure, double gamma, const double *v,
                      const double *u, double *flux, double *speed);
void dw_pow(int64_t k, const double *v, double y, int order, double coef, double *out);
void dw_damping(double h, double *decay, double *kappa);
void dw_erf(int64_t k, const double *x, double *out);
int dw_pool_workers(void);
void dw_pool_stop(void);
int64_t dw_tridiagonal_solve(int64_t n, double *dl, double *d, double *du, double *b);
void dw_hermite(int64_t k, const double *xi, int64_t cells, const double *coef, double lo,
                double hi, double h, double below, double above, double *out);
/* --- end of declarations --- */

/* --- x86-64 --- */
#if defined(__x86_64__)
/* the generic m1 evaluators get an AVX2 clone, chosen at load time; the
   scalar operations and their order are the same in both clones, and with
   -ffp-contract=off neither fuses a multiply-add.  On a CPU with AVX-512 the
   hand-written AVX-512 pair runs instead (select_m1).  The loops of the
   package's pow get an AVX-512 clone too (POW_CLONED), and so do dw_step and
   its chunks: a clone calls another function's clone of its own
   architecture directly, so only an AVX-512 chunk reaches the AVX-512 pow.
   The two regions between the "x86-64" lines hold all that is particular to
   x86-64; without them the module is the baseline build, which
   tests/test_kernel.py compares bit for bit with the loaded one. */
#define CLONED __attribute__((target_clones("arch=x86-64-v3", "default")))
#define POW_CLONED __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONED
#define POW_CLONED
#endif
/* --- end of x86-64 --- */

/* a chunk's scratch (header): the start of region r for a chunk of m cells */
enum { V, U, FLUX, SPEED, FLUXES, N_REGIONS };
#define REGION(r, m) (buf + (r) * 2 * ((m) + 2))

/* a step's scalars, from (alpha, dt, dx) (step_scalars) */
typedef struct {
    double dt, dx;
    double half_damp;   /* e^-h, h = alpha dt / 2: the damping half-step */
    double lam;         /* dt / (2 dx): the predictor */
    double dt_dx;       /* dt / dx: the update */
    double half_kappa;  /* kappa / 2, kappa = sinh(h) / h: the central volume flux */
} scalars;

/* the neighbour pairs the window search tests at once */
#define BLOCK 64

/* the window cells of one chunk of dw_step */
#define CHUNK 256

static inline uint64_t bits(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return b;
}

static inline double from_bits(uint64_t b)
{
    double x;
    memcpy(&x, &b, sizeof x);
    return x;
}

static inline int64_t min64(int64_t a, int64_t b)
{
    return a < b ? a : b;
}

static inline int64_t max64(int64_t a, int64_t b)
{
    return a > b ? a : b;
}

/* The package's exp and pow: IEEE basic operations and explicit fused
 * multiply-adds only, each of which rounds correctly, so every clone and
 * every IEEE-754 machine computes the same bits.  Within 1 ulp of the exact
 * value, by a double-double log and an exp that rounds once at its end
 * (tests/test_elementary.py checks them against 40-digit decimal).
 * log_dd, exp_dd and power_at take a compile-time argument general: each
 * call passes a constant, so with general = 0 their special-value picks
 * and clamps compile away.  pow runs that code on an ordinary row, whose
 * bits it keeps (ordinary says why), and the general code on any other;
 * dw_damping's exp is always general. */
#define FMA __builtin_fma
/* inlined into each clone, so that every clone vectorizes them with its own
   instructions (a call would reach the baseline code and a library fma) */
#define INLINE static inline __attribute__((always_inline))
#define SHIFT 0x1.8p52 /* x + SHIFT - SHIFT rounds x to an integer */
static const double LN2_HI = 0x1.62e42fee00000p-1; /* 32 bits: k LN2_HI is exact */
static const double LN2_LO = 0x1.a39ef35793c76p-33;
static const double INV_LN2 = 0x1.71547652b82fep0;

/* a + b = s + *e exactly; fast_two_sum needs |a| >= |b| or a = 0 */
INLINE double two_sum(double a, double b, double *e)
{
    double s = a + b, bb = s - a;
    *e = (a - (s - bb)) + (b - bb);
    return s;
}

INLINE double fast_two_sum(double a, double b, double *e)
{
    double s = a + b;
    *e = b - (s - a);
    return s;
}

/* c ? a : b through bit masks: no branch for the compiler to sink work into,
   so the loops vectorize */
INLINE double pick(int64_t c, double a, double b)
{
    uint64_t mask = -(uint64_t)c;
    return from_bits((bits(a) & mask) | (bits(b) & ~mask));
}

/* 2^k for an integer k in [-1022, 1023] */
INLINE double pow2(double k)
{
    return from_bits(bits(k + (SHIFT + 1023.0)) << 52);
}

/* log v = hi + *lo to about 2^-59, for finite v > 0 (subnormals too when
 * general), and v = 2^*k_out *m_out exactly with m in [sqrt(1/2), sqrt(2)).
 * log m = 2 atanh f with
 * f = (m - 1)/(m + 1), |f| < 0.172: 2f in double-double, then 2f^3/3 and
 * f^5 R(f^2) in double.  R is a Chebyshev fit (mpmath.chebyfit, 7 terms) of
 * (2 atanh f - 2f - 2f^3/3)/f^5 on f^2 in [0, 0.0295]: 2^-64 on f^5 R. */
INLINE double log_dd(double v, double *lo, double *k_out, double *m_out, int general)
{
    int64_t tiny = general && v < 0x1p-1022;
    double w = general ? pick(tiny, v * 0x1p54, v) : v;
    uint64_t t = bits(w) - 0x3fe6a09e667f3bcdULL; /* the bits of sqrt(1/2) */
    double m = from_bits(bits(w) - (t & 0xfff0000000000000ULL));
    /* k + 2048 is the top 12 bits of t, with bit 11 flipped */
    double k = from_bits(0x4330000000000000ULL | ((t >> 52) ^ 0x800)) - (0x1p52 + 2048.0);
    if (general)
        k -= pick(tiny, 54.0, 0.0);

    double a = m - 1.0, b = m + 1.0, b_lo = m - (b - 1.0); /* all exact */
    double inv = 1.0 / b, f = a * inv;
    double f_lo = (FMA(-f, b, a) - f * b_lo) * inv;

    /* by Estrin's scheme: short dependency chains */
    double s = f * f, s2 = s * s;
    double r = FMA(s2 * s2,
                   FMA(0x1.0877e906b72d3p-3, s2, FMA(0x1.1018bb6af787ep-3, s, 0x1.3b18b888c578fp-3)),
                   FMA(FMA(0x1.745d09f1d2e07p-3, s, 0x1.c71c71d7e5cbbp-3), s2,
                       FMA(0x1.249249248e53bp-2, s, 0x1.999999999999ap-2)));
    double c = s * f, d = 0x1.5555555555555p-1 * c; /* 2f^3/3 */

    double e, x = fast_two_sum(2.0 * f, d, &e);
    /* 2 f_lo (1 + f^2): the low part of f in 2f + 2f^3/3 */
    double small = (FMA(2.0 * f_lo, s, 2.0 * f_lo) + (c * s) * r) + e;
    double hi = fast_two_sum(k * LN2_HI, x, &e);
    *lo = e + (k * LN2_LO + small);
    *k_out = k;
    *m_out = m;
    return hi;
}

/* e^(z + z_lo) = 2^*k (hi + *lo), hi + lo in [0.70, 1.42] to about
 * 2^-60 before its one rounding.  z = k ln 2 + r, |r| <= ln(2)/2:
 * e^r = 1 + r + r^2/2 in double-double, and r^3 P(r) in double, P a
 * Chebyshev fit (10 terms) of (e^r - 1 - r - r^2/2)/r^3 on |r| <= 0.3466:
 * 2^-60 on r^3 P.  When general, z is clamped to [-746, 710], where e^z
 * rounds to 0 and to inf; a NaN z stays NaN. */
INLINE double exp_dd(double z, double z_lo, double *lo, double *k, int general)
{
    if (general)
        z = pick(z > 710.0, 710.0, pick(z < -746.0, -746.0, z));
    double kd = (z * INV_LN2 + SHIFT) - SHIFT;
    /* |z_lo - kd LN2_LO| < 2^-21: when it is the larger part, |r| < 2^-20 and
       the sum's error is below 2^-70 */
    double r_lo, r = fast_two_sum(z - kd * LN2_HI, z_lo - kd * LN2_LO, &r_lo);
    double s_lo, s = fast_two_sum(1.0, r, &s_lo);
    double h = 0.5 * r, q = r * h, q_lo = FMA(r, h, -q); /* r^2/2 */
    double u_lo, u = fast_two_sum(s, q, &u_lo);
    double r2 = r * r, r4 = r2 * r2;
    double p = FMA(r4 * r4, FMA(0x1.1f66d9746ca33p-29, r, 0x1.af389f1c678b1p-26),
                   FMA(r4,
                       FMA(FMA(0x1.27e4e1f70fc4ep-22, r, 0x1.71de0db2d67a1p-19), r2,
                           FMA(0x1.a01a01a47a5ddp-16, r, 0x1.a01a01a7c2f83p-13)),
                       FMA(FMA(0x1.6c16c16c167e2p-10, r, 0x1.11111111109b5p-7), r2,
                           FMA(0x1.5555555555555p-5, r, 0x1.5555555555556p-3))));
    /* r_lo (1 + r + r^2/2) carries the low part of r */
    *lo = u_lo + (s_lo + (q_lo + FMA(r * q, 2.0 * p, FMA(r_lo, r + q, r_lo))));
    *k = kd;
    return u;
}

/* m 2^k for m in [2^-4, 2^4], through two exact scalings; a result below the
 * normal range rounds a second time, and k beyond +-1100 gives 0 or inf */
INLINE double scaled(double m, double k)
{
    k = pick(k > 1100.0, 1100.0, pick(k < -1100.0, -1100.0, k));
    double k1 = (0.5 * k + SHIFT) - SHIFT;
    return m * pow2(k1) * pow2(k - k1);
}

/* e^(y (l + l_lo)) = 2^*k (hi + *lo) before its one rounding, with
   log v = l + l_lo */
INLINE double exp_of_log(double y, double l, double l_lo, double *lo, double *k,
                         int general)
{
    double z = y * l, z_lo = FMA(y, l, -z) + y * l_lo;
    return exp_dd(z, z_lo, lo, k, general);
}

/* (hi + *lo) / m in double-double, with inv = 1/m */
INLINE double over(double hi, double *lo, double m, double inv)
{
    double q = hi * inv;
    *lo = (FMA(-q, m, hi) + *lo) * inv;
    return q;
}

/* The limits of v^y at v = +0 and v = +inf, for a finite exponent y.  The
 * package's pow is v^y for v in (0, inf); v = -0 gives the limit at +0, and
 * a negative v or a NaN gives NaN. */
typedef struct {
    double at_zero, at_inf;
} limits;

INLINE limits limits_of(double y)
{
    limits w = {y < 0.0 ? INFINITY : (y > 0.0 ? 0.0 : 1.0),
                y < 0.0 ? 0.0 : (y > 0.0 ? INFINITY : 1.0)};
    return w;
}

/* 2^k (hi + lo) rounded, or, when general, v^y's limit when v is not in
   (0, inf) */
INLINE double power_at(const limits *w, double v, double hi, double lo, double k,
                       int general)
{
    if (!general)
        return (hi + lo) * pow2(k);
    double x = scaled(hi + lo, k);
    double edge = pick(v == 0.0, w->at_zero, pick(v == INFINITY, w->at_inf, NAN));
    return pick((v > 0.0) & (v < INFINITY), x, edge);
}

/* Whether a row of k values v, raised to y, is ordinary: every v in
 * [2^-64, 2^64] and |y| <= 8.  NaN, +-0, subnormals, negatives and inf all
 * fail the compares.  An ordinary row runs log_dd, exp_dd and power_at with
 * general = 0, whose picks and clamps compile away, to the same bits:
 *  - no v is below the normal range, so log_dd's rescale (tiny) is 0;
 *  - |log v| <= 64 ln 2 and |y| <= 8, so |z| <= 512 ln 2 < 356, and neither
 *    of exp_dd's clamps (-746, 710) binds; exp_dd's k is within +-512;
 *  - log_dd's k is within +-64 and the order at most 4, so the scale
 *    exponent e - order kv lies within +-768, and the value scaled lies in
 *    [2^-4, 2^4]: the result is normal, so scaled's two exact multiplies
 *    equal one exact multiply by pow2(k), and its +-1100 clamp does not bind;
 *  - every v lies in (0, inf), so power_at's picks select x.
 * Any other row runs the general code.  One copy of the polynomials serves
 * both. */
INLINE int ordinary(int64_t k, const double *restrict v, double y)
{
    int64_t in = fabs(y) <= 8.0;
    for (int64_t i = 0; i < k; i++)
        in &= (v[i] >= 0x1p-64) & (v[i] <= 0x1p64);
    return (int)in;
}

/* out = coef v^(y - order) on k values: e^(y log v) / v^order in
 * double-double, rounded once, with v = 2^kv m divided as m^order and
 * 2^(-order kv).  So p and its derivatives (closures._PowerLaw) share one
 * routine, and p' = -gamma v^(-gamma-1) shares p's log and exp.  An order
 * above 0 needs y <= 0: e^(y log v) saturates where v^y's range ends. */
INLINE void power_loop(int64_t k, const double *restrict v, double y, int order,
                       double coef, double *restrict out, int general)
{
    limits w = limits_of(y - order);
    for (int64_t i = 0; i < k; i++) {
        double kv, m, l_lo, l = log_dd(v[i], &l_lo, &kv, &m, general);
        double e, lo, hi = exp_of_log(y, l, l_lo, &lo, &e, general);
        double inv = 1.0 / m;
        for (int o = 0; o < order; o++)
            hi = over(hi, &lo, m, inv);
        out[i] = coef * power_at(&w, v[i], hi, lo, e - order * kv, general);
    }
}

/* power_loop, without its special-value lanes when the row is ordinary */
INLINE void power_row(int64_t k, const double *restrict v, double y, int order,
                      double coef, double *restrict out)
{
    if (ordinary(k, v, y))
        power_loop(k, v, y, order, coef, out, 0);
    else
        power_loop(k, v, y, order, coef, out, 1);
}

/* What the cells and faces of a chunk tell the step's flag and status.
 * Each field folds by an or, an and or a maximum, so partial statuses fold
 * (fold) to the same status (finish) in any order. */
typedef struct {
    int64_t thin;           /* a face's reconstructed v is <= 0 */
    int64_t hyperbolic;     /* every discriminant is >= 0 */
    int64_t speed_nan;      /* a face speed is NaN */
    int64_t speed_top;      /* the largest face speed's bits as a signed integer */
    int64_t first_face;     /* the first face seen, and its speed */
    double first_speed;
    int64_t u_max;          /* the largest |u|'s bits */
    int64_t bad;            /* a new cell is not finite with v > 0 */
} partial;

static const partial NONE = {.hyperbolic = 1, .speed_top = INT64_MIN, .first_face = INT64_MAX};

static inline void fold(partial *acc, const partial *p)
{
    acc->thin |= p->thin;
    acc->hyperbolic &= p->hyperbolic;
    acc->speed_nan |= p->speed_nan;
    acc->speed_top = max64(acc->speed_top, p->speed_top);
    if (p->first_face < acc->first_face) {
        acc->first_face = p->first_face;
        acc->first_speed = p->first_speed;
    }
    acc->u_max = max64(acc->u_max, p->u_max);
    acc->bad |= p->bad;
}

/* The largest face speed is the largest as a scan with ``a > max`` from -inf
 * finds it, or NaN when any is NaN.  The speeds lie in {-0} u [+0, inf], so
 * a positive largest speed has the largest bit pattern as a signed integer;
 * when every speed is a zero, the scan keeps the first.  u_max is read only
 * when every cell passes the state checks.  Returns 1 when every check of
 * the step passes: no face v <= 0, every face hyperbolic, a Courant number
 * dt speed_bound / dx not above 1 (a NaN one passes, as in the Python
 * check), and every new cell finite with v > 0; else 0.  The NumPy
 * formulation's reconstruction check lets a face row with a NaN v pass, but
 * a NaN v gives its face a NaN discriminant, so the flag is the same. */
static int finish(const partial *p, const scalars *sc, dw_status *st)
{
    st->speed_bound = p->speed_nan ? NAN
                      : p->speed_top > 0 ? from_bits((uint64_t)p->speed_top)
                                         : p->first_speed;
    st->u_max = from_bits((uint64_t)p->u_max);
    double courant = sc->dt * st->speed_bound / sc->dx;
    return !p->thin && p->hyperbolic && !(courant > 1.0) && !p->bad;
}

/* nonzero when any of the k pairs i, i + 1 from i = first of the extended
 * rows (v, u half_damp) differ in bits */
static inline uint64_t differ(const double *v, const double *u, double half_damp,
                              int64_t first, int64_t k)
{
    uint64_t acc = 0;
    for (int64_t i = first; i < first + k; i++)
        acc |= (bits(v[i]) ^ bits(v[i + 1]))
             | (bits(u[i] * half_damp) ^ bits(u[i + 1] * half_damp));
    return acc;
}

/* The window is every cell whose 5-cell stencil holds two different bit
 * patterns, plus one uniform cell at each end; a bitwise uniform state takes
 * the one-cell window 0 .. 1.  The search skips BLOCK uniform pairs at a
 * time from each end, then goes pair by pair.  When the blocks from the left
 * run out (at most BLOCK pairs are left), those pairs are tested at once,
 * so a uniform state is one pass; a differing block stops the skip with no
 * such test, which would read the whole interior for nothing. */
static inline void window(int64_t n, const double *v, const double *u, double half_damp,
                          dw_status *st)
{
    int64_t first = 0, last = n - 2;
    while (first + BLOCK <= last && !differ(v, u, half_damp, first, BLOCK))
        first += BLOCK;
    if (first <= last && last - first < BLOCK
        && !differ(v, u, half_damp, first, last - first + 1))
        first = last + 1;
    while (first <= last && !differ(v, u, half_damp, first, 1))
        first++;
    while (last - BLOCK >= first && !differ(v, u, half_damp, last - BLOCK + 1, BLOCK))
        last -= BLOCK;
    while (last > first && !differ(v, u, half_damp, last, 1))
        last--;
    st->lo = 0;
    st->hi = 1;
    if (first <= last) {
        st->lo = first > 2 ? first - 2 : 0;
        st->hi = last + 4 < n ? last + 4 : n;
    }
}

/* the edge values of cells 1 .. k of the extended row w, from Fromm's
   unlimited central slope (w[i + 2] - w[i]) / 2.  A quarter of the
   difference rounds as the NumPy formulation's two halvings do, also below
   the normal range, so it is their bits. */
static inline void edge_values(int64_t k, const double *restrict w,
                               double *restrict at_l, double *restrict at_r)
{
    for (int64_t i = 0; i < k; i++) {
        double half_slope = 0.25 * (w[i + 2] - w[i]);
        at_l[i] = w[i + 1] - half_slope;
        at_r[i] = w[i + 1] + half_slope;
    }
}

/* The extended rows (v, u half_damp) of the m cells from domain cell lo,
 * two more a side clamped to the domain (the ghost cells copy the edge
 * cells), into FLUX and SPEED, and their edge values into V and U. */
static inline void edges(int64_t n, const double *v, const double *u, double half_damp,
                         int64_t lo, int64_t m, double *buf)
{
    int64_t s = m + 2;
    /* extended cell e is domain cell lo + e - 2 */
    const int64_t ends[4] = {0, 1, m + 2, m + 3};
    for (int r = 0; r < 2; r++) {
        double *w = REGION(FLUX + r, m);
        const double *row = r ? u : v;
        double scale = r ? half_damp : 1.0;
        for (int j = 0; j < 4; j++) {
            int64_t i = lo + ends[j] - 2;
            i = i < 0 ? 0 : (i >= n ? n - 1 : i);
            w[ends[j]] = r ? row[i] * scale : row[i];
        }
        if (r)
            for (int64_t i = 0; i < m; i++)
                w[i + 2] = row[lo + i] * scale;
        else
            memcpy(w + 2, row + lo, m * sizeof *w);
        double *edge = REGION(V + r, m);
        edge_values(s, w, edge, edge + s);
    }
}

/* k edge values evolved by half a step, lam = dt/(2 dx); the volume flux is -u */
static inline void predictor(int64_t k, double lam, double *restrict vl,
                             double *restrict ul, double *restrict vr,
                             double *restrict ur, const double *restrict mf_l,
                             const double *restrict mf_r)
{
    for (int64_t i = 0; i < k; i++) {
        double pv = (ur[i] - ul[i]) * lam;
        double pu = (mf_l[i] - mf_r[i]) * lam;
        vl[i] += pv;
        vr[i] += pv;
        ul[i] += pu;
        ur[i] += pu;
    }
}

/* The predictor on the m + 2 edge values of m cells in buf, whose momentum
 * flux is in mf, and the reconstruction check of their m + 1 faces. */
static inline void predict(int64_t m, double lam, const double *mf, double *buf,
                           partial *acc)
{
    int64_t s = m + 2;
    double *vl = REGION(V, m), *vr = vl + s, *ul = REGION(U, m), *ur = ul + s;
    predictor(s, lam, vl, ul, vr, ur, mf, mf + s);
    int64_t thin = 0;
    for (int64_t k = 0; k < m + 1; k++)
        thin |= (vr[k] <= 0.0) | (vl[k + 1] <= 0.0);
    acc->thin |= thin;
}

/* The speed (|b| + sqrt(b^2 - 4c))/2 = max |lam| bit for bit, b = g' f and
 * c = p' - g f', and the momentum flux p - g f of one state: the face
 * combine of closures.face_combine.  0 when the discriminant is not >= 0
 * (NaN included). */
static inline int64_t combine(double p, double dp, double g, double dg, double f,
                              double df, double *flux, double *speed)
{
    double b = dg * f;
    double disc = b * b - 4.0 * (dp - g * df);
    *speed = 0.5 * (fabs(b) + sqrt(disc));
    *flux = p - g * f;
    return disc >= 0.0;
}

/* the local Lax-Friedrichs flux on k faces, whose central volume
 * part carries half_kappa = kappa / 2, with the face speed
 * np.maximum(a_l, a_r): NaN propagates, and of two equal values the second
 * is kept.  The face speed replaces a_l. */
static inline void face_fluxes(int64_t k, double half_kappa,
                               const double *restrict vL, const double *restrict uL,
                               const double *restrict vR, const double *restrict uR,
                               const double *restrict fu_l, double *restrict a_l,
                               const double *restrict fu_r, const double *restrict a_r,
                               double *restrict flux_v, double *restrict flux_u)
{
    for (int64_t i = 0; i < k; i++) {
        double a = (a_l[i] > a_r[i]) | (a_l[i] != a_l[i]) ? a_l[i] : a_r[i];
        a_l[i] = a;
        flux_v[i] = half_kappa * (-uL[i] - uR[i]) - (0.5 * a) * (vR[i] - vL[i]);
        flux_u[i] = 0.5 * (fu_l[i] + fu_r[i]) - (0.5 * a) * (uR[i] - uL[i]);
    }
}

/* cells j < k: the flux difference by dt_dx = dt/dx, then the second damping
 * half-step on u */
static inline void cell_update(int64_t k, double half_damp, double dt_dx,
                               const double *restrict v, const double *restrict u,
                               const double *restrict flux_v, const double *restrict flux_u,
                               double *restrict v_new, double *restrict u_new)
{
    for (int64_t j = 0; j < k; j++) {
        v_new[j] = v[j] - dt_dx * (flux_v[j + 1] - flux_v[j]);
        u_new[j] = (u[j] * half_damp - dt_dx * (flux_u[j + 1] - flux_u[j])) * half_damp;
    }
}

/* One step's inputs and output: the domain's n cells and the window
 * lo .. lo + m - 1. */
typedef struct {
    int64_t n, lo, m;
    const double *v, *u;
    scalars sc;
    int closure;      /* DW_M1 or DW_GAMMA */
    double neg_gamma; /* -gamma of DW_GAMMA */
    double *rows;     /* the successor's (v, u) */
} job;

/* The faces of the m cells in buf from window cell first, from the face
 * combine in FLUX and SPEED; the update of those cells into rows; the state
 * checks; and the far field next to the window's first or last cell, filled
 * with its value.  NaN face speeds give a NaN speed bound. */
static inline void update(const job *j, int64_t first, int64_t m, double *buf,
                          partial *acc)
{
    int64_t s = m + 2;
    const double *vr = REGION(V, m) + s, *ur = REGION(U, m) + s;
    const double *vl = REGION(V, m) + 1, *ul = REGION(U, m) + 1;
    double *fu = REGION(FLUX, m), *a = REGION(SPEED, m);
    double *flux_v = REGION(FLUXES, m), *flux_u = flux_v + s;
    /* right states first, then left states (header) */
    face_fluxes(m + 1, j->sc.half_kappa, vr, ur, vl, ul, fu + m + 1, a + m + 1, fu, a,
                flux_v, flux_u);
    const double *speed = a + m + 1;
    int64_t nan = 0, top = INT64_MIN;
    for (int64_t k = 0; k < m + 1; k++) {
        nan |= (int64_t)(speed[k] != speed[k]);
        top = (int64_t)bits(speed[k]) > top ? (int64_t)bits(speed[k]) : top;
    }
    acc->speed_nan |= nan;
    acc->speed_top = max64(acc->speed_top, top);
    if (first < acc->first_face) {
        acc->first_face = first;
        acc->first_speed = speed[0];
    }

    int64_t lo = j->lo + first, n = j->n;
    double *v_new = j->rows, *u_new = j->rows + n;
    cell_update(m, j->sc.half_damp, j->sc.dt_dx, j->v + lo, j->u + lo, flux_v, flux_u,
                v_new + lo, u_new + lo);
    /* |u| has no sign bit, so of two finite |u| the larger has the larger
       bit pattern */
    int64_t bad = 0, u_max = 0;
    for (int64_t i = lo; i < lo + m; i++) {
        double vn = v_new[i], un = fabs(u_new[i]);
        bad |= (int64_t)!((vn > 0.0) & (vn < INFINITY) & (un < INFINITY));
        u_max = (int64_t)bits(un) > u_max ? (int64_t)bits(un) : u_max;
    }
    acc->u_max = max64(acc->u_max, u_max);
    acc->bad |= bad;

    if (first == 0)
        for (int64_t i = 0; i < lo; i++) {
            v_new[i] = v_new[lo];
            u_new[i] = u_new[lo];
        }
    if (first + m == j->m)
        for (int64_t i = lo + m; i < n; i++) {
            v_new[i] = v_new[lo + m - 1];
            u_new[i] = u_new[lo + m - 1];
        }
}

/* The built-in M1 closure: p = 1/(3v), p' = -1/(3v^2), f = 1/v, f' = -1/v^2,
 * g = u^2 s/(2 + s) and g' = 2u s/(2 + s) - 6u^3/(s (2 + s)^2), with
 * s = sqrt(4 - 3u^2).  A face state takes seven divisions and two square
 * roots (s and the discriminant's), an edge value three and one; the AVX-512
 * pair below keeps their bits with fewer. */
static inline double m1_s(double u)
{
    return sqrt(4.0 - 3.0 * (u * u));
}

static inline double m1_g(double u, double s)
{
    return u * u * s / (2.0 + s);
}

/* the momentum flux p(v) - g(u) f(v) of k states */
CLONED static void m1_flux(int64_t k, const double *restrict v, const double *restrict u,
                           double *restrict out)
{
    for (int64_t i = 0; i < k; i++)
        out[i] = 1.0 / (3.0 * v[i]) - m1_g(u[i], m1_s(u[i])) * (1.0 / v[i]);
}

/* the face combine of k states with the M1 closure's values.  Returns 0 when
 * a discriminant is not >= 0 (NaN included), else 1. */
CLONED static int m1_flux_and_speed(int64_t k, const double *restrict v,
                                    const double *restrict u, double *restrict flux,
                                    double *restrict speed)
{
    int64_t ok = 1;
    for (int64_t i = 0; i < k; i++) {
        double x = v[i], y = u[i], y2 = y * y;
        double s = m1_s(y), t = 2.0 + s;
        double dg = 2.0 * y * s / t - 6.0 * (y2 * y) / (s * (t * t));
        ok &= combine(1.0 / (3.0 * x), -1.0 / (3.0 * (x * x)), m1_g(y, s), dg,
                      1.0 / x, -1.0 / (x * x), &flux[i], &speed[i]);
    }
    return ok;
}

/* The m1 evaluator pair that chunk and dw_flux_and_speed call: the generic
 * pair above, or on a CPU with x86-64-v4 the AVX-512 pair below, chosen once
 * when the module loads (select_m1).  Both give the same bits, and so the
 * same steps. */
static struct {
    void (*flux)(int64_t, const double *restrict, const double *restrict, double *restrict);
    int (*combine)(int64_t, const double *restrict, const double *restrict,
                   double *restrict, double *restrict);
} m1 = {m1_flux, m1_flux_and_speed};

/* --- x86-64 --- */
#if defined(__x86_64__)
#include <immintrin.h>

/* The AVX-512 m1 evaluators, 8 states a vector, with the generic pair's bits
 * on every state.  (Where two different NaNs meet, which one a lane keeps is
 * the operand order its compiler picks, here as in the generic pair and in
 * NumPy; a NaN state fails the step whichever it is.)  They move work from
 * the divider to the FMA units:
 *  - p, p', f and f', +-1/b with b = 3v, 3v^2, v and v^2, are each RN(+-1/b),
 *    the divider's result, from fused multiply-adds (recip);
 *  - in a vector where every state has 4 - 3u^2 rounded to 4, s = 2 and
 *    t = 2 + s = 4, and a product by 0.25 or 0.03125 rounds the same exact
 *    value as the generic division by t or by s t^2 = 32 (u_side);
 *  - every other operation is the generic code's, in its order, one
 *    multiply, add, subtract, divide or square root each (the module is built
 *    with -ffp-contract=off, so none fuses).
 * The unused lanes of a vector past the end load v = 1 and u = 0, which take
 * neither the divider nor the general u path, and are not stored. */
#define WIDE __attribute__((target("arch=x86-64-v4")))
#define MUL _mm512_mul_pd
#define ADD _mm512_add_pd
#define SUB _mm512_sub_pd
#define DIV _mm512_div_pd
#define SET _mm512_set1_pd

/* RN(c/b) on 8 lanes, for c = 1 or -1.  rcp14 is within 2^-14 of 1/b; each
 * step e = 1 - b y, y = y + y e is two FMAs.  Two Newton steps bring y within
 * one ulp of 1/b, and a third, Markstein's, rounds it correctly unless b's
 * significand is all ones (Markstein, IBM J. Res. Dev. 34, 1990; Muller et
 * al., Handbook of Floating-Point Arithmetic, 2nd ed., 2018).  -1/b is that
 * with its sign bit flipped, as rounding to nearest is symmetric (0 - y
 * would turn -0 into +0).  Lanes with an all-ones b, or a b outside
 * [2^-1000, 2^1000), where 1/b or the steps leave the normal range (zeros,
 * subnormals, negatives, infinities and NaN included), take the divider's
 * c/b, which also keeps a NaN's sign. */
WIDE static inline __m512d recip(double c, __m512d b)
{
    const __m512d one = SET(1.0);
    __m512d y = _mm512_rcp14_pd(b);
    for (int i = 0; i < 3; i++) {
        __m512d e = _mm512_fnmadd_pd(b, y, one);
        y = _mm512_fmadd_pd(y, e, y);
    }
    if (c < 0.0)
        y = _mm512_xor_pd(y, SET(-0.0));
    const __m512i frac = _mm512_set1_epi64(0xfffffffffffffLL);
    __mmask8 odd = _mm512_cmp_pd_mask(b, SET(0x1p-1000), _CMP_NGE_UQ)
                 | _mm512_cmp_pd_mask(b, SET(0x1p1000), _CMP_NLT_UQ)
                 | _mm512_cmpeq_epi64_mask(_mm512_and_si512(_mm512_castpd_si512(b), frac), frac);
    return odd ? _mm512_mask_div_pd(y, odd, SET(c), b) : y;
}

/* g of 8 states u, and g' in *dg unless dg is NULL, in m1_g's and
 * m1_flux_and_speed's operations: with s = 2 and t = 4, and no square root or
 * division, when every lane's RN(4 - RN(3 RN(u u))) is 4 */
WIDE static inline __m512d u_side(__m512d y, __m512d *dg)
{
    const __m512d two = SET(2.0), four = SET(4.0);
    __m512d y2 = MUL(y, y), w = SUB(four, MUL(SET(3.0), y2));
    if (_mm512_cmp_pd_mask(w, four, _CMP_EQ_OQ) == 0xff) {
        if (dg)
            *dg = SUB(MUL(MUL(MUL(two, y), two), SET(0.25)),
                      MUL(MUL(SET(6.0), MUL(y2, y)), SET(0.03125)));
        return MUL(MUL(y2, two), SET(0.25));
    }
    __m512d s = _mm512_sqrt_pd(w), t = ADD(two, s);
    if (dg)
        *dg = SUB(DIV(MUL(MUL(two, y), s), t), DIV(MUL(SET(6.0), MUL(y2, y)), MUL(s, MUL(t, t))));
    return DIV(MUL(y2, s), t);
}

/* the lanes of the vector from i of k states that lie before k */
static inline __mmask8 active(int64_t k, int64_t i)
{
    return k - i >= 8 ? 0xff : (__mmask8)((1u << (k - i)) - 1);
}

/* m1_flux's bits, 8 states at a time */
WIDE static void m1_flux_wide(int64_t k, const double *restrict v, const double *restrict u,
                              double *restrict out)
{
    for (int64_t i = 0; i < k; i += 8) {
        __mmask8 in = active(k, i);
        __m512d x = _mm512_mask_loadu_pd(SET(1.0), in, v + i);
        __m512d g = u_side(_mm512_mask_loadu_pd(SET(0.0), in, u + i), NULL);
        __m512d p = recip(1.0, MUL(SET(3.0), x)), f = recip(1.0, x);
        _mm512_mask_storeu_pd(out + i, in, SUB(p, MUL(g, f)));
    }
}

/* m1_flux_and_speed's bits and flag, 8 states at a time, with combine's
 * operations in its order */
WIDE static int m1_flux_and_speed_wide(int64_t k, const double *restrict v,
                                       const double *restrict u, double *restrict flux,
                                       double *restrict speed)
{
    int ok = 1;
    for (int64_t i = 0; i < k; i += 8) {
        __mmask8 in = active(k, i);
        __m512d x = _mm512_mask_loadu_pd(SET(1.0), in, v + i), x2 = MUL(x, x);
        __m512d dg, g = u_side(_mm512_mask_loadu_pd(SET(0.0), in, u + i), &dg);
        __m512d p = recip(1.0, MUL(SET(3.0), x)), dp = recip(-1.0, MUL(SET(3.0), x2));
        __m512d f = recip(1.0, x), df = recip(-1.0, x2);
        __m512d b = MUL(dg, f);
        __m512d disc = SUB(MUL(b, b), MUL(SET(4.0), SUB(dp, MUL(g, df))));
        _mm512_mask_storeu_pd(speed + i, in,
                              MUL(SET(0.5), ADD(_mm512_abs_pd(b), _mm512_sqrt_pd(disc))));
        _mm512_mask_storeu_pd(flux + i, in, SUB(p, MUL(g, f)));
        ok &= (_mm512_cmp_pd_mask(disc, SET(0.0), _CMP_GE_OQ) & in) == in;
    }
    return ok;
}

/* the AVX-512 pair on a CPU with x86-64-v4's AVX-512 F, BW, CD, DQ and VL,
   whose registers the OS saves (each test checks both) */
__attribute__((constructor)) static void select_m1(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")
        && __builtin_cpu_supports("avx512cd") && __builtin_cpu_supports("avx512dq")
        && __builtin_cpu_supports("avx512vl")) {
        m1.flux = m1_flux_wide;
        m1.combine = m1_flux_and_speed_wide;
    }
}
#endif
/* --- end of x86-64 --- */

/* out = coef v^(y - order) on k values, with the package's pow (power_row);
 * order is 0 .. 4, each inlined with its own constant, in an ordinary and a
 * general loop */
POW_CLONED void dw_pow(int64_t k, const double *restrict v, double y, int order,
                       double coef, double *restrict out)
{
    switch (order) {
    case 0: power_row(k, v, y, 0, coef, out); break;
    case 1: power_row(k, v, y, 1, coef, out); break;
    case 2: power_row(k, v, y, 2, coef, out); break;
    case 3: power_row(k, v, y, 3, coef, out); break;
    default: power_row(k, v, y, 4, coef, out); break;
    }
}

/* The step's damping factor e^-h and its mean over the step,
 * kappa = sinh(h)/h, for h = alpha dt/2: e^-h is the package's exp, for any
 * h.  Below 0.5 kappa is its Taylor series in h^2 (no cancellation); above,
 * (e^h - e^-h)/(2h) in double-double.  kappa overflows to inf above
 * h = 709.7. */
void dw_damping(double h, double *decay, double *kappa)
{
    double e, lo, hi = exp_dd(-h, 0.0, &lo, &e, 1);
    *decay = scaled(hi + lo, e);
    double a = fabs(h), a2 = a * a;
    if (a < 0.5) {
        double p = 0x1.ae7f3e733b81fp-41; /* 1/15! .. 1/3! */
        p = FMA(p, a2, 0x1.6124613a86d09p-33);
        p = FMA(p, a2, 0x1.ae64567f544e4p-26);
        p = FMA(p, a2, 0x1.71de3a556c734p-19);
        p = FMA(p, a2, 0x1.a01a01a01a01ap-13);
        p = FMA(p, a2, 0x1.1111111111111p-7);
        p = FMA(p, a2, 0x1.5555555555555p-3);
        *kappa = 1.0 + a2 * p;
        return;
    }
    hi = exp_dd(a, 0.0, &lo, &e, 1);
    hi = fast_two_sum(hi, lo, &lo);
    double big = scaled(hi, e), big_lo = scaled(lo, e);     /* e^a */
    double inv = 1.0 / big;                                  /* e^-a */
    double inv_lo = (FMA(-inv, big, 1.0) - inv * big_lo) * inv;
    double d_lo, d = two_sum(big, -inv, &d_lo);
    d_lo += big_lo - inv_lo;                                 /* 2 sinh a */
    double q = d / (2.0 * a);
    *kappa = q + (FMA(-q, 2.0 * a, d) + d_lo) / (2.0 * a);
}

/* The scalars of a step of dt on cells of width dx, damping alpha, in the
 * IEEE operations of the NumPy formulation: h = 0.5 alpha dt, then e^-h and
 * kappa from dw_damping, lam = 0.5 dt / dx, dt / dx and 0.5 kappa. */
static void step_scalars(double alpha, double dt, double dx, scalars *sc)
{
    double kappa;
    dw_damping(0.5 * alpha * dt, &sc->half_damp, &kappa);
    sc->dt = dt;
    sc->dx = dx;
    sc->lam = 0.5 * dt / dx;
    sc->dt_dx = dt / dx;
    sc->half_kappa = 0.5 * kappa;
}

/* out = erf(x) on k values: the C library's erf, which Python's math.erf calls */
void dw_erf(int64_t k, const double *x, double *out)
{
    for (int64_t i = 0; i < k; i++)
        out[i] = erf(x[i]);
}

/* The built-in gamma law: p = v^-gamma and p' = -gamma v^(-gamma-1), the
 * closure's callables (closures._PowerLaw of orders 0 and 1) to the bit.
 * With g = 0 and f = 1 the momentum flux is p, the speed sqrt(-p'), which is
 * combine's 0.5 (0 + sqrt(0 - 4 (p' - 0))) exactly, and hyperbolicity
 * p' <= 0.  p and p' of a face state share one log and one exp (power_row),
 * and an ordinary row (ordinary) runs without the special-value lanes. */
INLINE int gamma_loop(int64_t k, double neg_gamma, const double *restrict v,
                      double *restrict flux, double *restrict speed, int general)
{
    limits w0 = limits_of(neg_gamma), w1 = limits_of(neg_gamma - 1.0);
    int64_t ok = 1;
    for (int64_t i = 0; i < k; i++) {
        double kv, m, l_lo, l = log_dd(v[i], &l_lo, &kv, &m, general);
        double e, lo, hi = exp_of_log(neg_gamma, l, l_lo, &lo, &e, general);
        double lo1 = lo, hi1 = over(hi, &lo1, m, 1.0 / m);
        double dp = neg_gamma * power_at(&w1, v[i], hi1, lo1, e - kv, general);
        ok &= (int64_t)(dp <= 0.0);
        speed[i] = sqrt(-dp);
        flux[i] = power_at(&w0, v[i], hi, lo, e, general); /* coef 1 */
    }
    return ok;
}

POW_CLONED static int gamma_flux_and_speed(int64_t k, double neg_gamma,
                                           const double *restrict v, double *restrict flux,
                                           double *restrict speed)
{
    return ordinary(k, v, neg_gamma) ? gamma_loop(k, neg_gamma, v, flux, speed, 0)
                                     : gamma_loop(k, neg_gamma, v, flux, speed, 1);
}

/* Chunk c of the step j, its window cells from c * CHUNK on, through
 * every stage of the step in the scratch buf (header), with the evaluators
 * of the job's closure. */
POW_CLONED static void chunk(const job *j, int64_t c, double *buf, partial *acc)
{
    int64_t first = c * CHUNK, m = min64(CHUNK, j->m - first), s = m + 2;
    edges(j->n, j->v, j->u, j->sc.half_damp, j->lo + first, m, buf);
    double *v = REGION(V, m), *u = REGION(U, m), *mf = REGION(FLUX, m);
    if (j->closure == DW_GAMMA)
        dw_pow(2 * s, v, j->neg_gamma, 0, 1.0, mf);
    else
        m1.flux(2 * s, v, u, mf);
    predict(m, j->sc.lam, mf, buf, acc);
    acc->hyperbolic &= j->closure == DW_GAMMA
        ? gamma_flux_and_speed(2 * (m + 1), j->neg_gamma, v + 1, REGION(FLUX, m),
                               REGION(SPEED, m))
        : m1.combine(2 * (m + 1), v + 1, u + 1, REGION(FLUX, m), REGION(SPEED, m));
    update(j, first, m, buf, acc);
}

/* The flux and speed of k states with a built-in closure, DW_M1, or DW_GAMMA
 * with exponent gamma, by the chunks' own evaluators: the face combine's
 * bits.  Returns 0 unless all are hyperbolic. */
POW_CLONED int dw_flux_and_speed(int64_t k, int closure, double gamma, const double *v,
                                 const double *u, double *flux, double *speed)
{
    return closure == DW_GAMMA ? gamma_flux_and_speed(k, -gamma, v, flux, speed)
                               : m1.combine(k, v, u, flux, speed);
}

/* The chunk pool: one helper thread, started on the first step with more
 * than one chunk when the affinity mask (sched_getaffinity, else the online
 * CPUs) holds a second CPU.  Only a second CPU has been timed, so a larger
 * mask gets one helper too.  One step at a time holds the pool (busy); a
 * step that finds it held runs all its chunks on its own thread.
 *
 * The holder publishes its job, then the claim word: the left cursor (the
 * next chunk from the left, 0) in the high half and the right one (one past
 * the next chunk from the right, the chunk count) in the low half.  A window
 * of up to 2^32 - 1 chunks fits: 2^40 cells, whose rows alone would take
 * 16 TiB.  The holder claims chunks from the left end and the helper from the
 * right end, each by compare-and-swap on the word, until the cursors meet; a
 * met word is idle.  So each thread reads back, next step, mostly the rows
 * it wrote itself, and each far field is filled by one thread.  The helper
 * copies the job after each claim that succeeds, never from an earlier one:
 * the holder publishes no new job while a claimed chunk is outstanding, so a
 * helper descheduled across any number of steps runs the chunk it claimed
 * with that chunk's job.  It folds its chunks into acc and counts them in
 * done; the holder waits for the chunks it did not run, then folds acc.
 * claim, done, the job and acc each have a cache line of their own, so the
 * holder's claims do not evict the job the helper reads, nor the helper's
 * folds the holder's word.
 *
 * The idle helper spins for SPIN_NS, then sleeps on wake; it sleeps at once
 * when it runs on the CPU the holder published from, where its spin would
 * take the holder's own time.  dw_pool_stop ends the helper, and a forked
 * child starts with a fresh pool. */
#define SPIN_NS 50000
#define CURSOR 0xffffffffu /* the right cursor's bits in claim */
#define LEFT ((uint64_t)1 << 32)
#define SCRATCH (N_REGIONS * 2 * (CHUNK + 2))

static struct {
    _Alignas(64) _Atomic uint64_t claim; /* left cursor << 32 | right cursor */
    _Alignas(64) _Atomic int64_t done;   /* chunks the helper finished in the step */
    _Alignas(64) job job;
    atomic_int cpu;                      /* the CPU the holder published from */
    _Alignas(64) partial acc;            /* the helper's chunks of the step */
    _Alignas(64) pthread_mutex_t lock;
    pthread_cond_t wake;
    atomic_int busy;
    atomic_int stop;
    atomic_int sleeping;                 /* the helper waits on wake */
    int workers;                         /* 1 with the helper, 0 without, -1 until the pool starts */
    pthread_t thread;
    double *scratch;
} pool = {
    .lock = PTHREAD_MUTEX_INITIALIZER, .wake = PTHREAD_COND_INITIALIZER, .workers = -1,
};

static inline void relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

static int64_t now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

/* the next chunk from the right end, or from the left, or -1 once the
   cursors have met */
static int64_t claim(int from_right)
{
    uint64_t c = atomic_load(&pool.claim);
    while ((c >> 32) < (c & CURSOR))
        if (atomic_compare_exchange_weak(&pool.claim, &c, from_right ? c - 1 : c + LEFT))
            return from_right ? (int64_t)(c & CURSOR) - 1 : (int64_t)(c >> 32);
    return -1;
}

/* whether a published step has chunks left, or the pool stops */
static inline int ready(void)
{
    uint64_t c = atomic_load(&pool.claim);
    return (c >> 32) < (c & CURSOR) || atomic_load(&pool.stop);
}

/* Waits for chunks to claim; 0 once the pool stops. */
static int await(void)
{
    int64_t t0 = now_ns();
    int cpu = sched_getcpu();
    int shared = cpu >= 0 && cpu == atomic_load_explicit(&pool.cpu, memory_order_relaxed);
    for (int i = 1; !ready(); i++) {
        if (shared || (i % 64 == 0 && now_ns() - t0 > SPIN_NS)) {
            pthread_mutex_lock(&pool.lock);
            atomic_store(&pool.sleeping, 1);
            while (!ready())
                pthread_cond_wait(&pool.wake, &pool.lock);
            atomic_store(&pool.sleeping, 0);
            pthread_mutex_unlock(&pool.lock);
            break;
        }
        relax();
    }
    return !atomic_load(&pool.stop);
}

static void *helper(void *arg)
{
    (void)arg;
    while (await())
        for (int64_t c; (c = claim(1)) >= 0;) {
            job j = pool.job;
            chunk(&j, c, pool.scratch, &pool.acc);
            atomic_fetch_add_explicit(&pool.done, 1, memory_order_release);
        }
    return NULL;
}

static void wake(void)
{
    pthread_mutex_lock(&pool.lock);
    pthread_cond_signal(&pool.wake);
    pthread_mutex_unlock(&pool.lock);
}

/* in a forked child, whose helper did not survive the fork: a pool that
   starts afresh, reusing the scratch, with an idle claim word */
static void reset(void)
{
    pthread_mutex_init(&pool.lock, NULL);
    pthread_cond_init(&pool.wake, NULL);
    atomic_store(&pool.claim, 0);
    atomic_store(&pool.busy, 0);
    atomic_store(&pool.stop, 0);
    atomic_store(&pool.sleeping, 0);
    pool.workers = -1;
}

static int cpus(void)
{
#ifdef CPU_COUNT
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
#endif
    long k = sysconf(_SC_NPROCESSORS_ONLN);
    return k > 0 ? (int)k : 1;
}

/* the helper, with every signal blocked, so signals go to the caller */
static void start(void)
{
    static int fork_handler;
    if (!fork_handler)
        fork_handler = !pthread_atfork(NULL, NULL, reset);
    pool.workers = 0;
    if (cpus() < 2)
        return;
    if (!pool.scratch)
        pool.scratch = malloc(SCRATCH * sizeof(double));
    if (!pool.scratch)
        return;
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    pool.workers = !pthread_create(&pool.thread, NULL, helper, NULL);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
}

/* Runs the chunks of j on this thread from the left and the helper from
 * the right, folded into acc; 0 when another step holds the pool or it has
 * no helper. */
static int pooled(const job *j, int64_t chunks, double *buf, partial *acc)
{
    if (atomic_exchange(&pool.busy, 1))
        return 0;
    if (pool.workers < 0)
        start();
    if (!pool.workers) {
        atomic_store(&pool.busy, 0);
        return 0;
    }
    pool.job = *j;
    pool.acc = NONE;
    atomic_store_explicit(&pool.cpu, sched_getcpu(), memory_order_relaxed);
    atomic_store_explicit(&pool.done, 0, memory_order_relaxed);
    atomic_store(&pool.claim, (uint64_t)chunks);
    if (atomic_load(&pool.sleeping))
        wake();
    int64_t own = 0;
    for (int64_t c; (c = claim(0)) >= 0; own++)
        chunk(j, c, buf, acc);
    int64_t t0 = now_ns();
    while (own + atomic_load_explicit(&pool.done, memory_order_acquire) < chunks) {
        if (now_ns() - t0 < SPIN_NS)
            relax();
        else
            sched_yield();
    }
    fold(acc, &pool.acc);
    atomic_store(&pool.busy, 0);
    return 1;
}

/* the helpers running (0 or 1), -1 before the pool starts */
int dw_pool_workers(void)
{
    return pool.workers;
}

/* Ends and joins the helper; later steps run on their caller's thread.
 * The Python calls it at exit. */
void dw_pool_stop(void)
{
    while (atomic_exchange(&pool.busy, 1))
        sched_yield();
    atomic_store(&pool.stop, 1);
    wake();
    if (pool.workers > 0)
        pthread_join(pool.thread, NULL);
    free(pool.scratch);
    pool.scratch = NULL;
    pool.workers = 0;
    atomic_store(&pool.busy, 0);
}

/* The whole step of dt on cells of width dx with a built-in closure, DW_M1,
 * or DW_GAMMA with exponent gamma, and damping alpha: the scalars
 * (step_scalars), the window, then its chunks (header) on a scratch of one
 * chunk allocated here.  Returns finish's flag, or -1 when the scratch
 * cannot be allocated. */
POW_CLONED int dw_step(int64_t n, const double *v, const double *u, int closure,
                       double gamma, double alpha, double dt, double dx, double *rows,
                       dw_status *st)
{
    job j = {.n = n, .v = v, .u = u, .closure = closure, .neg_gamma = -gamma,
             .rows = rows};
    step_scalars(alpha, dt, dx, &j.sc);
    window(n, v, u, j.sc.half_damp, st);
    j.lo = st->lo;
    j.m = st->hi - st->lo;
    double *scratch = malloc(N_REGIONS * 2 * (min64(j.m, CHUNK) + 2) * sizeof *scratch);
    if (!scratch)
        return -1;
    int64_t chunks = (j.m + CHUNK - 1) / CHUNK;
    partial acc = NONE;
    if (chunks == 1 || !pooled(&j, chunks, scratch, &acc))
        for (int64_t c = 0; c < chunks; c++)
            chunk(&j, c, scratch, &acc);
    free(scratch);
    return finish(&acc, &j.sc, st);
}

/* Solves the tridiagonal system with subdiagonal dl[0 .. n-1), diagonal
 * d[0 .. n) and superdiagonal du[0 .. n-1) for the right-hand side b, by
 * Gaussian elimination with partial pivoting: LAPACK dgtsv's algorithm for
 * one right-hand side.  A row swap makes a second superdiagonal, kept in dl.
 * b takes the solution; dl, d and du take the factors.  Returns 0, or k + 1
 * when the pivot of row k is exactly zero (the matrix is singular), in which
 * case b is left part-way.  A NaN in the input gives NaN, not an error. */
int64_t dw_tridiagonal_solve(int64_t n, double *dl, double *d, double *du, double *b)
{
    for (int64_t i = 0; i < n - 1; i++) {
        if (fabs(d[i]) >= fabs(dl[i])) {
            if (d[i] == 0.0)
                return i + 1;
            double fact = dl[i] / d[i];
            d[i + 1] -= fact * du[i];
            b[i + 1] -= fact * b[i];
            dl[i] = 0.0;
        } else {
            /* swap rows i and i + 1 */
            double fact = d[i] / dl[i], temp = d[i + 1];
            d[i] = dl[i];
            d[i + 1] = du[i] - fact * temp;
            if (i < n - 2) {
                dl[i] = du[i + 1];
                du[i + 1] = -fact * dl[i];
            }
            du[i] = temp;
            temp = b[i];
            b[i] = b[i + 1];
            b[i + 1] = temp - fact * b[i + 1];
        }
    }
    if (n < 1)
        return 0;
    if (d[n - 1] == 0.0)
        return n;
    b[n - 1] /= d[n - 1];
    if (n > 1)
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2];
    for (int64_t i = n - 3; i >= 0; i--)
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i];
    return 0;
}

/* The profile's cubic Hermite interpolant (diffusion_wave.WaveProfile.deriv)
 * at k points xi, with the coefficients coef[4][cells] in powers of t on the
 * uniform grid lo + i h, lo .. hi: the NumPy formula's operations in its
 * order.  The point is clipped to [lo, hi] as np.clip does (a NaN stays NaN),
 * s = (clip - lo) / h, its cell is fmin(s, cells - 1) truncated (a NaN finds
 * the last cell), t = s - cell, and the value ((c3 t + c2) t + c1) t + c0;
 * a point below lo takes below, one above hi takes above. */
void dw_hermite(int64_t k, const double *xi, int64_t cells, const double *coef, double lo,
                double hi, double h, double below, double above, double *out)
{
    const double *c0 = coef, *c1 = c0 + cells, *c2 = c1 + cells, *c3 = c2 + cells;
    double last = (double)(cells - 1);
    for (int64_t i = 0; i < k; i++) {
        double x = xi[i];
        double y = isnan(x) ? x : (x > lo ? x : lo);
        y = isnan(y) ? y : (y < hi ? y : hi);
        double s = (y - lo) / h;
        int64_t c = (int64_t)fmin(s, last);
        double t = s - (double)c;
        double value = ((c3[c] * t + c2[c]) * t + c1[c]) * t + c0[c];
        out[i] = x < lo ? below : x > hi ? above : value;
    }
}
