/* The arithmetic of diffwave.solver.step, bit for bit the NumPy formulation.
 *
 * Every operation here is one IEEE-754 double operation that NumPy performs
 * elementwise in the same order (+, -, *, /, sqrt, fabs, compares), so each
 * result is correctly rounded and equal to NumPy's bits.  The library is
 * built with -ffp-contract=off: a fused multiply-add rounds once where NumPy
 * rounds twice.
 *
 * A step with the built-in M1 closure is one call, dw_step_m1.  With any
 * other closure the step makes two closure rounds, and these three stages
 * run before, between and after them:
 *
 *   dw_edges    ghost cells, the bitwise window, the minmod edge values;
 *   dw_predict  the momentum flux p - g f of the closure's first round, the
 *               MUSCL-Hancock predictor and the reconstruction check;
 *   dw_update   the face combine of the closure's second round, the local
 *               Lax-Friedrichs faces, the update, the second damping
 *               half-step, the state checks, the far-field fill.
 *
 * A step works in one buffer of N_REGIONS * 2 (n + 2) values.  For a window
 * of m cells, s = m + 2 is the number of edge positions: the window's cells
 * and one cell a side.  Region V holds the left edge values vl[0 .. s) and
 * then the right ones vr[0 .. s), back to back; region U the same for u.
 * Face k (m + 1 faces) has the left state (vr, ur)[k] and the right state
 * (vl, ul)[k + 1], so the 2 (m + 1) face states are V[1 .. 2s - 1) and
 * U[1 .. 2s - 1): the right states of faces 0 .. m, then their left states,
 * each a contiguous array the closure takes in one call.  Stage 1 keeps the
 * ghost-extended rows of m + 4 cells in regions FLUX and SPEED.  FLUX then
 * takes the momentum flux of the edge values (a correction-free closure's p
 * is read in place), and FLUX and SPEED the momentum flux and wave speed of
 * the face states; FLUXES takes the faces' volume and momentum fluxes.  The
 * window and every check go into a dw_status.  Of the Python, only
 * _kernel.step knows this layout.
 *
 * A closure round hands in contiguous rows of the closure's values on V and
 * U (g, g' on u; p, p', f, f' on v).  A correction-free closure (g = 0,
 * f = 1) passes only p, and p' on the faces, with g = NULL.
 *
 * The block between the two "declarations" lines is handed to cffi as is.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* --- declarations --- */
enum { V, U, FLUX, SPEED, FLUXES, N_REGIONS };
typedef struct {
    int64_t lo, hi;     /* the window: domain cells lo .. hi-1 */
    int64_t thin_face;  /* first face whose reconstructed v is <= 0, or -1 */
    int hyperbolic;     /* 0 when a face discriminant is not >= 0 */
    double speed_bound; /* largest face speed; NaN when any is NaN */
    double u_max;       /* largest |u| of a new window with no nonfinite or vacuum cell */
    int64_t nonfinite;  /* first window cell with a non-finite v or u, or -1 */
    int64_t vacuum;     /* first window cell with v <= 0, or -1 */
} dw_status;
void dw_minmod(int64_t len, const double *d, double *out);
void dw_edges(int64_t n, const double *v, const double *u, double half_damp,
              double *buf, dw_status *st);
void dw_predict(double lam, const double *p, const double *g, const double *f,
                double *buf, dw_status *st);
void dw_update(int64_t n, const double *v, const double *u, double half_damp,
               double dt_dx, double half_kappa, const double *p, const double *dp,
               const double *g, const double *dg, const double *f, const double *df,
               double *buf, double *rows, dw_status *st);
void dw_step_m1(int64_t n, const double *v, const double *u, double half_damp,
                double lam, double dt_dx, double half_kappa, double *buf,
                double *rows, dw_status *st);
int dw_face_combine(int64_t k, const double *p, const double *dp, const double *g,
                    const double *dg, const double *f, const double *df,
                    double *flux, double *speed);
void dw_m1_momentum_flux(int64_t k, const double *v, const double *u, double *out);
int dw_m1_flux_and_speed(int64_t k, const double *v, const double *u,
                         double *flux, double *speed);
/* --- end of declarations --- */

#if defined(__x86_64__)
/* each stage's entry point also gets an AVX2 clone, chosen at load time; the scalar
   operations and their order are the same in both clones, and with
   -ffp-contract=off neither fuses a multiply-add */
#define CLONED __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define CLONED
#endif

/* the start of region r for a window of m cells */
#define REGION(r, m) (buf + (r) * 2 * ((m) + 2))

/* the neighbour pairs the window search tests at once */
#define BLOCK 64

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

/* a * b > 0 ? (|a| < |b| ? a : b) : 0.0, selected through bit masks so that
 * the slope loops vectorize.  The ``a * b > 0`` test keeps the slope at +0
 * when the product underflows or a difference is a signed zero; a tie
 * returns b. */
static inline double minmod(double a, double b)
{
    uint64_t take_a = -(uint64_t)(fabs(a) < fabs(b));
    uint64_t same_sign = -(uint64_t)(a * b > 0.0);
    return from_bits(((bits(a) & take_a) | (bits(b) & ~take_a)) & same_sign);
}

/* minmod of the len - 1 adjacent pairs of d, for the tests' pinned cases */
void dw_minmod(int64_t len, const double *d, double *out)
{
    for (int64_t k = 0; k + 1 < len; k++)
        out[k] = minmod(d[k], d[k + 1]);
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

/* the minmod edge values of cells 1 .. k of the extended row w */
static inline void edge_values(int64_t k, const double *restrict w,
                               double *restrict at_l, double *restrict at_r)
{
    for (int64_t i = 0; i < k; i++) {
        double half_slope = 0.5 * minmod(w[i + 1] - w[i], w[i + 2] - w[i + 1]);
        at_l[i] = w[i + 1] - half_slope;
        at_r[i] = w[i + 1] + half_slope;
    }
}

/* Stage 1.  The extended rows are (v, u half_damp) with two ghost cells a
 * side that copy the edge cells.  The window is every cell whose 5-cell
 * stencil holds two different bit patterns, plus one uniform cell at each
 * end; a bitwise uniform state takes the one-cell window 0 .. 1.  The
 * search skips BLOCK uniform pairs at a time from each end. */
CLONED void dw_edges(int64_t n, const double *v, const double *u, double half_damp,
                     double *buf, dw_status *st)
{
    int64_t first = 0, last = n - 2;
    while (first + BLOCK <= last && !differ(v, u, half_damp, first, BLOCK))
        first += BLOCK;
    while (first <= last && !differ(v, u, half_damp, first, 1))
        first++;
    while (last - BLOCK >= first && !differ(v, u, half_damp, last - BLOCK + 1, BLOCK))
        last -= BLOCK;
    while (last > first && !differ(v, u, half_damp, last, 1))
        last--;
    int64_t lo = 0, hi = 1;
    if (first <= last) {
        lo = first > 2 ? first - 2 : 0;
        hi = last + 4 < n ? last + 4 : n;
    }
    st->lo = lo;
    st->hi = hi;

    int64_t m = hi - lo, s = m + 2;
    /* extended window cell e is domain cell lo + e - 2, the four end cells
       clamped to the domain */
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

/* the predictor on the 2s edge values, whose momentum flux is in mf, and the
 * reconstruction check: when the NaN-propagating minimum of either face
 * row's v is <= 0, the first face with a v <= 0 */
static inline void predict(double lam, const double *mf, double *buf, dw_status *st)
{
    int64_t m = st->hi - st->lo, s = m + 2;
    double *vl = REGION(V, m), *vr = vl + s, *ul = REGION(U, m), *ur = ul + s;
    predictor(s, lam, vl, ul, vr, ur, mf, mf + s);
    int64_t nan_l = 0, nan_r = 0, le0_l = 0, le0_r = 0;
    for (int64_t k = 0; k < m + 1; k++) {
        nan_l |= vr[k] != vr[k];
        nan_r |= vl[k + 1] != vl[k + 1];
        le0_l |= vr[k] <= 0.0;
        le0_r |= vl[k + 1] <= 0.0;
    }
    st->thin_face = -1;
    if ((le0_l && !nan_l) || (le0_r && !nan_r))
        for (int64_t k = 0; k < m + 1; k++)
            if (vr[k] <= 0.0 || vl[k + 1] <= 0.0) {
                st->thin_face = k;
                break;
            }
}

/* Stage 2.  p, g and f are the closure's values on the 2s edge values (V for
 * p and f, U for g); g = NULL for a correction-free closure. */
CLONED void dw_predict(double lam, const double *p, const double *g, const double *f,
                       double *buf, dw_status *st)
{
    int64_t m = st->hi - st->lo;
    const double *mf = p;
    if (g) {
        double *out = REGION(FLUX, m);
        for (int64_t i = 0; i < 2 * (m + 2); i++)
            out[i] = p[i] - g[i] * f[i];
        mf = out;
    }
    predict(lam, mf, buf, st);
}

/* The speed (|b| + sqrt(b^2 - 4c))/2 = max |lam| bit for bit, b = g' f and
 * c = p' - g f', and the momentum flux p - g f of one state: the package's
 * one flux and speed.  0 when the discriminant is not >= 0 (NaN included). */
static inline int64_t combine(double p, double dp, double g, double dg, double f,
                              double df, double *flux, double *speed)
{
    double b = dg * f;
    double disc = b * b - 4.0 * (dp - g * df);
    *speed = 0.5 * (fabs(b) + sqrt(disc));
    *flux = p - g * f;
    return disc >= 0.0;
}

/* The face combine of k states.  g = NULL is a correction-free closure:
 * b = 0, c = p', so the flux is p, the speed sqrt(-p') = 0.5 sqrt(-4p')
 * exactly, and hyperbolicity p' <= 0.  Returns 0 unless all are hyperbolic. */
CLONED int dw_face_combine(int64_t k, const double *restrict p,
                           const double *restrict dp, const double *restrict g,
                           const double *restrict dg, const double *restrict f,
                           const double *restrict df, double *restrict flux,
                           double *restrict speed)
{
    int64_t ok = 1;
    if (!g) {
        for (int64_t i = 0; i < k; i++) {
            ok &= (int64_t)(dp[i] <= 0.0);
            speed[i] = sqrt(-dp[i]);
            flux[i] = p[i];
        }
        return ok;
    }
    for (int64_t i = 0; i < k; i++)
        ok &= combine(p[i], dp[i], g[i], dg[i], f[i], df[i], &flux[i], &speed[i]);
    return ok;
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

/* The largest of k >= 1 face speeds, as a scan with ``a > max`` from -inf
 * finds it, or NaN when any is NaN.  The speeds lie in {-0} u [+0, inf], so
 * a positive largest speed has the largest bit pattern as a signed integer;
 * when every speed is a zero, the scan keeps the first. */
static inline double largest(int64_t k, const double *restrict a)
{
    int64_t nan = 0, top = INT64_MIN;
    for (int64_t i = 0; i < k; i++) {
        nan |= (int64_t)(a[i] != a[i]);
        top = (int64_t)bits(a[i]) > top ? (int64_t)bits(a[i]) : top;
    }
    return nan ? NAN : top > 0 ? from_bits(top) : a[0];
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

/* The faces from the face combine in FLUX and SPEED, the update of window
 * cells lo .. hi-1, the state checks, and the far fields, each filled with
 * its end cell's value, into rows = (v, u) of n cells.  NaN face speeds give
 * a NaN speed bound. */
static inline void update(int64_t n, const double *v, const double *u,
                          double half_damp, double dt_dx, double half_kappa,
                          double *buf, double *rows, dw_status *st)
{
    int64_t lo = st->lo, hi = st->hi, m = hi - lo, s = m + 2;
    const double *vr = REGION(V, m) + s, *ur = REGION(U, m) + s;
    const double *vl = REGION(V, m) + 1, *ul = REGION(U, m) + 1;
    double *fu = REGION(FLUX, m), *a = REGION(SPEED, m);
    double *flux_v = REGION(FLUXES, m), *flux_u = flux_v + s;
    /* right states first, then left states (header) */
    face_fluxes(m + 1, half_kappa, vr, ur, vl, ul, fu + m + 1, a + m + 1, fu, a,
                flux_v, flux_u);
    st->speed_bound = largest(m + 1, a + m + 1);

    double *v_new = rows, *u_new = rows + n;
    cell_update(m, half_damp, dt_dx, v + lo, u + lo, flux_v, flux_u, v_new + lo, u_new + lo);
    /* |u| has no sign bit, so of two finite |u| the larger has the larger
       bit pattern; u_max is read only when every cell passes the check */
    int64_t bad = 0, u_max = 0;
    for (int64_t i = lo; i < hi; i++) {
        double vn = v_new[i], un = fabs(u_new[i]);
        bad |= (int64_t)!((vn > 0.0) & (vn < INFINITY) & (un < INFINITY));
        u_max = (int64_t)bits(un) > u_max ? (int64_t)bits(un) : u_max;
    }
    st->u_max = from_bits(u_max);
    st->nonfinite = st->vacuum = -1;
    for (int64_t j = 0; bad && j < m; j++) {
        double vn = v_new[lo + j], un = u_new[lo + j];
        if (st->nonfinite < 0 && !(fabs(vn) < INFINITY && fabs(un) < INFINITY))
            st->nonfinite = j;
        if (st->vacuum < 0 && vn <= 0.0)
            st->vacuum = j;
    }

    for (int64_t i = 0; i < lo; i++) {
        v_new[i] = v_new[lo];
        u_new[i] = u_new[lo];
    }
    for (int64_t i = hi; i < n; i++) {
        v_new[i] = v_new[hi - 1];
        u_new[i] = u_new[hi - 1];
    }
}

/* Stage 3.  p .. df are the closure's values on the 2 (m + 1) face states
 * (V and U from offset 1); g = NULL for a correction-free closure, which
 * passes no g, g', f or f'. */
CLONED void dw_update(int64_t n, const double *v, const double *u, double half_damp,
                      double dt_dx, double half_kappa, const double *p,
                      const double *dp, const double *g, const double *dg,
                      const double *f, const double *df, double *buf, double *rows,
                      dw_status *st)
{
    int64_t m = st->hi - st->lo;
    st->hyperbolic = dw_face_combine(2 * (m + 1), p, dp, g, dg, f, df,
                                     REGION(FLUX, m), REGION(SPEED, m));
    update(n, v, u, half_damp, dt_dx, half_kappa, buf, rows, st);
}

/* The built-in M1 closure: p = 1/(3v), p' = -1/(3v^2), f = 1/v, f' = -1/v^2,
 * g = u^2 s/(2 + s) and g' = 2u s/(2 + s) - 6u^3/(s (2 + s)^2), with
 * s = sqrt(4 - 3u^2). */
static inline double m1_s(double u)
{
    return sqrt(4.0 - 3.0 * (u * u));
}

static inline double m1_g(double u, double s)
{
    return u * u * s / (2.0 + s);
}

/* p(v) - g(u) f(v) */
CLONED void dw_m1_momentum_flux(int64_t k, const double *restrict v,
                                 const double *restrict u, double *restrict out)
{
    for (int64_t i = 0; i < k; i++)
        out[i] = 1.0 / (3.0 * v[i]) - m1_g(u[i], m1_s(u[i])) * (1.0 / v[i]);
}

/* the face combine of k states with the M1 closure's values.  Returns 0 when
 * a discriminant is not >= 0 (NaN included), else 1. */
CLONED int dw_m1_flux_and_speed(int64_t k, const double *restrict v,
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

/* The whole step with the built-in M1 closure: stage 1, the predictor on
 * the M1 momentum flux, and, unless the reconstruction check fails, the M1
 * face combine and the update. */
CLONED void dw_step_m1(int64_t n, const double *v, const double *u, double half_damp,
                       double lam, double dt_dx, double half_kappa, double *buf,
                       double *rows, dw_status *st)
{
    dw_edges(n, v, u, half_damp, buf, st);
    int64_t m = st->hi - st->lo, s = m + 2;
    double *mf = REGION(FLUX, m);
    dw_m1_momentum_flux(2 * s, REGION(V, m), REGION(U, m), mf);
    predict(lam, mf, buf, st);
    if (st->thin_face >= 0)
        return;
    st->hyperbolic = dw_m1_flux_and_speed(2 * (m + 1), REGION(V, m) + 1, REGION(U, m) + 1,
                                          REGION(FLUX, m), REGION(SPEED, m));
    update(n, v, u, half_damp, dt_dx, half_kappa, buf, rows, st);
}
