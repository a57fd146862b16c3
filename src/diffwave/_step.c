/* The arithmetic of diffwave.solver.step, bit for bit the NumPy formulation.
 *
 * Every operation here is one IEEE-754 double operation that NumPy performs
 * elementwise in the same order (+, -, *, /, sqrt, fabs, compares), so each
 * result is correctly rounded and equal to NumPy's bits.  The library is
 * built with -ffp-contract=off: a fused multiply-add rounds once where NumPy
 * rounds twice.  The step calls three stages and, between them, the closure:
 *
 *   dw_edges    ghost rows, the bitwise window, the minmod edge values;
 *   dw_predict  the MUSCL-Hancock predictor and the reconstruction check;
 *   dw_update   the local Lax-Friedrichs faces, the update, the second
 *               damping half-step, the state checks, the far-field fill.
 *
 * A step works in one buffer of N_ROWS rows of `cap` = n + 4 values.  For a
 * window of m cells, rows VL .. UR hold the left and right edge values (v, u)
 * of the window's cells and one cell a side (m + 2 values), and MF_L, MF_R
 * the momentum flux there.  Face k (m + 1 faces) has the left state
 * (VR, UR)[k] and the right state (VL, UL)[k + 1]; FU_L, A_L and FU_R, A_R
 * hold the momentum flux and the wave speed of those two states.  W_V, W_U
 * are scratch.  With m1 set, the stages evaluate the built-in M1 closure
 * into MF_*, FU_* and A_* themselves; else the caller fills those rows.
 *
 * The block between the two "declarations" lines is handed to cffi as is.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* --- declarations --- */
enum { VL, UL, VR, UR, MF_L, MF_R, FU_L, A_L, FU_R, A_R, W_V, W_U, N_ROWS };
typedef struct {
    double speed_bound; /* largest face speed; NaN when any is NaN */
    double u_max;       /* largest |u| over the new window */
    int64_t nonfinite;  /* first window cell with a non-finite v or u, or -1 */
    int64_t vacuum;     /* first window cell with v <= 0, or -1 */
    int hyperbolic;     /* 0 when an m1 face discriminant is not >= 0 */
} dw_status;
void dw_minmod(int64_t len, const double *d, double *out);
void dw_edges(int64_t n, const double *v, const double *u, double half_damp,
              int64_t *window, double *buf, int64_t cap);
int64_t dw_predict(int64_t m, double lam, int m1, double *buf, int64_t cap);
void dw_update(int64_t n, int64_t lo, int64_t hi, const double *v, const double *u,
               double half_damp, double dt_dx, double half_kappa, int m1,
               double *buf, int64_t cap, double *rows, dw_status *st);
void dw_m1_momentum_flux(int64_t k, const double *v, const double *u, double *out);
int dw_m1_flux_and_speed(int64_t k, const double *v, const double *u,
                         double *flux, double *speed);
/* --- end of declarations --- */

#if defined(__x86_64__)
/* the M1 loops also get an AVX2 clone, chosen at load time; the scalar
   operations and their order are the same in both clones */
#define M1_LOOP __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define M1_LOOP
#endif

#define ROW(r) (buf + (r) * cap)

static inline uint64_t bits(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return b;
}

/* the ``a * b > 0`` test keeps the slope at +0 when the product underflows
   or a difference is a signed zero; a tie returns b */
static inline double minmod(double a, double b)
{
    return a * b > 0.0 ? (fabs(a) < fabs(b) ? a : b) : 0.0;
}

/* minmod of the len - 1 adjacent pairs of d, for the tests' pinned cases */
void dw_minmod(int64_t len, const double *d, double *out)
{
    for (int64_t k = 0; k + 1 < len; k++)
        out[k] = minmod(d[k], d[k + 1]);
}

/* cells i and i + 1 of the extended rows (v, u half_damp) differ in bits */
static inline int differ(const double *v, const double *u, double half_damp, int64_t i)
{
    return bits(v[i]) != bits(v[i + 1])
        || bits(u[i] * half_damp) != bits(u[i + 1] * half_damp);
}

/* the minmod edge values of cells 1 .. k of the extended row w */
static void edge_values(int64_t k, const double *restrict w,
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
 * end, written to window[0] = lo and window[1] = hi; a bitwise uniform state
 * takes the one-cell window 0 .. 1. */
void dw_edges(int64_t n, const double *v, const double *u, double half_damp,
              int64_t *window, double *buf, int64_t cap)
{
    int64_t first = 0, last = n - 2;
    while (first <= last && !differ(v, u, half_damp, first))
        first++;
    while (last > first && !differ(v, u, half_damp, last))
        last--;
    int64_t lo = 0, hi = 1;
    if (first <= last) {
        lo = first > 2 ? first - 2 : 0;
        hi = last + 4 < n ? last + 4 : n;
    }
    window[0] = lo;
    window[1] = hi;

    int64_t m = hi - lo;
    for (int r = 0; r < 2; r++) {
        /* extended window cell e is domain cell lo + e - 2, clamped */
        double *w = ROW(W_V + r);
        const double *row = r ? u : v;
        for (int64_t e = 0; e < m + 4; e++) {
            int64_t i = lo + e - 2;
            i = i < 0 ? 0 : (i >= n ? n - 1 : i);
            w[e] = r ? row[i] * half_damp : row[i];
        }
        edge_values(m + 2, w, ROW(VL + r), ROW(VR + r));
    }
}

/* k edge values evolved by half a step, lam = dt/(2 dx); the volume flux is -u */
static void predictor(int64_t k, double lam, double *restrict vl, double *restrict ul,
                      double *restrict vr, double *restrict ur,
                      const double *restrict mf_l, const double *restrict mf_r)
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

/* Stage 2.  The predictor on the m + 2 edge values.  When the
 * NaN-propagating minimum of either face row's v is <= 0, returns the first
 * face with a v <= 0; else -1. */
int64_t dw_predict(int64_t m, double lam, int m1, double *buf, int64_t cap)
{
    double *vl = ROW(VL), *ul = ROW(UL), *vr = ROW(VR), *ur = ROW(UR);
    if (m1) {
        dw_m1_momentum_flux(m + 2, vl, ul, ROW(MF_L));
        dw_m1_momentum_flux(m + 2, vr, ur, ROW(MF_R));
    }
    predictor(m + 2, lam, vl, ul, vr, ur, ROW(MF_L), ROW(MF_R));
    int nan_l = 0, nan_r = 0, le0_l = 0, le0_r = 0;
    for (int64_t k = 0; k < m + 1; k++) {
        nan_l |= vr[k] != vr[k];
        nan_r |= vl[k + 1] != vl[k + 1];
        le0_l |= vr[k] <= 0.0;
        le0_r |= vl[k + 1] <= 0.0;
    }
    if ((le0_l && !nan_l) || (le0_r && !nan_r))
        for (int64_t k = 0; k < m + 1; k++)
            if (vr[k] <= 0.0 || vl[k + 1] <= 0.0)
                return k;
    return -1;
}

/* the local Lax-Friedrichs flux on k faces, whose central volume
 * part carries half_kappa = kappa / 2, with the face speed
 * np.maximum(a_l, a_r): NaN propagates, and of two equal values the second
 * is kept.  The face speed replaces a_l. */
static void face_fluxes(int64_t k, double half_kappa,
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
static void cell_update(int64_t k, double half_damp, double dt_dx,
                        const double *restrict v, const double *restrict u,
                        const double *restrict flux_v, const double *restrict flux_u,
                        double *restrict v_new, double *restrict u_new)
{
    for (int64_t j = 0; j < k; j++) {
        v_new[j] = v[j] - dt_dx * (flux_v[j + 1] - flux_v[j]);
        u_new[j] = (u[j] * half_damp - dt_dx * (flux_u[j + 1] - flux_u[j])) * half_damp;
    }
}

/* Stage 3.  The faces, the update of window cells lo .. hi-1, the state
 * checks, and the far fields, each filled with its end cell's value, into
 * rows = (v, u) of n cells.  NaN face speeds give a NaN speed bound. */
void dw_update(int64_t n, int64_t lo, int64_t hi, const double *v, const double *u,
               double half_damp, double dt_dx, double half_kappa, int m1,
               double *buf, int64_t cap, double *rows, dw_status *st)
{
    int64_t m = hi - lo;
    const double *vl = ROW(VL), *ul = ROW(UL), *vr = ROW(VR), *ur = ROW(UR);
    double *a_face = ROW(A_L), *flux_v = ROW(W_V), *flux_u = ROW(W_U);
    st->hyperbolic = 1;
    if (m1)
        st->hyperbolic = dw_m1_flux_and_speed(m + 1, vr, ur, ROW(FU_L), ROW(A_L))
                       & dw_m1_flux_and_speed(m + 1, vl + 1, ul + 1, ROW(FU_R), ROW(A_R));
    face_fluxes(m + 1, half_kappa, vr, ur, vl + 1, ul + 1, ROW(FU_L), a_face,
                ROW(FU_R), ROW(A_R), flux_v, flux_u);
    int nan = 0;
    double speed_bound = -INFINITY;
    for (int64_t k = 0; k < m + 1; k++) {
        nan |= a_face[k] != a_face[k];
        speed_bound = a_face[k] > speed_bound ? a_face[k] : speed_bound;
    }
    st->speed_bound = nan ? NAN : speed_bound;

    double *v_new = rows, *u_new = rows + n;
    cell_update(m, half_damp, dt_dx, v + lo, u + lo, flux_v, flux_u, v_new + lo, u_new + lo);
    int bad = 0;
    double u_max = 0.0;
    for (int64_t i = lo; i < hi; i++) {
        bad |= !(v_new[i] > 0.0 && v_new[i] < INFINITY && fabs(u_new[i]) < INFINITY);
        u_max = fabs(u_new[i]) > u_max ? fabs(u_new[i]) : u_max;
    }
    st->u_max = u_max;
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
M1_LOOP void dw_m1_momentum_flux(int64_t k, const double *restrict v,
                                 const double *restrict u, double *restrict out)
{
    for (int64_t i = 0; i < k; i++)
        out[i] = 1.0 / (3.0 * v[i]) - m1_g(u[i], m1_s(u[i])) * (1.0 / v[i]);
}

/* momentum flux p - g f and speed (|b| + sqrt(b^2 - 4c))/2, b = g' f and
 * c = p' - g f'.  Returns 0 when a discriminant is not >= 0 (NaN included),
 * else 1. */
M1_LOOP int dw_m1_flux_and_speed(int64_t k, const double *restrict v,
                                 const double *restrict u, double *restrict flux,
                                 double *restrict speed)
{
    int ok = 1;
    for (int64_t i = 0; i < k; i++) {
        double x = v[i], y = u[i], y2 = y * y;
        double s = m1_s(y), t = 2.0 + s;
        double g = m1_g(y, s);
        double dg = 2.0 * y * s / t - 6.0 * (y2 * y) / (s * (t * t));
        double f = 1.0 / x;
        double b = dg * f;
        double disc = b * b - 4.0 * (-1.0 / (3.0 * (x * x)) - g * (-1.0 / (x * x)));
        ok &= disc >= 0.0;
        speed[i] = 0.5 * (fabs(b) + sqrt(disc));
        flux[i] = 1.0 / (3.0 * x) - g * f;
    }
    return ok;
}
