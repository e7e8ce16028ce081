/*
 * Compiled episode rollout kernel.
 *
 * Operation-for-operation mirror of rtsa._rollout_py.rollout; see that module
 * for the contract. Keep the arithmetic order in both in sync so the two
 * backends produce bit-identical trajectories. Build with
 * -ffp-contract=off: a fused multiply-add rounds once where the Python twin
 * rounds twice.
 *
 * No Python or numpy headers: rtsa.fastpath packs the arguments into one
 * float64 array (layout below), allocates the trajectory buffer and calls
 * rtsa_rollout through ctypes.
 */

#include <math.h>
#include <stdlib.h>

#define POLICY_NOMINAL 0
#define POLICY_BASELINE 1

#define OUTCOME_COMPLETED 1
#define OUTCOME_EXITED 2
#define OUTCOME_GROUNDED 3
#define OUTCOME_TIMEOUT 4

#define GRAVITY 9.81

/* Offsets into the packed parameter array; mirrored by rtsa.fastpath. */
enum {
    P_ENV_MIN = 0, /* 3 values */
    P_ENV_MAX = 3, /* 3 values */
    P_ARRIVAL_RADIUS = 6,
    P_DT,
    P_A_MAX,
    P_CRUISE_SPEED,
    P_LOOKAHEAD,
    P_KP,
    P_KD,
    P_AIR_DRAG,
    P_DRAG_Z,
    P_DRAG_XY,
    P_DELTA,
    P_ALERT_PENALTY,
    P_WIND = 18,     /* base x/y, amplitude x/y, frequency x/y, phase x/y */
    P_SCALES = 26,   /* 8 feature scales */
    P_THETA = 34,    /* 9 x 2, row-major: theta[i][action] */
    P_WAYPOINTS = 52 /* n_waypoints x 3, row-major */
};

/* Python's min(a, b): b only when strictly smaller. */
static inline double min2(double a, double b) { return b < a ? b : a; }

static inline int inside_box(const double *lo, const double *hi, double x, double y, double z)
{
    return lo[0] <= x && x <= hi[0] && lo[1] <= y && y <= hi[1] && lo[2] <= z && z <= hi[2];
}

/*
 * Run one episode. `traj` holds (max_steps + 1) x 9 doubles; rows
 * 0..out[0] are written: (t, px, py, pz, vx, vy, vz, action, reward).
 * On return out = (steps, outcome, deploy_step), deploy_step -1 if never
 * deployed. Returns 0; -1 for a zero-length path segment or -2 for a
 * failed allocation, writing nothing then.
 */
int rtsa_rollout(const double *p, int n_waypoints, int policy_mode, int max_steps,
                 double *traj, int *out)
{
    const double *env_min = p + P_ENV_MIN, *env_max = p + P_ENV_MAX;
    const double exn0 = env_min[0], exn1 = env_min[1], exn2 = env_min[2];
    const double exx0 = env_max[0], exx1 = env_max[1], exx2 = env_max[2];
    const double arrival_radius = p[P_ARRIVAL_RADIUS], dt = p[P_DT], a_max = p[P_A_MAX];
    const double cruise_speed = p[P_CRUISE_SPEED], lookahead = p[P_LOOKAHEAD];
    const double kp = p[P_KP], kd = p[P_KD], air_drag = p[P_AIR_DRAG];
    const double drag_z = p[P_DRAG_Z], drag_xy = p[P_DRAG_XY];
    const double delta = p[P_DELTA], alert_penalty = p[P_ALERT_PENALTY];
    const double bw0 = p[P_WIND], bw1 = p[P_WIND + 1], ga0 = p[P_WIND + 2], ga1 = p[P_WIND + 3];
    const double gf0 = p[P_WIND + 4], gf1 = p[P_WIND + 5], gp0 = p[P_WIND + 6], gp1 = p[P_WIND + 7];
    const double *sc = p + P_SCALES, *th = p + P_THETA, *wps = p + P_WAYPOINTS;

    /* Path segments: start (wps), delta, squared length, length, cumulative length. */
    const int n_seg = n_waypoints - 1;
    double *seg_d = malloc(sizeof(double) * (size_t)(6 * n_seg + 1));
    if (seg_d == NULL)
        return -2;
    double *seg_len2 = seg_d + 3 * n_seg, *seg_len = seg_len2 + n_seg, *cum = seg_len + n_seg;
    cum[0] = 0.0;
    for (int i = 0; i < n_seg; i++) {
        for (int k = 0; k < 3; k++)
            seg_d[3 * i + k] = wps[3 * (i + 1) + k] - wps[3 * i + k];
        const double *d = seg_d + 3 * i;
        seg_len2[i] = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        if (!(seg_len2[i] > 0.0)) {
            free(seg_d);
            return -1;
        }
        seg_len[i] = sqrt(seg_len2[i]);
        cum[i + 1] = cum[i] + seg_len[i];
    }
    const double total_len = cum[n_seg];
    const double wlx = wps[3 * n_seg], wly = wps[3 * n_seg + 1], wlz = wps[3 * n_seg + 2];

    double px = wps[0], py = wps[1], pz = wps[2];
    double vx = 0.0, vy = 0.0, vz = 0.0;
    double t = 0.0;
    int deployed = 0, deploy_step = -1;
    int step_idx = 0, outcome = OUTCOME_TIMEOUT;

    for (;;) {
        const double wx = bw0 + ga0 * sin(gf0 * t + gp0);
        const double wy = bw1 + ga1 * sin(gf1 * t + gp1);

        /* Meta decision (one-way switch). */
        int action;
        if (deployed) {
            action = 1;
        } else if (policy_mode == POLICY_NOMINAL) {
            action = 0;
        } else if (policy_mode == POLICY_BASELINE) {
            if (!inside_box(env_min, env_max, px, py, pz)) {
                action = 1;
            } else {
                double d = px - exn0;
                if (exx0 - px < d)
                    d = exx0 - px;
                if (py - exn1 < d)
                    d = py - exn1;
                if (exx1 - py < d)
                    d = exx1 - py;
                if (pz - exn2 < d)
                    d = pz - exn2;
                if (exx2 - pz < d)
                    d = exx2 - pz;
                action = d <= delta ? 1 : 0;
            }
        } else {
            const double f0 = min2(px - exn0, exx0 - px) / sc[0];
            const double f1 = min2(py - exn1, exx1 - py) / sc[1];
            const double f2 = min2(pz - exn2, exx2 - pz) / sc[2];
            const double f3 = vx / sc[3];
            const double f4 = vy / sc[4];
            const double f5 = vz / sc[5];
            const double f6 = wx / sc[6];
            const double f7 = wy / sc[7];
            /* Indicator feature is 0 here: this branch is unreachable once deployed. */
            const double q_cont = th[0] * f0 + th[2] * f1 + th[4] * f2 + th[6] * f3
                                  + th[8] * f4 + th[10] * f5 + th[12] * f6 + th[14] * f7;
            const double q_dep = th[1] * f0 + th[3] * f1 + th[5] * f2 + th[7] * f3
                                 + th[9] * f4 + th[11] * f5 + th[13] * f6 + th[15] * f7;
            action = q_dep > q_cont ? 1 : 0;
        }

        const int fresh_deploy = action == 1 && !deployed;
        if (fresh_deploy)
            deploy_step = step_idx;

        /* Dynamics. */
        double ax, ay, az;
        if (action == 1) {
            ax = drag_xy * (wx - vx);
            ay = drag_xy * (wy - vy);
            az = -GRAVITY + drag_z * (0.0 - vz);
        } else {
            /* Project onto the path (earliest segment wins ties). */
            double best_d2 = INFINITY, best_s = 0.0;
            for (int i = 0; i < n_seg; i++) {
                const double sax = wps[3 * i], say = wps[3 * i + 1], saz = wps[3 * i + 2];
                const double sdx = seg_d[3 * i], sdy = seg_d[3 * i + 1], sdz = seg_d[3 * i + 2];
                double tt = ((px - sax) * sdx + (py - say) * sdy + (pz - saz) * sdz) / seg_len2[i];
                if (tt < 0.0)
                    tt = 0.0;
                else if (tt > 1.0)
                    tt = 1.0;
                const double cx = sax + tt * sdx, cy = say + tt * sdy, cz = saz + tt * sdz;
                const double d2 = (px - cx) * (px - cx) + (py - cy) * (py - cy) + (pz - cz) * (pz - cz);
                if (d2 < best_d2) {
                    best_d2 = d2;
                    best_s = cum[i] + tt * seg_len[i];
                }
            }
            double s_ahead = best_s + lookahead;
            if (s_ahead < 0.0)
                s_ahead = 0.0;
            else if (s_ahead > total_len)
                s_ahead = total_len;
            int seg = n_seg - 1;
            for (int i = 0; i < n_seg; i++) {
                if (s_ahead < cum[i + 1]) {
                    seg = i;
                    break;
                }
            }
            const double frac = (s_ahead - cum[seg]) / (cum[seg + 1] - cum[seg]);
            const double tx = wps[3 * seg] + frac * seg_d[3 * seg];
            const double ty = wps[3 * seg + 1] + frac * seg_d[3 * seg + 1];
            const double tz = wps[3 * seg + 2] + frac * seg_d[3 * seg + 2];

            const double tox = tx - px, toy = ty - py, toz = tz - pz;
            const double dist = sqrt(tox * tox + toy * toy + toz * toz);
            double vdx = 0.0, vdy = 0.0, vdz = 0.0;
            if (dist > 1e-9) {
                vdx = cruise_speed * (tox / dist);
                vdy = cruise_speed * (toy / dist);
                vdz = cruise_speed * (toz / dist);
            }
            double ux = kp * tox + kd * (vdx - vx);
            double uy = kp * toy + kd * (vdy - vy);
            double uz = kp * toz + kd * (vdz - vz);
            const double un = sqrt(ux * ux + uy * uy + uz * uz);
            if (un > a_max) {
                const double scale = a_max / un;
                ux *= scale;
                uy *= scale;
                uz *= scale;
            }
            ax = ux + air_drag * (wx - vx);
            ay = uy + air_drag * (wy - vy);
            az = uz + air_drag * (0.0 - vz);
        }

        double nvx = vx + dt * ax, nvy = vy + dt * ay, nvz = vz + dt * az;
        const double npx = px + dt * nvx, npy = py + dt * nvy;
        double npz = pz + dt * nvz;
        if (npz <= 0.0) {
            npz = 0.0;
            nvx = nvy = nvz = 0.0;
        }

        const int outside = !inside_box(env_min, env_max, npx, npy, npz);
        double r;
        if (outside)
            r = -1.0;
        else if (fresh_deploy)
            r = -alert_penalty;
        else
            r = 0.0;

        double *row = traj + 9 * (size_t)step_idx;
        row[0] = t;
        row[1] = px;
        row[2] = py;
        row[3] = pz;
        row[4] = vx;
        row[5] = vy;
        row[6] = vz;
        row[7] = action;
        row[8] = r;

        px = npx;
        py = npy;
        pz = npz;
        vx = nvx;
        vy = nvy;
        vz = nvz;
        t += dt;
        if (action == 1)
            deployed = 1;
        step_idx += 1;

        if (outside) {
            outcome = OUTCOME_EXITED;
            break;
        }
        if (!deployed) {
            const double dx = px - wlx, dy = py - wly, dz = pz - wlz;
            if (sqrt(dx * dx + dy * dy + dz * dz) <= arrival_radius) {
                outcome = OUTCOME_COMPLETED;
                break;
            }
        }
        if (deployed && pz == 0.0) {
            outcome = OUTCOME_GROUNDED;
            break;
        }
        if (step_idx >= max_steps) {
            outcome = OUTCOME_TIMEOUT;
            break;
        }
    }

    double *row = traj + 9 * (size_t)step_idx;
    row[0] = t;
    row[1] = px;
    row[2] = py;
    row[3] = pz;
    row[4] = vx;
    row[5] = vy;
    row[6] = vz;
    row[7] = deployed ? 1.0 : 0.0;
    row[8] = 0.0;

    free(seg_d);
    out[0] = step_idx;
    out[1] = outcome;
    out[2] = deploy_step;
    return 0;
}
