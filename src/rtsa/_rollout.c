/*
 * Compiled episode kernels.
 *
 * Operation-for-operation mirror of rtsa._rollout_py; see that module for
 * the contract. Keep the arithmetic order in both in sync so the two
 * backends produce bit-identical trajectories and weights. Build with
 * -ffp-contract=off: a fused multiply-add rounds once where the Python twin
 * rounds twice.
 *
 * Five entry points, four of them behind one episode loop (`episode`):
 *   rtsa_rollout     one episode under a fixed policy, with its trajectory;
 *   rtsa_batch       n episodes under a fixed policy, one wind row each,
 *                    with per-episode summaries and no trajectories, spread
 *                    over a few worker threads (run_workers); a baseline
 *                    batch runs all of its thresholds at once (below);
 *   rtsa_exit_count  how many episodes of a nominal batch leave the
 *                    envelope, on the same workers and with no fork record,
 *                    in wind rows rescaled from their unit draws to a given
 *                    wind strength: one evaluation of a wind calibration,
 *                    whose bracket and bisection rtsa.evaluation states;
 *   rtsa_train       n Q-learning episodes in a row under a given policy,
 *                    updating the weights in place by `td_update` at every
 *                    step: online epsilon-greedy training flies the weights
 *                    policy, and warm start the baseline with no exploration,
 *                    all of its passes in one call (below);
 *   rtsa_wind_draws  the unit draws of each seed's wind field.
 * `episode` is always inlined with constant flags, so the rollout carries no
 * learning branches, neither the batch nor the learner writes a trajectory,
 * only the baseline batch can stop at a deploy decision and only a nominal
 * rtsa_batch records checkpoints.
 *
 * The baseline switch flies the nominal path until it deploys, and a wider
 * threshold deploys no later than a narrower one. So a baseline batch over
 * ascending thresholds flies, per wind row, one nominal trunk under the
 * widest threshold not yet deployed. Where that threshold deploys, the trunk
 * stops; its parachute tail is flown from the trunk's exact state, and the
 * trunk goes on, undeployed, under the next narrower threshold. Those still
 * undeployed when the trunk ends get the trunk's summary. Every summary
 * equals a one-threshold episode's, bit for bit.
 *
 * The trunk is the nominal flight, and the baseline at threshold delta deploys
 * at the first state whose boundary distance (`boundary_distance`) is at most
 * delta. So a nominal batch records checkpoints of each row's flight, the
 * fork record, and a baseline batch on the same scenario and wind resumes
 * its trunks from them. The record's layout, the same on both backends:
 *   - a checkpoint is N_RECORDED values: t, px, py, pz, vx, vy, vz and the
 *     smallest boundary distance of the row's decision states before it;
 *   - checkpoint j is the decision state at step j * FORK_GAP, for each such
 *     step below the row's steps, and checkpoint (steps - 1) / FORK_GAP + 1
 *     is the final state, with the smallest distance of all decision states;
 *   - row i writes them into its own slot of fork_slot(max_steps)
 *     checkpoints, from checkpoint i * slot on, and is recorded iff that slot
 *     lies wholly in the buffer, (i + 1) * slot <= capacity;
 *   - each row's steps and outcome are the nominal batch's own summary,
 *     which the caller keeps beside the buffer.
 * A baseline batch handed that record flies each threshold's trunk only from
 * the last checkpoint whose smallest earlier distance exceeds the threshold,
 * fewer than FORK_GAP steps before it deploys, and a row whose final
 * checkpoint's distance exceeds it gets the nominal summary. The caller
 * (rtsa._rollout_py.fork_record, which keeps one record for both backends)
 * hands a record only to a batch on the same scenario and wind; rows not
 * recorded fly the whole trunk.
 *
 * A baseline (or nominal) episode does not depend on the weights, so a
 * training call under either that has more episodes than wind rows flies
 * each row once and records its observed features. Every later episode on
 * that row replays the recorded transitions through the same `td_update`,
 * in the same order, which leaves the weights and rows bit-identical to
 * flying it again. The record holds at most a cap of states that the caller
 * passes; rows beyond the cap, or all of them when it cannot be allocated,
 * are flown on every pass.
 *
 * Random draws come from a copy of numpy's default seeding (below): the
 * stream seeded here from a list of integers is np.random.default_rng's for
 * that list, draw for draw. Generator.random() is next_double, and
 * Generator.integers(2) is next_uint32 >> 31, because Lemire's bounded draw
 * over a range of one never rejects. Generator.standard_normal() is numpy's
 * own random_standard_normal, linked from its libnpyrandom.a, which draws
 * through the documented C struct `bitgen_t` (declared below; no numpy header
 * is needed).
 *
 * No Python or numpy headers: rtsa.fastpath packs the scenario into one
 * float64 array (layout below) with rtsa._rollout_py.pack, allocates the
 * outputs and calls these functions through ctypes. Each episode's wind is
 * 8 values (base, amplitude, frequency, phase, each x/y) and its weights two
 * contiguous columns of nine, (continue, deploy), both passed by pointer; the
 * learning kernel updates the weights in place. The baseline's distance
 * threshold(s) are passed beside them too.
 */

#ifdef __linux__
#define _GNU_SOURCE /* sched_getcpu, pthread_attr_setaffinity_np */
#endif
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define POLICY_NOMINAL 0
#define POLICY_BASELINE 1
#define POLICY_WEIGHTS 2

#define OUTCOME_COMPLETED 1
#define OUTCOME_EXITED 2
#define OUTCOME_GROUNDED 3
#define OUTCOME_TIMEOUT 4

#define GRAVITY 9.81
#define N_FEATURES 9

/* Ceiling on run_workers' threads, whatever worker count it is asked for. */
#define MAX_WORKERS 8

/* numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy/random/distributions.h, from libnpyrandom.a */
double random_standard_normal(bitgen_t *bitgen_state);

/*
 * numpy's default seeding (numpy/random/bit_generator.pyx, _pcg64.pyx and
 * src/pcg64/pcg64.h). A SeedSequence hashes its entropy words into a pool of
 * four and stretches the pool into PCG64's 128-bit state and increment
 * (generate_state(4, uint64)); PCG64 steps a 128-bit LCG and outputs XSL-RR.
 */
enum { SEED_POOL = 4, SEED_XSHIFT = 16 };
#define SEED_INIT_A 0x43b0d7e5u
#define SEED_MULT_A 0x931e8875u
#define SEED_INIT_B 0x8b51f9ddu
#define SEED_MULT_B 0x58f38dedu
#define SEED_MIX_L 0xca01f9ddu
#define SEED_MIX_R 0x4973f715u
#define PCG64_MULT (((unsigned __int128)2549297995355413924ULL << 64) + 4865540595714422341ULL)

static inline uint32_t seed_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SEED_MULT_A;
    value *= *hash_const;
    return value ^ (value >> SEED_XSHIFT);
}

static inline uint32_t seed_mix(uint32_t x, uint32_t y)
{
    const uint32_t result = SEED_MIX_L * x - SEED_MIX_R * y;
    return result ^ (result >> SEED_XSHIFT);
}

/* The 32-bit words SeedSequence reads from the integer `value`, low word
 * first, into `words`; returns their count (one for 0). */
static inline int seed_words(uint64_t value, uint32_t *words)
{
    words[0] = (uint32_t)value;
    if (value >> 32 == 0)
        return 1;
    words[1] = (uint32_t)(value >> 32);
    return 2;
}

/* PCG64's state; a next_uint32 keeps the high half of its 64-bit draw for
 * the next one. */
typedef struct {
    unsigned __int128 state, inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64_t;

static inline void pcg64_step(pcg64_t *rng) { rng->state = rng->state * PCG64_MULT + rng->inc; }

static uint64_t pcg64_next64(void *st)
{
    pcg64_t *rng = st;
    pcg64_step(rng);
    const uint64_t x = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    const unsigned rot = (unsigned)(rng->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63u));
}

static uint32_t pcg64_next32(void *st)
{
    pcg64_t *rng = st;
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return rng->uinteger;
    }
    const uint64_t next = pcg64_next64(st);
    rng->has_uint32 = 1;
    rng->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/*
 * Seed `rng` from the n_words (at most SEED_POOL) entropy words at `words`,
 * as np.random.default_rng does from a list of integers, each read by
 * seed_words in turn, and point `bitgen` at it.
 */
static void seed_stream(pcg64_t *rng, bitgen_t *bitgen, const uint32_t *words, int n_words)
{
    uint32_t pool[SEED_POOL], hash_const = SEED_INIT_A;
    for (int i = 0; i < SEED_POOL; i++)
        pool[i] = seed_hashmix(i < n_words ? words[i] : 0, &hash_const);
    for (int src = 0; src < SEED_POOL; src++)
        for (int dst = 0; dst < SEED_POOL; dst++)
            if (src != dst)
                pool[dst] = seed_mix(pool[dst], seed_hashmix(pool[src], &hash_const));

    /* generate_state(4, uint64): eight 32-bit words, read in pairs, low word first. */
    uint64_t state[4] = {0};
    hash_const = SEED_INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % SEED_POOL] ^ hash_const;
        hash_const *= SEED_MULT_B;
        value *= hash_const;
        value ^= value >> SEED_XSHIFT;
        state[i / 2] |= (uint64_t)value << (32 * (i % 2));
    }

    /* pcg64_set_seed: (state[0], state[1]) and (state[2], state[3]) are
     * (high, low) halves of the initial state and the stream. */
    const unsigned __int128 initstate = ((unsigned __int128)state[0] << 64) | state[1];
    const unsigned __int128 initseq = ((unsigned __int128)state[2] << 64) | state[3];
    rng->state = 0;
    rng->inc = (initseq << 1) | 1u;
    pcg64_step(rng);
    rng->state += initstate;
    pcg64_step(rng);
    rng->has_uint32 = 0;
    rng->uinteger = 0;
    *bitgen = (bitgen_t){rng, pcg64_next64, pcg64_next32, pcg64_next_double, pcg64_next64};
}

/* Offsets into the packed scenario array; mirrored by the P_* names of
 * rtsa._rollout_py, whose `pack` builds it. */
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
    P_ALERT_PENALTY,
    P_SCALES = 17,   /* 8 feature scales */
    P_WAYPOINTS = 25 /* n_waypoints x 3, row-major */
};

/* Python's min(a, b): b only when strictly smaller. */
static inline double min2(double a, double b) { return b < a ? b : a; }

static inline int inside_box(const double *lo, const double *hi, double x, double y, double z)
{
    return lo[0] <= x && x <= hi[0] && lo[1] <= y && y <= hi[1] && lo[2] <= z && z <= hi[2];
}

/*
 * The baseline switch's distance to the box boundary: inside the box the
 * smallest of the six offsets to its faces, outside it -infinity. The
 * switch deploys where it is at most its threshold.
 */
static inline double boundary_distance(const double *lo, const double *hi, double x, double y,
                                       double z)
{
    if (!inside_box(lo, hi, x, y, z))
        return -INFINITY;
    double d = x - lo[0];
    if (hi[0] - x < d)
        d = hi[0] - x;
    if (y - lo[1] < d)
        d = y - lo[1];
    if (hi[1] - y < d)
        d = hi[1] - y;
    if (z - lo[2] < d)
        d = z - lo[2];
    if (hi[2] - z < d)
        d = hi[2] - z;
    return d;
}

static inline double dot9(const double *a, const double *b)
{
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3] + a[4] * b[4] + a[5] * b[5]
           + a[6] * b[6] + a[7] * b[7] + a[8] * b[8];
}

/*
 * One linear TD update, in place, on the taken action's column of
 * th = (continue column, deploy column). Terminal transitions bootstrap 0.
 * Returns the TD error, target - Q(s, a).
 */
static inline double td_update(double *th, const double *phi, int action, double r,
                             const double *phi_next, int terminal, double learning_rate,
                             double discount)
{
    double *col = action ? th + N_FEATURES : th;
    const double q_sa = dot9(col, phi);
    double target;
    if (terminal) {
        target = r;
    } else {
        const double q_cont = dot9(th, phi_next), q_dep = dot9(th + N_FEATURES, phi_next);
        target = r + discount * (q_dep > q_cont ? q_dep : q_cont);
    }
    const double error = target - q_sa;
    const double k = learning_rate * error;
    for (int i = 0; i < N_FEATURES; i++)
        col[i] += k * phi[i];
    return error;
}

/*
 * The mission path's segments: segment i runs from waypoint i (`wps`) by
 * seg_d[3i..3i+2], with squared length seg_len2[i] and length seg_len[i];
 * cum[i] is the path length up to waypoint i, total_len = cum[n_seg]. Built
 * once per entry-point call and then only read, so batch workers share it.
 */
typedef struct {
    const double *wps;
    int n_seg;
    double total_len;
    double *seg_d, *seg_len2, *seg_len, *cum;
} path_t;

/* Returns 0, -1 for a zero-length (or NaN) segment or -2 for a failed
 * allocation; path_free is needed only after 0. */
static int path_init(path_t *path, const double *wps, int n_waypoints)
{
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
    *path = (path_t){wps, n_seg, cum[n_seg], seg_d, seg_len2, seg_len, cum};
    return 0;
}

static void path_free(path_t *path) { free(path->seg_d); }

/* Where an episode stands between steps: time, position, velocity, steps taken. */
typedef struct {
    double t, px, py, pz, vx, vy, vz;
    int step;
} state_t;

/* At rest on the first waypoint, undeployed, at time 0. */
static inline state_t start_state(const path_t *path)
{
    return (state_t){0.0, path->wps[0], path->wps[1], path->wps[2], 0.0, 0.0, 0.0, 0};
}

/*
 * Rows of N_RECORDED values that an episode records: `used` rows, in room for
 * `capacity`. A training call records its observed states' phi[0..7], which
 * `replay` reads back, and a nominal batch a row's checkpoints (see the top of
 * this file), FORK_GAP steps apart.
 */
#define N_RECORDED 8
#define FORK_GAP 8
typedef struct {
    double *rows;
    int64_t used, capacity;
} record_t;

/* Append the N_RECORDED values at `values` to `rec`, unless it is full. */
static inline void record_push(record_t *rec, const double *values)
{
    if (rec->used < rec->capacity)
        memcpy(rec->rows + N_RECORDED * (size_t)rec->used++, values, sizeof(double) * N_RECORDED);
}

/* Checkpoints in each row's slot of the fork record: decision states lie at
 * steps 0..max_steps - 1, so at most max_steps / FORK_GAP + 1 of them are
 * checkpoints, and the final state is one more. rtsa._rollout_py.fork_slot. */
static inline int64_t fork_slot(int max_steps) { return max_steps / FORK_GAP + 2; }

/*
 * A step's reward: a step that leaves the box earns -1 (the exit penalty,
 * which a scenario fixes at 1), else the first deployment earns
 * -alert_penalty, else a step earns 0. `episode` and `replay` both read it.
 */
static inline double step_reward(int outside, int fresh_deploy, double alert_penalty)
{
    return outside ? -1.0 : fresh_deploy ? -alert_penalty : 0.0;
}

/*
 * The episode loop behind rtsa_rollout and rtsa_batch (learn = 0) and
 * rtsa_train (learn = 1), along `path` in the wind of the 8 values at
 * `wind`, from the undeployed state `*state`. The baseline policy deploys
 * outside the box or within `delta` of its boundary. Each step earns
 * `step_reward`.
 * `theta` is read into a local copy; when learning, the updated copy is
 * written back to `theta_out`. Rows 0..out[0] of `traj`, if not NULL, get
 * (t, px, py, pz, vx, vy, vz, action, reward), row k for step k. On return
 * out = (steps, outcome, deploy_step, deploy_greedy) and, when learning,
 * dout = (discounted return, largest squared feature norm, largest absolute
 * TD error). When learning, `rec`, if not NULL, gets each observed state's
 * phi[0..7] while it has room (`replay` reads them back). `checkpoints`, if
 * not NULL, gets the checkpoints of an episode from step 0 (see the top of this
 * file). With `fork`, the loop stops instead at its first deploy decision,
 * before that step: it writes the state there to `*state` and
 * out = (step, 0, step, 1).
 */
static inline __attribute__((always_inline)) void
episode(const double *p, const path_t *path, int policy_mode, int max_steps, double delta,
        const double *wind, const double *theta, const int learn, double *theta_out,
        double discount, double learning_rate, double epsilon, bitgen_t *bitgen,
        record_t *rec, record_t *checkpoints, state_t *state, const int fork, double *traj,
        int *out, double *dout)
{
    const double *env_min = p + P_ENV_MIN, *env_max = p + P_ENV_MAX;
    const double exn0 = env_min[0], exn1 = env_min[1], exn2 = env_min[2];
    const double exx0 = env_max[0], exx1 = env_max[1], exx2 = env_max[2];
    const double arrival_radius = p[P_ARRIVAL_RADIUS], dt = p[P_DT], a_max = p[P_A_MAX];
    const double cruise_speed = p[P_CRUISE_SPEED], lookahead = p[P_LOOKAHEAD];
    const double kp = p[P_KP], kd = p[P_KD], air_drag = p[P_AIR_DRAG];
    const double drag_z = p[P_DRAG_Z], drag_xy = p[P_DRAG_XY];
    const double alert_penalty = p[P_ALERT_PENALTY];
    const double bw0 = wind[0], bw1 = wind[1], ga0 = wind[2], ga1 = wind[3];
    const double gf0 = wind[4], gf1 = wind[5], gp0 = wind[6], gp1 = wind[7];
    const double *sc = p + P_SCALES, *wps = path->wps;
    const int weights_mode = policy_mode != POLICY_NOMINAL && policy_mode != POLICY_BASELINE;
    const int explore = learn && epsilon > 0.0;
    double th[2 * N_FEATURES];
    memcpy(th, theta, sizeof th);
    const double *t0 = th, *t1 = th + N_FEATURES;

    const int n_seg = path->n_seg;
    const double *seg_d = path->seg_d, *seg_len2 = path->seg_len2;
    const double *seg_len = path->seg_len, *cum = path->cum;
    const double total_len = path->total_len;
    const double wlx = wps[3 * n_seg], wly = wps[3 * n_seg + 1], wlz = wps[3 * n_seg + 2];

    double px = state->px, py = state->py, pz = state->pz;
    double vx = state->vx, vy = state->vy, vz = state->vz;
    double t = state->t;
    int deployed = 0, deploy_step = -1, deploy_greedy = -1;
    int step_idx = state->step, outcome = 0; /* 0: still running */
    int action = 0, greedy = 0;
    double r = 0.0, ret = 0.0, disc = 1.0, norm2_max = 0.0, error_max = 0.0;
    /* Zeroed only so that a compiler need not prove that the weights decision,
     * which reads phi, runs only on a pass that computed it. */
    double phi[N_FEATURES] = {0.0}, phi_prev[N_FEATURES];
    double min_dist = INFINITY; /* for `checkpoints`: the smallest distance so far */

    /* Each pass first observes the current state (wind, features) and applies
     * the TD update of the step that led to it, then stops if that step ended
     * the episode. */
    for (;;) {
        const double wx = bw0 + ga0 * sin(gf0 * t + gp0);
        const double wy = bw1 + ga1 * sin(gf1 * t + gp1);
        if (learn || (weights_mode && !deployed)) {
            phi[0] = min2(px - exn0, exx0 - px) / sc[0];
            phi[1] = min2(py - exn1, exx1 - py) / sc[1];
            phi[2] = min2(pz - exn2, exx2 - pz) / sc[2];
            phi[3] = vx / sc[3];
            phi[4] = vy / sc[4];
            phi[5] = vz / sc[5];
            phi[6] = wx / sc[6];
            phi[7] = wy / sc[7];
            phi[8] = deployed ? 1.0 : 0.0;
            if (rec)
                record_push(rec, phi);
            /* Timeout is truncation, not an absorbing state: keep the bootstrap. */
            if (learn && step_idx) {
                const double error = fabs(td_update(th, phi_prev, action, r, phi,
                                                    outcome != 0 && outcome != OUTCOME_TIMEOUT,
                                                    learning_rate, discount));
                if (error > error_max)
                    error_max = error;
            }
        }
        if (outcome)
            break;
        if (learn) {
            const double norm2 = phi[0] * phi[0] + phi[1] * phi[1] + phi[2] * phi[2]
                                 + phi[3] * phi[3] + phi[4] * phi[4] + phi[5] * phi[5]
                                 + phi[6] * phi[6] + phi[7] * phi[7] + phi[8] * phi[8];
            if (norm2 > norm2_max)
                norm2_max = norm2;
            memcpy(phi_prev, phi, sizeof phi);
        }
        if (checkpoints) {
            if (step_idx % FORK_GAP == 0) {
                const double c[N_RECORDED] = {t, px, py, pz, vx, vy, vz, min_dist};
                record_push(checkpoints, c);
            }
            min_dist = min2(min_dist, boundary_distance(env_min, env_max, px, py, pz));
        }

        /* Meta decision (one-way switch). */
        if (deployed) {
            action = 1;
        } else if (weights_mode) {
            /* The indicator feature is 0 before deployment. */
            const double q_cont = t0[0] * phi[0] + t0[1] * phi[1] + t0[2] * phi[2] + t0[3] * phi[3]
                                  + t0[4] * phi[4] + t0[5] * phi[5] + t0[6] * phi[6]
                                  + t0[7] * phi[7];
            const double q_dep = t1[0] * phi[0] + t1[1] * phi[1] + t1[2] * phi[2] + t1[3] * phi[3]
                                 + t1[4] * phi[4] + t1[5] * phi[5] + t1[6] * phi[6]
                                 + t1[7] * phi[7];
            greedy = q_dep > q_cont ? 1 : 0;
            if (explore && bitgen->next_double(bitgen->state) < epsilon)
                action = (int)(bitgen->next_uint32(bitgen->state) >> 31);
            else
                action = greedy;
        } else if (policy_mode == POLICY_NOMINAL) {
            action = 0;
        } else { /* POLICY_BASELINE */
            action = boundary_distance(env_min, env_max, px, py, pz) <= delta ? 1 : 0;
        }

        const int fresh_deploy = action == 1 && !deployed;
        if (fork && fresh_deploy) {
            *state = (state_t){t, px, py, pz, vx, vy, vz, step_idx};
            out[0] = out[2] = step_idx;
            out[1] = 0;
            out[3] = 1;
            return;
        }
        if (fresh_deploy) {
            deploy_step = step_idx;
            deploy_greedy = !weights_mode || greedy == 1;
        }

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
        r = step_reward(outside, fresh_deploy, alert_penalty);
        if (traj) {
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
        }
        if (learn) {
            ret += disc * r;
            disc *= discount;
        }

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
        } else if (!deployed && sqrt((px - wlx) * (px - wlx) + (py - wly) * (py - wly)
                                     + (pz - wlz) * (pz - wlz)) <= arrival_radius) {
            outcome = OUTCOME_COMPLETED;
        } else if (deployed && pz == 0.0) {
            outcome = OUTCOME_GROUNDED;
        } else if (step_idx >= max_steps) {
            outcome = OUTCOME_TIMEOUT;
        }
    }

    if (traj) {
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
    }

    if (checkpoints) {
        const double c[N_RECORDED] = {t, px, py, pz, vx, vy, vz, min_dist};
        record_push(checkpoints, c);
    }
    if (learn) {
        memcpy(theta_out, th, sizeof th);
        dout[0] = ret;
        dout[1] = norm2_max;
        dout[2] = error_max;
    }
    out[0] = step_idx;
    out[1] = outcome;
    out[2] = deploy_step;
    out[3] = deploy_greedy;
}

/*
 * Run one episode under a fixed policy with baseline threshold `delta`, in
 * the wind at `wind` with the weight columns at `theta`. `traj` holds
 * (max_steps + 1) x 9 doubles; rows 0..out[0] are written. On return
 * out = (steps, outcome, deploy_step, deploy_greedy), deploy_step -1 if never
 * deployed. Returns 0; -1 for a zero-length path segment or -2 for a failed
 * allocation, writing nothing then.
 */
int rtsa_rollout(const double *p, int n_waypoints, int policy_mode, int max_steps, double delta,
                 const double *wind, const double *theta, double *traj, int *out)
{
    path_t path;
    const int status = path_init(&path, p + P_WAYPOINTS, n_waypoints);
    if (status)
        return status;
    state_t start = start_state(&path);
    episode(p, &path, policy_mode, max_steps, delta, wind, theta, 0, NULL, 1.0, 0.0, 0.0,
            NULL, NULL, NULL, &start, 0, traj, out, NULL);
    path_free(&path);
    return 0;
}

/*
 * One rtsa_batch call, shared by its workers; `next` is the next unclaimed
 * row. `fork_states`, `fork_capacity` and `fork_nominal` are the fork record
 * (see rtsa_batch), NULL, 0 and NULL without one, and `fork_slot` is
 * fork_slot(max_steps).
 */
typedef struct {
    const double *p;
    const path_t *path;
    int policy_mode, max_steps, n;
    const double *wind, *deltas, *theta;
    int n_deltas;
    int *out;
    double *fork_states;
    int64_t fork_capacity, fork_slot;
    const int *fork_nominal;
    atomic_int next;
} batch_job;

/* Episode `row` of a nominal or weights batch that records nothing; each
 * call passes `policy_mode` as a constant, so `episode` keeps one policy's
 * branches. */
static inline __attribute__((always_inline)) void
plain_row(const batch_job *job, int row, int policy_mode)
{
    state_t start = start_state(job->path);
    episode(job->p, job->path, policy_mode, job->max_steps, 0.0, job->wind + 8 * (size_t)row,
            job->theta, 0, NULL, 1.0, 0.0, 0.0, NULL, NULL, NULL, &start, 0, NULL,
            job->out + 4 * (size_t)row, NULL);
}

/* Episode `row` of a nominal batch. A row whose slot lies in the fork record
 * writes its checkpoints there; the others record none. */
static void nominal_row(const batch_job *job, int row)
{
    if ((row + 1) * job->fork_slot > job->fork_capacity) {
        plain_row(job, row, POLICY_NOMINAL);
        return;
    }
    record_t checkpoints = {job->fork_states + N_RECORDED * (size_t)(row * job->fork_slot), 0,
                            job->fork_slot};
    state_t start = start_state(job->path);
    episode(job->p, job->path, POLICY_NOMINAL, job->max_steps, 0.0, job->wind + 8 * (size_t)row,
            job->theta, 0, NULL, 1.0, 0.0, 0.0, NULL, NULL, &checkpoints, &start, 0, NULL,
            job->out + 4 * (size_t)row, NULL);
}

/*
 * Episode `row` of a baseline batch at every threshold, on the shared trunk.
 * With the nominal batch's checkpoints of the row, each threshold's trunk
 * starts at the last checkpoint whose smallest earlier distance exceeds the
 * threshold, if that lies ahead of it.
 */
static void sweep_row(const batch_job *job, int row)
{
    const double *wind = job->wind + 8 * (size_t)row;
    const int *nominal = NULL; /* the row's nominal summary, if recorded */
    const double *first = NULL, *checkpoint = NULL, *end = NULL; /* and its checkpoints */
    if ((row + 1) * job->fork_slot <= job->fork_capacity) {
        nominal = job->fork_nominal + 4 * (size_t)row;
        first = checkpoint = job->fork_states + N_RECORDED * (size_t)(row * job->fork_slot);
        end = first + N_RECORDED * (size_t)((nominal[0] - 1) / FORK_GAP + 1);
    }
    state_t trunk = start_state(job->path);
    int stop[4], k = job->n_deltas - 1;
    for (; k >= 0; k--) {
        const double delta = job->deltas[k];
        if (nominal) {
            while (checkpoint < end && checkpoint[N_RECORDED + 7] > delta)
                checkpoint += N_RECORDED;
            if (checkpoint == end) { /* never deploys: nor does any narrower threshold */
                memcpy(stop, nominal, sizeof stop);
                break;
            }
            const double *c = checkpoint;
            const int step = (int)(c - first) / N_RECORDED * FORK_GAP;
            if (step > trunk.step)
                trunk = (state_t){c[0], c[1], c[2], c[3], c[4], c[5], c[6], step};
        }
        episode(job->p, job->path, POLICY_BASELINE, job->max_steps, delta, wind, job->theta, 0,
                NULL, 1.0, 0.0, 0.0, NULL, NULL, NULL, &trunk, 1, NULL, stop, NULL);
        if (stop[1])
            break; /* ended before deploying: so it does at every narrower threshold */
        episode(job->p, job->path, POLICY_BASELINE, job->max_steps, delta, wind, job->theta, 0,
                NULL, 1.0, 0.0, 0.0, NULL, NULL, NULL, &trunk, 0, NULL,
                job->out + 4 * ((size_t)k * job->n + row), NULL);
    }
    for (; k >= 0; k--)
        memcpy(job->out + 4 * ((size_t)k * job->n + row), stop, sizeof stop);
}

static void *batch_worker(void *arg)
{
    batch_job *job = arg;
    for (int i; (i = atomic_fetch_add_explicit(&job->next, 1, memory_order_relaxed)) < job->n;) {
        if (job->policy_mode == POLICY_BASELINE) {
            sweep_row(job, i);
        } else if (job->policy_mode != POLICY_NOMINAL) {
            plain_row(job, i, POLICY_WEIGHTS);
        } else {
            nominal_row(job, i);
        }
    }
    return NULL;
}

/*
 * Where run_workers' started threads may run. Left to itself, a started thread
 * is often queued on its caller's CPU and begins only after the caller has
 * claimed every row, so the batch runs serially. So, on Linux, `attr` is set
 * to start threads on the caller's own affinity set less the CPU the caller
 * runs on now, and the system places them within it. Returns 1 when it is;
 * returns 0, with `attr` not left initialised, elsewhere, when there is no
 * such CPU or when a call fails. The caller's own affinity never changes.
 */
static int off_caller_attr(pthread_attr_t *attr)
{
#if defined(__linux__) && defined(__GLIBC__)
    cpu_set_t mask;
    const int here = sched_getcpu();
    if (here < 0 || sched_getaffinity(0, sizeof mask, &mask) != 0)
        return 0;
    CPU_CLR(here, &mask);
    if (CPU_COUNT(&mask) == 0 || pthread_attr_init(attr) != 0)
        return 0;
    if (pthread_attr_setaffinity_np(attr, sizeof mask, &mask) == 0)
        return 1;
    pthread_attr_destroy(attr);
#else
    (void)attr;
#endif
    return 0;
}

/* A thread started by run_workers: it marks that it has begun, then works. */
typedef struct {
    batch_job *job;
    atomic_int begun;
} started_t;

static void *started_worker(void *arg)
{
    started_t *s = arg;
    atomic_store_explicit(&s->begun, 1, memory_order_relaxed);
    return batch_worker(s->job);
}

/*
 * Once the caller has claimed every row, a started thread that has not begun
 * has none left to fly, but the caller still waits for it to run and end.
 * Kept off the caller's CPU, it may wait behind other work on its own CPU for
 * milliseconds, so each such thread is moved to the caller's CPU, which the
 * caller leaves free while it waits. A thread that has begun stays put.
 */
static void late_to_caller(const pthread_t *threads, started_t *starts, int started)
{
#if defined(__linux__) && defined(__GLIBC__)
    cpu_set_t here;
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return;
    CPU_ZERO(&here);
    CPU_SET(cpu, &here);
    for (int k = 0; k < started; k++)
        if (!atomic_load_explicit(&starts[k].begun, memory_order_relaxed))
            pthread_setaffinity_np(threads[k], sizeof here, &here);
#else
    (void)threads, (void)starts, (void)started;
#endif
}

/*
 * Fly every row of `job` from row 0, shared out, one at a time, among
 * `n_workers` threads (at least 1, at most MAX_WORKERS and job->n): the
 * calling thread and threads started here and joined before it returns. On
 * Linux each started thread is kept off the caller's CPU (off_caller_attr)
 * until the caller has claimed every row (late_to_caller). A thread that
 * cannot be started leaves its share to the others.
 */
static void run_workers(batch_job *job, int n_workers)
{
    if (n_workers > MAX_WORKERS)
        n_workers = MAX_WORKERS;
    if (n_workers > job->n)
        n_workers = job->n;
    atomic_store_explicit(&job->next, 0, memory_order_relaxed);
    pthread_t threads[MAX_WORKERS - 1];
    started_t starts[MAX_WORKERS - 1];
    int started = 0;
    pthread_attr_t off_caller;
    const pthread_attr_t *attr = n_workers > 1 && off_caller_attr(&off_caller) ? &off_caller : NULL;
    while (started < n_workers - 1) {
        started_t *s = &starts[started];
        s->job = job;
        atomic_init(&s->begun, 0);
        if (!(attr && pthread_create(&threads[started], attr, started_worker, s) == 0)
            && pthread_create(&threads[started], NULL, started_worker, s) != 0)
            break;
        started++;
    }
    batch_worker(job);
    if (attr) {
        pthread_attr_destroy(&off_caller);
        late_to_caller(threads, starts, started);
    }
    for (int k = 0; k < started; k++)
        pthread_join(threads[k], NULL);
}

/*
 * Run n episodes under a fixed policy, as rtsa_rollout would one by one:
 * episode i flies in the wind of row i of `wind` (n x 8) and writes its
 * (steps, outcome, deploy_step, deploy_greedy) to row i of `out`. Under the
 * baseline policy it does so at each of the n_deltas ascending thresholds at
 * `deltas`, into block k = 0..n_deltas-1 of `out` (n_deltas x n x 4) for
 * threshold k, on one shared trunk per row (see the top of this file); the
 * other policies have no threshold, and n_deltas must be 1.
 *
 * `fork_states`, room for `fork_capacity` checkpoints, is the fork record in
 * the layout at the top of this file, row i's slot from checkpoint
 * i * fork_slot(max_steps) on. A nominal batch writes the checkpoints of the
 * rows whose slot lies in it, each into its own slot, so the record does not
 * depend on the worker count. A baseline batch reads them, and the steps and
 * outcome of those rows from `fork_nominal`, the n x 4 summaries of that
 * nominal batch; it must be given a record only from a nominal batch on the
 * same scenario, max_steps and wind. Without a record, they are NULL, 0 and
 * NULL. A weights batch ignores them.
 *
 * The rows are shared out among `n_workers` threads (run_workers). Each row
 * writes only its own rows of `out`, so `out` does not depend on the worker
 * count. Returns as rtsa_rollout, before any episode runs when it fails.
 */
int rtsa_batch(const double *p, int n_waypoints, int policy_mode, int max_steps,
               const double *wind, int n, const double *deltas, int n_deltas,
               const double *theta, int *out, int n_workers, double *fork_states,
               int64_t fork_capacity, const int *fork_nominal)
{
    path_t path;
    const int status = path_init(&path, p + P_WAYPOINTS, n_waypoints);
    if (status)
        return status;
    batch_job job = {p, &path, policy_mode, max_steps, n, wind, deltas, theta, n_deltas, out,
                     fork_states, fork_capacity, fork_slot(max_steps), fork_nominal, 0};
    run_workers(&job, n_workers);
    path_free(&path);
    return 0;
}

/*
 * The number of the n nominal episodes that leave the envelope, flown as a
 * nominal rtsa_batch with no fork record flies them (run_workers, plain_row),
 * in the wind rows at `wind` (n x 8) with their base and amplitude columns
 * rewritten from row i of `draws` (a row of rtsa_wind_draws) as
 * rtsa.sim.wind_rows scales them for a wind of `mean`, `sigma` and gust
 * strength `gust`; the frequency and phase columns do not depend on them, and
 * `wind` itself is not written. Returns the count, or as rtsa_rollout (-1, -2)
 * before any episode runs.
 */
int rtsa_exit_count(const double *p, int n_waypoints, int max_steps, const double *draws,
                    const double *wind, int n, const double *mean, double sigma, double gust,
                    int n_workers)
{
    path_t path;
    const int status = path_init(&path, p + P_WAYPOINTS, n_waypoints);
    if (status)
        return status;
    double *rows = malloc(sizeof(double) * 8 * (size_t)n + sizeof(int) * 4 * (size_t)n);
    if (rows == NULL) {
        path_free(&path);
        return -2;
    }
    const double amplitude = 2.0 * gust - 0.0; /* uniform on [0, 2 gust) */
    for (int i = 0; i < n; i++) {
        double *w = rows + 8 * (size_t)i;
        const double *d = draws + 8 * (size_t)i; /* z_x, z_y, then per axis amplitude, ... */
        w[0] = mean[0] + sigma * d[0];
        w[1] = mean[1] + sigma * d[1];
        w[2] = 0.0 + amplitude * d[2];
        w[3] = 0.0 + amplitude * d[5];
        memcpy(w + 4, wind + 8 * (size_t)i + 4, 4 * sizeof(double));
    }
    const double theta[2 * N_FEATURES] = {0.0};
    int *out = (int *)(rows + 8 * (size_t)n);
    batch_job job = {p, &path, POLICY_NOMINAL, max_steps, n, rows, NULL, theta, 1, out,
                     NULL, 0, fork_slot(max_steps), NULL, 0};
    run_workers(&job, n_workers);
    int exits = 0;
    for (int i = 0; i < n; i++)
        exits += out[4 * (size_t)i + 1] == OUTCOME_EXITED;
    free(rows);
    path_free(&path);
    return exits;
}

/* Columns of rtsa_train's rows, one row per episode. */
enum {
    ROW_RETURN,        /* discounted return */
    ROW_OUTCOME,
    ROW_DEPLOY_STEP,   /* -1 if never deployed */
    ROW_DEPLOY_GREEDY, /* -1 never deployed, 0 explored, 1 greedy */
    ROW_STEPS,
    ROW_NORM2_MAX,     /* largest squared feature norm of a decision state */
    ROW_ERROR_MAX,     /* largest absolute TD error */
    ROW_THETA_NORM,    /* Euclidean norm of the weights after the episode */
    TRAIN_ROW
};

/*
 * The Euclidean norm of the n values at w. Where their sum of squares
 * overflows although every value is finite, it is taken again over the
 * values scaled by the largest magnitude, which keeps it finite until the
 * norm itself exceeds the largest double.
 */
static double euclidean_norm(const double *w, int n)
{
    double norm2 = 0.0, largest = 0.0;
    for (int i = 0; i < n; i++)
        norm2 += w[i] * w[i];
    if (isfinite(norm2))
        return sqrt(norm2);
    for (int i = 0; i < n; i++) {
        if (!isfinite(w[i]))
            return sqrt(norm2);
        if (fabs(w[i]) > largest)
            largest = fabs(w[i]);
    }
    double scaled2 = 0.0;
    for (int i = 0; i < n; i++) {
        const double s = w[i] / largest;
        scaled2 += s * s;
    }
    return largest * sqrt(scaled2);
}

/*
 * Replay a recorded episode under a policy that does not read the weights:
 * the TD updates of its flight, on the same transitions, in the same order,
 * applied to `theta` in place. `phi` holds its states' phi[0..7], states
 * 0..steps. The deployed flag, each action and each reward follow from the
 * episode's deploy step and outcome as they did in flight: only an exit's
 * last step leaves the box, and only the last transition of an episode that
 * did not time out is terminal. Returns the largest absolute TD error.
 */
static double replay(double *theta, const double *phi, int steps, int outcome, int deploy_step,
                     double alert_penalty, double discount, double learning_rate)
{
    double prev[N_FEATURES], next[N_FEATURES], error_max = 0.0;
    memcpy(prev, phi, sizeof(double) * N_RECORDED);
    prev[8] = 0.0;
    for (int k = 1; k <= steps; k++) {
        const int deployed = deploy_step >= 0 && deploy_step < k; /* after step k - 1 */
        memcpy(next, phi + N_RECORDED * (size_t)k, sizeof(double) * N_RECORDED);
        next[8] = deployed ? 1.0 : 0.0;
        const double r = step_reward(k == steps && outcome == OUTCOME_EXITED,
                                     k - 1 == deploy_step, alert_penalty);
        const double error = fabs(td_update(theta, prev, deployed, r, next,
                                             k == steps && outcome != OUTCOME_TIMEOUT,
                                             learning_rate, discount));
        if (error > error_max)
            error_max = error;
        memcpy(prev, next, sizeof prev);
    }
    return error_max;
}

/*
 * Run n_episodes Q-learning episodes in a row under the policy `policy_mode`
 * (baseline threshold `delta`), updating `theta` in place by a TD update at
 * `discount` and `learning_rate` at every step.
 * Episode ep flies in wind row ep % n_wind of `wind` (n_wind x 8) at
 * exploration rate epsilons[ep], and draws from the stream
 * np.random.default_rng([seed, ep]) would give: under the weights policy,
 * until the switch flips, each step draws next_double (only when its
 * epsilon > 0) and, on an exploring step, next_uint32 >> 31. The other
 * policies draw nothing and do not read the weights: with more episodes than
 * wind rows, each row's first episode records its states' features, up to
 * `record_cap` states in all, and every later episode on a recorded row is
 * that row's `replay` (see the top of this file). Row ep of `rows`
 * (n_episodes x TRAIN_ROW) gets the episode's ROW_* values; a replay copies
 * its row's first episode's but for ROW_ERROR_MAX and ROW_THETA_NORM. Stops
 * after the first episode that leaves a weight non-finite. Returns the number
 * of episodes run, or as rtsa_rollout (-1, -2) before any episode runs.
 */
int64_t rtsa_train(const double *p, int n_waypoints, int policy_mode, int max_steps,
                   double delta, const double *wind, int64_t n_wind, double *theta,
                   double discount, double learning_rate, const double *epsilons,
                   int64_t n_episodes, uint64_t seed, int64_t record_cap, double *rows)
{
    path_t path;
    const int status = path_init(&path, p + P_WAYPOINTS, n_waypoints);
    if (status)
        return status;
    uint32_t words[SEED_POOL]; /* the seed's words, then the episode's: two each at most */
    const int n_seed = seed_words(seed, words);
    /* Room for every state the rows' first flights can observe, up to the cap,
     * allocated at once: only the pages written take memory. Rows
     * 0..n_recorded-1 are recorded, one after another; `offset` is the first
     * state of the next one to replay. */
    int recording = (policy_mode == POLICY_NOMINAL || policy_mode == POLICY_BASELINE)
                    && n_episodes > n_wind;
    int64_t room = ((int64_t)max_steps + 1) * n_wind;
    if (room > record_cap)
        room = record_cap;
    record_t rec = {NULL, 0, 0};
    if (recording && room > 0)
        rec.rows = malloc(sizeof(double) * N_RECORDED * (size_t)room);
    if (rec.rows == NULL)
        recording = 0;
    else
        rec.capacity = room;
    int64_t n_recorded = 0, offset = 0, ep = 0;
    int finite = 1;
    while (finite && ep < n_episodes) {
        const int64_t i = ep % n_wind;
        double *row = rows + TRAIN_ROW * (size_t)ep;
        if (ep >= n_wind && i < n_recorded) {
            const double *first = rows + TRAIN_ROW * (size_t)i;
            const int steps = (int)first[ROW_STEPS];
            if (i == 0)
                offset = 0;
            memcpy(row, first, sizeof(double) * ROW_ERROR_MAX); /* the weight-free columns */
            row[ROW_ERROR_MAX] = replay(theta, rec.rows + N_RECORDED * (size_t)offset, steps,
                                        (int)first[ROW_OUTCOME], (int)first[ROW_DEPLOY_STEP],
                                        p[P_ALERT_PENALTY], discount, learning_rate);
            offset += steps + 1;
        } else {
            pcg64_t rng;
            bitgen_t bitgen;
            seed_stream(&rng, &bitgen, words,
                        n_seed + seed_words((uint64_t)ep, words + n_seed));
            state_t start = start_state(&path);
            const int64_t rec_start = rec.used;
            record_t *record = recording && ep < n_wind ? &rec : NULL;
            int out[4];
            double dout[3];
            episode(p, &path, policy_mode, max_steps, delta, wind + 8 * (size_t)i, theta, 1,
                    theta, discount, learning_rate, epsilons[ep], &bitgen, record, NULL, &start,
                    0, NULL, out, dout);
            if (record && rec.used - rec_start == out[0] + 1)
                n_recorded++;
            else if (record) /* out of room: this row and the later ones fly every pass */
                recording = 0;
            row[ROW_RETURN] = dout[0];
            row[ROW_OUTCOME] = out[1];
            row[ROW_DEPLOY_STEP] = out[2];
            row[ROW_DEPLOY_GREEDY] = out[3];
            row[ROW_STEPS] = out[0];
            row[ROW_NORM2_MAX] = dout[1];
            row[ROW_ERROR_MAX] = dout[2];
        }
        for (int k = 0; k < 2 * N_FEATURES; k++)
            finite &= isfinite(theta[k]) != 0;
        row[ROW_THETA_NORM] = euclidean_norm(theta, 2 * N_FEATURES);
        ep++;
    }
    free(rec.rows);
    path_free(&path);
    return ep;
}

/*
 * The unit draws behind each seed's wind field: row i of `out` (n x 8) gets
 * what np.random.default_rng(seeds[i]) draws first, two standard normals and
 * then six uniforms on [0, 1).
 */
void rtsa_wind_draws(const uint64_t *seeds, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        pcg64_t rng;
        bitgen_t bitgen;
        uint32_t words[2];
        seed_stream(&rng, &bitgen, words, seed_words(seeds[i], words));
        double *row = out + 8 * (size_t)i;
        row[0] = random_standard_normal(&bitgen);
        row[1] = random_standard_normal(&bitgen);
        for (int k = 2; k < 8; k++)
            row[k] = pcg64_next_double(&rng);
    }
}
