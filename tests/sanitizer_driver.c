/*
 * Drives the kernels of src/rtsa/_rollout.c through a fixed sequence of calls,
 * for builds under AddressSanitizer with UndefinedBehaviorSanitizer and under
 * ThreadSanitizer (see tests/test_sanitizers.py, which builds it, writes its
 * input and checks its output against the Python twin).
 *
 * Usage: sanitizer_driver INPUT OUTPUT
 *
 * INPUT is float64 values: the counts n_params, n_waypoints, max_steps, n,
 * n_deltas, n_caps, n_episodes, n_train_caps and n_rounds; then the packed
 * scenario (n_params), the wind rows (n x 8), the ascending baseline
 * thresholds (n_deltas), the fork record capacities (n_caps), the warm
 * start's threshold, discount and learning rate, its exploration rates
 * (n_episodes) and its record caps (n_train_caps); then the weight columns
 * of a weights batch (18), the wind's unit draws (n x 8), its mean (2) and
 * the wind and gust strengths of an exit count.
 *
 * On each of 1, 2 and 3 workers it runs a cold baseline sweep, then for each
 * capacity a nominal batch that records into a buffer of exactly that many
 * checkpoints and a warm sweep that reads it. Then, for each record cap, one
 * warm start under the baseline from zero weights. Then, on each of 1, 2 and
 * 3 workers, n_rounds back-to-back rounds of a nominal batch with no record,
 * a cold sweep, a weights batch and an exit count. OUTPUT gets, in that
 * order and as raw bytes: each sweep's summaries (n_deltas x n x 4 int),
 * each nominal batch's summaries (n x 4 int) and buffer (capacity x 8
 * float64) before its warm sweep's, each warm start's episode count
 * (int64), rows (count x 8 float64) and weights (18 float64), and each
 * round's nominal, sweep and weights summaries and exit count (int). Exits 1
 * when a kernel call fails and 2 on bad usage or input.
 */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

int rtsa_batch(const double *p, int n_waypoints, int policy_mode, int max_steps,
               const double *wind, int n, const double *deltas, int n_deltas,
               const double *theta, int *out, int n_workers, double *fork_states,
               int64_t fork_capacity, const int *fork_nominal);
int64_t rtsa_train(const double *p, int n_waypoints, int policy_mode, int max_steps,
                   double delta, const double *wind, int64_t n_wind, double *theta,
                   double discount, double learning_rate, const double *epsilons,
                   int64_t n_episodes, uint64_t seed, int64_t record_cap, double *rows);
int rtsa_exit_count(const double *p, int n_waypoints, int max_steps, const double *draws,
                    const double *wind, int n, const double *mean, double sigma, double gust,
                    int n_workers);

enum { POLICY_NOMINAL, POLICY_BASELINE, POLICY_WEIGHTS };
enum { N_COUNTS = 9, TRAIN_ROW = 8, N_THETA = 18 };

static FILE *output;

static void emit(const void *data, size_t size, size_t count)
{
    if (count && fwrite(data, size, count, output) != count)
        exit(2);
}

static void check(int status)
{
    if (status != 0) {
        fprintf(stderr, "kernel call returned %d\n", status);
        exit(1);
    }
}

int main(int argc, char **argv)
{
    if (argc != 3)
        return 2;
    FILE *input = fopen(argv[1], "rb");
    if (input == NULL)
        return 2;
    double counts[N_COUNTS];
    if (fread(counts, sizeof(double), N_COUNTS, input) != N_COUNTS)
        return 2;
    const int n_params = (int)counts[0], n_waypoints = (int)counts[1];
    const int max_steps = (int)counts[2], n = (int)counts[3], n_deltas = (int)counts[4];
    const int n_caps = (int)counts[5], n_episodes = (int)counts[6];
    const int n_train_caps = (int)counts[7], n_rounds = (int)counts[8];
    const size_t n_values = (size_t)n_params + 16 * (size_t)n + (size_t)n_deltas
                            + (size_t)n_caps + 3 + (size_t)n_episodes + (size_t)n_train_caps
                            + N_THETA + 4;
    double *values = malloc(sizeof(double) * n_values);
    if (values == NULL || fread(values, sizeof(double), n_values, input) != n_values)
        return 2;
    fclose(input);
    const double *p = values, *wind = p + n_params, *deltas = wind + 8 * (size_t)n;
    const double *caps = deltas + n_deltas, *train = caps + n_caps;
    const double *epsilons = train + 3, *train_caps = epsilons + n_episodes;
    const double *weights = train_caps + n_train_caps, *draws = weights + N_THETA;
    const double *mean = draws + 8 * (size_t)n, *strengths = mean + 2;

    output = fopen(argv[2], "wb");
    if (output == NULL)
        return 2;
    const double zeros[N_THETA] = {0.0};
    int *sweep = malloc(sizeof(int) * 4 * (size_t)n_deltas * (size_t)n);
    int *nominal = malloc(sizeof(int) * 4 * (size_t)n);
    if (sweep == NULL || nominal == NULL)
        return 2;
    for (int workers = 1; workers <= 3; workers++) {
        check(rtsa_batch(p, n_waypoints, POLICY_BASELINE, max_steps, wind, n, deltas, n_deltas,
                         zeros, sweep, workers, NULL, 0, NULL));
        emit(sweep, sizeof(int), 4 * (size_t)n_deltas * (size_t)n);
        for (int c = 0; c < n_caps; c++) {
            const int64_t capacity = (int64_t)caps[c];
            /* Exactly `capacity` checkpoints, so a write beyond them is reported. */
            double *states = calloc(capacity > 0 ? (size_t)capacity : 1, 8 * sizeof(double));
            if (states == NULL)
                return 2;
            check(rtsa_batch(p, n_waypoints, POLICY_NOMINAL, max_steps, wind, n, zeros, 1, zeros,
                             nominal, workers, states, capacity, NULL));
            emit(nominal, sizeof(int), 4 * (size_t)n);
            emit(states, sizeof(double), 8 * (size_t)capacity);
            check(rtsa_batch(p, n_waypoints, POLICY_BASELINE, max_steps, wind, n, deltas,
                             n_deltas, zeros, sweep, workers, states, capacity, nominal));
            emit(sweep, sizeof(int), 4 * (size_t)n_deltas * (size_t)n);
            free(states);
        }
    }
    double *rows = malloc(sizeof(double) * TRAIN_ROW * (size_t)n_episodes);
    if (rows == NULL)
        return 2;
    for (int c = 0; c < n_train_caps; c++) {
        double theta[N_THETA] = {0.0};
        const int64_t done = rtsa_train(p, n_waypoints, POLICY_BASELINE, max_steps, train[0],
                                        wind, n, theta, train[1], train[2], epsilons, n_episodes,
                                        0, (int64_t)train_caps[c], rows);
        if (done < 0)
            check((int)done);
        emit(&done, sizeof done, 1);
        emit(rows, sizeof(double), TRAIN_ROW * (size_t)done);
        emit(theta, sizeof(double), N_THETA);
    }
    free(rows);
    for (int workers = 1; workers <= 3; workers++) {
        for (int round = 0; round < n_rounds; round++) {
            check(rtsa_batch(p, n_waypoints, POLICY_NOMINAL, max_steps, wind, n, zeros, 1, zeros,
                             nominal, workers, NULL, 0, NULL));
            emit(nominal, sizeof(int), 4 * (size_t)n);
            check(rtsa_batch(p, n_waypoints, POLICY_BASELINE, max_steps, wind, n, deltas,
                             n_deltas, zeros, sweep, workers, NULL, 0, NULL));
            emit(sweep, sizeof(int), 4 * (size_t)n_deltas * (size_t)n);
            check(rtsa_batch(p, n_waypoints, POLICY_WEIGHTS, max_steps, wind, n, zeros, 1,
                             weights, nominal, workers, NULL, 0, NULL));
            emit(nominal, sizeof(int), 4 * (size_t)n);
            const int exits = rtsa_exit_count(p, n_waypoints, max_steps, draws, wind, n, mean,
                                              strengths[0], strengths[1], workers);
            if (exits < 0)
                check(exits);
            emit(&exits, sizeof exits, 1);
        }
    }
    free(nominal);
    free(sweep);
    free(values);
    return fclose(output) == 0 ? 0 : 2;
}
