/* Native Theorem-3 / Algorithm-1 kernels for the "native" evaluation backend.
 *
 * Compiled on first use by repro.core.evaluator_native (cc -O3 -shared) and
 * loaded through ctypes; no Python.h dependency, so any C toolchain works.
 *
 * Two entry points mirror the two phases of the incremental sweep engine
 * (repro.core.sweep.SweepState):
 *
 *   repro_fill_rows       - Algorithm-1 lost-work fill of a set of logical
 *                           rows, from the same per-position closure /
 *                           frontier bitmask words the numpy fill uses;
 *                           every candidate slot of a row is overwritten.
 *   repro_theorem3_kernel - the sequential Theorem-3 recursion (properties
 *                           [A]/[B]/[C] + Equation (1)), resumable from a
 *                           stored running-sum history exactly like the
 *                           numpy kernel.
 *
 * Determinism contract: both functions are pure functions of their inputs
 * with a fixed operation order (per-row ascending-bit charge sums, per-
 * position sequential reductions), so recomputing any suffix from the stored
 * history reproduces a from-scratch run bit for bit - the property the
 * sweep==one-shot tests pin.  Parallel row fills write disjoint outputs, so
 * thread count and scheduling cannot change any value.
 *
 * Overflow handling matches the shared canon: exponents are saturated at
 * OVERFLOW_EXPONENT (exp/expm1 arguments clipped to 700), conditional
 * expectations whose exponent guard trips become +inf, and zero-probability
 * events are skipped in the dot product so a saturated value can never turn
 * into 0 * inf = NaN.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#define OVERFLOW_EXPONENT 700.0
#define SMALL_EXPOSURE 1e-12

/* Bumped whenever an exported signature changes; the Python loader refuses
 * to use a cached shared object with a different version. */
int64_t repro_abi_version(void) { return 2; }

/* ------------------------------------------------------------------ */
/* Fast exp / expm1                                                    */
/* ------------------------------------------------------------------ */
/* Branch-free exp for arguments in [-OVERFLOW_EXPONENT, OVERFLOW_EXPONENT]
 * (callers clip first): 2^k * P(r) with |r| <= ln2/2 and a degree-13
 * Taylor polynomial.  Max observed relative error ~2e-16 over the domain -
 * far inside the 1e-9 equivalence bound.  The nearest integer k is
 * extracted with the shift-by-1.5*2^52 trick (the rounded value sits in
 * the low mantissa bits) rather than floor(): this keeps the body free of
 * libm calls and double->int conversions, which is what lets gcc vectorize
 * whole loops of calls (floor() alone defeats the loop vectorizer here). */
static inline double fast_exp(double x) {
    const double LOG2E = 1.4426950408889634074;
    const double LN2_HI = 6.93147180369123816490e-01;
    const double LN2_LO = 1.90821492927058770002e-10;
    const double MAGIC = 6755399441055744.0; /* 1.5 * 2^52 */
    double t = x * LOG2E + MAGIC;
    double k = t - MAGIC;
    double r = (x - k * LN2_HI) - k * LN2_LO;
    double p = 1.0 / 6227020800.0;
    p = p * r + 1.0 / 479001600.0;
    p = p * r + 1.0 / 39916800.0;
    p = p * r + 1.0 / 3628800.0;
    p = p * r + 1.0 / 362880.0;
    p = p * r + 1.0 / 40320.0;
    p = p * r + 1.0 / 5040.0;
    p = p * r + 1.0 / 720.0;
    p = p * r + 1.0 / 120.0;
    p = p * r + 1.0 / 24.0;
    p = p * r + 1.0 / 6.0;
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    /* t's low mantissa bits hold round(x * LOG2E) + 2^51; rebase to the
     * IEEE exponent field.  Arguments stay in [-1011, 1011], so the biased
     * exponent (k + 1023) never under- or overflows. */
    union { uint64_t u; double d; } tb, scale;
    tb.d = t;
    scale.u = ((tb.u & 0xFFFFFFFFFFFFFULL) - (1ULL << 51) + 1023) << 52;
    return p * scale.d;
}

/* expm1 for x in [0, OVERFLOW_EXPONENT].  Small arguments use the Taylor
 * series of e^x - 1 directly (no cancellation); past 0.5 the subtraction
 * loses at most one bit, so exp(x) - 1 is already fully accurate.  Both
 * sides are evaluated and blended with a select (each is finite over the
 * whole domain) so loops of calls stay branch-free and vectorize. */
static inline double fast_expm1(double x) {
    double big = fast_exp(x) - 1.0;
    double p = 1.0 / 87178291200.0;
    p = p * x + 1.0 / 6227020800.0;
    p = p * x + 1.0 / 479001600.0;
    p = p * x + 1.0 / 39916800.0;
    p = p * x + 1.0 / 3628800.0;
    p = p * x + 1.0 / 362880.0;
    p = p * x + 1.0 / 40320.0;
    p = p * x + 1.0 / 5040.0;
    p = p * x + 1.0 / 720.0;
    p = p * x + 1.0 / 120.0;
    p = p * x + 1.0 / 24.0;
    p = p * x + 1.0 / 6.0;
    p = p * x + 0.5;
    p = p * x + 1.0;
    return (x > 0.5) ? big : p * x;
}

/* ------------------------------------------------------------------ */
/* Algorithm-1 lost-work row fill                                      */
/* ------------------------------------------------------------------ */
/* One logical row k: walk the candidates in position order, accumulate the
 * regenerated set, and price each candidate's freshly visited positions by
 * an ascending-bit sum over the per-position charge table.  Every candidate
 * of the row gets its value written into column k of loss_t (0.0 when
 * nothing is charged), and no other entry of the column can ever be
 * nonzero, so a refill needs no clearing pass. */
static void fill_one_row(
    int64_t k,
    int64_t words,
    const uint64_t *fwords,
    const uint64_t *cwords,
    const int64_t *cand_ptr,
    const int64_t *cand_idx,
    const int64_t *pred_ptr,
    const int64_t *pred_idx,
    const double *charges,
    double *loss_t,
    int64_t n1,
    uint64_t *regen,   /* scratch, words entries */
    uint64_t *front)   /* scratch, words entries */
{
    memset(regen, 0, (size_t)words * sizeof(uint64_t));
    for (int64_t t = cand_ptr[k]; t < cand_ptr[k + 1]; t++) {
        int64_t i = cand_idx[t];
        const uint64_t *frontier;
        int64_t pe = pred_ptr[i + 1];
        if (pred_idx[pe - 1] < k) {
            /* Every predecessor sits below k: the precomputed full
             * frontier applies verbatim. */
            frontier = fwords + (size_t)i * (size_t)words;
        } else {
            /* Predecessor list straddles k: the traversal only descends
             * through predecessors placed below k, so OR exactly their
             * closures (the truncated frontier). */
            memset(front, 0, (size_t)words * sizeof(uint64_t));
            for (int64_t q = pred_ptr[i]; q < pe; q++) {
                int64_t p = pred_idx[q];
                if (p >= k)
                    break;
                const uint64_t *cw = cwords + (size_t)p * (size_t)words;
                for (int64_t w = 0; w < words; w++)
                    front[w] |= cw[w];
            }
            frontier = front;
        }
        /* visited = frontier & ~regenerated; charge it and fold it in. */
        double value = 0.0;
        for (int64_t w = 0; w < words; w++) {
            uint64_t visited = frontier[w] & ~regen[w];
            if (!visited)
                continue;
            regen[w] |= visited;
            const double *charge_base = charges + (w << 6);
            do {
                int b = __builtin_ctzll(visited);
                value += charge_base[b];
                visited &= visited - 1;
            } while (visited);
        }
        loss_t[(size_t)i * (size_t)n1 + (size_t)k] = value;
    }
}

/* Fill every row in `rows`.  Rows are independent and each writes only its
 * own column of loss_t, so the OpenMP split (when compiled in and
 * threads > 1) cannot change any value. */
void repro_fill_rows(
    int64_t n_rows,
    const int64_t *rows,
    int64_t words,
    const uint64_t *fwords,
    const uint64_t *cwords,
    const int64_t *cand_ptr,
    const int64_t *cand_idx,
    const int64_t *pred_ptr,
    const int64_t *pred_idx,
    const double *charges,
    double *loss_t,
    int64_t n1,
    int64_t threads)
{
#ifdef _OPENMP
    if (threads > 1) {
        #pragma omp parallel num_threads((int)threads)
        {
            uint64_t *scratch = malloc((size_t)(2 * words) * sizeof(uint64_t));
            #pragma omp for schedule(dynamic, 16)
            for (int64_t r = 0; r < n_rows; r++) {
                fill_one_row(
                    rows[r], words, fwords, cwords, cand_ptr, cand_idx,
                    pred_ptr, pred_idx, charges, loss_t, n1,
                    scratch, scratch + words);
            }
            free(scratch);
        }
        return;
    }
#else
    (void)threads;
#endif
    uint64_t *scratch = malloc((size_t)(2 * words) * sizeof(uint64_t));
    for (int64_t r = 0; r < n_rows; r++) {
        fill_one_row(
            rows[r], words, fwords, cwords, cand_ptr, cand_idx,
            pred_ptr, pred_idx, charges, loss_t, n1,
            scratch, scratch + words);
    }
    free(scratch);
}

/* ------------------------------------------------------------------ */
/* Theorem-3 recursion (resumable)                                     */
/* ------------------------------------------------------------------ */
/* Positions start..n are recomputed; everything below `start` is read from
 * the running-sum history / base / expected_times state of the previous run
 * (a full run is simply start = 1 over a zeroed history row 0).  Unlike the
 * numpy kernel there is no saturated-regime switch: zero-probability events
 * are always skipped in the dot product, which is bit-identical to adding
 * their +0.0 contribution in the unsaturated case and exactly the masked
 * form in the saturated one - so a stored prefix is *always* resumable. */
void repro_theorem3_kernel(
    int64_t n,
    int64_t start,
    const double *restrict loss_t, /* (n+1) x n1, loss_t[i*n1 + k] = W^i_k + R^i_k */
    int64_t n1,
    const double *restrict weights,    /* (n,) position order */
    const double *restrict ckpt_costs, /* (n,) zero where not checkpointed */
    double lam,
    double downtime,
    double *restrict running_hist, /* (n+1) x n1 running-sum history rows */
    double *restrict base,         /* (n,) P(Z^{k+1}_k); base[0] = 1 */
    double *restrict expected_times, /* (n,) E[X_i] outputs */
    double *restrict probs,          /* (n,) scratch */
    double *restrict values)         /* (n,) scratch */
{
    double inv_lam = 1.0 / lam;
    for (int64_t i = start; i <= n; i++) {
        int64_t m = i - 1;
        const double *restrict prev = running_hist + (size_t)m * (size_t)n1;
        const double *restrict lrow = loss_t + (size_t)i * (size_t)n1;
        double wc = weights[m] + ckpt_costs[m];
        double diag = lrow[i];

        /* Property [A]: P(Z^i_k) = exp(running[k]) * base[k], saturated to
         * zero past the shared overflow guard.  The sum is a separate pass
         * so the transcendental loop stays free of loop-carried
         * dependencies and vectorizes. */
        for (int64_t k = 0; k < m; k++) {
            double r = prev[k];
            probs[k] = (r < -OVERFLOW_EXPONENT) ? 0.0 : fast_exp(r) * base[k];
        }
        double psum = 0.0;
        for (int64_t k = 0; k < m; k++)
            psum += probs[k];
        /* Property [B]: the last event takes the remaining mass. */
        double remaining = 1.0 - psum;
        if (remaining < 0.0)
            remaining = 0.0;
        else if (remaining > 1.0)
            remaining = 1.0;
        probs[m] = remaining;
        if (i >= 2)
            base[m] = remaining;

        /* Property [C] via Equation (1), branchless so the loop vectorizes:
         * the overflow and tiny-exposure guards are applied as selects. */
        for (int64_t k = 0; k < i; k++) {
            double l = lrow[k];
            double exposure = lam * (l + wc);
            double rec = diag - l;
            rec = (rec > 0.0) ? rec : 0.0;
            double rec_exposure = lam * rec;
            double e1 = (exposure > OVERFLOW_EXPONENT) ? OVERFLOW_EXPONENT : exposure;
            double e2 = (rec_exposure > OVERFLOW_EXPONENT) ? OVERFLOW_EXPONENT : rec_exposure;
            double grown = fast_expm1(e1);
            double v = fast_exp(e2) * (grown * inv_lam + downtime * grown);
            v = (exposure > OVERFLOW_EXPONENT || rec_exposure > OVERFLOW_EXPONENT)
                    ? INFINITY : v;
            v = (exposure < SMALL_EXPOSURE) ? (l + wc) : v;
            values[k] = v;
        }

        /* Dot product, skipping zero-probability events (keeps saturated
         * inf values from producing 0 * inf). */
        double xi = 0.0;
        for (int64_t k = 0; k < i; k++) {
            double p = probs[k];
            xi += (p != 0.0) ? p * values[k] : 0.0;
        }
        expected_times[m] = xi;

        /* Advance the -lam-prescaled running sums into this iteration's own
         * history row (entries >= i stay zero, doubling as resume points). */
        double *restrict cur = running_hist + (size_t)i * (size_t)n1;
        double neg_wc = -lam * wc;
        double neg_lam = -lam;
        for (int64_t k = 0; k < i; k++)
            cur[k] = prev[k] + neg_lam * lrow[k] + neg_wc;
    }
}

/* Quick numeric self-test the loader runs once per build: exercises both
 * fast transcendentals across the saturation domain and returns the maximum
 * relative error against libm.  A miscompiled cache entry (e.g. a stale
 * object built for a different CPU would more likely SIGILL, but a wrong
 * -ffast-math rebuild would land here) is rejected by the loader. */
double repro_native_selftest(void) {
    double max_rel = 0.0;
    for (double x = -700.0; x <= 700.0; x += 0.73) {
        double a = exp(x);
        double b = fast_exp(x);
        double rel = fabs(a - b) / a;
        if (rel > max_rel)
            max_rel = rel;
    }
    for (double x = 0.0; x <= 700.0; x += 0.41) {
        double a = expm1(x);
        double b = fast_expm1(x);
        double rel = (a == 0.0) ? fabs(b) : fabs(a - b) / a;
        if (rel > max_rel)
            max_rel = rel;
    }
    return max_rel;
}
