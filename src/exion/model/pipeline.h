/**
 * @file
 * End-to-end diffusion inference pipeline.
 *
 * Owns a denoising network and a scheduler; runs the reverse process
 * from seeded noise to the generated latent under a caller-provided
 * execution strategy — either one request at a time (run()) or as a
 * cohort of requests stepping the reverse process together with their
 * latents stacked into one tall matrix per iteration (CohortRun).
 */

#ifndef EXION_MODEL_PIPELINE_H_
#define EXION_MODEL_PIPELINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "exion/model/network.h"
#include "exion/model/scheduler.h"

namespace exion
{

/**
 * Per-request run parameters.
 *
 * Everything that varies between two denoising requests against the
 * same pipeline lives here, so one immutable pipeline can serve many
 * concurrent requests.
 */
struct RunOptions
{
    /** Seed for the initial Gaussian latent. */
    u64 noiseSeed = 7;
    /**
     * Optional per-iteration hook, called after each iteration with
     * its 0-based index and the latent it produced.
     */
    std::function<void(int, const Matrix &)> onIteration;
};

/**
 * Diffusion inference driver.
 *
 * After construction the pipeline is immutable (all weights fixed);
 * run() is const and safe to call from multiple threads concurrently
 * as long as each caller brings its own executor. Everything that
 * varies per run, the iteration hook included, comes in RunOptions.
 * Serving (BatchEngine) steps every request through CohortRun; run()
 * is the solo reference loop that cohorts are checked against.
 */
class DiffusionPipeline
{
  public:
    /** Builds the network and scheduler for cfg (snapshotting the
        build into an in-memory WeightStore; see DenoisingNetwork). */
    explicit DiffusionPipeline(const ModelConfig &cfg);

    /**
     * Builds the pipeline over an existing WeightStore — no Rng
     * weight construction; every layer borrows the (possibly mmap'd,
     * possibly shared-across-engines) store's tensors. Bit-identical
     * to the cfg constructor for the store's config.
     */
    explicit DiffusionPipeline(std::shared_ptr<const WeightStore> store);

    /**
     * Runs the full reverse process.
     *
     * @param exec       block execution strategy
     * @param noise_seed seed for the initial Gaussian latent
     * @return           final generated latent
     */
    Matrix run(BlockExecutor &exec, u64 noise_seed = 7) const;

    /**
     * Runs the full reverse process with per-request options.
     *
     * Thread-safe: touches no pipeline state besides the immutable
     * network/scheduler.
     */
    Matrix run(BlockExecutor &exec, const RunOptions &opts) const;

    /**
     * Convenience cohort run: steps all seeds to completion together
     * and returns their outputs in seed order. Each output is
     * bit-identical to run(exec_solo, seeds[i]) with an equivalent
     * solo executor.
     */
    std::vector<Matrix> runCohort(CohortBlockExecutor &exec,
                                  const std::vector<u64> &seeds) const;

    /** Underlying network. */
    const DenoisingNetwork &network() const { return network_; }

    /** Underlying scheduler. */
    const DdimScheduler &scheduler() const { return scheduler_; }

    /** Model configuration. */
    const ModelConfig &config() const { return network_.config(); }

    /** The weight store backing the network. */
    const std::shared_ptr<const WeightStore> &store() const
    {
        return network_.store();
    }

  private:
    DenoisingNetwork network_;
    DdimScheduler scheduler_;
};

/**
 * A cohort of denoising requests stepping the reverse process in one
 * stacked pass per iteration.
 *
 * Members join with their own noise seed (at construction or at any
 * step boundary — a late joiner simply starts its iteration 0 while
 * earlier members are further along; the network forward conditions
 * each row-segment on its member's own timestep). Each step() stacks
 * the active members' latents into one tall matrix, runs the network
 * once, and advances every member's scheduler state by one iteration.
 * Members leave the cohort when they finish (all iterations done) or
 * when leave() removes them mid-flight (e.g. a cancelled request) —
 * removing one member never perturbs the others' rows.
 *
 * Bit-identity contract: a member's final latent equals a solo
 * DiffusionPipeline::run() with the same seed, for every execution
 * mode the bound CohortBlockExecutor implements.
 *
 * Not thread-safe; one driver thread steps a cohort.
 */
class CohortRun
{
  public:
    /**
     * @param pipe the pipeline whose reverse process the cohort steps
     * @param exec segment-aware executor; per-member state must be
     *             registered with it under the slot ids join() returns
     */
    CohortRun(const DiffusionPipeline &pipe, CohortBlockExecutor &exec);

    /**
     * Adds a member seeded with its own initial Gaussian latent.
     * Takes effect at the next step(). @return the member's slot id
     */
    Index join(u64 noise_seed);

    /**
     * Removes an unfinished member mid-flight; its rows leave the
     * stack at the next step(). Finished members need no leave().
     */
    void leave(Index slot);

    /**
     * One denoising iteration for every active member.
     *
     * @return slots of members that finished during this step
     */
    std::vector<Index> step();

    /** True when no member has work left. */
    bool done() const { return activeCount() == 0; }

    /** Members still stepping. */
    Index activeCount() const;

    /** Whether a member is still stepping. */
    bool isActive(Index slot) const;

    /** Whether a member completed all iterations. */
    bool isFinished(Index slot) const;

    /** Iterations a member has completed so far. */
    int iterationOf(Index slot) const;

    /** Moves a finished member's final latent out. */
    Matrix takeResult(Index slot);

    /** Members ever joined (slot ids are 0..memberCount()-1). */
    Index memberCount() const { return members_.size(); }

  private:
    enum class State
    {
        Active,
        Finished,
        Left,
    };

    /**
     * Active members' rows live in the persistent stacked_ matrix
     * (no per-iteration restacking); latent holds the final result
     * once a member finishes.
     */
    struct Member
    {
        Matrix latent;
        int iteration = 0;
        State state = State::Active;
    };

    /** Drops stacked rows of the member at stack position pos. */
    void removeFromStack(Index pos);

    const DiffusionPipeline *pipe_;
    CohortBlockExecutor *exec_;
    std::vector<Member> members_;
    Matrix stacked_;                //!< active latents, in stack order
    std::vector<Index> stackOrder_; //!< slot ids of stacked_ segments
};

} // namespace exion

#endif // EXION_MODEL_PIPELINE_H_
