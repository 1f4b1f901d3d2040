/**
 * @file
 * SyntheticSource: turns a BenchmarkProfile into a deterministic
 * TraceRecord stream.
 */

#ifndef WBSIM_WORKLOADS_GENERATOR_HH
#define WBSIM_WORKLOADS_GENERATOR_HH

#include <array>
#include <memory>
#include <vector>

#include "trace/source.hh"
#include "util/random.hh"
#include "workloads/profile.hh"

namespace wbsim
{

/** Deterministic synthetic workload generator. */
class SyntheticSource : public TraceSource
{
  public:
    /**
     * @param profile the benchmark model (copied).
     * @param instructions stream length.
     * @param seed master seed; every internal stream derives from it.
     */
    SyntheticSource(BenchmarkProfile profile, Count instructions,
                    std::uint64_t seed = 1);

    bool next(TraceRecord &record) override;
    std::size_t nextBatch(TraceRecord *out, std::size_t max) override;

    /**
     * Generate run items (see TraceRun): plain NonMem records fold
     * into the next item's run, so consumers charge them in O(1)
     * exactly as they do materialized replay. A run cut by
     * @p record_budget or by the end of the stream ends in an item
     * whose `rec` is the run's last plain record. Interleaves freely
     * with next() and nextBatch().
     */
    std::size_t nextRuns(TraceRun *out, std::size_t max,
                         Count record_budget = kNoRecordBudget) override;

    void reset() override;
    std::string name() const override { return profile_.name; }

    const BenchmarkProfile &profile() const { return profile_; }
    Count instructions() const { return limit_; }

  private:
    struct RecentStore
    {
        Addr addr = 0;
        unsigned size = 8;
    };

    BenchmarkProfile profile_;
    Count limit_;
    std::uint64_t seed_;

    Rng rng_{1};
    std::vector<std::unique_ptr<Behavior>> load_behaviors_;
    std::vector<std::unique_ptr<Behavior>> store_behaviors_;
    std::vector<double> load_weights_;
    std::vector<double> store_weights_;
    /** Rng::weightTotal of the vectors above, hoisted out of the
     *  per-record nextWeighted draws (same left-to-right sum). */
    double load_weight_total_ = 0.0;
    double store_weight_total_ = 0.0;

    Count emitted_ = 0;
    unsigned burst_left_ = 0;
    unsigned store_run_left_ = 0;
    std::size_t store_run_behavior_ = 0;
    double p_burst_start_ = 0.0;
    double p_load_draw_ = 0.0;

    /** Ring of recent stores feeding RAW loads. */
    std::array<RecentStore, 64> recent_;
    std::size_t recent_head_ = 0;
    std::size_t recent_count_ = 0;

    /** Instruction-address model. */
    Addr code_base_ = 0;
    Addr loop_base_ = 0;
    Addr pc_ = 0;
    /** pc of the last record emitted (0 before the first): a NonMem
     *  record at prev_pc_ + 4 continues a plain run. */
    Addr prev_pc_ = 0;

    void rebuild();
    /** next() minus the end-of-stream check (batch inner loop). */
    void emit(TraceRecord &record);
    TraceRecord makeLoad();
    TraceRecord makeStore();
    Addr nextPc();
};

} // namespace wbsim

#endif // WBSIM_WORKLOADS_GENERATOR_HH
