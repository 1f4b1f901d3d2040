#include "workloads/generator.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace wbsim
{

namespace
{

/** Arena stride between behaviour address spaces: far apart, but the
 *  low bits still collide in set indices, which is realistic. */
constexpr Addr kArenaStride = Addr{1} << 33;
constexpr Addr kCodeBase = Addr{1} << 60;

double
expectedBurstLength(double continue_prob, unsigned cap)
{
    if (continue_prob <= 0.0)
        return 1.0;
    // E[len] for 1 + min(Geom(p), cap-1).
    return (1.0 - std::pow(continue_prob, cap)) / (1.0 - continue_prob);
}

} // namespace

SyntheticSource::SyntheticSource(BenchmarkProfile profile,
                                 Count instructions, std::uint64_t seed)
    : profile_(std::move(profile)), limit_(instructions), seed_(seed)
{
    profile_.validate();
    // Renewal analysis: per non-burst "draw" slot, a burst start
    // (probability q) contributes E[len] stores and E[len]-1 extra
    // instructions, so the overall store fraction is
    // f = qE / (1 + q(E-1)). Invert for q, and inflate the per-draw
    // load probability by the burst-continuation expansion factor.
    double mean_burst = expectedBurstLength(profile_.storeBurstContinue,
                                            profile_.storeBurstCap);
    double f = profile_.pctStores;
    p_burst_start_ = f / (mean_burst * (1.0 - f) + f);
    double expansion = 1.0 + p_burst_start_ * (mean_burst - 1.0);
    p_load_draw_ = profile_.pctLoads * expansion;
    if (p_burst_start_ + p_load_draw_ > 1.0)
        wbsim_fatal(profile_.name,
                    ": burst parameters push op probabilities over 1");
    rebuild();
}

void
SyntheticSource::rebuild()
{
    std::uint64_t name_hash = 0;
    for (char c : profile_.name)
        name_hash = hashCombine(name_hash, static_cast<std::uint64_t>(c));
    std::uint64_t master = hashCombine(seed_, name_hash);

    rng_ = Rng(hashCombine(master, 0xa11ce));
    load_behaviors_.clear();
    store_behaviors_.clear();
    load_weights_.clear();
    store_weights_.clear();

    // Stagger each arena's base within cache index space; regions
    // starting at identical set indices would conflict artificially
    // hard in the direct-mapped L1.
    auto arena_base = [&](std::uint64_t index) {
        Addr base = (index + 1) * kArenaStride;
        std::uint64_t stagger = hashCombine(master, 0x57a6 + index);
        return base + ((stagger % (1u << 21)) & ~Addr{63});
    };

    std::uint64_t index = 0;
    std::vector<Addr> load_bases;
    for (const BehaviorSpec &spec : profile_.loadBehaviors) {
        load_bases.push_back(arena_base(index));
        load_behaviors_.push_back(
            Behavior::make(spec, load_bases.back(),
                           hashCombine(master, index)));
        load_weights_.push_back(spec.weight);
        ++index;
    }
    for (const BehaviorSpec &spec : profile_.storeBehaviors) {
        Addr base = arena_base(index);
        if (spec.shareWithLoad >= 0) {
            wbsim_assert(static_cast<std::size_t>(spec.shareWithLoad)
                             < load_bases.size(),
                         "shareWithLoad index out of range in ",
                         profile_.name);
            base = load_bases[static_cast<std::size_t>(
                spec.shareWithLoad)];
        }
        store_behaviors_.push_back(
            Behavior::make(spec, base, hashCombine(master, index)));
        store_weights_.push_back(spec.weight);
        ++index;
    }
    load_weight_total_ = Rng::weightTotal(load_weights_);
    store_weight_total_ = Rng::weightTotal(store_weights_);

    emitted_ = 0;
    burst_left_ = 0;
    store_run_left_ = 0;
    store_run_behavior_ = 0;
    recent_head_ = 0;
    recent_count_ = 0;
    code_base_ = kCodeBase;
    loop_base_ = code_base_;
    pc_ = code_base_;
    prev_pc_ = 0;
}

void
SyntheticSource::reset()
{
    rebuild();
}

Addr
SyntheticSource::nextPc()
{
    Addr pc = pc_;
    pc_ += 4;
    if (pc_ >= loop_base_ + profile_.codeLoop)
        pc_ = loop_base_; // close the inner loop
    if (profile_.codeJumpProb > 0.0
        && rng_.nextBool(profile_.codeJumpProb)) {
        // Jump to another loop within the code footprint.
        std::uint64_t loops =
            std::max<std::uint64_t>(1,
                                    profile_.codeFootprint
                                        / profile_.codeLoop);
        loop_base_ = code_base_
            + rng_.nextBelow(loops) * profile_.codeLoop;
        pc_ = loop_base_;
    }
    return pc;
}

TraceRecord
SyntheticSource::makeLoad()
{
    if (profile_.rawFraction > 0.0 && recent_count_ > 0
        && rng_.nextBool(profile_.rawFraction)) {
        unsigned span = profile_.rawDistanceMax - profile_.rawDistanceMin;
        auto back = static_cast<std::size_t>(
            profile_.rawDistanceMin
            + (span ? rng_.nextBelow(span + 1) : 0));
        if (back > recent_count_)
            back = recent_count_;
        std::size_t slot =
            (recent_head_ + recent_.size() - back) % recent_.size();
        const RecentStore &rs = recent_[slot];
        return TraceRecord::load(rs.addr,
                                 static_cast<std::uint8_t>(rs.size));
    }
    std::size_t which =
        rng_.nextWeighted(load_weights_, load_weight_total_);
    Behavior &behavior = *load_behaviors_[which];
    return TraceRecord::load(
        behavior.next(),
        static_cast<std::uint8_t>(behavior.accessBytes()));
}

TraceRecord
SyntheticSource::makeStore()
{
    // Stores stick with one behaviour for a run: real code emits
    // runs of stores from a single loop, which is what makes
    // write-buffer coalescing work at eager retirement policies.
    if (store_run_left_ == 0) {
        store_run_behavior_ =
            rng_.nextWeighted(store_weights_, store_weight_total_);
        store_run_left_ = rng_.nextBurst(profile_.storeRunContinue,
                                         profile_.storeRunCap);
    }
    --store_run_left_;
    Behavior &behavior = *store_behaviors_[store_run_behavior_];
    Addr addr = behavior.next();
    unsigned size = behavior.accessBytes();
    recent_[recent_head_] = RecentStore{addr, size};
    recent_head_ = (recent_head_ + 1) % recent_.size();
    if (recent_count_ < recent_.size())
        ++recent_count_;
    return TraceRecord::store(addr, static_cast<std::uint8_t>(size));
}

bool
SyntheticSource::next(TraceRecord &record)
{
    if (emitted_ >= limit_)
        return false;
    emit(record);
    return true;
}

std::size_t
SyntheticSource::nextBatch(TraceRecord *out, std::size_t max)
{
    Count left = limit_ - std::min(emitted_, limit_);
    std::size_t n = left < max ? static_cast<std::size_t>(left) : max;
    for (std::size_t i = 0; i < n; ++i)
        emit(out[i]);
    return n;
}

void
SyntheticSource::emit(TraceRecord &record)
{
    ++emitted_;

    if (burst_left_ > 0) {
        --burst_left_;
        record = makeStore();
    } else {
        double draw = rng_.nextDouble();
        if (draw < p_burst_start_) {
            if (profile_.storeBurstContinue > 0.0) {
                burst_left_ = rng_.nextBurst(profile_.storeBurstContinue,
                                             profile_.storeBurstCap)
                    - 1;
            }
            record = makeStore();
        } else if (draw < p_burst_start_ + p_load_draw_) {
            record = makeLoad();
        } else if (profile_.barrierFraction > 0.0
                   && rng_.nextBool(profile_.barrierFraction)) {
            record = TraceRecord::barrier();
        } else {
            record = TraceRecord::nonMem();
        }
    }
    record.pc = nextPc();
    prev_pc_ = record.pc;
}

std::size_t
SyntheticSource::nextRuns(TraceRun *out, std::size_t max,
                          Count record_budget)
{
    Count left = std::min(limit_ - std::min(emitted_, limit_),
                          record_budget);
    std::size_t produced = 0;
    // Plain NonMem records folded into the open item so far; each
    // one lands in out[produced].rec and is overwritten by the next.
    std::uint32_t run = 0;
    Addr run_pc = 0;
    while (produced < max && left > 0) {
        Addr pc_before = prev_pc_;
        TraceRun &item = out[produced];
        emit(item.rec);
        --left;
        const TraceRecord &rec = item.rec;
        if (rec.op == Op::NonMem && rec.size == 0 && rec.addr == 0
            && rec.pc == pc_before + 4
            && run < std::numeric_limits<std::uint32_t>::max()) {
            if (run == 0)
                run_pc = pc_before;
            ++run;
            continue;
        }
        item.nonMemBefore = run;
        item.pcBefore = run_pc;
        ++produced;
        run = 0;
    }
    if (run > 0) {
        // Cut by the budget or the end of the stream: the last plain
        // record, already in place, carries the rest of the run.
        TraceRun &item = out[produced++];
        item.nonMemBefore = run - 1;
        item.pcBefore = run_pc;
    }
    return produced;
}

} // namespace wbsim
