#include "trace/primitives.hh"

#include <algorithm>
#include <numeric>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace ltc
{

namespace
{

/** Word offset within a block for the k-th access to that block. */
constexpr Addr
wordOffset(std::uint32_t k, std::uint64_t block_bytes)
{
    return (static_cast<Addr>(k) * 8) % block_bytes;
}

} // namespace

//
// StridedScanSource
//

StridedScanSource::StridedScanSource(std::vector<ScanArray> arrays,
                                     std::uint32_t non_mem_gap,
                                     std::string name)
    : arrays_(std::move(arrays)), gap_(non_mem_gap),
      name_(std::move(name))
{
    ltc_assert(!arrays_.empty(), "StridedScanSource with no arrays");
    for (const auto &a : arrays_) {
        ltc_assert(a.blocks > 0, "ScanArray with zero blocks");
        ltc_assert(a.accessesPerBlock > 0,
                   "ScanArray with zero accessesPerBlock");
    }
}

std::size_t
StridedScanSource::fill(std::span<MemRef> out)
{
    for (MemRef &ref : out) {
        const ScanArray &a = arrays_[arrayIdx_];

        Addr base = a.base;
        if (a.advancePerIter) {
            const std::uint64_t wrap =
                a.wrapBytes ? a.wrapBytes : (std::uint64_t{1} << 30);
            base += (iter_ * a.advancePerIter) % wrap;
        }

        ref.pc = a.pc + accessIdx_ * 4;
        ref.addr = base + blockIdx_ * defaultBlockSize +
            wordOffset(accessIdx_, defaultBlockSize);
        ref.op = a.stores ? MemOp::Store : MemOp::Load;
        ref.nonMemGap = gap_;
        ref.dependsOnPrev = false;

        // Advance position: accesses within block, blocks within
        // array, arrays within iteration.
        if (++accessIdx_ >= a.accessesPerBlock) {
            accessIdx_ = 0;
            if (++blockIdx_ >= a.blocks) {
                blockIdx_ = 0;
                if (++arrayIdx_ >= arrays_.size()) {
                    arrayIdx_ = 0;
                    iter_++;
                }
            }
        }
    }
    return out.size();
}

void
StridedScanSource::reset()
{
    arrayIdx_ = 0;
    blockIdx_ = 0;
    accessIdx_ = 0;
    iter_ = 0;
}

//
// PointerChaseSource
//

PointerChaseSource::PointerChaseSource(PointerChaseParams params,
                                       std::string name)
    : params_(params), name_(std::move(name)), rng_(params.seed)
{
    ltc_assert(params_.nodes >= 2, "PointerChaseSource needs >= 2 nodes");
    ltc_assert(params_.nodes <= (std::uint64_t{1} << 32),
               "PointerChaseSource node count exceeds u32 index space");
    ltc_assert(params_.accessesPerNode > 0,
               "PointerChaseSource zero accessesPerNode");
    ltc_assert(params_.shuffle >= 0.0 && params_.shuffle <= 1.0,
               "shuffle fraction out of [0,1]");
    buildChain();
}

Addr
PointerChaseSource::nodeAddr(std::uint64_t i) const
{
    return params_.base + i * params_.nodeBytes;
}

void
PointerChaseSource::buildChain()
{
    const auto n = static_cast<std::uint32_t>(params_.nodes);
    // Build a single n-cycle visiting every node. Start from the
    // layout-order cycle 0 -> 1 -> ... -> n-1 -> 0 expressed as a
    // visit order, optionally shuffle the visit order (Sattolo-style
    // partial shuffle keyed by the shuffle fraction). The visit order
    // IS the stored representation: the simulated successor of
    // order_[k] is order_[k+1], so deriving explicit links would only
    // re-encode the same permutation in a form the generator would
    // then have to chase one dependent load at a time.
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0);
    if (params_.shuffle > 0.0) {
        const auto shuffled =
            static_cast<std::uint32_t>(params_.shuffle * n);
        // Fisher-Yates over the first `shuffled` positions, drawing
        // partners from the whole array.
        for (std::uint32_t i = 0; i < shuffled; i++) {
            const auto j =
                static_cast<std::uint32_t>(rng_.range(i, n - 1));
            std::swap(order_[i], order_[j]);
        }
    }
    pos_ = 0;
}

void
PointerChaseSource::mutate()
{
    const auto n = static_cast<std::uint32_t>(params_.nodes);
    const auto count = static_cast<std::uint64_t>(
        params_.mutateFraction * static_cast<double>(n));
    // Relinking by transposing successors of random node pairs would
    // keep every node reachable only if both nodes stay in one cycle;
    // a transposition of two elements of a single cycle always yields
    // two cycles. Reversing random segments of the visit order
    // instead preserves the single-cycle property by construction.
    // Mutation fires exactly at a wrap (pos_ == 0), where the stored
    // order already starts at the node the traversal resumes from.
    std::uint64_t mutated = 0;
    while (mutated < count) {
        const auto lo = static_cast<std::uint32_t>(rng_.below(n));
        const auto len = static_cast<std::uint32_t>(
            rng_.range(2, std::min<std::uint64_t>(64, n)));
        const auto hi = std::min<std::uint32_t>(n - 1, lo + len);
        std::reverse(order_.begin() + lo, order_.begin() + hi);
        mutated += hi - lo;
    }
}

std::size_t
PointerChaseSource::fill(std::span<MemRef> out)
{
    // Both paths read order_ sequentially — indexed loads the hardware
    // prefetcher covers, where the successor-link form of this source
    // serialized one dependent (usually missing) load per simulated
    // node. The common one-access-per-node case emits wrap-free sweeps
    // of whole nodes; multi-access nodes advance one record at a time.
    const std::uint32_t apn = params_.accessesPerNode;
    std::size_t n = 0;
    while (n < out.size()) {
        if (apn == 1) {
            const std::size_t chunk = static_cast<std::size_t>(
                std::min<std::uint64_t>(out.size() - n,
                                        params_.nodes - pos_));
            const std::uint32_t *nodes = order_.data() + pos_;
            for (std::size_t i = 0; i < chunk; i++) {
                MemRef &ref = out[n + i];
                ref.pc = params_.pc;
                ref.addr = nodeAddr(nodes[i]);
                ref.op = MemOp::Load;
                ref.nonMemGap = params_.nonMemGap;
                ref.dependsOnPrev = true;
            }
            n += chunk;
            pos_ += chunk;
        } else {
            MemRef &ref = out[n++];
            ref.pc = params_.pc + accessIdx_ * 4;
            ref.addr = nodeAddr(order_[pos_]) +
                wordOffset(accessIdx_, params_.nodeBytes);
            ref.op = MemOp::Load;
            ref.nonMemGap = params_.nonMemGap;
            // The first access to a node dereferences the pointer
            // loaded from the previous node; subsequent same-node
            // accesses hit the block.
            ref.dependsOnPrev = accessIdx_ == 0;
            if (++accessIdx_ < apn)
                continue;
            accessIdx_ = 0;
            pos_++;
        }
        if (pos_ >= params_.nodes) {
            pos_ = 0;
            iter_++;
            if (params_.mutateEveryIters &&
                iter_ % params_.mutateEveryIters == 0 &&
                params_.mutateFraction > 0.0) {
                mutate();
            }
        }
    }
    return out.size();
}

void
PointerChaseSource::reset()
{
    rng_.reseed(params_.seed);
    accessIdx_ = 0;
    iter_ = 0;
    buildChain();
}

//
// TreeWalkSource
//

TreeWalkSource::TreeWalkSource(TreeWalkParams params, std::string name)
    : params_(params), name_(std::move(name))
{
    ltc_assert(params_.nodes >= 1, "TreeWalkSource needs >= 1 node");
    ltc_assert(params_.accessesPerNode > 0,
               "TreeWalkSource zero accessesPerNode");

    const auto n = static_cast<std::uint32_t>(params_.nodes);

    placement_.resize(n);
    std::iota(placement_.begin(), placement_.end(), 0);
    if (!params_.regularLayout) {
        Rng rng(params_.seed);
        for (std::uint32_t i = n; i > 1; i--) {
            const auto j = static_cast<std::uint32_t>(rng.below(i));
            std::swap(placement_[i - 1], placement_[j]);
        }
    }

    // Iterative pre-order DFS over the implicit complete binary tree
    // rooted at index 0 (children of i are 2i+1 and 2i+2).
    order_.reserve(n);
    std::vector<std::uint32_t> stack;
    stack.push_back(0);
    while (!stack.empty()) {
        const std::uint32_t i = stack.back();
        stack.pop_back();
        if (i >= n)
            continue;
        order_.push_back(i);
        // Push right child first so the left subtree is visited first.
        stack.push_back(2 * i + 2);
        stack.push_back(2 * i + 1);
    }
    ltc_assert(order_.size() == n, "DFS order incomplete");
}

std::size_t
TreeWalkSource::fill(std::span<MemRef> out)
{
    for (MemRef &ref : out) {
        const std::uint32_t node = order_[pos_];
        const Addr addr = params_.base +
            static_cast<Addr>(placement_[node]) * params_.nodeBytes;

        ref.pc = params_.pc + accessIdx_ * 4;
        ref.addr = addr + wordOffset(accessIdx_, params_.nodeBytes);
        ref.op = MemOp::Load;
        ref.nonMemGap = params_.nonMemGap;
        ref.dependsOnPrev = accessIdx_ == 0;

        if (++accessIdx_ >= params_.accessesPerNode) {
            accessIdx_ = 0;
            if (++pos_ >= order_.size()) {
                pos_ = 0;
                iter_++;
            }
        }
    }
    return out.size();
}

void
TreeWalkSource::reset()
{
    pos_ = 0;
    accessIdx_ = 0;
    iter_ = 0;
}

//
// HashProbeSource
//

HashProbeSource::HashProbeSource(HashProbeParams params, std::string name)
    : params_(params), name_(std::move(name)), rng_(params.seed)
{
    ltc_assert(params_.blocks > 0, "HashProbeSource with zero blocks");
    // The hot subset cannot exceed the region; clamp so callers can
    // leave the default hotBlocks with small regions.
    params_.hotBlocks = std::min(params_.hotBlocks, params_.blocks);
    ltc_assert(params_.hotFraction >= 0.0 && params_.hotFraction <= 1.0,
               "hotFraction out of [0,1]");
    ltc_assert(params_.pcCount > 0, "HashProbeSource zero pcCount");
}

std::size_t
HashProbeSource::fill(std::span<MemRef> out)
{
    for (MemRef &ref : out) {
        std::uint64_t block;
        if (params_.hotFraction > 0.0 &&
            rng_.chance(params_.hotFraction)) {
            block = rng_.below(
                std::max<std::uint64_t>(1, params_.hotBlocks));
        } else {
            block = rng_.below(params_.blocks);
        }

        ref.pc = params_.pc + (count_ % params_.pcCount) * 4;
        ref.addr = params_.base + block * params_.blockStride *
            defaultBlockSize;
        ref.op = rng_.chance(params_.storeFraction) ? MemOp::Store
                                                    : MemOp::Load;
        ref.nonMemGap = params_.nonMemGap;
        ref.dependsOnPrev = false;
        count_++;
    }
    return out.size();
}

void
HashProbeSource::reset()
{
    rng_.reseed(params_.seed);
    count_ = 0;
}

//
// InterleaveSource
//

InterleaveSource::InterleaveSource(
    std::vector<std::unique_ptr<TraceSource>> children,
    std::vector<std::uint32_t> chunks, std::string name)
    : children_(std::move(children)), chunks_(std::move(chunks)),
      name_(std::move(name))
{
    ltc_assert(!children_.empty(), "InterleaveSource with no children");
    ltc_assert(children_.size() == chunks_.size(),
               "InterleaveSource children/chunks size mismatch");
    for (auto c : chunks_)
        ltc_assert(c > 0, "InterleaveSource zero chunk length");
}

std::size_t
InterleaveSource::fill(std::span<MemRef> out)
{
    // Delegate whole chunk remainders to each child's fill(), so the
    // per-record virtual hop is paid once per chunk, not per record.
    // A child that ends is skipped; the stream ends once every child
    // fails to produce in consecutive attempts.
    std::size_t n = 0;
    std::size_t failed = 0;
    while (n < out.size() && failed < children_.size()) {
        const std::size_t want =
            std::min<std::size_t>(out.size() - n,
                                  chunks_[childIdx_] - inChunk_);
        const std::size_t got =
            children_[childIdx_]->fill(out.subspan(n, want));
        n += got;
        inChunk_ += static_cast<std::uint32_t>(got);
        if (got < want) {
            // This child ended; the attempt that discovered it counts
            // toward the all-children-exhausted condition.
            failed = got ? 1 : failed + 1;
            inChunk_ = 0;
            childIdx_ = (childIdx_ + 1) % children_.size();
        } else {
            failed = 0;
            if (inChunk_ >= chunks_[childIdx_]) {
                inChunk_ = 0;
                childIdx_ = (childIdx_ + 1) % children_.size();
            }
        }
    }
    return n;
}

void
InterleaveSource::reset()
{
    for (auto &c : children_)
        c->reset();
    childIdx_ = 0;
    inChunk_ = 0;
}

//
// PhaseSequenceSource
//

PhaseSequenceSource::PhaseSequenceSource(
    std::vector<std::unique_ptr<TraceSource>> children,
    std::vector<std::uint64_t> lengths, std::string name)
    : children_(std::move(children)), lengths_(std::move(lengths)),
      name_(std::move(name))
{
    ltc_assert(!children_.empty(), "PhaseSequenceSource with no children");
    ltc_assert(children_.size() == lengths_.size(),
               "PhaseSequenceSource children/lengths size mismatch");
    for (auto l : lengths_)
        ltc_assert(l > 0, "PhaseSequenceSource zero phase length");
}

std::size_t
PhaseSequenceSource::fill(std::span<MemRef> out)
{
    std::size_t n = 0;
    std::size_t failed = 0;
    while (n < out.size() && failed < children_.size()) {
        if (inPhase_ >= lengths_[childIdx_]) {
            inPhase_ = 0;
            childIdx_ = (childIdx_ + 1) % children_.size();
        }
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(out.size() - n,
                                    lengths_[childIdx_] - inPhase_));
        const std::size_t got =
            children_[childIdx_]->fill(out.subspan(n, want));
        n += got;
        inPhase_ += got;
        if (got < want) {
            failed = got ? 1 : failed + 1;
            inPhase_ = lengths_[childIdx_]; // child exhausted: move on
        } else {
            failed = 0;
        }
    }
    return n;
}

void
PhaseSequenceSource::reset()
{
    for (auto &c : children_)
        c->reset();
    childIdx_ = 0;
    inPhase_ = 0;
}

} // namespace ltc
