/**
 * @file
 * Access-pattern primitives for synthetic workload generation.
 *
 * The paper's results are driven entirely by properties of each
 * benchmark's L1D reference stream: footprint, temporal correlation of
 * the miss sequence, last-touch/miss reordering, dependence structure
 * (pointer chasing vs array code) and memory intensity. These
 * primitives reproduce those properties directly:
 *
 *  - StridedScanSource: SPECfp-style loop nests sweeping arrays, with
 *    an optional per-iteration base advance to model streaming code
 *    with no data reuse (gap-like).
 *  - PointerChaseSource: linked-list traversal over a static (or
 *    occasionally mutated) layout; misses are data-dependent, the
 *    pattern delta-correlation cannot capture (mcf/em3d-like).
 *  - TreeWalkSource: repeated DFS over a binary tree with either a
 *    systematic-heap (regular, treeadd-like) or shuffled (irregular,
 *    bh-like) layout.
 *  - HashProbeSource: uniformly random probing with an optional hot
 *    subset; produces the uncorrelated streams of gzip/bzip2/twolf.
 *  - InterleaveSource: deterministic round-robin composition into
 *    multi-structure and multi-phase programs.
 *
 * All primitives are deterministic: reset() replays the identical
 * stream (mutating sources replay the identical mutation schedule).
 */

#ifndef LTC_TRACE_PRIMITIVES_HH
#define LTC_TRACE_PRIMITIVES_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace ltc
{

/** Cache block size assumed by footprint-oriented parameters. */
constexpr std::uint64_t defaultBlockSize = 64;

/** One array swept by a StridedScanSource. */
struct ScanArray
{
    Addr base = 0;              //!< first byte of the array
    std::uint64_t blocks = 0;   //!< length in cache blocks
    /** References emitted per block (distinct word offsets). */
    std::uint32_t accessesPerBlock = 1;
    /** Base advances by this many bytes each full sweep (0 = reuse). */
    std::uint64_t advancePerIter = 0;
    /** Wrap the advancing window after this many bytes (0 = 1GB). */
    std::uint64_t wrapBytes = 0;
    Addr pc = 0x1000;           //!< PC of the loop's load instruction
    bool stores = false;        //!< emit stores instead of loads
};

/**
 * Sweeps a list of arrays in order, forever. Each outer iteration
 * repeats the identical block sequence (unless advancePerIter moves
 * the window), producing the perfectly temporally-correlated miss
 * streams of SPECfp loop nests.
 */
class StridedScanSource final : public TraceSource
{
  public:
    StridedScanSource(std::vector<ScanArray> arrays,
                      std::uint32_t non_mem_gap,
                      std::string name = "scan");

    std::size_t fill(std::span<MemRef> out) override;
    void reset() override;
    std::string name() const override { return name_; }

    /** Number of completed full sweeps over all arrays. */
    std::uint64_t iterations() const { return iter_; }

  private:
    std::vector<ScanArray> arrays_;
    std::uint32_t gap_;
    std::string name_;

    std::size_t arrayIdx_ = 0;
    std::uint64_t blockIdx_ = 0;
    std::uint32_t accessIdx_ = 0;
    std::uint64_t iter_ = 0;
};

/** Parameters for a linked-list traversal source. */
struct PointerChaseParams
{
    Addr base = 0x10000000;
    std::uint64_t nodes = 1 << 16;  //!< one node = one cache block
    std::uint64_t nodeBytes = defaultBlockSize;
    /** References per visited node (header + payload words). */
    std::uint32_t accessesPerNode = 1;
    std::uint64_t seed = 1;
    /** Fraction of links randomised; 0 keeps the list in layout order. */
    double shuffle = 1.0;
    /** Every N traversals, relink a fraction of nodes (0 = never). */
    std::uint64_t mutateEveryIters = 0;
    double mutateFraction = 0.0;
    std::uint32_t nonMemGap = 4;
    Addr pc = 0x2000;
};

/**
 * Traverses a singly-linked list (a permutation cycle over all nodes)
 * from a fixed head, forever. Every reference is marked
 * dependsOnPrev: the *simulated* machine loads each next address from
 * the current node, so the baseline machine cannot overlap these
 * misses. The generator itself, however, keeps the traversal as a
 * precomputed visit-order array rather than successor links: emitting
 * a batch is then a sequential, prefetch-friendly sweep of that array
 * instead of a data-dependent pointer chase, so generating an
 * mcf/em3d-style stream is no longer bound by one cache-miss latency
 * per simulated node. Optional periodic mutation models
 * data-structure updates that make recorded last-touch signatures
 * stale (Section 3.2); mutations rewrite the visit order in place.
 */
class PointerChaseSource final : public TraceSource
{
  public:
    explicit PointerChaseSource(PointerChaseParams params,
                                std::string name = "chase");

    std::size_t fill(std::span<MemRef> out) override;
    void reset() override;
    std::string name() const override { return name_; }

    std::uint64_t iterations() const { return iter_; }

    /** Address of node @p i (for tests). */
    Addr nodeAddr(std::uint64_t i) const;

  private:
    void buildChain();
    void mutate();

    PointerChaseParams params_;
    std::string name_;
    Rng rng_;
    /**
     * order_[k] = index of the k-th node the traversal visits; the
     * successor of order_[k] is order_[k+1] (wrapping), so this is
     * exactly the permutation cycle the simulated list encodes.
     */
    std::vector<std::uint32_t> order_;
    std::uint64_t pos_ = 0;
    std::uint32_t accessIdx_ = 0;
    std::uint64_t iter_ = 0;
};

/** Parameters for a binary-tree traversal source. */
struct TreeWalkParams
{
    Addr base = 0x20000000;
    std::uint64_t nodes = (1 << 16) - 1; //!< complete tree: 2^k - 1
    std::uint64_t nodeBytes = defaultBlockSize;
    /** Systematic heap allocation: node i at base + i*nodeBytes. */
    bool regularLayout = true;
    std::uint64_t seed = 1;
    std::uint32_t accessesPerNode = 1;
    std::uint32_t nonMemGap = 6;
    Addr pc = 0x3000;
};

/**
 * Repeated depth-first (pre-order) traversal of a complete binary
 * tree. With regularLayout the node order is also address-sequential
 * on allocation (treeadd's systematic heap, which delta prefetchers
 * can capture); with a shuffled layout addresses are irregular and
 * only address correlation works (bh-like).
 */
class TreeWalkSource final : public TraceSource
{
  public:
    explicit TreeWalkSource(TreeWalkParams params,
                            std::string name = "tree");

    std::size_t fill(std::span<MemRef> out) override;
    void reset() override;
    std::string name() const override { return name_; }

    std::uint64_t iterations() const { return iter_; }

  private:
    TreeWalkParams params_;
    std::string name_;
    /** placement_[i] = layout slot of tree node i. */
    std::vector<std::uint32_t> placement_;
    /** DFS pre-order of node indices, precomputed once. */
    std::vector<std::uint32_t> order_;
    std::uint64_t pos_ = 0;
    std::uint32_t accessIdx_ = 0;
    std::uint64_t iter_ = 0;
};

/** Parameters for a hash-probe (random access) source. */
struct HashProbeParams
{
    Addr base = 0x40000000;
    std::uint64_t blocks = 1 << 14;
    /**
     * Spacing between probed blocks. Values > 1 confine the probed
     * region to every Nth cache set, modelling hashed structures that
     * occupy a slice of the index space (and bounding how much an
     * uncorrelated component pollutes the per-set PC traces of the
     * correlated structures it is mixed with).
     */
    std::uint64_t blockStride = 1;
    /** Fraction of probes directed at the hot subset. */
    double hotFraction = 0.0;
    std::uint64_t hotBlocks = 256;
    std::uint64_t seed = 7;
    std::uint32_t nonMemGap = 10;
    Addr pc = 0x4000;
    std::uint32_t pcCount = 8;   //!< rotate probes over this many PCs
    double storeFraction = 0.2;
};

/**
 * Uniformly random block probing, optionally biased toward a small
 * hot region. The random walk never repeats, so its miss stream has
 * (by construction) no temporal correlation: the gzip/bzip2/twolf
 * class that no address-correlating predictor can cover.
 */
class HashProbeSource final : public TraceSource
{
  public:
    explicit HashProbeSource(HashProbeParams params,
                             std::string name = "hash");

    std::size_t fill(std::span<MemRef> out) override;
    void reset() override;
    std::string name() const override { return name_; }

  private:
    HashProbeParams params_;
    std::string name_;
    Rng rng_;
    std::uint64_t count_ = 0;
};

/**
 * Deterministic round-robin over several children: emits quota[i]
 * records from child i, then moves to child i+1, forever. Short
 * quotas model independent structures whose access sequences
 * interleave, the case where per-stream delta correlation fails but
 * address correlation still works (Section 2); long quotas model
 * program phases (compute phase, update phase, ...). A child that
 * ends is skipped, and the stream ends once every child has.
 */
class InterleaveSource final : public TraceSource
{
  public:
    InterleaveSource(std::vector<std::unique_ptr<TraceSource>> children,
                     std::vector<std::uint64_t> quotas,
                     std::string name = "interleave");

    std::size_t fill(std::span<MemRef> out) override;
    void reset() override;
    std::string name() const override { return name_; }

  private:
    std::vector<std::unique_ptr<TraceSource>> children_;
    std::vector<std::uint64_t> quotas_;
    std::string name_;
    std::size_t childIdx_ = 0;
    std::uint64_t inQuota_ = 0;
};

} // namespace ltc

#endif // LTC_TRACE_PRIMITIVES_HH
