#include "trace/workloads.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "trace/file_trace.hh"
#include "trace/primitives.hh"
#include "trace/trace_io.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace ltc
{

namespace
{

/** Scale a block count, keeping a sane minimum. */
std::uint64_t
sc(std::uint64_t blocks, double scale)
{
    const auto v =
        static_cast<std::uint64_t>(static_cast<double>(blocks) * scale);
    return std::max<std::uint64_t>(v, 16);
}

/** Region bases: structure i of a workload lives at 64MB * (i+1). */
constexpr Addr
region(unsigned i)
{
    return (static_cast<Addr>(i) + 1) << 26;
}

ScanArray
arr(unsigned reg, std::uint64_t blocks, std::uint32_t apb, Addr pc,
    std::uint64_t advance = 0)
{
    ScanArray a;
    a.base = region(reg);
    a.blocks = blocks;
    a.accessesPerBlock = apb;
    a.pc = pc;
    a.advancePerIter = advance;
    return a;
}

using SourcePtr = std::unique_ptr<TraceSource>;

SourcePtr
scans(std::vector<ScanArray> arrays, std::uint32_t gap,
      const std::string &name)
{
    return std::make_unique<StridedScanSource>(std::move(arrays), gap,
                                               name);
}

SourcePtr
chase(unsigned reg, std::uint64_t nodes, std::uint32_t apn,
      std::uint32_t gap, std::uint64_t seed, const std::string &name,
      std::uint64_t mutate_every = 0, double mutate_frac = 0.0)
{
    PointerChaseParams p;
    p.base = region(reg);
    p.nodes = nodes;
    p.accessesPerNode = apn;
    p.nonMemGap = gap;
    p.seed = seed;
    p.mutateEveryIters = mutate_every;
    p.mutateFraction = mutate_frac;
    p.pc = 0x2000 + reg * 0x100;
    return std::make_unique<PointerChaseSource>(p, name);
}

SourcePtr
tree(unsigned reg, std::uint64_t nodes, std::uint32_t apn, bool regular,
     std::uint32_t gap, std::uint64_t seed, const std::string &name)
{
    TreeWalkParams p;
    p.base = region(reg);
    p.nodes = nodes;
    p.accessesPerNode = apn;
    p.regularLayout = regular;
    p.nonMemGap = gap;
    p.seed = seed;
    p.pc = 0x3000 + reg * 0x100;
    return std::make_unique<TreeWalkSource>(p, name);
}

SourcePtr
hash(unsigned reg, std::uint64_t blocks, double hot_frac,
     std::uint64_t hot_blocks, std::uint32_t gap, std::uint64_t seed,
     const std::string &name)
{
    HashProbeParams p;
    p.base = region(reg);
    p.blocks = blocks;
    p.hotFraction = hot_frac;
    p.hotBlocks = std::min(hot_blocks, blocks);
    p.nonMemGap = gap;
    p.seed = seed;
    p.pc = 0x4000 + reg * 0x100;
    return std::make_unique<HashProbeSource>(p, name);
}

/**
 * Round-robin over @p children, quotas[i] records of child i at a
 * time: short quotas interleave structures, long ones are phases.
 */
SourcePtr
mix(std::vector<SourcePtr> children, std::vector<std::uint64_t> quotas,
    const std::string &name)
{
    return std::make_unique<InterleaveSource>(std::move(children),
                                              std::move(quotas), name);
}

/** Recipe: build function + iteration length estimator. */
struct Recipe
{
    Suite suite;
    std::string description;
    SourcePtr (*build)(std::uint64_t seed, double scale);
    std::uint64_t (*refsPerIter)(double scale);
};

//
// Per-benchmark recipes. Block counts reflect a ~8x scale-down of the
// original footprints; miss-rate calibration is via accessesPerBlock
// (one block in a streaming structure misses once per sweep, so the
// L1D miss rate of that structure is ~1/accessesPerBlock).
//

SourcePtr
buildAmmp(std::uint64_t seed, double s)
{
    std::vector<SourcePtr> kids;
    kids.push_back(chase(0, sc(48 << 10, s), 6, 3, seed, "ammp.mol"));
    auto nb = [&] {
        HashProbeParams p;
        p.base = region(1);
        p.blocks = sc(8 << 10, s);
        p.hotFraction = 0.9;
        p.hotBlocks = 128; // fits the 64-set slice of a 2-way L1
        p.nonMemGap = 3;
        p.seed = seed + 1;
        p.pc = 0x4100;
        p.blockStride = 8; // confine pollution to 1/8 of the sets
        return std::make_unique<HashProbeSource>(p, "ammp.nb");
    }();
    kids.push_back(std::move(nb));
    return mix(std::move(kids), {6, 2}, "ammp");
}

SourcePtr
buildApplu(std::uint64_t seed, double s)
{
    (void)seed;
    std::vector<ScanArray> as;
    for (unsigned i = 0; i < 4; i++)
        as.push_back(arr(i, sc(64 << 10, s), 3, 0x1000 + i * 0x40));
    return scans(std::move(as), 6, "applu");
}

SourcePtr
buildApsi(std::uint64_t seed, double s)
{
    (void)seed;
    // Phase B advances its window every sweep: its last-touch
    // sequences never recur (the paper calls out apsi for exactly
    // this: signatures recorded once and never reused).
    std::vector<SourcePtr> kids;
    kids.push_back(
        scans({arr(0, sc(8 << 10, s), 16, 0x1100)}, 4, "apsi.reuse"));
    kids.push_back(scans({arr(1, sc(16 << 10, s), 16, 0x1200,
                              sc(16 << 10, s) * defaultBlockSize)},
                         4, "apsi.fresh"));
    return mix(std::move(kids), {128 << 10, 256 << 10}, "apsi");
}

SourcePtr
buildArt(std::uint64_t seed, double s)
{
    (void)seed;
    std::vector<ScanArray> as;
    as.push_back(arr(0, sc(32 << 10, s), 2, 0x1000));
    as.push_back(arr(1, sc(32 << 10, s), 2, 0x1040));
    as.push_back(arr(2, sc(16 << 10, s), 1, 0x1080));
    return scans(std::move(as), 5, "art");
}

SourcePtr
buildBh(std::uint64_t seed, double s)
{
    return tree(0, sc(48 << 10, s), 14, false, 6, seed, "bh");
}

SourcePtr
buildBzip2(std::uint64_t seed, double s)
{
    return hash(0, sc(24 << 10, s), 0.93, 512, 7, seed, "bzip2");
}

SourcePtr
buildCrafty(std::uint64_t seed, double s)
{
    (void)seed;
    (void)s; // footprint deliberately fits L1 regardless of scale
    return scans({arr(0, 768, 8, 0x1000)}, 8, "crafty");
}

SourcePtr
buildEm3d(std::uint64_t seed, double s)
{
    std::vector<SourcePtr> kids;
    kids.push_back(chase(0, sc(128 << 10, s), 1, 2, seed, "em3d.graph"));
    kids.push_back(scans({arr(1, 512, 1, 0x1200)}, 2, "em3d.coef"));
    return mix(std::move(kids), {2, 1}, "em3d");
}

SourcePtr
buildEon(std::uint64_t seed, double s)
{
    (void)seed;
    (void)s;
    return scans({arr(0, 512, 6, 0x1000)}, 10, "eon");
}

SourcePtr
buildEquake(std::uint64_t seed, double s)
{
    // Period alignment: mesh = 3*48K*3 = 432K refs at 4/5 of the
    // stream (108K interleave rounds per sweep); the chase's 108K
    // refs at 1/5 complete one traversal in the same 108K rounds, so
    // the combined reference sequence repeats every 540K refs.
    std::vector<SourcePtr> kids;
    std::vector<ScanArray> as;
    for (unsigned i = 0; i < 3; i++)
        as.push_back(arr(i, sc(48 << 10, s), 3, 0x1000 + i * 0x40));
    kids.push_back(scans(std::move(as), 3, "equake.mesh"));
    kids.push_back(chase(3, sc(27 << 10, s), 4, 3, seed, "equake.col"));
    return mix(std::move(kids), {4, 1}, "equake");
}

SourcePtr
buildFacerec(std::uint64_t seed, double s)
{
    (void)seed;
    std::vector<ScanArray> as;
    as.push_back(arr(0, sc(32 << 10, s), 4, 0x1000));
    as.push_back(arr(1, sc(32 << 10, s), 4, 0x1040));
    as.push_back(arr(2, 512, 4, 0x1080));
    return scans(std::move(as), 4, "facerec");
}

SourcePtr
buildFma3d(std::uint64_t seed, double s)
{
    (void)seed;
    std::vector<ScanArray> as;
    for (unsigned i = 0; i < 6; i++)
        as.push_back(arr(i, sc(16 << 10, s), 9, 0x1000 + i * 0x40));
    return scans(std::move(as), 5, "fma3d");
}

SourcePtr
buildGalgel(std::uint64_t seed, double s)
{
    (void)seed;
    std::vector<ScanArray> as;
    as.push_back(arr(0, sc(24 << 10, s), 6, 0x1000));
    as.push_back(arr(1, sc(24 << 10, s), 6, 0x1040));
    as.push_back(arr(2, sc(8 << 10, s), 6, 0x1080));
    return scans(std::move(as), 3, "galgel");
}

SourcePtr
buildGap(std::uint64_t seed, double s)
{
    (void)seed;
    // Streaming over fresh memory each sweep: regular layout, almost
    // no reuse. Delta correlation captures it; address correlation
    // cannot (addresses never recur).
    const std::uint64_t blocks = sc(32 << 10, s);
    return scans({arr(0, blocks, 16, 0x1000,
                      blocks * defaultBlockSize)},
                 6, "gap");
}

SourcePtr
buildGcc(std::uint64_t seed, double s)
{
    // Aligned periods: chase 6K*2 = 12K refs at 3/6 and scan
    // 4K*2 = 8K refs at 2/6 both complete in 4K interleave rounds.
    // Total footprint ~13K blocks (~830KB) stays inside the 1MB L2:
    // gcc's misses are L1 misses that mostly hit in L2 (Table 2 has
    // gcc at 38% L1 / 3% L2 misses), where last-touch prefetching
    // wins by overlapping dependent chains.
    std::vector<SourcePtr> kids;
    kids.push_back(chase(0, sc(6 << 10, s), 2, 5, seed, "gcc.ir"));
    auto sym = [&] {
        HashProbeParams p;
        p.base = region(1);
        p.blocks = sc(3 << 10, s);
        p.hotFraction = 0.6;
        p.hotBlocks = 128;
        p.nonMemGap = 5;
        p.seed = seed + 1;
        p.pc = 0x4100;
        p.blockStride = 4;
        return std::make_unique<HashProbeSource>(p, "gcc.sym");
    }();
    kids.push_back(std::move(sym));
    kids.push_back(scans({arr(2, sc(4 << 10, s), 2, 0x1200)}, 5,
                         "gcc.rtl"));
    return mix(std::move(kids), {3, 1, 2}, "gcc");
}

SourcePtr
buildGzip(std::uint64_t seed, double s)
{
    return hash(0, sc(12 << 10, s), 0.95, 768, 8, seed, "gzip");
}

SourcePtr
buildLucas(std::uint64_t seed, double s)
{
    (void)seed;
    std::vector<ScanArray> as;
    as.push_back(arr(0, sc(128 << 10, s), 2, 0x1000));
    as.push_back(arr(1, sc(128 << 10, s), 2, 0x1040));
    return scans(std::move(as), 6, "lucas");
}

SourcePtr
buildMcf(std::uint64_t seed, double s)
{
    // Large arc-network chase plus a small, frequently revisited
    // working set: the small set's signatures fit a 2MB DBCP table,
    // which is why the paper's DBCP does well on mcf.
    // Aligned periods: arcs 84K*2 = 168K refs at 6/7 and nodes
    // 28K*1 = 28K refs at 1/7 both complete in 28K interleave rounds,
    // so the combined sequence repeats every 196K refs. The ~112K
    // total signatures fit the scaled realistic DBCP table while the
    // ~7MB data footprint exceeds even the 4MB L2 -- the paper's
    // "large memory footprint but small working set" property that
    // lets DBCP do well on mcf.
    std::vector<SourcePtr> kids;
    kids.push_back(chase(0, sc(84 << 10, s), 2, 2, seed, "mcf.arcs"));
    kids.push_back(chase(4, sc(28 << 10, s), 1, 2, seed + 1,
                         "mcf.nodes"));
    return mix(std::move(kids), {6, 1}, "mcf");
}

SourcePtr
buildMesa(std::uint64_t seed, double s)
{
    (void)seed;
    std::vector<SourcePtr> kids;
    kids.push_back(scans({arr(0, 640, 8, 0x1000)}, 8, "mesa.hot"));
    kids.push_back(
        scans({arr(1, sc(8 << 10, s), 8, 0x1100)}, 8, "mesa.tex"));
    return mix(std::move(kids), {256 << 10, 64 << 10}, "mesa");
}

SourcePtr
buildMgrid(std::uint64_t seed, double s)
{
    (void)seed;
    std::vector<ScanArray> as;
    as.push_back(arr(0, sc(128 << 10, s), 5, 0x1000));
    as.push_back(arr(1, sc(32 << 10, s), 5, 0x1040));
    as.push_back(arr(2, sc(8 << 10, s), 5, 0x1080));
    return scans(std::move(as), 6, "mgrid");
}

SourcePtr
buildParser(std::uint64_t seed, double s)
{
    std::vector<SourcePtr> kids;
    kids.push_back(chase(0, sc(24 << 10, s), 8, 5, seed, "parser.dict",
                         /*mutate_every=*/2, /*mutate_frac=*/0.15));
    auto ph = [&] {
        HashProbeParams p;
        p.base = region(1);
        p.blocks = sc(4 << 10, s);
        p.hotFraction = 0.85;
        p.hotBlocks = 64;
        p.nonMemGap = 5;
        p.seed = seed + 1;
        p.pc = 0x4100;
        p.blockStride = 8;
        return std::make_unique<HashProbeSource>(p, "parser.hash");
    }();
    kids.push_back(std::move(ph));
    return mix(std::move(kids), {5, 1}, "parser");
}

SourcePtr
buildPerlbmk(std::uint64_t seed, double s)
{
    std::vector<SourcePtr> kids;
    kids.push_back(chase(0, sc(6 << 10, s), 6, 7, seed, "perl.sv"));
    auto hv = [&] {
        HashProbeParams p;
        p.base = region(1);
        p.blocks = sc(2 << 10, s);
        p.hotFraction = 0.8;
        p.hotBlocks = 128;
        p.nonMemGap = 7;
        p.seed = seed + 1;
        p.pc = 0x4100;
        p.blockStride = 8;
        return std::make_unique<HashProbeSource>(p, "perl.hv");
    }();
    kids.push_back(std::move(hv));
    return mix(std::move(kids), {4, 1}, "perlbmk");
}

SourcePtr
buildSixtrack(std::uint64_t seed, double s)
{
    (void)seed;
    (void)s;
    std::vector<ScanArray> as;
    as.push_back(arr(0, 2048, 8, 0x1000));
    as.push_back(arr(1, 512, 8, 0x1040));
    return scans(std::move(as), 10, "sixtrack");
}

SourcePtr
buildSwim(std::uint64_t seed, double s)
{
    (void)seed;
    std::vector<ScanArray> as;
    for (unsigned i = 0; i < 3; i++)
        as.push_back(arr(i, sc(96 << 10, s), 2, 0x1000 + i * 0x40));
    return scans(std::move(as), 6, "swim");
}

SourcePtr
buildTreeadd(std::uint64_t seed, double s)
{
    return tree(0, sc(48 << 10, s) | 1, 12, true, 4, seed, "treeadd");
}

SourcePtr
buildTwolf(std::uint64_t seed, double s)
{
    return hash(0, sc(6 << 10, s), 0.55, 768, 5, seed, "twolf");
}

SourcePtr
buildVortex(std::uint64_t seed, double s)
{
    // Aligned periods: obj 8K*4 = 32K refs at 4/5, db 2K*4 = 8K refs
    // at 1/5; both complete in 8K interleave rounds.
    std::vector<SourcePtr> kids;
    kids.push_back(chase(0, sc(8 << 10, s), 4, 6, seed, "vortex.obj"));
    kids.push_back(
        scans({arr(1, sc(2 << 10, s), 4, 0x1100)}, 6, "vortex.db"));
    return mix(std::move(kids), {4, 1}, "vortex");
}

SourcePtr
buildWupwise(std::uint64_t seed, double s)
{
    (void)seed;
    // Many distinct arrays touched by many distinct PCs: the largest
    // last-touch signature footprint in the suite, which makes
    // wupwise the worst case for a finite DBCP table (Fig. 4).
    std::vector<ScanArray> as;
    for (unsigned i = 0; i < 16; i++)
        as.push_back(arr(i, sc(20 << 10, s), 5, 0x1000 + i * 0x80));
    return scans(std::move(as), 5, "wupwise");
}

//
// refs-per-iteration estimators (dominant loop length in references).
//

std::uint64_t
itersAmmp(double s)
{
    return sc(48 << 10, s) * 6 * 8 / 6;
}
std::uint64_t
itersApplu(double s)
{
    return 4 * sc(64 << 10, s) * 3;
}
std::uint64_t
itersApsi(double s)
{
    return sc(8 << 10, s) * 16;
}
std::uint64_t
itersArt(double s)
{
    return sc(32 << 10, s) * 4 + sc(16 << 10, s);
}
std::uint64_t
itersBh(double s)
{
    return sc(48 << 10, s) * 14;
}
std::uint64_t
itersBzip2(double)
{
    return 256 << 10;
}
std::uint64_t
itersCrafty(double)
{
    return 768 * 8;
}
std::uint64_t
itersEm3d(double s)
{
    return sc(128 << 10, s) * 3 / 2;
}
std::uint64_t
itersEon(double)
{
    return 512 * 6;
}
std::uint64_t
itersEquake(double s)
{
    return 3 * sc(48 << 10, s) * 3 * 5 / 4;
}
std::uint64_t
itersFacerec(double s)
{
    return 2 * sc(32 << 10, s) * 4;
}
std::uint64_t
itersFma3d(double s)
{
    return 6 * sc(16 << 10, s) * 9;
}
std::uint64_t
itersGalgel(double s)
{
    return (2 * sc(24 << 10, s) + sc(8 << 10, s)) * 6;
}
std::uint64_t
itersGap(double s)
{
    return sc(32 << 10, s) * 16;
}
std::uint64_t
itersGcc(double s)
{
    return sc(6 << 10, s) * 2 * 2;
}
std::uint64_t
itersGzip(double)
{
    return 256 << 10;
}
std::uint64_t
itersLucas(double s)
{
    return 2 * sc(128 << 10, s) * 2;
}
std::uint64_t
itersMcf(double s)
{
    return sc(84 << 10, s) * 2 * 7 / 6;
}
std::uint64_t
itersMesa(double)
{
    return 640 << 10;
}
std::uint64_t
itersMgrid(double s)
{
    return (sc(128 << 10, s) + sc(32 << 10, s) + sc(8 << 10, s)) * 5;
}
std::uint64_t
itersParser(double s)
{
    return sc(24 << 10, s) * 8 * 6 / 5;
}
std::uint64_t
itersPerlbmk(double s)
{
    return sc(6 << 10, s) * 6 * 5 / 4;
}
std::uint64_t
itersSixtrack(double)
{
    return 2560 * 8;
}
std::uint64_t
itersSwim(double s)
{
    return 3 * sc(96 << 10, s) * 2;
}
std::uint64_t
itersTreeadd(double s)
{
    return (sc(48 << 10, s) | 1) * 12;
}
std::uint64_t
itersTwolf(double)
{
    return 128 << 10;
}
std::uint64_t
itersVortex(double s)
{
    return sc(8 << 10, s) * 4 * 5 / 4;
}
std::uint64_t
itersWupwise(double s)
{
    return 16 * sc(20 << 10, s) * 5;
}

struct NamedRecipe
{
    const char *name;
    Recipe recipe;
};

const NamedRecipe recipes[] = {
    {"ammp",
     {Suite::SPECfp,
      "molecular chase + neighbour-list hash (partially correlated)",
      buildAmmp, itersAmmp}},
    {"applu",
     {Suite::SPECfp, "4 large solver arrays, 3 accesses/block",
      buildApplu, itersApplu}},
    {"apsi",
     {Suite::SPECfp, "reused grid + advancing window (non-recurring)",
      buildApsi, itersApsi}},
    {"art",
     {Suite::SPECfp, "neural-net weight scans, very high miss rate",
      buildArt, itersArt}},
    {"bh",
     {Suite::Olden, "irregular-layout Barnes-Hut tree walk", buildBh,
      itersBh}},
    {"bzip2",
     {Suite::SPECint, "hashed probing, small hot set (uncorrelated)",
      buildBzip2, itersBzip2}},
    {"crafty",
     {Suite::SPECint, "board state fits L1", buildCrafty, itersCrafty}},
    {"em3d",
     {Suite::Olden, "dependent graph chase + coefficient array",
      buildEm3d, itersEm3d}},
    {"eon",
     {Suite::SPECint, "scene data fits L1", buildEon, itersEon}},
    {"equake",
     {Suite::SPECfp, "sparse mesh scans + column chase", buildEquake,
      itersEquake}},
    {"facerec",
     {Suite::SPECfp, "image/gallery scans, modest footprint",
      buildFacerec, itersFacerec}},
    {"fma3d",
     {Suite::SPECfp, "6 element arrays, long recurring sequences",
      buildFma3d, itersFma3d}},
    {"galgel",
     {Suite::SPECfp, "blocked matrix scans, partial L2 residence",
      buildGalgel, itersGalgel}},
    {"gap",
     {Suite::SPECint, "streaming over fresh memory (no address reuse)",
      buildGap, itersGap}},
    {"gcc",
     {Suite::SPECint, "IR chase + symbol hash + RTL scan (mixed)",
      buildGcc, itersGcc}},
    {"gzip",
     {Suite::SPECint, "hashed window probing (uncorrelated)", buildGzip,
      itersGzip}},
    {"lucas",
     {Suite::SPECfp, "two huge FFT arrays (largest storage demand)",
      buildLucas, itersLucas}},
    {"mcf",
     {Suite::SPECint, "arc-network chase + hot node list", buildMcf,
      itersMcf}},
    {"mesa",
     {Suite::SPECfp, "hot rasteriser state + rare texture sweeps",
      buildMesa, itersMesa}},
    {"mgrid",
     {Suite::SPECfp, "multigrid levels, large footprint", buildMgrid,
      itersMgrid}},
    {"parser",
     {Suite::SPECint, "dictionary chase with mutation + hash",
      buildParser, itersParser}},
    {"perlbmk",
     {Suite::SPECint, "small SV chase + hot hash", buildPerlbmk,
      itersPerlbmk}},
    {"sixtrack",
     {Suite::SPECfp, "small tracking arrays, near-zero misses",
      buildSixtrack, itersSixtrack}},
    {"swim",
     {Suite::SPECfp, "3 grid arrays, 2 accesses/block", buildSwim,
      itersSwim}},
    {"treeadd",
     {Suite::Olden, "regular-layout tree walk (delta-predictable)",
      buildTreeadd, itersTreeadd}},
    {"twolf",
     {Suite::SPECint, "randomised placement probing", buildTwolf,
      itersTwolf}},
    {"vortex",
     {Suite::SPECint, "object chase + database scan", buildVortex,
      itersVortex}},
    {"wupwise",
     {Suite::SPECfp, "16 arrays x 11 PCs: largest signature footprint",
      buildWupwise, itersWupwise}},
};

const Recipe *
findRecipe(const std::string &name)
{
    for (const auto &nr : recipes)
        if (name == nr.name)
            return &nr.recipe;
    return nullptr;
}

/** Registry prefix for file-backed workloads. */
constexpr const char traceNamePrefix[] = "trace:";

/** Guards the discovery cache and the setTraceDir() override. */
std::mutex &
traceDirMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::string &
traceDirOverride()
{
    static std::string dir;
    return dir;
}

/**
 * Scan @p dir for .ltct containers. Workers of a runner sweep may
 * race into the first lookup, so the per-directory cache is guarded;
 * after the first scan every call is a cheap map hit. Only the
 * container header is read per file, so discovery stays O(1) I/O
 * however long the captured traces are.
 */
const std::vector<TraceWorkload> &
scanTraceDir(const std::string &dir)
{
    static std::map<std::string, std::vector<TraceWorkload>> cache;

    std::lock_guard<std::mutex> lock(traceDirMutex());
    auto it = cache.find(dir);
    if (it != cache.end())
        return it->second;

    namespace fs = std::filesystem;
    std::error_code ec;
    fs::directory_iterator entries(dir, ec);
    if (ec)
        ltc_fatal("LTC_TRACE_DIR: cannot open directory '", dir,
                  "': ", ec.message());

    std::vector<TraceWorkload> found;
    for (const auto &entry : entries) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".ltct") {
            continue;
        }
        TraceFileInfo info;
        const TraceErrc errc =
            probeTraceHeader(entry.path().string(), info);
        if (errc != TraceErrc::Ok) {
            ltc_fatal("LTC_TRACE_DIR: bad trace file ",
                      entry.path().string(), ": ",
                      traceErrcMessage(errc));
        }
        TraceWorkload w;
        w.info.name = traceNamePrefix + entry.path().stem().string();
        w.info.suite = Suite::Captured;
        w.info.description = "captured trace (" +
            entry.path().filename().string() + ", " +
            std::to_string(info.records) + " refs, v" +
            std::to_string(info.version) + ")";
        w.info.refsPerIteration = std::max<std::uint64_t>(
            info.records, 1);
        w.path = entry.path().string();
        found.push_back(std::move(w));
    }
    std::sort(found.begin(), found.end(),
              [](const TraceWorkload &a, const TraceWorkload &b) {
                  return a.info.name < b.info.name;
              });
    return cache.emplace(dir, std::move(found)).first->second;
}

/** The TraceWorkload registered as @p name, or nullptr. */
const TraceWorkload *
findTraceWorkload(const std::string &name)
{
    if (name.rfind(traceNamePrefix, 0) != 0)
        return nullptr;
    for (const auto &w : fileWorkloads())
        if (w.info.name == name)
            return &w;
    return nullptr;
}

} // namespace

void
setTraceDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(traceDirMutex());
    traceDirOverride() = dir;
}

std::string
traceDir()
{
    {
        std::lock_guard<std::mutex> lock(traceDirMutex());
        if (!traceDirOverride().empty())
            return traceDirOverride();
    }
    const char *env = std::getenv("LTC_TRACE_DIR");
    return (env && *env) ? env : "";
}

const std::vector<TraceWorkload> &
fileWorkloads()
{
    const std::string dir = traceDir();
    if (dir.empty()) {
        static const std::vector<TraceWorkload> empty;
        return empty;
    }
    return scanTraceDir(dir);
}

const char *
suiteName(Suite suite)
{
    switch (suite) {
      case Suite::SPECint:
        return "SPECint";
      case Suite::SPECfp:
        return "SPECfp";
      case Suite::Olden:
        return "Olden";
      case Suite::Captured:
        return "trace";
    }
    return "?";
}

const std::vector<WorkloadInfo> &
workloadCatalog()
{
    static const std::vector<WorkloadInfo> catalogue = [] {
        std::vector<WorkloadInfo> v;
        for (const auto &nr : recipes) {
            v.push_back({nr.name, nr.recipe.suite, nr.recipe.description,
                         nr.recipe.refsPerIter(1.0)});
        }
        return v;
    }();
    return catalogue;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &info : workloadCatalog())
        names.push_back(info.name);
    for (const auto &w : fileWorkloads())
        names.push_back(w.info.name);
    return names;
}

const WorkloadInfo &
workloadInfo(const std::string &name)
{
    for (const auto &info : workloadCatalog())
        if (info.name == name)
            return info;
    if (const TraceWorkload *w = findTraceWorkload(name))
        return w->info;
    ltc_fatal("unknown workload '", name, "'");
}

bool
isWorkload(const std::string &name)
{
    return findRecipe(name) != nullptr ||
        findTraceWorkload(name) != nullptr;
}

std::unique_ptr<TraceSource>
makeWorkload(const std::string &name, std::uint64_t seed, double scale)
{
    if (const TraceWorkload *w = findTraceWorkload(name)) {
        // A captured trace is immutable: seed and scale are
        // meaningless for it by design.
        (void)seed;
        (void)scale;
        return std::make_unique<FileTrace>(w->path, w->info.name);
    }
    const Recipe *recipe = findRecipe(name);
    if (!recipe)
        ltc_fatal("unknown workload '", name, "'");
    if (scale <= 0.0)
        ltc_fatal("workload scale must be positive, got ", scale);
    return recipe->build(seed, scale);
}

std::vector<std::string>
selectedWorkloads()
{
    const char *env = std::getenv("LTC_WORKLOADS");
    std::string spec = env ? env : "all";
    if (spec == "all" || spec.empty())
        return workloadNames();
    if (spec == "quick") {
        return {"swim",    "mcf",  "gcc",     "em3d",
                "treeadd", "gzip", "wupwise", "facerec"};
    }
    std::vector<std::string> names;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        if (!isWorkload(item))
            ltc_fatal("LTC_WORKLOADS: unknown workload '", item, "'");
        names.push_back(item);
    }
    if (names.empty())
        ltc_fatal("LTC_WORKLOADS: no workloads selected");
    return names;
}

std::uint64_t
suggestedRefs(const std::string &name)
{
    const WorkloadInfo &info = workloadInfo(name);
    // A captured trace is finite: replay exactly what was recorded
    // rather than the synthetic generators' training-window heuristic.
    if (info.suite == Suite::Captured)
        return info.refsPerIteration;
    const std::uint64_t want = 6 * info.refsPerIteration;
    return std::clamp<std::uint64_t>(want, 1'500'000, 10'000'000);
}

std::uint64_t
refBudget(std::uint64_t fallback)
{
    const char *env = std::getenv("LTC_REFS");
    if (!env)
        return fallback;
    return parseCount("LTC_REFS", env, 1,
                      std::numeric_limits<std::uint64_t>::max(),
                      CountSuffix::Kmg);
}

} // namespace ltc
