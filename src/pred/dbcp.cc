#include "pred/dbcp.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace ltc
{

Dbcp::Dbcp(const DbcpConfig &config)
    : config_(config), history_(config.l1Sets, config.lineBytes)
{
    if (config_.tableEntries != 0) {
        std::uint64_t sets = std::max<std::uint64_t>(
            1, config_.tableEntries / config_.tableAssoc);
        if (!isPowerOf2(sets))
            sets = ceilPowerOf2(sets) / 2; // round down to a power of 2
        sets = std::max<std::uint64_t>(sets, 1);
        tableSets_ = sets;
        table_.resize(tableSets_ * config_.tableAssoc);
    }
}

std::uint32_t
Dbcp::setOf(Addr addr) const
{
    const unsigned line_bits = floorLog2(config_.lineBytes);
    return static_cast<std::uint32_t>((addr >> line_bits) &
                                      (config_.l1Sets - 1));
}

Addr
Dbcp::blockOf(Addr addr) const
{
    return addr & ~static_cast<Addr>(config_.lineBytes - 1);
}

void
Dbcp::record(std::uint64_t key, Addr replacement, Addr victim)
{
    recorded_++;
    if (config_.tableEntries == 0) {
        auto [it, inserted] = oracle_.try_emplace(key);
        Payload &p = it->second;
        if (inserted) {
            p.replacement = replacement;
            p.victim = victim;
            p.confidence = config_.confidenceInit;
        } else if (p.replacement == replacement) {
            p.confidence =
                std::min<std::uint8_t>(config_.confidenceMax,
                                       p.confidence + 1);
            reinforced_++;
        } else if (p.confidence > 0) {
            p.confidence--;
            conflicts_++;
        } else {
            p.replacement = replacement;
            p.victim = victim;
            p.confidence = config_.confidenceInit;
            conflicts_++;
        }
        return;
    }

    // Finite set-associative table with LRU replacement.
    const std::uint64_t set = key & (tableSets_ - 1);
    TableLine *base = &table_[set * config_.tableAssoc];
    TableLine *victim_line = nullptr;
    for (std::uint32_t w = 0; w < config_.tableAssoc; w++) {
        TableLine &line = base[w];
        if (line.valid && line.key == key) {
            line.lastUse = ++stamp_;
            if (line.payload.replacement == replacement) {
                line.payload.confidence =
                    std::min<std::uint8_t>(config_.confidenceMax,
                                           line.payload.confidence + 1);
                reinforced_++;
            } else if (line.payload.confidence > 0) {
                line.payload.confidence--;
                conflicts_++;
            } else {
                line.payload.replacement = replacement;
                line.payload.victim = victim;
                line.payload.confidence = config_.confidenceInit;
                conflicts_++;
            }
            return;
        }
        if (!line.valid) {
            if (!victim_line || victim_line->valid)
                victim_line = &line;
        } else if (!victim_line ||
                   (victim_line->valid &&
                    line.lastUse < victim_line->lastUse)) {
            victim_line = &line;
        }
    }
    ltc_assert(victim_line, "no victim line in DBCP table set");
    victim_line->valid = true;
    victim_line->key = key;
    victim_line->payload.replacement = replacement;
    victim_line->payload.victim = victim;
    victim_line->payload.confidence = config_.confidenceInit;
    victim_line->lastUse = ++stamp_;
}

const Dbcp::Payload *
Dbcp::lookup(std::uint64_t key)
{
    lookups_++;
    if (config_.tableEntries == 0) {
        auto it = oracle_.find(key);
        if (it == oracle_.end())
            return nullptr;
        matches_++;
        return &it->second;
    }
    const std::uint64_t set = key & (tableSets_ - 1);
    TableLine *base = &table_[set * config_.tableAssoc];
    for (std::uint32_t w = 0; w < config_.tableAssoc; w++) {
        TableLine &line = base[w];
        if (line.valid && line.key == key) {
            line.lastUse = ++stamp_;
            matches_++;
            return &line.payload;
        }
    }
    return nullptr;
}

void
Dbcp::observe(const MemRef &ref, const HierOutcome &out)
{
    const std::uint32_t set = out.l1Set;

    // A demand miss that evicted a block defines a last-touch
    // signature: key sampled BEFORE the miss PC enters the window.
    if (!out.l1Hit() && out.l1Victim.evicted) {
        const std::uint64_t key = history_.signatureKey(set);
        record(key, blockOf(ref.addr), out.l1Victim.addr);
        history_.closeWindow(set, out.l1Victim.addr);
    }

    history_.recordAccess(set, ref.pc);

    const std::uint64_t lookup_key = history_.signatureKey(set);
    if (const Payload *p = lookup(lookup_key)) {
        if (p->confidence >= config_.confidenceThreshold) {
            predictions_++;
            PrefetchRequest req;
            req.target = p->replacement;
            req.predictedVictim = p->victim;
            req.intoL1 = true;
            enqueue(req);
        } else {
            lowConfidence_++;
        }
    }
}

void
Dbcp::onPrefetchEviction(Addr victim_addr, Addr incoming_addr)
{
    // The prefetch fill closed this set's window early; keep the
    // history aligned with what recording saw (see history_table.hh).
    history_.closeWindow(setOf(incoming_addr), victim_addr);
}

std::string
Dbcp::name() const
{
    if (config_.tableEntries == 0)
        return "dbcp-unlimited";
    return "dbcp-" +
        std::to_string(config_.tableEntries * config_.entryBytes /
                       1024) +
        "KB";
}

void
Dbcp::exportStats(StatSet &set) const
{
    set.set("recorded", static_cast<double>(recorded_));
    set.set("reinforced", static_cast<double>(reinforced_));
    set.set("conflicts", static_cast<double>(conflicts_));
    set.set("lookups", static_cast<double>(lookups_));
    set.set("matches", static_cast<double>(matches_));
    set.set("predictions", static_cast<double>(predictions_));
    set.set("low_confidence", static_cast<double>(lowConfidence_));
    set.set("stored_signatures",
            static_cast<double>(storedSignatures()));
}

std::uint64_t
Dbcp::storedSignatures() const
{
    if (config_.tableEntries == 0)
        return oracle_.size();
    std::uint64_t n = 0;
    for (const TableLine &line : table_)
        n += line.valid ? 1 : 0;
    return n;
}

void
Dbcp::clear()
{
    oracle_.clear();
    for (TableLine &line : table_)
        line.valid = false;
    history_.clear();
}

} // namespace ltc
