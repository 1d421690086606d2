#include "cache/mshr.hh"

#include "util/check.hh"

namespace ltc
{

MshrFile::MshrFile(std::uint32_t capacity) : capacity_(capacity)
{
    ltc_assert(capacity_ > 0, "MshrFile needs at least one register");
    entries_.reserve(capacity_);
}

void
MshrFile::retireSlow(Cycle now)
{
    std::erase_if(entries_,
                  [now](const Entry &e) { return e.completion <= now; });
    // Rebuild the earliest-completion cache and the presence filter
    // from the survivors (the only point where filter bits clear).
    Cycle earliest = noEarliest;
    present_.fill(0);
    for (const Entry &e : entries_) {
        earliest = std::min(earliest, e.completion);
        present_[maskWord(e.blockAddr)] |= maskBit(e.blockAddr);
    }
    earliest_ = earliest;
}

void
MshrFile::auditInvariants() const
{
    LTC_CHECK(entries_.size() <= capacity_, entries_.size(),
              " outstanding in a ", capacity_, "-register file");
    LTC_CHECK(peak_ <= capacity_, "peak occupancy ", peak_,
              " exceeds capacity ", capacity_);
    LTC_CHECK(peak_ >= entries_.size(), "peak occupancy ", peak_,
              " behind current occupancy ", entries_.size());

    Cycle earliest = noEarliest;
    for (std::size_t i = 0; i < entries_.size(); i++) {
        const Entry &e = entries_[i];
        earliest = std::min(earliest, e.completion);
        LTC_CHECK(present_[maskWord(e.blockAddr)] & maskBit(e.blockAddr),
                  "presence filter misses outstanding block ",
                  e.blockAddr);
        for (std::size_t j = i + 1; j < entries_.size(); j++) {
            LTC_CHECK(entries_[j].blockAddr != e.blockAddr,
                      "duplicate MSHR entry for block ", e.blockAddr);
        }
    }
    LTC_CHECK(earliest_ == earliest, "cached earliest-completion ",
              earliest_, ", true minimum ", earliest);
}

} // namespace ltc
