// Fixture: a trace source that overrides next() beside fill() must be
// flagged — the stream is defined in fill() alone, so a second
// one-record body could drift from it.

class CountingSource final : public TraceSource
{
  public:
    bool
    next(MemRef &out)
        override
    {
        out.addr = count_++ * 64;
        return true;
    }

    std::size_t fill(std::span<MemRef> out) override;

  private:
    Addr count_ = 0;
};
