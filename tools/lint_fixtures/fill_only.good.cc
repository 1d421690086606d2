// Fixture: a trace source that defines its stream in fill() alone and
// reads one record through the inherited next() is clean.

class CountingSource final : public TraceSource
{
  public:
    std::size_t
    fill(std::span<MemRef> out) override
    {
        for (MemRef &ref : out)
            ref.addr = count_++ * 64;
        return out.size();
    }

  private:
    Addr count_ = 0;
};

// A comment naming next(MemRef &out) override is not code.
bool
firstIsZero(TraceSource &src)
{
    MemRef ref;
    return src.next(ref) && ref.addr == 0;
}
