/**
 * @file
 * Run on the least-disturbed host CPU.
 *
 * On a shared host, a CPU whose physical core is busy with another
 * tenant runs the simulator up to 2x slower, and which CPUs are busy
 * changes over seconds. Every so often the benchmark times a short
 * fixed probe on each CPU it may use and pins its one thread to the
 * fastest. The probe is independent of the simulator, so the choice
 * does not depend on the code under test.
 */

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "host.hh"
#include "tracing.hh"

namespace perfbench
{

namespace
{

/** Seconds between CPU choices. */
constexpr double kRepickSeconds = 0.5;

/**
 * A read-modify-write stream over 256 KiB (host-L2-resident) with a
 * multiply per word: bound by issue width and cache bandwidth, the
 * resources a busy neighbour on the same core takes away. About
 * 0.2 ms on an idle core.
 */
std::int64_t
probeNs()
{
    static std::vector<std::uint64_t> words(1u << 15, 3);
    const std::int64_t t0 = nowNs();
    std::uint64_t h = 0;
    for (int round = 0; round < 2; round++) {
        for (std::uint64_t &w : words) {
            h += (w * 0x9e3779b97f4a7c15ULL) >> (h & 7);
            w ^= h & 1;
        }
    }
    const std::int64_t dur = nowNs() - t0;
    // Keep the stream observable so it is not optimized away.
    return h == 1 ? dur + 1 : dur;
}

} // namespace

CpuPicker::CpuPicker()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; c++) {
        if (CPU_ISSET(c, &set))
            cpus_.push_back(c);
    }
}

void
CpuPicker::maybeRepick()
{
    if (cpus_.size() < 2)
        return;
    if (lastPickNs_ != 0 &&
        static_cast<double>(nowNs() - lastPickNs_) * 1e-9 < kRepickSeconds)
        return;
    int best = -1;
    std::int64_t best_ns = 0;
    for (int cpu : cpus_) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0)
            continue;
        const std::int64_t ns = std::min(probeNs(), probeNs());
        if (best < 0 || ns < best_ns) {
            best = cpu;
            best_ns = ns;
        }
    }
    if (best >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(best, &one);
        sched_setaffinity(0, sizeof one, &one);
        probes_.push_back(static_cast<double>(best_ns));
    }
    lastPickNs_ = nowNs();
}

double
CpuPicker::medianProbeNs() const
{
    if (probes_.empty())
        return 0.0;
    std::vector<double> v = probes_;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

} // namespace perfbench
