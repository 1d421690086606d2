#include "mem/bus.hh"

#include "util/check.hh"
#include "util/logging.hh"

namespace ltc
{

BusConfig
BusConfig::l1l2()
{
    BusConfig c;
    c.name = "l1l2";
    c.requestCycles = 1;
    c.bytesPerCycle = 32;
    c.coreCyclesPerBusCycle = 1;
    return c;
}

BusConfig
BusConfig::memory()
{
    BusConfig c;
    c.name = "membus";
    c.requestCycles = 1;
    c.bytesPerCycle = 32;
    c.coreCyclesPerBusCycle = 3; // 4 GHz core / 1333 MHz bus
    return c;
}

Bus::Bus(const BusConfig &config) : config_(config)
{
    ltc_assert(config_.bytesPerCycle > 0, "bus with zero width");
    ltc_assert(config_.coreCyclesPerBusCycle > 0,
               "bus with zero clock ratio");
}

void
Bus::auditInvariants() const
{
    if (transfers_ == 0) {
        LTC_CHECK(busyCycles_ == 0 && queueCycles_ == 0 &&
                      bytesMoved_ == 0 && busyUntil_ == 0,
                  config_.name, ": idle bus with accounted work");
        return;
    }
    LTC_CHECK(busyUntil_ >= busyCycles_, config_.name,
              ": busy horizon ", busyUntil_,
              " behind accumulated occupancy ", busyCycles_);
    LTC_CHECK(busyCycles_ >= transfers_ * config_.occupancy(0),
              config_.name, ": ", busyCycles_, " busy cycles from ",
              transfers_, " transfers of >= ", config_.occupancy(0),
              " cycles each");
}

} // namespace ltc
