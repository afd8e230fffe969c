#include "sim/counters.h"

#include <sstream>

#include "util/assert.h"

namespace sbs::sim {

std::string Counters::summary() const {
  std::ostringstream out;
  out << "accesses=" << accesses << " writes=" << writes;
  for (std::size_t d = 1; d < level.size(); ++d) {
    out << " L" << (level.size() - d) << "{hits=" << level[d].hits
        << " misses=" << level[d].misses << "}";
  }
  out << " dram_reads=" << dram_reads << " writebacks=" << dram_writebacks
      << " remote=" << remote_dram_accesses
      << " queue_wait=" << queue_wait_cycles;
  if (filter_skips != 0) out << " filter_skips=" << filter_skips;
  if (windows_executed != 0 || fiber_switches != 0) {
    out << " engine{windows=" << windows_executed
        << " merges=" << window_merges << " pump_passes=" << pump_passes
        << " fiber_switches=" << fiber_switches << "}";
  }
  return out.str();
}

}  // namespace sbs::sim
