#include "sim/metrics.hpp"

#include <sstream>

namespace dtop {

double EngineStats::avg_active() const {
  return ticks > 0 ? static_cast<double>(node_steps) /
                         static_cast<double>(ticks)
                   : 0.0;
}

std::string EngineStats::summary() const {
  std::ostringstream os;
  os << "ticks=" << ticks << " messages=" << messages
     << " node_steps=" << node_steps << " max_active=" << max_active
     << " allocs=" << allocs << " peak_rss_kb=" << peak_rss_kb;
  return os.str();
}

}  // namespace dtop
