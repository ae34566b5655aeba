// Reads values out of the engine's JSON metrics export (obs::ExportJson, as
// served by the stats endpoint): {"counters":{..},"gauges":{..},
// "histograms":{"name":{"count":..,"sum":..,"mean":..}}}.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdlib>
#include <string>

namespace perfbench {

/// Number following `"name":` (a counter or gauge); 0 when absent.
inline double StatValue(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

/// Field `field` ("count", "sum", "mean", ...) of histogram `name`.
inline double HistField(const std::string& json, const std::string& name,
                        const std::string& field) {
  const std::size_t at = json.find("\"" + name + "\":{");
  if (at == std::string::npos) return 0.0;
  const std::size_t end = json.find('}', at);
  return StatValue(json.substr(at + name.size() + 3, end - at), field);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
