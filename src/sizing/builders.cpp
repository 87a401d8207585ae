#include "sizing/builders.hpp"

#include "sizing/blocks.hpp"

namespace amsyn::sizing {

NetlistBuilderRegistry::NetlistBuilderRegistry() {
  for (const OpampStructure& s : enumerateOpampStructures())
    add(s.name(), [s](const std::vector<double>& x, const circuit::Process& proc,
                      const OpampTestbench& tb) { return buildComposedOpamp(s, x, proc, tb); });
}

NetlistBuilderRegistry& NetlistBuilderRegistry::instance() {
  static NetlistBuilderRegistry registry;
  return registry;
}

void NetlistBuilderRegistry::add(const std::string& topology, NetlistBuilder builder) {
  builders_[topology] = std::move(builder);
}

const NetlistBuilder* NetlistBuilderRegistry::find(const std::string& topology) const {
  const auto it = builders_.find(topology);
  return it == builders_.end() ? nullptr : &it->second;
}

}  // namespace amsyn::sizing
