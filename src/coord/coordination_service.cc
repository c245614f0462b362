#include "src/coord/coordination_service.h"

#include "src/obs/metrics.h"

namespace logbase::coord {

CoordinationService::CoordinationService(sim::NetworkModel* network,
                                         int host_node)
    : network_(network), host_node_(host_node) {}

void CoordinationService::ChargeRoundTrip(int client_node,
                                          uint64_t bytes) const {
  if (network_ != nullptr) {
    network_->Transfer(client_node, host_node_, bytes);
    network_->Transfer(host_node_, client_node, bytes);
  }
  sim::ChargeCpu(sim::costs::kCoordinationUs);
  static obs::Counter* round_trips =
      obs::MetricsRegistry::Global().counter("coord.round_trips");
  round_trips->Add();
}

SessionId CoordinationService::CreateSession(int client_node) {
  ChargeRoundTrip(client_node);
  return tree_.CreateSession();
}

void CoordinationService::CloseSession(SessionId session) {
  tree_.CloseSession(session);
}

bool CoordinationService::SessionAlive(SessionId session) const {
  return tree_.SessionAlive(session);
}

uint64_t CoordinationService::ReserveTimestamps(int client_node,
                                                uint32_t count) {
  ChargeRoundTrip(client_node);
  return clock_.fetch_add(count, std::memory_order_relaxed) + 1;
}

Result<uint64_t> CoordinationService::CreateEphemeralsAndStamp(
    SessionId session, const std::vector<std::string>& paths,
    const std::string& data, int client_node) {
  ChargeRoundTrip(client_node);
  LOGBASE_RETURN_NOT_OK(tree_.CreateEphemerals(session, paths, data));
  return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint64_t CoordinationService::LatestTimestamp() const {
  return clock_.load(std::memory_order_relaxed);
}

}  // namespace logbase::coord
