#include "shard/wire.h"

namespace sargus::wire {

std::vector<uint32_t> ResidualHopBudgets(const HopAutomaton& nfa) {
  const std::vector<BoundStep>& steps = nfa.bound_steps();
  std::vector<uint64_t> suffix(steps.size() + 1, 0);
  for (size_t i = steps.size(); i-- > 0;) {
    suffix[i] = suffix[i + 1] + steps[i].max_hops;
  }
  std::vector<uint32_t> residual(nfa.NumStates());
  for (uint32_t s = 0; s < nfa.NumStates(); ++s) {
    residual[s] =
        static_cast<uint32_t>(suffix[nfa.StepOf(s)] - nfa.HopsOf(s));
  }
  return residual;
}

uint8_t PackStatus(const Status& status) {
  return static_cast<uint8_t>(status.code());
}

Status UnpackStatus(uint8_t code, std::string error) {
  if (code == 0) return OkStatus();
  if (code > static_cast<uint8_t>(kLastStatusCode)) {
    return Status::Internal("wire: unknown status code " +
                            std::to_string(code) + ": " + error);
  }
  return Status(static_cast<StatusCode>(code), std::move(error));
}

}  // namespace sargus::wire
