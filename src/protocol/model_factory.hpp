// Name-to-model factory: the single place that maps a protocol's CLI /
// scenario-spec name ("pow", "mlpos", ...) to a constructed IncentiveModel.
// The fairchain CLI and the sim layer's campaign runner both build models
// through this, so a new protocol registers here once and is immediately
// usable from `fairchain simulate`, scenario specs, and the registry.

#ifndef FAIRCHAIN_PROTOCOL_MODEL_FACTORY_HPP_
#define FAIRCHAIN_PROTOCOL_MODEL_FACTORY_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "protocol/incentive_model.hpp"

namespace fairchain::protocol {

/// Constructs the model named `name` at the given parameters.  `w` is the
/// block / proposer reward, `v` the inflation reward (C-PoS, Algorand,
/// EOS), `shards` the C-PoS committee count; parameters a model does not
/// take are ignored.  Throws std::invalid_argument for an unknown name,
/// listing the known ones.
std::unique_ptr<IncentiveModel> MakeModel(const std::string& name, double w,
                                          double v, std::uint32_t shards);

/// The names MakeModel accepts, in a stable presentation order.
const std::vector<std::string>& KnownModelNames();

/// KnownModelNames joined with '|', for error messages.
std::string KnownModelNameList();

/// True when `name` is accepted by MakeModel.
bool IsKnownModelName(const std::string& name);

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_MODEL_FACTORY_HPP_
