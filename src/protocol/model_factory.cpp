#include "protocol/model_factory.hpp"

#include <algorithm>
#include <stdexcept>

#include "protocol/c_pos.hpp"
#include "protocol/extensions.hpp"
#include "protocol/ml_pos.hpp"
#include "protocol/pow.hpp"
#include "protocol/sl_pos.hpp"

namespace fairchain::protocol {

std::unique_ptr<IncentiveModel> MakeModel(const std::string& name, double w,
                                          double v, std::uint32_t shards) {
  if (name == "pow") return std::make_unique<PowModel>(w);
  if (name == "mlpos") return std::make_unique<MlPosModel>(w);
  if (name == "slpos") return std::make_unique<SlPosModel>(w);
  if (name == "cpos") return std::make_unique<CPosModel>(w, v, shards);
  if (name == "fslpos") return std::make_unique<FslPosModel>(w);
  if (name == "neo") return std::make_unique<NeoModel>(w);
  if (name == "algorand") return std::make_unique<AlgorandModel>(v);
  if (name == "eos") return std::make_unique<EosModel>(w, v);
  std::string known;
  for (const std::string& candidate : KnownModelNames()) {
    if (!known.empty()) known += "|";
    known += candidate;
  }
  throw std::invalid_argument("unknown protocol '" + name + "' (known: " +
                              known + ")");
}

const std::vector<std::string>& KnownModelNames() {
  static const std::vector<std::string> names = {
      "pow", "mlpos", "slpos", "cpos", "fslpos", "neo", "algorand", "eos"};
  return names;
}

bool IsKnownModelName(const std::string& name) {
  const auto& names = KnownModelNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace fairchain::protocol
