#include "protocol/pow.hpp"

namespace fairchain::protocol {

PowModel::PowModel(double w) : w_(w) { ValidateReward(w, "PowModel: w"); }

double PowModel::WinProbability(const StakeState& state,
                                std::size_t i) const {
  return state.StakeShare(i);
}

}  // namespace fairchain::protocol
