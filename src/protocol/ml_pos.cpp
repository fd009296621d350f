#include "protocol/ml_pos.hpp"

namespace fairchain::protocol {

MlPosModel::MlPosModel(double w) : w_(w) { ValidateReward(w, "MlPosModel: w"); }

double MlPosModel::WinProbability(const StakeState& state,
                                  std::size_t i) const {
  return state.StakeShare(i);
}

}  // namespace fairchain::protocol
