#include "store/result_codec.hpp"

#include <bit>
#include <cstdint>
#include <iterator>
#include <stdexcept>

namespace fairchain::store {

namespace {

// A checkpoint-stats record on the wire: `step` as a u64, then these
// doubles in this order.  The one field list both directions walk.
constexpr double core::CheckpointStats::*kStatsDoubles[] = {
    &core::CheckpointStats::mean,
    &core::CheckpointStats::std_dev,
    &core::CheckpointStats::p05,
    &core::CheckpointStats::p25,
    &core::CheckpointStats::median,
    &core::CheckpointStats::p75,
    &core::CheckpointStats::p95,
    &core::CheckpointStats::min,
    &core::CheckpointStats::max,
    &core::CheckpointStats::unfair_probability,
    &core::CheckpointStats::gini,
    &core::CheckpointStats::hhi,
    &core::CheckpointStats::nakamoto,
    &core::CheckpointStats::top_decile_share,
    &core::CheckpointStats::orphan_rate,
    &core::CheckpointStats::reorg_depth_mean,
    &core::CheckpointStats::reorg_depth_max,
};
constexpr std::size_t kStatsBytes = 8 * (1 + std::size(kStatsDoubles));

void PutU64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void PutDouble(std::string& out, double value) {
  PutU64(out, std::bit_cast<std::uint64_t>(value));
}

void PutString(std::string& out, const std::string& value) {
  PutU64(out, value.size());
  out.append(value);
}

void PutBool(std::string& out, bool value) {
  out.push_back(value ? '\1' : '\0');
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint64_t U64() {
    if (bytes_.size() - offset_ < 8) Fail("truncated integer");
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(bytes_[offset_ + i]))
               << (8 * i);
    }
    offset_ += 8;
    return value;
  }

  double Double() { return std::bit_cast<double>(U64()); }

  std::string String() {
    const std::uint64_t length = U64();
    if (bytes_.size() - offset_ < length) Fail("truncated string");
    std::string value(bytes_.substr(offset_, length));
    offset_ += length;
    return value;
  }

  bool Bool() {
    if (bytes_.size() - offset_ < 1) Fail("truncated bool");
    const char value = bytes_[offset_++];
    if (value != '\0' && value != '\1') Fail("malformed bool");
    return value == '\1';
  }

  // `element_bytes` is the encoded size of one element: a count the bytes
  // left cannot hold fails here, before anything is reserved.
  template <typename T, typename Fn>
  std::vector<T> Vector(std::size_t element_bytes, Fn element) {
    const std::uint64_t count = U64();
    if (count > (bytes_.size() - offset_) / element_bytes) {
      Fail("vector length exceeds the payload");
    }
    std::vector<T> values;
    values.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) values.push_back(element());
    return values;
  }

  void ExpectEnd() const {
    if (offset_ != bytes_.size()) Fail("trailing bytes after payload");
  }

 private:
  [[noreturn]] static void Fail(const char* what) {
    throw std::runtime_error(std::string("DecodeSimulationResult: ") + what);
  }

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

}  // namespace

std::string EncodeSimulationResult(const core::SimulationResult& result) {
  std::string out;
  PutString(out, result.protocol);
  PutDouble(out, result.initial_share);
  PutDouble(out, result.spec.epsilon);
  PutDouble(out, result.spec.delta);

  const core::SimulationConfig& config = result.config;
  PutU64(out, config.steps);
  PutU64(out, config.replications);
  PutU64(out, config.seed);
  PutU64(out, config.checkpoints.size());
  for (const std::uint64_t checkpoint : config.checkpoints) {
    PutU64(out, checkpoint);
  }
  PutU64(out, config.withhold_period);
  PutU64(out, config.miner);
  PutBool(out, config.population_metrics);
  PutBool(out, config.keep_final_lambdas);

  PutU64(out, result.checkpoints.size());
  for (const core::CheckpointStats& stats : result.checkpoints) {
    PutU64(out, stats.step);
    for (const auto field : kStatsDoubles) PutDouble(out, stats.*field);
  }
  PutU64(out, result.final_lambdas.size());
  for (const double lambda : result.final_lambdas) PutDouble(out, lambda);
  return out;
}

core::SimulationResult DecodeSimulationResult(std::string_view bytes) {
  Reader reader(bytes);
  core::SimulationResult result;
  result.protocol = reader.String();
  result.initial_share = reader.Double();
  result.spec.epsilon = reader.Double();
  result.spec.delta = reader.Double();

  result.config.steps = reader.U64();
  result.config.replications = reader.U64();
  result.config.seed = reader.U64();
  result.config.checkpoints =
      reader.Vector<std::uint64_t>(8, [&reader] { return reader.U64(); });
  result.config.withhold_period = reader.U64();
  result.config.miner = static_cast<std::size_t>(reader.U64());
  result.config.population_metrics = reader.Bool();
  result.config.keep_final_lambdas = reader.Bool();

  result.checkpoints =
      reader.Vector<core::CheckpointStats>(kStatsBytes, [&reader] {
        core::CheckpointStats stats;
        stats.step = reader.U64();
        for (const auto field : kStatsDoubles) stats.*field = reader.Double();
        return stats;
      });
  result.final_lambdas =
      reader.Vector<double>(8, [&reader] { return reader.Double(); });
  reader.ExpectEnd();
  return result;
}

}  // namespace fairchain::store
