// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The campaign store hashes each cell's canonical preimage into its key and
// each entry's payload into its checksum (store/campaign_store.cpp).
// Verified against the FIPS test vectors in tests/crypto/sha256_test.cpp.

#ifndef FAIRCHAIN_CRYPTO_SHA256_HPP_
#define FAIRCHAIN_CRYPTO_SHA256_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fairchain::crypto {

/// A 32-byte digest.
using Digest = std::array<std::uint8_t, 32>;

/// Streaming SHA-256 context.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `len` bytes.
  void Update(const void* data, std::size_t len);
  /// Absorbs a string view.
  void Update(std::string_view data);

  /// Finalises and returns the digest.  The context must not be reused
  /// afterwards without Reset().
  Digest Finalize();

  /// Restores the initial state.
  void Reset();

 private:
  void ProcessBlock(const std::uint8_t block[64]);

  std::array<std::uint32_t, 8> state_;
  std::uint64_t bit_count_ = 0;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience: SHA-256 of a byte buffer.
Digest Sha256Digest(const void* data, std::size_t len);

/// One-shot convenience: SHA-256 of a string.
Digest Sha256Digest(std::string_view data);

/// Lowercase hex rendering of a digest.
std::string DigestToHex(const Digest& digest);

}  // namespace fairchain::crypto

#endif  // FAIRCHAIN_CRYPTO_SHA256_HPP_
