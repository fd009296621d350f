// SHA-256 against FIPS 180-4 test vectors.

#include "crypto/sha256.hpp"

#include <string>

#include <gtest/gtest.h>

namespace fairchain::crypto {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256Digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256Digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, FourBlockMessage) {
  EXPECT_EQ(
      DigestToHex(Sha256Digest(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
  EXPECT_EQ(DigestToHex(ctx.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingEqualsOneShot) {
  const std::string message = "The quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  for (const char c : message) ctx.Update(&c, 1);
  EXPECT_EQ(ctx.Finalize(), Sha256Digest(message));
}

TEST(Sha256Test, SplitAtBlockBoundary) {
  const std::string part1(64, 'x');
  const std::string part2 = "tail";
  Sha256 ctx;
  ctx.Update(part1);
  ctx.Update(part2);
  EXPECT_EQ(ctx.Finalize(), Sha256Digest(part1 + part2));
}

TEST(Sha256Test, ResetRestoresInitialState) {
  Sha256 ctx;
  ctx.Update("garbage");
  ctx.Reset();
  ctx.Update("abc");
  EXPECT_EQ(DigestToHex(ctx.Finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DifferentInputsDiffer) {
  EXPECT_NE(Sha256Digest("a"), Sha256Digest("b"));
  EXPECT_NE(Sha256Digest(""), Sha256Digest(std::string(1, '\0')));
}

TEST(Sha256Test, DigestToHexFormat) {
  const Digest digest = Sha256Digest("abc");
  const std::string hex = DigestToHex(digest);
  EXPECT_EQ(hex.size(), 64u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

}  // namespace
}  // namespace fairchain::crypto
