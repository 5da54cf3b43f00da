// LDPC functional layer: code construction, golden decoders, and the serial
// architecture model assembled from the behavioural modules.
#include <gtest/gtest.h>

#include <random>

#include "ldpc/arch/decoder.hpp"
#include "ldpc/code.hpp"
#include "ldpc/msgpass.hpp"

namespace corebist::ldpc {
namespace {

CodeParams smallParams(std::uint64_t seed = 7) {
  CodeParams p;
  p.bit_nodes = 64;
  p.check_nodes = 32;
  p.dv = 3;
  p.seed = seed;
  return p;
}

TEST(LdpcCode, StructuralInvariants) {
  const LdpcCode code(smallParams());
  EXPECT_EQ(code.n(), 64);
  EXPECT_EQ(code.m(), 32);
  EXPECT_EQ(code.k(), 32);
  int edges = 0;
  for (int r = 0; r < code.m(); ++r) {
    EXPECT_GE(static_cast<int>(code.row(r).size()), 2);
    edges += static_cast<int>(code.row(r).size());
    // Sorted, unique, in range.
    for (std::size_t i = 0; i < code.row(r).size(); ++i) {
      EXPECT_LT(code.row(r)[i], code.n());
      if (i > 0) {
        EXPECT_LT(code.row(r)[i - 1], code.row(r)[i]);
      }
    }
  }
  EXPECT_EQ(edges, code.edgeCount());
  // Row/column views agree.
  for (int bit = 0; bit < code.n(); ++bit) {
    for (const int r : code.col(bit)) {
      const auto& row = code.row(r);
      EXPECT_NE(std::find(row.begin(), row.end(), bit), row.end());
    }
  }
  EXPECT_LE(code.maxColDegree(), 4);  // decoder buffer constraint
}

TEST(LdpcCode, RejectsBadParameters) {
  CodeParams p = smallParams();
  p.bit_nodes = 2000;  // > 1024
  EXPECT_THROW(LdpcCode{p}, std::invalid_argument);
  p = smallParams();
  p.check_nodes = 600;  // > 512
  EXPECT_THROW(LdpcCode{p}, std::invalid_argument);
}

TEST(LdpcCode, PaperScaleMaximumConfiguration) {
  // "up to a maximum of 512 check nodes and 1,024 bit nodes"
  CodeParams p;
  p.bit_nodes = 1024;
  p.check_nodes = 512;
  p.dv = 3;
  const LdpcCode code(p);
  EXPECT_EQ(code.n(), 1024);
  EXPECT_EQ(code.m(), 512);
}

class EncodeRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EncodeRoundtrip, EncodedWordsSatisfyAllChecks) {
  const LdpcCode code(smallParams(GetParam()));
  std::mt19937_64 rng(GetParam() * 17 + 1);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::uint8_t> info(static_cast<std::size_t>(code.k()));
    for (auto& b : info) b = static_cast<std::uint8_t>(rng() & 1u);
    const auto word = code.encode(info);
    EXPECT_TRUE(code.checkWord(word));
    // Systematic: info bits preserved.
    for (int i = 0; i < code.k(); ++i) {
      EXPECT_EQ(word[static_cast<std::size_t>(i)], info[static_cast<std::size_t>(i)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodeRoundtrip,
                         ::testing::Values(1, 2, 3, 4, 5));

std::vector<double> llrForWord(const std::vector<std::uint8_t>& word,
                               double strength) {
  std::vector<double> llr(word.size());
  for (std::size_t i = 0; i < word.size(); ++i) {
    llr[i] = word[i] != 0 ? -strength : strength;
  }
  return llr;
}

TEST(MinSum, CleanWordDecodesImmediately) {
  const LdpcCode code(smallParams());
  const auto word = code.encode(std::vector<std::uint8_t>(32, 1));
  const auto res = decodeMinSum(code, llrForWord(word, 4.0));
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.word, word);
  EXPECT_EQ(res.iterations, 1);
}

TEST(MinSum, CorrectsFewFlippedBits) {
  const LdpcCode code(smallParams(3));
  std::mt19937_64 rng(123);
  int corrected = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::uint8_t> info(32);
    for (auto& b : info) b = static_cast<std::uint8_t>(rng() & 1u);
    const auto word = code.encode(info);
    auto llr = llrForWord(word, 3.0);
    // Flip 3 random positions with a moderately wrong LLR.
    for (int f = 0; f < 3; ++f) {
      const std::size_t pos = rng() % llr.size();
      llr[pos] = -llr[pos] * 0.5;
    }
    const auto res = decodeMinSum(code, llr);
    if (res.converged && res.word == word) ++corrected;
  }
  EXPECT_GE(corrected, trials * 3 / 4);
}

TEST(MinSumFixed, MatchesFloatOnStrongChannels) {
  const LdpcCode code(smallParams(9));
  std::mt19937_64 rng(77);
  std::vector<std::uint8_t> info(32);
  for (auto& b : info) b = static_cast<std::uint8_t>(rng() & 1u);
  const auto word = code.encode(info);
  std::vector<int> llr8(word.size());
  for (std::size_t i = 0; i < word.size(); ++i) {
    llr8[i] = word[i] != 0 ? -24 : 24;
  }
  const auto res = decodeMinSumFixed(code, llr8);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.word, word);
}

TEST(SatHelpers, ClampAndAdd) {
  EXPECT_EQ(satClamp(200, 8), 127);
  EXPECT_EQ(satClamp(-200, 8), -128);
  EXPECT_EQ(satClamp(100, 8), 100);
  EXPECT_EQ(satAdd(100, 100, 8), 127);
  EXPECT_EQ(satAdd(-100, -100, 8), -128);
  EXPECT_EQ(quantizeLlr(1.0), 8);
  EXPECT_EQ(quantizeLlr(100.0), 127);
}

TEST(SerialDecoder, DecodesCleanWord) {
  const LdpcCode code(smallParams(11));
  SerialDecoder dec(code, 10);
  const auto word = code.encode(std::vector<std::uint8_t>(32, 0));
  std::vector<int> llr8(static_cast<std::size_t>(code.n()), 20);
  const auto res = dec.decode(llr8);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.word, word);
  EXPECT_GT(dec.cyclesSimulated(), 0u);
}

TEST(SerialDecoder, CorrectsErrorsLikeTheGoldenDecoder) {
  const LdpcCode code(smallParams(13));
  SerialDecoder dec(code, 20);
  std::mt19937_64 rng(31);
  int ok = 0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::uint8_t> info(32);
    for (auto& b : info) b = static_cast<std::uint8_t>(rng() & 1u);
    const auto word = code.encode(info);
    std::vector<int> llr8(word.size());
    for (std::size_t i = 0; i < word.size(); ++i) {
      llr8[i] = word[i] != 0 ? -20 : 20;
    }
    // Two weakly wrong bits.
    for (int f = 0; f < 2; ++f) {
      const std::size_t pos = rng() % llr8.size();
      llr8[pos] = llr8[pos] > 0 ? -6 : 6;
    }
    const auto res = dec.decode(llr8);
    if (res.converged && res.word == word) ++ok;
  }
  EXPECT_GE(ok, trials * 2 / 3);
}

TEST(SerialDecoder, CycleCountScalesWithEdges) {
  const LdpcCode code(smallParams(17));
  SerialDecoder dec(code, 1);
  std::vector<int> llr8(static_cast<std::size_t>(code.n()), 15);
  (void)dec.decode(llr8);
  // One iteration serially processes every edge in both passes plus per-node
  // overhead: cycles must exceed 2x edges and stay well under 10x.
  const std::size_t edges = static_cast<std::size_t>(code.edgeCount());
  EXPECT_GT(dec.cyclesSimulated(), 2 * edges);
  EXPECT_LT(dec.cyclesSimulated(), 10 * edges);
}

TEST(SerialDecoder, StatementCoverageAccumulates) {
  StatementCoverage bn_cov(BitNodeModel::kNumStatements);
  StatementCoverage cn_cov(CheckNodeModel::kNumStatements);
  const LdpcCode code(smallParams(19));
  SerialDecoder dec(code, 5, &bn_cov, &cn_cov);
  std::vector<int> llr8(static_cast<std::size_t>(code.n()), 12);
  llr8[3] = -5;
  llr8[10] = -2;
  (void)dec.decode(llr8);
  // Decoding exercises a solid fraction of both models' statements.
  EXPECT_GT(bn_cov.coverage(), 0.4);
  EXPECT_GT(cn_cov.coverage(), 0.4);
}

}  // namespace
}  // namespace corebist::ldpc
