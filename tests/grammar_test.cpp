#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "grammar/repair.hpp"
#include "grammar/slp.hpp"
#include "matrix/csrv.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

TEST(SlpTest, ExpandSingleRule) {
  Slp slp(10, {});
  u32 n0 = slp.AddRule(3, 4);
  std::vector<u32> out;
  slp.Expand(n0, &out);
  EXPECT_EQ(out, (std::vector<u32>{3, 4}));
}

TEST(SlpTest, ExpandNestedRules) {
  Slp slp(10, {});
  u32 n0 = slp.AddRule(1, 2);
  u32 n1 = slp.AddRule(n0, 3);
  u32 n2 = slp.AddRule(n1, n0);
  std::vector<u32> out;
  slp.Expand(n2, &out);
  EXPECT_EQ(out, (std::vector<u32>{1, 2, 3, 1, 2}));
}

TEST(SlpTest, ExpansionLengths) {
  Slp slp(10, {});
  u32 n0 = slp.AddRule(1, 2);
  u32 n1 = slp.AddRule(n0, n0);
  slp.AddRule(n1, 3);
  std::vector<u64> lengths = slp.ExpansionLengths();
  EXPECT_EQ(lengths, (std::vector<u64>{2, 4, 5}));
}

TEST(SlpTest, DeepChainDoesNotOverflowStack) {
  Slp slp(2, {});
  u32 current = 0;
  for (int i = 0; i < 200000; ++i) current = slp.AddRule(current, 1);
  std::vector<u32> out;
  slp.Expand(current, &out);
  EXPECT_EQ(out.size(), 200001u);
}

TEST(SlpTest, AddRuleRejectsUndefinedSymbols) {
  Slp slp(5, {});
  EXPECT_THROW(slp.AddRule(5, 0), Error);  // 5 not yet defined
}

TEST(SlpTest, ValidateRejectsForwardReference) {
  // Rule 0 referencing symbol 6 (= nonterminal 1) breaks topological order.
  Slp bad(5, {{6, 0}, {1, 2}});
  EXPECT_THROW(bad.Validate(), Error);
}

TEST(SlpTest, SerializationRoundTrip) {
  Slp slp(100, {});
  u32 n0 = slp.AddRule(7, 8);
  slp.AddRule(n0, 9);
  ByteWriter w;
  slp.Serialize(&w);
  ByteReader r(w.buffer());
  EXPECT_EQ(Slp::Deserialize(&r), slp);
}

TEST(SlpTest, DeserializeRejectsOutOfOrderRules) {
  ByteWriter w;
  w.PutVarint(5);   // alphabet
  w.PutVarint(1);   // one rule
  w.PutVarint(7);   // references nonterminal 2 which does not exist
  w.PutVarint(0);
  ByteReader r(w.buffer());
  EXPECT_THROW(Slp::Deserialize(&r), Error);
}

// --------------------------------------------------------------------------
// RePair
// --------------------------------------------------------------------------

/// Expands a RePair result and checks it reproduces `input` exactly.
void ExpectLossless(const std::vector<u32>& input, u32 alphabet,
                    const RePairConfig& config = {}) {
  RePairResult result = RePairCompress(input, alphabet, config);
  result.slp.Validate();
  EXPECT_EQ(result.slp.ExpandSequence(result.final_sequence), input);
}

TEST(RePairTest, EmptyInput) {
  RePairResult result = RePairCompress({}, 10);
  EXPECT_TRUE(result.final_sequence.empty());
  EXPECT_EQ(result.slp.rule_count(), 0u);
}

TEST(RePairTest, NoRepeatsYieldsNoRules) {
  std::vector<u32> input = {1, 2, 3, 4, 5};
  RePairResult result = RePairCompress(input, 10);
  EXPECT_EQ(result.slp.rule_count(), 0u);
  EXPECT_EQ(result.final_sequence, input);
}

TEST(RePairTest, SimpleRepeat) {
  std::vector<u32> input = {1, 2, 1, 2, 1, 2, 1, 2};
  RePairResult result = RePairCompress(input, 10);
  EXPECT_GE(result.slp.rule_count(), 1u);
  EXPECT_LE(result.final_sequence.size(), 4u);
  EXPECT_EQ(result.slp.ExpandSequence(result.final_sequence), input);
}

TEST(RePairTest, EqualSymbolRuns) {
  // Overlapping pairs in runs are the classic RePair pitfall.
  ExpectLossless({7, 7, 7, 7, 7, 7, 7, 7, 7}, 8);
  ExpectLossless({7, 7, 7, 7, 7, 7, 7, 7}, 8);
  ExpectLossless({7, 7}, 8);
  ExpectLossless({7, 7, 7}, 8);
}

TEST(RePairTest, AlternatingWithRuns) {
  ExpectLossless({1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2}, 3);
}

TEST(RePairTest, PaperFigure1Sequence) {
  // Compress the CSRV sequence of the paper's running example and check
  // losslessness plus sentinel exclusion.
  DenseMatrix m(6, 5,
                {1.2, 3.4, 5.6, 0.0, 2.3,  //
                 2.3, 0.0, 2.3, 4.5, 1.7,  //
                 1.2, 3.4, 2.3, 4.5, 0.0,  //
                 3.4, 0.0, 5.6, 0.0, 2.3,  //
                 2.3, 0.0, 2.3, 4.5, 0.0,  //
                 1.2, 3.4, 2.3, 4.5, 3.4});
  CsrvMatrix csrv = CsrvMatrix::FromDense(m);
  RePairConfig config;
  config.forbidden_terminal = kCsrvSentinel;
  u32 alphabet = 1 + 6 * 5;
  RePairResult result =
      RePairCompress(csrv.sequence().ToVector(), alphabet, config);
  EXPECT_EQ(result.slp.ExpandSequence(result.final_sequence),
            csrv.sequence().ToVector());
  EXPECT_GE(result.slp.rule_count(), 3u);  // rows share lots of structure
  for (const SlpRule& rule : result.slp.rules()) {
    EXPECT_NE(rule.left, kCsrvSentinel);
    EXPECT_NE(rule.right, kCsrvSentinel);
  }
}

TEST(RePairTest, ForbiddenTerminalNeverInRules) {
  Rng rng(29);
  std::vector<u32> input;
  for (int i = 0; i < 5000; ++i) {
    input.push_back(static_cast<u32>(rng.SkewedBelow(6, 0.6)));
  }
  RePairConfig config;
  config.forbidden_terminal = 0;
  RePairResult result = RePairCompress(input, 6, config);
  EXPECT_EQ(result.slp.ExpandSequence(result.final_sequence), input);
  for (const SlpRule& rule : result.slp.rules()) {
    EXPECT_NE(rule.left, 0u);
    EXPECT_NE(rule.right, 0u);
  }
  // The forbidden symbol must survive verbatim in the final sequence.
  auto zeros_in = std::count(input.begin(), input.end(), 0u);
  auto zeros_out = std::count(result.final_sequence.begin(),
                              result.final_sequence.end(), 0u);
  EXPECT_EQ(zeros_in, zeros_out);
}

TEST(RePairTest, CompressesRepetitiveInputWell) {
  // 200 copies of a 10-symbol phrase: grammar must be tiny.
  std::vector<u32> phrase = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
  std::vector<u32> input;
  for (int i = 0; i < 200; ++i) {
    input.insert(input.end(), phrase.begin(), phrase.end());
  }
  RePairResult result = RePairCompress(input, 10);
  EXPECT_EQ(result.slp.ExpandSequence(result.final_sequence), input);
  EXPECT_LT(result.IntegerCount(), 120u);  // ~2000 symbols -> < 120 ints
}

TEST(RePairTest, MaxRulesCapRespected) {
  Rng rng(31);
  std::vector<u32> input;
  for (int i = 0; i < 3000; ++i) {
    input.push_back(static_cast<u32>(rng.SkewedBelow(4, 0.5)));
  }
  RePairConfig config;
  config.max_rules = 5;
  RePairResult result = RePairCompress(input, 4, config);
  EXPECT_LE(result.slp.rule_count(), 5u);
  EXPECT_EQ(result.slp.ExpandSequence(result.final_sequence), input);
}

TEST(RePairTest, RejectsOutOfAlphabetSymbols) {
  EXPECT_THROW(RePairCompress({1, 2, 99}, 10), Error);
}

TEST(RePairTest, MinFrequencyValidated) {
  RePairConfig config;
  config.min_frequency = 1;
  EXPECT_THROW(RePairCompress({1, 2}, 10, config), Error);
}

struct RandomCase {
  u64 seed;
  std::size_t length;
  u32 alphabet;
  double skew;
};

class RePairRandomTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RePairRandomTest, LosslessOnRandomInputs) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed);
  std::vector<u32> input;
  input.reserve(param.length);
  for (std::size_t i = 0; i < param.length; ++i) {
    input.push_back(
        static_cast<u32>(rng.SkewedBelow(param.alphabet, param.skew)));
  }
  ExpectLossless(input, param.alphabet);

  // Same input with symbol 0 forbidden.
  RePairConfig config;
  config.forbidden_terminal = 0;
  RePairResult result = RePairCompress(input, param.alphabet, config);
  EXPECT_EQ(result.slp.ExpandSequence(result.final_sequence), input);
  for (const SlpRule& rule : result.slp.rules()) {
    EXPECT_NE(rule.left, 0u);
    EXPECT_NE(rule.right, 0u);
  }
}

// CTest names each case after the bytes GetParam() prints, padding
// included; a static array keeps the padding after `alphabet` zero, so
// the names do not depend on what was on the stack.
const RandomCase kRandomCases[] = {
    {1, 100, 2, 0.5},    // tiny binary
    {2, 1000, 2, 0.9},   // binary, flat-ish
    {3, 1000, 3, 0.3},   // heavily skewed
    {4, 5000, 16, 0.7},
    {5, 10000, 64, 0.9},
    {6, 20000, 512, 0.99},
    {7, 4096, 7, 0.5},
    {8, 333, 9, 0.4}};

INSTANTIATE_TEST_SUITE_P(Sweep, RePairRandomTest,
                         ::testing::ValuesIn(kRandomCases));

TEST(RePairTest, GrammarSizeTracksEntropyOrdering) {
  // A low-entropy sequence must compress to fewer integers than a
  // high-entropy one of the same length (sanity check on the H_k claim).
  Rng rng(37);
  std::vector<u32> low, high;
  for (int i = 0; i < 20000; ++i) {
    low.push_back(static_cast<u32>(rng.SkewedBelow(256, 0.3)));
    high.push_back(static_cast<u32>(rng.Below(256)));
  }
  u64 low_size = RePairCompress(low, 256).IntegerCount();
  u64 high_size = RePairCompress(high, 256).IntegerCount();
  EXPECT_LT(low_size, high_size);
}

}  // namespace
}  // namespace gcm
