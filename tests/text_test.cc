#include <gtest/gtest.h>

#include <set>

#include "text/name_generator.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace ultrawiki {
namespace {

// ------------------------------------------------------------ Tokenizer.

TEST(TokenizerTest, SplitsWhitespaceAndLowercases) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("The Quick  brown\tFox"),
            (std::vector<std::string>{"the", "quick", "brown", "fox"}));
}

TEST(TokenizerTest, DetachesPunctuation) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("a, b."),
            (std::vector<std::string>{"a", ",", "b", "."}));
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  Tokenizer tokenizer;
  EXPECT_TRUE(tokenizer.Tokenize("").empty());
  EXPECT_TRUE(tokenizer.Tokenize("   \n\t").empty());
}

TEST(TokenizerTest, ConsecutivePunctuation) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("wait...!"),
            (std::vector<std::string>{"wait", ".", ".", ".", "!"}));
}

TEST(TokenizerTest, SimpleSentence) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("the city nokia, with province henan."),
            (std::vector<std::string>{"the", "city", "nokia", ",", "with",
                                      "province", "henan", "."}));
}

// ----------------------------------------------------------- Vocabulary.

TEST(VocabularyTest, AddAssignsDenseIds) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.AddToken("a"), 0);
  EXPECT_EQ(vocab.AddToken("b"), 1);
  EXPECT_EQ(vocab.AddToken("a"), 0);
  EXPECT_EQ(vocab.size(), 2u);
}

TEST(VocabularyTest, LookupWithoutInsertion) {
  Vocabulary vocab;
  vocab.AddToken("present");
  EXPECT_EQ(vocab.Lookup("present"), 0);
  EXPECT_EQ(vocab.Lookup("absent"), kInvalidTokenId);
  EXPECT_EQ(vocab.size(), 1u);
}

TEST(VocabularyTest, CountsAccumulate) {
  Vocabulary vocab;
  vocab.AddToken("x", 2);
  vocab.AddToken("x", 3);
  EXPECT_EQ(vocab.CountOf(0), 5);
}

TEST(VocabularyTest, TokenOfRoundTrips) {
  Vocabulary vocab;
  const TokenId id = vocab.AddToken("roundtrip");
  EXPECT_EQ(vocab.TokenOf(id), "roundtrip");
}

// -------------------------------------------------------- NameGenerator.

TEST(NameGeneratorTest, NamesAreUnique) {
  NameGenerator names(Rng(1));
  std::set<std::string> seen;
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(seen.insert(names.NextName(2, 0)).second);
  }
  EXPECT_EQ(names.generated_count(), 2000u);
}

TEST(NameGeneratorTest, RespectsWordBounds) {
  NameGenerator names(Rng(2));
  for (int i = 0; i < 200; ++i) {
    const std::string name = names.NextName(2, 3, 2);
    // Exactly two words when min == max == 2.
    EXPECT_EQ(std::count(name.begin(), name.end(), ' '), 1)
        << "name: " << name;
  }
}

TEST(NameGeneratorTest, SingleWordNames) {
  NameGenerator names(Rng(3));
  for (int i = 0; i < 50; ++i) {
    const std::string name = names.NextName(1, 0);
    EXPECT_EQ(name.find(' '), std::string::npos);
  }
}

TEST(NameGeneratorTest, DeterministicForEqualSeeds) {
  NameGenerator a(Rng(42));
  NameGenerator b(Rng(42));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextName(2, 1), b.NextName(2, 1));
  }
}

TEST(NameGeneratorTest, NamesAreLowercaseAlpha) {
  NameGenerator names(Rng(7));
  for (int i = 0; i < 100; ++i) {
    for (char c : names.NextName(2, 2)) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == ' ') << c;
    }
  }
}

}  // namespace
}  // namespace ultrawiki
