#include "common/logging.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace simty {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::instance().set_sink([this](LogLevel level, const std::string& msg) {
      captured_.emplace_back(level, msg);
    });
    Logger::instance().set_level(LogLevel::kDebug);
  }
  void TearDown() override {
    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(LogLevel::kWarn);
  }
  std::vector<std::pair<LogLevel, std::string>> captured_;
};

TEST_F(LoggingTest, RoutesToSink) {
  SIMTY_INFO("hello");
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].first, LogLevel::kInfo);
  EXPECT_EQ(captured_[0].second, "hello");
}

TEST_F(LoggingTest, LevelFiltersBelow) {
  Logger::instance().set_level(LogLevel::kWarn);
  SIMTY_DEBUG("drop");
  SIMTY_INFO("drop");
  SIMTY_WARN("keep");
  SIMTY_ERROR("keep");
  EXPECT_EQ(captured_.size(), 2u);
}

TEST_F(LoggingTest, OffDropsEverything) {
  Logger::instance().set_level(LogLevel::kOff);
  SIMTY_ERROR("drop");
  EXPECT_TRUE(captured_.empty());
}

// The macros evaluate their message only at an enabled level: a disabled
// SIMTY_DEBUG(str_format(...)) on a hot path must cost nothing but the
// level check.
TEST_F(LoggingTest, MessageAtDisabledLevelIsNeverEvaluated) {
  int evaluated = 0;
  const auto message = [&evaluated] {
    ++evaluated;
    return std::string("msg");
  };

  Logger::instance().set_level(LogLevel::kWarn);
  SIMTY_DEBUG(message());
  SIMTY_INFO(message());
  EXPECT_EQ(evaluated, 0);
  SIMTY_WARN(message());
  EXPECT_EQ(evaluated, 1);
  SIMTY_ERROR(message());
  EXPECT_EQ(evaluated, 2);

  Logger::instance().set_level(LogLevel::kOff);
  SIMTY_DEBUG(message());
  SIMTY_INFO(message());
  SIMTY_WARN(message());
  SIMTY_ERROR(message());
  EXPECT_EQ(evaluated, 2);

  Logger::instance().set_level(LogLevel::kDebug);
  SIMTY_DEBUG(message());
  EXPECT_EQ(evaluated, 3);
  EXPECT_EQ(captured_.size(), 3u);
}

TEST_F(LoggingTest, MacroIsASingleStatement) {
  // Without braces, an if/else around the macro only compiles and binds
  // correctly if the macro expands to exactly one statement.
  for (const bool flag : {true, false}) {
    captured_.clear();
    if (flag)
      SIMTY_DEBUG("then");
    else
      SIMTY_INFO("else");
    ASSERT_EQ(captured_.size(), 1u);
    EXPECT_EQ(captured_[0].second, flag ? "then" : "else");
  }
}

TEST_F(LoggingTest, EnabledMatchesWhatReachesTheSink) {
  Logger::instance().set_level(LogLevel::kInfo);
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kDebug));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kError));
  Logger::instance().set_level(LogLevel::kOff);
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kError));
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kOff));
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(to_string(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(to_string(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace simty
