#include "alarm/similarity.hpp"

#include "common/check.hpp"

namespace simty::alarm {

const char* to_string(SimilarityLevel l) {
  switch (l) {
    case SimilarityLevel::kHigh: return "high";
    case SimilarityLevel::kMedium: return "medium";
    case SimilarityLevel::kLow: return "low";
  }
  return "?";
}

const char* to_string(HardwareSimilarityMode m) {
  switch (m) {
    case HardwareSimilarityMode::kTwoLevel: return "2-level";
    case HardwareSimilarityMode::kThreeLevel: return "3-level";
    case HardwareSimilarityMode::kFourLevel: return "4-level";
  }
  return "?";
}

const char* to_string(TimeSimilarityMode m) {
  switch (m) {
    case TimeSimilarityMode::kThreeLevel: return "3-level";
    case TimeSimilarityMode::kWindowOnly: return "window-only";
  }
  return "?";
}

void detail::unknown_hardware_mode() {
  SIMTY_CHECK_MSG(false, "unknown hardware similarity mode");
}

int max_hardware_grade(HardwareSimilarityMode mode) {
  switch (mode) {
    case HardwareSimilarityMode::kTwoLevel: return 1;
    case HardwareSimilarityMode::kThreeLevel: return 2;
    case HardwareSimilarityMode::kFourLevel: return 3;
  }
  detail::unknown_hardware_mode();
}

void detail::check_preferability_operands(int hw_grade, SimilarityLevel time) {
  SIMTY_CHECK_MSG(time != SimilarityLevel::kLow,
                  "low time similarity is never applicable (Table 1: infinity)");
  SIMTY_CHECK(hw_grade >= 0);
}

}  // namespace simty::alarm
