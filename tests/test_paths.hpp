// Per-test scratch paths. ctest -j runs every test case as its own process,
// in parallel, so two cases writing one fixed temp name race: one case's
// rewrite or cleanup pulls the file out from under the other. TestTempPath
// prefixes every name with the running test's full name (suite, test and
// parameter), so no two cases share a path.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <string>

namespace gcm {

/// A fresh path under the test temp dir for `name`, unique to the running
/// test case; whatever an earlier run left there (file or directory tree)
/// is removed first.
inline std::string TestTempPath(const std::string& name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string prefix =
      std::string(test->test_suite_name()) + "." + test->name();
  for (char& c : prefix) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / (prefix + "_" + name);
  std::filesystem::remove_all(path);
  return path.string();
}

}  // namespace gcm
