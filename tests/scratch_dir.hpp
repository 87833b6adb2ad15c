// Per-test scratch directories for the journal and recovery suites.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

#include "support/io.hpp"

namespace partita {

/// A directory named TempDir()/<prefix>_<pid>_<tag>_<n> that lives as long
/// as the guard. Whatever already sits at that path is removed first: pids
/// wrap, so a later run can meet a directory an interrupted earlier run left
/// behind. The directory is removed again when the guard goes out of scope.
class ScratchDir {
 public:
  ScratchDir(const std::string& prefix, const std::string& tag)
      : path_(::testing::TempDir() + prefix + "_" + std::to_string(::getpid()) + "_" +
              tag + "_" + std::to_string(counter_++)) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    EXPECT_FALSE(ec) << path_ << ": " << ec.message();
    EXPECT_TRUE(support::io::make_dirs(path_));
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

}  // namespace partita
