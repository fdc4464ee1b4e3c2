// Whole-file writes that never leave a partial file behind.
//
// Every program file this library writes (graph files, campaign JSONL,
// bench baselines) goes through write_file_atomically: the content is
// streamed into a `path + ".tmp"` sibling, which is renamed onto `path`
// only once it was written completely. Any failure removes the sibling
// and leaves `path` as it was.
#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <string>
#include <system_error>

#include "scol/util/check.h"

namespace scol {

/// The file could not be created, written or moved into place — a
/// runtime failure of the environment, not of the caller's input. It is
/// a PreconditionError so existing handlers keep catching it; callers
/// that map failures to exit codes catch it first.
class FileWriteError : public PreconditionError {
 public:
  explicit FileWriteError(const std::string& what)
      : PreconditionError(what) {}
};

/// Streams `fill(out)` into `path + ".tmp"` and renames it onto `path`.
/// Throws FileWriteError when the file cannot be opened, written or
/// renamed; an exception from `fill` propagates unchanged. Either way the
/// temp file is removed and `path` is untouched.
inline void write_file_atomically(
    const std::string& path, const std::function<void(std::ostream&)>& fill) {
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) throw FileWriteError(path + ": cannot open file for writing");
    fill(out);
    out.close();
    if (!out) throw FileWriteError(path + ": write failed");
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
      throw FileWriteError(path + ": cannot move the written file into "
                           "place: " + ec.message());
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

}  // namespace scol
