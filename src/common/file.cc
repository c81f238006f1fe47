#include "common/file.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace hsis {

Status WriteFile(const std::string& path, std::string_view content) {
  // A path that exists but is not a regular file (a device, a FIFO, a
  // symlink such as /dev/stdout) is written in place: a rename would
  // replace it rather than write through it.
  std::error_code ec;
  const std::filesystem::file_type type =
      std::filesystem::symlink_status(path, ec).type();
  const bool in_place = type != std::filesystem::file_type::not_found &&
                        type != std::filesystem::file_type::regular;
  // Unique per call: in-process writers share one pid.
  static std::atomic<uint64_t> sequence{0};
  const std::string target =
      in_place ? path
               : path + ".tmp." + std::to_string(::getpid()) + "." +
                     std::to_string(sequence.fetch_add(1));
  std::ofstream out(target, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  if (!out) {
    if (!in_place) std::filesystem::remove(target, ec);
    return Status::Internal("write failed: " + path);
  }
  if (in_place) return Status::OK();
  std::filesystem::rename(target, path, ec);
  if (ec) {
    Status failed = Status::Internal("cannot rename " + target + " -> " +
                                     path + ": " + ec.message());
    std::filesystem::remove(target, ec);
    return failed;
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::Internal("read failed: " + path);
  }
  return buffer.str();
}

Status CreateDirectories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::Internal("cannot create directory " + path + ": " +
                            ec.message());
  }
  return Status::OK();
}

Status RemoveFileIfExists(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    return Status::Internal("cannot remove " + path + ": " + ec.message());
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (!FileExists(from)) {
    return Status::NotFound("cannot rename, no such file: " + from);
  }
  std::error_code ec;
  std::filesystem::rename(from, to, ec);
  if (ec) {
    return Status::Internal("cannot rename " + from + " -> " + to + ": " +
                            ec.message());
  }
  return Status::OK();
}

}  // namespace hsis
