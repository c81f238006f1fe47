#ifndef HSIS_COMMON_FILE_H_
#define HSIS_COMMON_FILE_H_

#include <string>
#include <string_view>

#include "common/result.h"

namespace hsis {

/// Writes `content` to `path`, creating or replacing the file
/// atomically: the bytes go to a sibling temporary
/// `<path>.tmp.<pid>.<n>` (unique per call, also across threads), which
/// is then renamed over `path`. A concurrent reader therefore sees the
/// old file or the new one whole, never a torn one, however many
/// writers race. A failed write removes its temporary; a process killed
/// mid-write may leave one behind, which no reader of `path` sees. A
/// `path` that exists but is not a regular file (a device, a FIFO, a
/// symlink) is written in place instead. Durability across power loss
/// (`fsync`) is not promised.
Status WriteFile(const std::string& path, std::string_view content);

/// Reads the whole file at `path`.
Result<std::string> ReadFile(const std::string& path);

/// Creates `path` and any missing parents (no-op when it already
/// exists), like `mkdir -p`.
Status CreateDirectories(const std::string& path);

/// Deletes the file at `path` if it exists; missing files are OK.
Status RemoveFileIfExists(const std::string& path);

/// True iff a file (or directory) exists at `path`.
bool FileExists(const std::string& path);

/// Moves the file at `from` to `to` (same filesystem), overwriting any
/// existing file at `to`. NotFound when `from` does not exist.
Status RenameFile(const std::string& from, const std::string& to);

}  // namespace hsis

#endif  // HSIS_COMMON_FILE_H_
