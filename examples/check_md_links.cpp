// Relative-link checker for the repository's Markdown docs, used by the
// docs CI job (.github/workflows/ci.yml).
//
//   check_md_links FILE.md...          # or directories to scan for *.md
//
// Every inline link or image `[text](target)` whose target is not an
// external URL or pure in-page anchor must resolve, relative to the
// file that contains it, to an existing file or directory (an optional
// `#fragment` is stripped first). Broken links are listed and the exit
// code is 1, so a doc rename that orphans references fails the build.
//
// Deliberately standard-library-only: the docs job compiles just this
// file, not the scientific stack, so it cannot read its command line
// through common/flags.h. It keeps that contract by hand: it has no
// flags, so any "--" argument is an unknown flag and exits 2.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

bool IsExternal(const std::string& target) {
  return target.rfind("http://", 0) == 0 || target.rfind("https://", 0) == 0 ||
         target.rfind("mailto:", 0) == 0 || target.rfind("ftp://", 0) == 0;
}

// Extracts the target of every inline `[...](target)` on `line`,
// tolerating one level of nested brackets in the link text (images
// inside links). Code spans are skipped so `[i](x)` inside backticks is
// not a link.
std::vector<std::string> LinkTargets(const std::string& line) {
  std::vector<std::string> targets;
  bool in_code = false;
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '`') {
      in_code = !in_code;
      continue;
    }
    if (in_code || line[i] != '[') continue;
    int depth = 1;
    size_t j = i + 1;
    while (j < line.size() && depth > 0) {
      if (line[j] == '[') ++depth;
      if (line[j] == ']') --depth;
      ++j;
    }
    if (depth != 0 || j >= line.size() || line[j] != '(') continue;
    size_t close = line.find(')', j + 1);
    if (close == std::string::npos) continue;
    targets.push_back(line.substr(j + 1, close - j - 1));
    i = close;
  }
  return targets;
}

int CheckFile(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.string().c_str());
    return 1;
  }
  int broken = 0;
  std::string line;
  int line_no = 0;
  bool in_fence = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.rfind("```", 0) == 0) {
      in_fence = !in_fence;
      continue;
    }
    if (in_fence) continue;
    for (const std::string& raw : LinkTargets(line)) {
      std::string target = raw;
      // Drop an optional title: [x](file.md "title")
      if (size_t space = target.find(' '); space != std::string::npos) {
        target = target.substr(0, space);
      }
      if (target.empty() || IsExternal(target) || target[0] == '#') continue;
      if (size_t hash = target.find('#'); hash != std::string::npos) {
        target = target.substr(0, hash);
      }
      fs::path resolved = path.parent_path() / target;
      std::error_code ec;
      if (!fs::exists(resolved, ec)) {
        std::printf("%s:%d: broken link -> %s\n", path.string().c_str(),
                    line_no, raw.c_str());
        ++broken;
      }
    }
  }
  return broken;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr char kUsage[] = "usage: check_md_links FILE.md|DIR...\n";
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--")) {
      std::fprintf(stderr, "unknown flag %s\n%s", argv[i], kUsage);
      return 2;
    }
  }
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  std::vector<fs::path> files;
  for (int i = 1; i < argc; ++i) {
    fs::path arg = argv[i];
    std::error_code ec;
    if (fs::is_directory(arg, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(arg)) {
        if (entry.is_regular_file() && entry.path().extension() == ".md" &&
            entry.path().string().find("/build/") == std::string::npos &&
            entry.path().string().find("/.git/") == std::string::npos) {
          files.push_back(entry.path());
        }
      }
    } else {
      files.push_back(arg);
    }
  }
  int broken = 0;
  for (const fs::path& file : files) broken += CheckFile(file);
  if (broken > 0) {
    std::printf("%d broken link(s)\n", broken);
    return 1;
  }
  std::printf("checked %zu markdown file(s): all relative links resolve\n",
              files.size());
  return 0;
}
