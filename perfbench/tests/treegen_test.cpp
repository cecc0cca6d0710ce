// The seeded tree generator is the benchmark's only input source: the
// same seed must give byte-identical trees on disk (and the same edit
// schedule), different seeds must give different trees of the same
// size.  Run with `ctest --test-dir <build>/perfbench`.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "treegen.h"

namespace fs = std::filesystem;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

/// Relative path -> bytes of every regular file under @p root.
std::map<std::string, std::string> snapshot(const fs::path& root) {
  std::map<std::string, std::string> out;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    out[fs::relative(e.path(), root).string()] = bytes.str();
  }
  return out;
}

std::map<std::string, std::string> written(const std::string& root,
                                           std::uint64_t seed) {
  perfbench::TreeShape shape;
  shape.files = 300;
  shape.dirs = 7;
  shape.large_units = 1;
  shape.large_bytes = 64 * 1024;
  perfbench::write_tree(perfbench::make_tree(root, shape, seed));
  return snapshot(root);
}

std::vector<std::size_t> schedule(std::uint64_t seed) {
  perfbench::EditSchedule s(seed, 2000);
  std::vector<std::size_t> all;
  for (int op = 0; op < 300; ++op) {
    const std::vector<std::size_t> picked = s.next();
    all.push_back(picked.size());
    all.insert(all.end(), picked.begin(), picked.end());
  }
  return all;
}

}  // namespace

int main() {
  const fs::path dir = fs::current_path() / "treegen_test_trees";
  fs::remove_all(dir);

  const auto a = written((dir / "a").string(), 42);
  const auto b = written((dir / "b").string(), 42);
  const auto c = written((dir / "c").string(), 43);
  check(a.size() == 301, "300 small files plus one large unit");
  check(a == b, "same seed gives byte-identical trees");
  check(a != c, "different seeds give different trees");

  std::size_t bytes_a = 0, bytes_c = 0;
  for (const auto& [path, bytes] : a) bytes_a += bytes.size();
  for (const auto& [path, bytes] : c) bytes_c += bytes.size();
  check(bytes_a == bytes_c, "different seeds give trees of the same size");

  check(schedule(7) == schedule(7), "same seed gives the same edit schedule");
  check(schedule(7) != schedule(8), "different seeds give different edits");

  fs::remove_all(dir);
  if (failures == 0) std::cout << "treegen_test: ok\n";
  return failures == 0 ? 0 : 1;
}
